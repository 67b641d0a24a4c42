"""The REST + websocket surface of the job service.

Routes::

    GET    /                      service banner + route list
    GET    /scenarios             registry catalog (components + params)
    GET    /scenarios/schema      JSON Schema for ScenarioSpec payloads
    GET    /jobs                  job table (id, kind, state per job)
    POST   /jobs                  submit (body = job request JSON)
    GET    /jobs/{id}             status + progress counters
    GET    /jobs/{id}/result      final result payload (done jobs)
    DELETE /jobs/{id}             cancel (idempotent)
    GET    /jobs/{id}/stream      websocket: replay + live tail

Every error body is ``{"error": <named-code>, "detail": <text>}``; the
quota tiers add ``Retry-After`` where retrying can help.  Clients
identify themselves with an ``X-Client-Token`` header (absent tokens
share the ``"anonymous"`` bucket).
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

from ..experiments.fabric import fleet_snapshot
from ..obs import metrics as obs_metrics
from .jobs import JobManager, JobRejected
from .protocol import (
    HTTPRequest,
    WebSocket,
    error_response,
    handshake_response,
    json_response,
    response_bytes,
)
from .quotas import QuotaPolicy
from .stream import stream_job

CLIENT_HEADER = "x-client-token"
ANONYMOUS = "anonymous"

ROUTES = (
    "GET /", "GET /metrics", "GET /scenarios", "GET /scenarios/schema",
    "GET /jobs", "POST /jobs", "GET /jobs/{id}", "GET /jobs/{id}/result",
    "DELETE /jobs/{id}", "GET /jobs/{id}/stream",
)

_QUOTA_REJECTIONS = obs_metrics.counter(
    "repro_quota_rejections_total",
    "Submissions bounced by the quota policy",
    ("code",))


class ServiceApi:
    """Dispatches parsed requests against the manager + quota policy."""

    def __init__(self, manager: JobManager, quota: QuotaPolicy) -> None:
        self.manager = manager
        self.quota = quota
        #: set during SIGTERM drain — submissions bounce with 503
        self.draining = False

    # -- plain HTTP --------------------------------------------------------
    def dispatch(self, request: HTTPRequest) -> bytes:
        """Handle one non-websocket request; returns the raw response."""
        parts = [p for p in request.path.split("/") if p]
        try:
            if not parts:
                return self._banner(request)
            if parts[0] == "metrics" and len(parts) == 1:
                return self._metrics(request)
            if parts[0] == "scenarios":
                return self._scenarios(request, parts)
            if parts[0] == "jobs":
                return self._jobs(request, parts)
            return error_response(404, "not-found",
                                  f"no route for {request.path!r}")
        except JobRejected as exc:
            _QUOTA_REJECTIONS.labels(code=exc.code).inc()
            headers = {}
            if exc.retry_after is not None:
                headers["Retry-After"] = str(exc.retry_after)
            return error_response(exc.status, exc.code, exc.detail,
                                  headers=headers)

    def _banner(self, request: HTTPRequest) -> bytes:
        if request.method != "GET":
            return error_response(405, "method-not-allowed", request.method)
        return json_response(200, {"service": "repro", "routes": ROUTES})

    def _metrics(self, request: HTTPRequest) -> bytes:
        """Prometheus exposition: this process's meter folded with every
        job's fleet snapshot (its drain workers' delta snapshots), so
        kernel and per-job families show up next to the service's own."""
        if request.method != "GET":
            return error_response(405, "method-not-allowed", request.method)
        snapshot = obs_metrics.DEFAULT.snapshot()
        for job_id in sorted(self.manager.jobs):
            snapshot = obs_metrics.merge_snapshots(
                snapshot, fleet_snapshot(self.manager.store_dir(job_id)))
        body = obs_metrics.encode_prometheus(snapshot).encode("utf-8")
        return response_bytes(200, body,
                              content_type=obs_metrics.CONTENT_TYPE)

    def _scenarios(self, request: HTTPRequest, parts) -> bytes:
        from ..registry import REGISTRY

        if request.method != "GET":
            return error_response(405, "method-not-allowed", request.method)
        if len(parts) == 1:
            return json_response(200, {"categories": REGISTRY.describe()})
        if parts[1] == "schema" and len(parts) == 2:
            from ..registry.schema import scenario_json_schema

            return json_response(200, scenario_json_schema())
        return error_response(404, "not-found",
                              f"no route for {request.path!r}")

    def _jobs(self, request: HTTPRequest, parts) -> bytes:
        manager = self.manager
        if len(parts) == 1:
            if request.method == "POST":
                return self._submit(request)
            if request.method == "GET":
                jobs = sorted(manager.jobs.values(), key=lambda j: j.seq)
                return json_response(200, {"jobs": [
                    {"id": j.id, "kind": j.kind, "state": j.state}
                    for j in jobs]})
            return error_response(405, "method-not-allowed", request.method)

        job = manager.get(parts[1])
        if job is None:
            return error_response(404, "no-such-job", parts[1])
        if len(parts) == 2:
            if request.method == "GET":
                return json_response(200, job.view(manager.progress(job)))
            if request.method == "DELETE":
                return json_response(200, manager.cancel(job.id).view())
            return error_response(405, "method-not-allowed", request.method)
        if len(parts) == 3 and parts[2] == "result":
            if request.method != "GET":
                return error_response(405, "method-not-allowed", request.method)
            return self._result(job)
        if len(parts) == 3 and parts[2] == "stream":
            # reached over plain HTTP: the route exists, but only as ws
            return error_response(426, "upgrade-required",
                                  "this route speaks websocket; send an "
                                  "Upgrade: websocket handshake")
        return error_response(404, "not-found", f"no route for {request.path!r}")

    def _submit(self, request: HTTPRequest) -> bytes:
        if self.draining:
            return error_response(
                503, "draining", "server is shutting down",
                headers={"Retry-After": str(self.quota.retry_after)})
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return error_response(400, "bad-json", str(exc))
        client = request.header(CLIENT_HEADER, ANONYMOUS) or ANONYMOUS
        job = self.manager.submit(payload, client, self.quota)
        return json_response(201, job.view(self.manager.progress(job)))

    def _result(self, job) -> bytes:
        if job.state == "failed":
            detail = (job.error or {}).get("detail", "job failed")
            return error_response(409, "job-failed", detail)
        if job.state != "done":
            return error_response(409, "not-done",
                                  f"job is {job.state}; result exists only "
                                  "for done jobs")
        try:
            text = self.manager.result_path(job.id).read_text()
        except OSError:
            return error_response(500, "result-missing",
                                  "job is done but its result file is gone")
        return json_response(200, {"id": job.id, "result": json.loads(text)})

    # -- websocket ---------------------------------------------------------
    def stream_target(self, request: HTTPRequest) -> Optional[Tuple[str, bytes]]:
        """For an upgrade request: ``(job_id, None)`` when routable, else
        ``(None, error-bytes)`` to send and hang up."""
        parts = [p for p in request.path.split("/") if p]
        if len(parts) != 3 or parts[0] != "jobs" or parts[2] != "stream":
            return None, error_response(404, "not-found",
                                        f"no websocket at {request.path!r}")
        if not request.header("sec-websocket-key"):
            return None, error_response(400, "bad-handshake",
                                        "missing Sec-WebSocket-Key")
        if self.manager.get(parts[1]) is None:
            return None, error_response(404, "no-such-job", parts[1])
        return parts[1], b""

    async def handle_stream(self, request: HTTPRequest, reader, writer) -> None:
        """Complete the handshake and serve the stream until it ends."""
        job_id, err = self.stream_target(request)
        if job_id is None:
            writer.write(err)
            await writer.drain()
            return
        writer.write(handshake_response(request.header("sec-websocket-key")))
        await writer.drain()
        ws = WebSocket(reader, writer)
        await stream_job(self.manager, self.manager.get(job_id), ws)
