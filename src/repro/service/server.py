"""The asyncio server: accept loop, lifecycle, drain, embedding.

Three ways to run it::

    serve(ServiceConfig(...))            # blocking; installs SIGTERM/SIGINT
    async with/await ReproService(...)   # inside an existing event loop
    with ServiceThread(config) as svc:   # background thread (tests, bench,
        client = svc.client()            # quickstart) — own loop, own drain

SIGTERM drains like ``repro drain``: stop accepting submissions (503 +
Retry-After), stop every running job's fabric coordinator (its worker
finishes the current unit; after the grace period a second SIGTERM
releases the lease and SIGKILL is the backstop), requeue what was
interrupted, persist the job table, exit 0.  A SIGKILL instead loses
nothing either — restart on the same state dir and
:meth:`~repro.service.jobs.JobManager.recover` resumes the table.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Set

from ..obs import metrics as obs_metrics
from .api import ServiceApi
from .jobs import JobManager
from .protocol import (
    PayloadTooLarge,
    ProtocolError,
    error_response,
    read_request,
)
from .quotas import QuotaPolicy

_REQUEST_SECONDS = obs_metrics.histogram(
    "repro_request_seconds",
    "HTTP request latency (parse excluded, dispatch + write included)",
).labels()


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one service instance needs."""

    state_dir: Path
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is ReproService.port
    workers: int = 2
    quota: QuotaPolicy = field(default_factory=QuotaPolicy)
    poll_interval: float = 0.05
    kill_grace: float = 5.0
    max_body: int = 1 << 20
    banner: bool = False


class ReproService:
    """One running service instance inside the current event loop."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.manager = JobManager(
            Path(config.state_dir), workers=config.workers,
            poll_interval=config.poll_interval, kill_grace=config.kill_grace)
        self.api = ServiceApi(self.manager, config.quota)
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._scheduler: Optional[asyncio.Task] = None
        self._conns: Set[asyncio.Task] = set()
        self._stop = asyncio.Event()

    async def start(self) -> "ReproService":
        recovered = self.manager.recover()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._scheduler = asyncio.ensure_future(self.manager.run(self._stop))
        if self.config.banner:
            print(f"repro.service listening on {self.config.host}:{self.port} "
                  f"(jobs: {recovered['jobs']} recovered, "
                  f"{recovered['requeued']} requeued)", flush=True)
        return self

    def request_stop(self) -> None:
        """Begin the drain; idempotent, safe from a signal handler."""
        self.api.draining = True
        self._stop.set()

    async def until_stopped(self) -> None:
        await self._stop.wait()

    async def shutdown(self) -> None:
        """Drain and tear down: see the module docstring for the order."""
        self.request_stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.manager.drain()
        if self._scheduler is not None:
            await self._scheduler
        for task in list(self._conns):
            task.cancel()
        if self._conns:
            await asyncio.gather(*self._conns, return_exceptions=True)

    # -- one connection ----------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conns.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._conns.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError, asyncio.CancelledError):
                pass

    async def _serve_connection(self, reader, writer) -> None:
        try:
            request = await read_request(reader, max_body=self.config.max_body)
        except PayloadTooLarge as exc:
            writer.write(error_response(413, "payload-too-large", str(exc)))
            await writer.drain()
            return
        except ProtocolError as exc:
            writer.write(error_response(400, "bad-request", str(exc)))
            await writer.drain()
            return
        if request is None:
            return
        if request.wants_websocket:
            await self.api.handle_stream(request, reader, writer)
            return
        started = time.monotonic()
        try:
            response = self.api.dispatch(request)
        except Exception as exc:  # noqa: BLE001 — one bad request != dead server
            response = error_response(500, "internal-error", repr(exc))
        writer.write(response)
        await writer.drain()
        _REQUEST_SECONDS.observe(time.monotonic() - started)


async def _amain(config: ServiceConfig) -> None:
    service = ReproService(config)
    await service.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, service.request_stop)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread / platform without signal support
    await service.until_stopped()
    await service.shutdown()


def serve(config: ServiceConfig) -> int:
    """Run the service until SIGTERM/SIGINT, then drain; returns 0."""
    asyncio.run(_amain(config))
    return 0


class ServiceThread:
    """A service on a background thread — for tests, benches, examples.

    The thread runs its own event loop; :meth:`stop` triggers the same
    drain path as SIGTERM and joins.  Usable as a context manager.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._service: Optional[ReproService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def port(self) -> int:
        assert self._service is not None and self._service.port is not None
        return self._service.port

    @property
    def host(self) -> str:
        return self.config.host

    def start(self) -> "ServiceThread":
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        if self._service is None or self._service.port is None:
            raise RuntimeError("service did not come up within 30s")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._service is not None:
            try:
                self._loop.call_soon_threadsafe(self._service.request_stop)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout)

    def client(self, token: Optional[str] = None):
        from .client import ServiceClient

        return ServiceClient(self.host, self.port, token=token)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 — surfaced via start()
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        service = ReproService(self.config)
        self._service = service
        self._loop = asyncio.get_running_loop()
        await service.start()
        self._ready.set()
        await service.until_stopped()
        await service.shutdown()
