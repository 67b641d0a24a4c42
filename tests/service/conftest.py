"""Fixtures for the service suite: live servers on ephemeral ports."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.service import QuotaPolicy, ServiceConfig, ServiceThread

#: a small, fully-specified scenario every service test can submit
SG_SPEC = {
    "game": {"name": "sg", "params": {"mode": "sum"}},
    "topology": {"name": "budget", "params": {"budget": 2}},
}


def trial_payload(n: int = 8, trials: int = 3, seed: int = 5, **extra) -> dict:
    return {"kind": "trial", "spec": SG_SPEC, "n": n, "trials": trials,
            "seed": seed, **extra}


class LoopRunner:
    """Runs one manager's scheduler loop in bursts on one event loop.

    Drains outlive each burst (their tasks wait on the same loop), as
    they do in a long-lived server, so a test can act between bursts —
    cancel, kill a worker — on a single thread.  :meth:`close` stops
    whatever is still running, exactly like a service shutdown.
    """

    def __init__(self, manager) -> None:
        self.manager = manager
        self.loop = asyncio.new_event_loop()

    def until(self, condition, timeout: float = 60.0) -> None:
        async def go():
            stop = asyncio.Event()
            task = asyncio.ensure_future(self.manager.run(stop))
            try:
                deadline = time.monotonic() + timeout
                while not condition():
                    if task.done():
                        task.result()  # the loop died: surface why
                    if time.monotonic() > deadline:
                        raise TimeoutError("condition not reached")
                    await asyncio.sleep(0.02)
            finally:
                stop.set()
                await task

        self.loop.run_until_complete(go())

    def close(self) -> None:
        try:
            self.loop.run_until_complete(self.manager.drain())
        finally:
            self.loop.close()


def drive(manager, condition, timeout: float = 60.0) -> None:
    """Run ``manager``'s scheduler until ``condition()``, then shut down."""
    runner = LoopRunner(manager)
    try:
        runner.until(condition, timeout)
    finally:
        runner.close()


@pytest.fixture
def service_factory(tmp_path):
    """Start ServiceThread instances that are torn down after the test."""
    started = []

    def start(workers: int = 1, quota: QuotaPolicy = QuotaPolicy(),
              state_dir=None, **kwargs) -> ServiceThread:
        config = ServiceConfig(
            state_dir=state_dir or tmp_path / f"svc{len(started)}",
            workers=workers, quota=quota, **kwargs)
        svc = ServiceThread(config).start()
        started.append(svc)
        return svc

    yield start
    for svc in started:
        svc.stop()
