"""Service composition: store + workers + HTTP, one process.

:class:`DesignService` wires the pieces together the way ``repro serve``
runs them:

* one :class:`~repro.server.jobstore.JobStore` owning a chosen root (a
  second service on the same root fails with
  :class:`~repro.errors.JobStoreLockedError`),
* ``n_workers`` :class:`~repro.server.worker.Worker` threads claiming and
  executing jobs in-process,
* one :class:`~repro.server.api.ApiServer` exposing the HTTP routes, with
  a readiness hook that reports dead worker threads and evaluation-pool
  degradation (the ``parallel.degraded`` counter); an address it cannot
  listen on fails with :class:`~repro.errors.ServerBindError` and frees
  the root again.

Start-up first settles the jobs a dead predecessor left ``running``
(:func:`~repro.server.worker.recover_running`), then starts the workers
and the listener.

Graceful shutdown (SIGTERM or :meth:`stop`): flip the API into draining
mode (submissions get 503 + ``Retry-After``, reads keep serving), set the
workers' stop flag so in-flight jobs checkpoint at the next round boundary
and return to ``pending`` -- un-attempted, resumable by the next process --
and wake the store so idle workers and ``follow=1`` streams see the flag
at once, then join every thread, close the listener and free the root.
Nothing is lost; that is the whole point of the durable queue underneath.

Process lifecycle is wall-clock territory, which the nondeterminism source
guard allows in ``repro.server``.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import List, Optional, Tuple, Union

from .. import profiling
from ..errors import ServerBindError
from ..telemetry import runlog
from .api import ApiServer
from .jobstore import JobStore
from .worker import Worker, recover_running

__all__ = ["DesignService"]


class DesignService:
    """The whole design-as-a-service process, minus signal handling.

    Args:
        root: Job-store root directory.
        host / port: API bind address (``port=0`` picks a free port).
        n_workers: Worker threads executing jobs.
        tenant_cap: Per-tenant active-job cap (429 past it).
        run_log: Optional JSONL path for service lifecycle events.
        trace_jobs: Export a stitched Chrome/Perfetto trace per executed
            job (``GET /v1/jobs/<id>/trace``); off by default because the
            tracer is live overhead on every span site.
        stream_heartbeat: Idle heartbeat interval of ``follow=1`` event
            streams [unit: s].
    """

    def __init__(
        self,
        root: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        n_workers: int = 1,
        tenant_cap: int = 8,
        run_log: Optional[str] = None,
        trace_jobs: bool = False,
        stream_heartbeat: float = 5.0,
    ):
        self.store = JobStore(root, tenant_cap=tenant_cap)
        self._stop = threading.Event()
        self.workers = [
            Worker(
                self.store,
                worker_id=f"worker-{i}",
                trace_jobs=trace_jobs,
            )
            for i in range(max(n_workers, 1))
        ]
        try:
            self.api = ApiServer(
                self.store,
                host=host,
                port=port,
                ready_check=self._ready_check,
                stream_heartbeat=stream_heartbeat,
            )
        except ServerBindError:
            self.store.close()  # free the root for the next try
            raise
        self._threads: List[threading.Thread] = []
        self._run_log = runlog.RunLog(run_log) if run_log else None

    # -- readiness -----------------------------------------------------

    def _ready_check(self) -> Tuple[bool, str]:
        alive = sum(1 for t in self._threads if t.is_alive())
        expected = len(self.workers)
        degraded_evals = profiling.counter("parallel.degraded")
        if self._threads and alive < expected:
            return (
                False,
                f"{expected - alive} of {expected} scheduler threads dead",
            )
        if degraded_evals:
            return (
                True,
                f"evaluation pool degraded {degraded_evals}x (serial "
                f"fallback for the rest of that job)",
            )
        return True, f"{len(self.workers)} workers alive"

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The API's bound port."""
        return self.api.port

    def start(self) -> None:
        """Settle orphaned jobs, then start the workers and the listener."""
        previous = runlog.set_run_log(self._run_log) if self._run_log else None
        del previous  # service owns the log for its whole lifetime
        recover_running(self.store)
        for worker in self.workers:
            thread = threading.Thread(
                target=worker.run_forever,
                args=(self._stop.is_set,),
                name=worker.worker_id,
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self.api.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Drain gracefully: checkpoint in-flight work, shut down, and
        free the store root."""
        self.api.draining.set()
        runlog.emit_event("server.drain", jobs=self.store.queue_depth())
        self._stop.set()
        self.store.wake()  # idle workers see the stop flag now, not next poll
        for thread in self._threads:
            thread.join(timeout=timeout)
        self.api.shutdown()
        self.store.close()
        if self._run_log is not None:
            runlog.set_run_log(None)
