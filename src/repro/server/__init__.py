"""Crash-safe design-as-a-service: durable queue, recovery, HTTP API.

The service turns the optimizer portfolio into a long-running process that
survives being killed at any instant:

* :mod:`repro.server.records` -- CRC-validated durable job records,
* :mod:`repro.server.jobstore` -- the one-directory-per-job queue, owned
  by one object at a time (an exclusive lock on its root),
* :mod:`repro.server.validation` -- submissions rejected at the door,
* :mod:`repro.server.executor` -- spec -> deterministic portfolio run,
* :mod:`repro.server.worker` -- claiming workers + restart-time recovery,
* :mod:`repro.server.api` -- stdlib HTTP routes, health/readiness,
  ``/metrics`` exposition, and chunked ``follow=1`` event streams,
* :mod:`repro.server.service` -- process composition + graceful drain,
* :mod:`repro.server.client` -- the urllib client behind ``repro submit``,
* :mod:`repro.server.dashboard` -- the ``repro top`` terminal dashboard.

See ``docs/SERVICE.md`` for the API reference and recovery semantics.
"""

from ..errors import (
    JobError,
    JobNotFoundError,
    JobQueueFullError,
    JobRecordError,
    JobStateError,
    JobStoreLockedError,
    JobValidationError,
    ServerBindError,
)
from .api import ApiServer
from .client import ServiceClient
from .dashboard import TopMonitor, render, run_top
from .executor import SimulationExecutor
from .jobstore import JobStore
from .records import (
    JOB_STATES,
    JobRecord,
    STATE_COMPLETED,
    STATE_PENDING,
    STATE_QUARANTINED,
    STATE_RUNNING,
    TERMINAL_STATES,
    read_record,
    write_record,
)
from .service import DesignService
from .validation import validate_submission
from .worker import Worker, recover_running

__all__ = [
    "ApiServer",
    "DesignService",
    "JOB_STATES",
    "JobError",
    "JobNotFoundError",
    "JobQueueFullError",
    "JobRecord",
    "JobRecordError",
    "JobStateError",
    "JobStore",
    "JobStoreLockedError",
    "JobValidationError",
    "STATE_COMPLETED",
    "STATE_PENDING",
    "STATE_QUARANTINED",
    "STATE_RUNNING",
    "ServerBindError",
    "ServiceClient",
    "SimulationExecutor",
    "TERMINAL_STATES",
    "TopMonitor",
    "Worker",
    "read_record",
    "recover_running",
    "render",
    "run_top",
    "validate_submission",
    "write_record",
]
