"""repro.fleet — supervised multi-scene scan orchestration.

The scan stack below this package is already crash-*safe* (journals,
resume, byte-identical parallel merge) and survives shard-level faults:
:meth:`repro.scanpar.WorkerPool.run` supervises every parallel scan
(per-shard deadlines, hung/dead worker kill-and-revive with
redispatch, poison-shard quarantine with inline fallback).  This
package adds scene-level survival on top:

* :mod:`~repro.fleet.jobs` — scene-level: a durable JSONL job queue
  with leases, heartbeats, exponential-backoff retries
  (:class:`~repro.nas.retry.RetryPolicy`), and a dead-letter state;
* :mod:`~repro.fleet.orchestrator` — the sweep: claim a scene, scan it
  journaled-and-resumable under supervision, complete or retry.

See ``docs/fleet.md``.
"""

from ..scanpar import SupervisionPolicy, SupervisionReport
from .jobs import DEAD, DONE, LEASED, PENDING, JobQueue, JobQueueError, ScanJob
from .orchestrator import ScanFleet

__all__ = [
    "SupervisionPolicy",
    "SupervisionReport",
    "JobQueue",
    "JobQueueError",
    "ScanJob",
    "PENDING",
    "LEASED",
    "DONE",
    "DEAD",
    "ScanFleet",
]
