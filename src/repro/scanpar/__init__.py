"""repro.scanpar — parallel sharded scene scanning.

Watershed-scale deployment scans whole NAIP scenes; this package makes
that scan both memory-bounded and multi-core:

* :class:`TileSource` — ``sliding_window_view`` micro-batch tiling:
  peak tile memory is one batch, not the whole scene's windows;
* :func:`partition_origins` — contiguous, micro-batch-aligned row-band
  shards (the alignment is what makes parallel results byte-identical);
* :class:`SharedArray` — the scene raster (and the per-shard result
  slabs) in shared memory, read and written zero-copy by every worker;
* :class:`WorkerPool` — persistent warm worker processes reused across
  scans, caching deserialized models (and their warmed compiled-engine
  programs) by content hash; :meth:`WorkerPool.run` is the one shard
  dispatch loop, supervised under a :class:`SupervisionPolicy` (shard
  deadlines, worker revival, poison-shard quarantine) and reporting
  what recovery did in a :class:`SupervisionReport`;
* :func:`parallel_scan_scene` — the sharded scan itself: adaptive
  ``n_workers="auto"`` policy, engine-warm pooled workers,
  shared-memory result return, deterministic merge, per-shard journals
  folded into one resumable journal.

See ``docs/scanning.md`` for the sharding model, the determinism
contract, the pool lifecycle, and the adaptive worker policy.
"""

from .parallel import (
    cpu_affinity_count,
    default_start_method,
    parallel_scan_scene,
    resolve_n_workers,
    spawn_cost_ms,
)
from .pool import (
    SupervisionPolicy,
    SupervisionReport,
    WorkerError,
    WorkerPool,
    get_pool,
    serialized_model,
    shutdown_pools,
    warm_pool,
)
from .sharding import Shard, describe_shard, partition_origins
from .shm import SharedArray, attach_array
from .tiling import TileSource
from .worker import ShardTask, run_shard

__all__ = [
    "TileSource",
    "Shard",
    "partition_origins",
    "describe_shard",
    "SharedArray",
    "attach_array",
    "ShardTask",
    "run_shard",
    "WorkerPool",
    "WorkerError",
    "SupervisionPolicy",
    "SupervisionReport",
    "get_pool",
    "warm_pool",
    "shutdown_pools",
    "serialized_model",
    "parallel_scan_scene",
    "default_start_method",
    "resolve_n_workers",
    "cpu_affinity_count",
    "spawn_cost_ms",
]
