"""Worker-process entry point for sharded scene scanning.

Each worker receives one :class:`ShardTask` — a few ints, the shared
raster's name, and the model's content hash (plus its pickled bytes
only when the worker has not cached it yet), attaches to the scene in
shared memory, warms the compiled engine's program cache *once* for the
batch shapes its shard will actually run, and streams its contiguous
origin range through the backend.

Result return is shared-memory first: non-robust shards write their
``(confidences, boxes)`` into the parent-allocated result slab named by
``task.result`` (an ``(n, 5)`` block — column 0 the confidences,
columns 1:5 the boxes — sized from the shard's origin count), so no
ndarray is ever pickled back through the pipe; the reply is a small
metadata dict.  If the backend's output dtype does not match the slab
(the parent sizes slabs from a per-backend dtype map), the worker falls
back to returning the arrays inline — correctness never depends on the
map being right.  Robust shards run the per-tile sanitize/quarantine
loop from :mod:`repro.detect.scan` and journal into a per-shard JSONL
file the parent later absorbs; their per-tile records return through
the pipe as before (small, not ndarrays).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

import numpy as np

from .shm import attach_array
from .tiling import TileSource

__all__ = ["ShardTask", "run_shard"]


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs, picklable and raster-free."""

    shard_index: int
    start: int                    # origin-list index range [start, stop)
    stop: int
    shm: dict                     # SharedArray.spec() of the scene raster
    scene_size: int
    window: int
    stride: int
    batch_size: int
    backend: str
    confidence_threshold: float
    model_hash: str | None = None     # worker-side model cache key
    model_bytes: bytes | None = None  # pickled detector (cache-miss fill)
    result: dict | None = None        # SharedArray.spec() of the (n, 5)
    #                                   result slab (non-robust shards)
    robust: bool = False
    policy: object | None = None          # SanitizePolicy (robust only)
    journal_path: str | None = None       # shard journal (robust only)
    journal_meta: dict | None = None
    skip: frozenset = field(default_factory=frozenset)  # resumed indices


def _resolve_model(task: ShardTask, cache: dict | None) -> tuple[object, bool]:
    """(model, came_from_cache).  Pool workers pass their long-lived
    cache — the same model object (and therefore the same warmed
    ``compiled_for`` program cache) survives across scans."""
    if cache is not None and task.model_hash is not None:
        model = cache.get(task.model_hash)
        if model is not None:
            return model, True
    if task.model_bytes is None:
        raise RuntimeError(
            f"model {task.model_hash!r} is not in this worker's cache and "
            f"the task carries no model bytes; call pool.ensure_model() "
            f"before pool.run()"
        )
    model = pickle.loads(task.model_bytes)
    if cache is not None and task.model_hash is not None:
        cache[task.model_hash] = model
    return model, False


def _warm_engine(model, channels: int, window: int,
                 batch_sizes: list[int]) -> dict:
    """Pre-build the engine programs this shard will execute.

    Returns the payload fields ``warmup_ms``, ``sched_solves`` (IOS DP
    solves paid) and ``kernel_choices`` (``{batch: {conv step:
    variant}}`` of the warmed programs).  Compile is paid once per worker
    process — and, with a persistent pool, once per model *lifetime*,
    because warmup of an already-cached program costs nothing.  The
    solve count is the pool's schedule-shipping health signal: a worker
    seeded with the parent's schedules warms with zero solves."""
    from ..engine import compiled_for, sched

    model.eval()
    compiled = compiled_for(model)
    shape = (channels, window, window)
    solves_before = sched.stats()["solves"]
    warmup_ms = compiled.warmup(batch_sizes, shape)
    return {"warmup_ms": warmup_ms,
            "sched_solves": sched.stats()["solves"] - solves_before,
            "kernel_choices": {b: compiled.kernel_choices(b, shape)
                               for b in batch_sizes}}


_NOT_WARMED = {"warmup_ms": 0.0, "sched_solves": 0, "kernel_choices": {}}


def run_shard(task: ShardTask, model_cache: dict | None = None) -> dict:
    """Scan one shard; returns a small picklable result payload.

    ``model_cache`` is the pool worker's hash-keyed model cache; one-shot
    callers may omit it (the model is then unpickled from
    ``task.model_bytes`` every call, PR 5 behavior).
    """
    from ..detect.scan import (
        _make_tile_runner,
        _scan_tiles_robust,
        scan_origins,
    )

    model, model_cached = _resolve_model(task, model_cache)
    origins = scan_origins(task.scene_size, task.window, task.stride)
    span = origins[task.start:task.stop]
    with attach_array(task.shm) as shared:
        image = shared.array
        channels = image.shape[0]

        if task.robust:
            # per-tile isolation: every batch is one tile, warm that shape
            warm = _NOT_WARMED
            if task.backend == "engine":
                warm = _warm_engine(model, channels, task.window, [1])
            run, guarded = _make_tile_runner(model, task.backend)
            journal = None
            if task.journal_path is not None:
                from ..robust.journal import ScanJournal

                journal = ScanJournal(task.journal_path)
                journal.start(task.journal_meta)
            items = [(index, origins[index])
                     for index in range(task.start, task.stop)
                     if index not in task.skip]
            records = _scan_tiles_robust(
                run, image, items, window=task.window, policy=task.policy,
                confidence_threshold=task.confidence_threshold,
                journal=journal,
            )
            return {
                "shard": task.shard_index,
                "records": records,
                "fallbacks": (dict(guarded.fallback_by_reason)
                              if guarded is not None else {}),
                "model_cached": model_cached,
                **warm,
            }

        warm = _NOT_WARMED
        if task.backend == "engine":
            sizes = {min(task.batch_size, len(span))}
            ragged = len(span) % task.batch_size
            if ragged:
                sizes.add(ragged)
            warm = _warm_engine(model, channels, task.window, sorted(sizes))
        from ..detect.predict import predict

        source = TileSource(image, task.window, batch_size=task.batch_size)
        payload = {
            "shard": task.shard_index,
            "model_cached": model_cached,
            "via_slab": False,
            **warm,
        }
        slab = attach_array(task.result) if task.result is not None else None
        try:
            use_slab = slab is not None
            pos = 0
            conf_parts: list[np.ndarray] = []
            box_parts: list[np.ndarray] = []
            for _, stack in source.batches(span):
                conf, box = predict(model, stack, batch_size=len(stack),
                                    backend=task.backend)
                if use_slab and not (conf.dtype == slab.array.dtype
                                     and box.dtype == slab.array.dtype):
                    # parent sized the slab for a different dtype: fall
                    # back to inline return rather than cast (the merge
                    # must stay byte-identical to the sequential scan)
                    use_slab = False
                    conf_parts = [slab.array[:pos, 0].copy()]
                    box_parts = [slab.array[:pos, 1:5].copy()]
                if use_slab:
                    n = len(conf)
                    slab.array[pos:pos + n, 0] = conf
                    slab.array[pos:pos + n, 1:5] = box
                    pos += n
                else:
                    conf_parts.append(conf)
                    box_parts.append(box)
            if use_slab:
                payload["via_slab"] = True
            else:
                payload["confidences"] = np.concatenate(conf_parts)
                payload["boxes"] = np.concatenate(box_parts)
            return payload
        finally:
            if slab is not None:
                slab.close()
