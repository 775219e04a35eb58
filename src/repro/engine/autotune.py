"""Conv kernel variant selection: a fixed rule over the conv geometry.

The engine carries two interchangeable conv kernels (``im2col`` and
``im2col_tiled`` — see :func:`.kernels.bind_conv`).  Which one a conv
binds is a pure function of its :class:`ConvKey`:

* ``im2col_tiled`` when the layer runs in float (not int8) and its
  im2col row is at most :data:`TILED_MAX_WIDTH` wide
  (``in_channels * kernel**2``).  Those are the thin-GEMM first layers
  (4 input bands, k <= 3) whose time goes to gathering columns, not to
  arithmetic; row-block tiling keeps the columns cache-resident.
* ``im2col`` everywhere else.  int8 execution is pinned to it: the
  quantized GEMM quantizes the gathered columns once, and tiling would
  re-quantize per block.

``docs/engine.md`` holds the paired per-layer measurements behind the
threshold.  Because the rule reads only the geometry, every process —
parent, scan worker, service replica — binds the same kernels without
measuring anything or exchanging state, so float rounding (and with it
the parallel scan's byte-identity) cannot depend on timing noise.

:func:`choices` records every geometry the rule has been asked about in
this process; the benchmark counts it to prove that no program is bound
inside a timed window.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = [
    "CONV_VARIANTS",
    "TILED_MAX_WIDTH",
    "ConvKey",
    "select_variant",
    "choices",
    "clear_cache",
    "autotune_choices",
    "clear_autotune_cache",
]

#: Every conv kernel variant :func:`.kernels.bind_conv` accepts.
CONV_VARIANTS = ("im2col", "im2col_tiled")

#: Widest im2col row (``in_channels * kernel**2``) bound to the tiled kernel.
TILED_MAX_WIDTH = 64


@dataclass(frozen=True)
class ConvKey:
    """The geometry of one bound conv step."""

    batch: int
    height: int
    width: int
    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    padding: int
    pool: bool
    dtype: str
    mode: str = "float32"


_lock = threading.Lock()
_chosen: dict[ConvKey, str] = {}


def select_variant(key: ConvKey) -> str:
    """The conv kernel variant ``key`` binds (and record the decision)."""
    tiled = (key.mode != "int8"
             and key.in_channels * key.kernel ** 2 <= TILED_MAX_WIDTH)
    variant = "im2col_tiled" if tiled else "im2col"
    with _lock:
        _chosen[key] = variant
    return variant


def choices() -> dict[ConvKey, str]:
    """Every conv geometry bound in this process and its variant."""
    with _lock:
        return dict(_chosen)


def clear_cache() -> None:
    with _lock:
        _chosen.clear()


# Package-level aliases: the bare names read poorly outside this module.
autotune_choices = choices
clear_autotune_cache = clear_cache
