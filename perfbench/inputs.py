"""Seeded input generation.

Everything a workload feeds the program comes from the run's ``--seed``
through these functions: scenes, tile corruption, chip offsets, the
repeat pattern, arrival times and the NAS sample.  The program sees only
the generated inputs.  Generation runs before any timing starts and is
never part of ``setup_s``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from harness import STRIDE, WINDOW


def derived_seeds(seed: int, count: int, stream: int = 0) -> list[int]:
    """``count`` independent child seeds of ``seed`` for ``stream``."""
    state = np.random.SeedSequence([seed, stream]).generate_state(count)
    return [int(s) for s in state]


def corrupted_scenes(seed: int, count: int, size: int,
                     fraction: float) -> list:
    """``count`` scenes with ``fraction`` of their tiles damaged by
    :func:`repro.faults.corrupt_scene`."""
    from repro.detect.scan import scan_origins
    from repro.faults import corrupt_scene
    from repro.geo import build_scene

    origins = scan_origins(size, WINDOW, STRIDE)
    scenes = []
    for child in derived_seeds(seed, count, stream=1):
        scene = build_scene(seed=child, size=size)
        image, _ = corrupt_scene(scene.image, origins, WINDOW,
                                 fraction=fraction, seed=child)
        scenes.append(dataclasses.replace(scene, image=image))
    return scenes


@dataclass(frozen=True)
class Phase:
    """One open-loop phase: requests due at ``due_s`` (seconds after the
    phase starts), each a chip cut at ``origins[i]``."""

    rate: float
    due_s: np.ndarray
    origins: list[tuple[int, int]]


def serve_phases(seed: int, rates_and_counts, scene_size: int,
                 repeat_share: float = 0.2,
                 repeat_window: int = 200) -> list[Phase]:
    """Poisson arrivals at each rate, with chip origins.

    A phase of ``n`` requests at rate ``r`` spans ``n / r`` seconds: the
    arrival times are ``n`` sorted uniform draws over that span, which
    is a Poisson process conditioned on its count, so every seed offers
    exactly the same load.  ``repeat_share`` of the requests resend a
    chip sent within the last ``repeat_window`` requests (across
    phases); the rest are cut at fresh random offsets.
    """
    rng = np.random.default_rng(derived_seeds(seed, 1, stream=2)[0])
    sent: list[tuple[int, int]] = []
    phases = []
    for rate, count in rates_and_counts:
        due = np.sort(rng.uniform(0.0, count / rate, size=count))
        origins = []
        for _ in range(count):
            if sent and rng.random() < repeat_share:
                back = int(rng.integers(1, min(len(sent), repeat_window) + 1))
                origin = sent[-back]
            else:
                r, c = rng.integers(0, scene_size - WINDOW + 1, size=2)
                origin = (int(r), int(c))
            origins.append(origin)
            sent.append(origin)
        phases.append(Phase(float(rate), due, origins))
    return phases


def nas_blocks(seed: int) -> list[list[dict]]:
    """A seeded, stratified sample of the §4.2 search space.

    Five blocks of seven candidates, one per FC width.  Block ``b``
    pairs the i-th width with SPP level ``(i + b) mod 5``, so every
    block holds the same widths, each block's width-level pairing is
    fixed, and the five blocks cover every width-level pair once.  FC
    width and SPP level set a candidate's build time and memory, so runs
    that measure the same blocks measure comparable work whatever the
    seed.  The seed draws each block's first kernels (a rotation of the
    five kernels) and the order within each block.
    """
    from repro.nas import sppnet_search_space

    space = sppnet_search_space()
    kernels = space["first_kernel"].candidates
    levels = space["spp_first_level"].candidates
    widths = space["fc_width"].candidates
    rng = np.random.default_rng(derived_seeds(seed, 1, stream=3)[0])
    blocks = []
    for b in range(len(levels)):
        shift = int(rng.integers(len(kernels)))
        block = [{"first_kernel": kernels[(i + shift) % len(kernels)],
                  "spp_first_level": levels[(i + b) % len(levels)],
                  "fc_width": width}
                 for i, width in enumerate(widths)]
        blocks.append([block[int(j)] for j in rng.permutation(len(block))])
    return blocks
