"""Concurrent trial execution (multi-worker NAS dispatch).

The paper notes Retiarii "currently supports NAS exclusively for single
GPU setups" and defers multi-GPU NAS to future work.  Trial-level
parallelism is the simplest form: exploration strategies propose batches
of architectures and workers evaluate them concurrently.  On this
substrate the workers are threads (NumPy's BLAS releases the GIL inside
the GEMMs that dominate trial training), but the dispatch logic is what a
multi-GPU NNI deployment would use.

Determinism: proposals are drawn from the seeded strategy RNG *before*
dispatch and trials are recorded in proposal order, so a parallel
experiment explores exactly the trials the sequential one would with the
same strategy/seed (strategies that adapt to history see history only at
batch boundaries — the standard synchronous-batch NAS semantics).

Fault tolerance: retries/quarantine happen *inside* each worker (via
:func:`~repro.nas.experiment.run_trial_with_retries`), so one failing
trial neither kills the batch nor loses its siblings' results — the
failure surfaces as a quarantined ``TrialRecord`` instead of an exception
out of ``pool.map``.  Each worker also times its own trial, so
``duration_s`` is the true per-trial cost, not the batch wall-clock split
evenly (efficiency ``e(n)`` readouts consume this).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .experiment import Experiment, TrialRecord, _as_journal, run_trial_with_retries
from .space import ModelSpace

__all__ = ["ParallelExperiment"]


@dataclass
class ParallelExperiment(Experiment):
    """Synchronous-batch multi-worker NAS experiment.

    An :class:`~repro.nas.Experiment` that evaluates ``workers`` trials
    at a time; ``resume``, the retry/quarantine policy, the journal and
    the aggregation methods are the base class's.  Trials are journaled
    in proposal order.
    """

    workers: int = 4

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def _propose_batch(self, rng: np.random.Generator,
                       seen: set[tuple]) -> list[dict]:
        batch: list[dict] = []
        attempts = 0
        want = min(self.workers, self.max_trials - len(self.trials))
        while len(batch) < want and attempts < 50 * want + 2 * len(seen):
            attempts += 1
            sample = dict(self.strategy.propose(self.space, self.trials, rng))
            encoding = ModelSpace.encode(sample)
            if self.deduplicate and encoding in seen:
                continue
            seen.add(encoding)
            self.space.validate(sample)
            batch.append(sample)
        return batch

    def _run_one(self, task: tuple[int, dict]) -> TrialRecord:
        """Worker body: evaluate one sample with retries, timed in-worker.

        ``trial_id`` is the proposal ordinal — records are appended in
        batch order, so it is also the final position in ``trials``.
        """
        trial_id, sample = task
        backoff_rng = np.random.default_rng((self.seed, 0x5E11, trial_id))
        return run_trial_with_retries(
            self.evaluator, sample, trial_id=trial_id,
            policy=self.retry_policy, backoff_rng=backoff_rng,
        )

    def run(self) -> list[TrialRecord]:
        """Run trials in worker batches until the budget is spent."""
        rng = np.random.default_rng(self.seed)
        journal = _as_journal(self.journal)
        seen = {ModelSpace.encode(t.sample) for t in self.trials}
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            while len(self.trials) < self.max_trials:
                batch = self._propose_batch(rng, seen)
                if not batch:
                    break  # space exhausted
                base = len(self.trials)
                tasks = [(base + i, sample) for i, sample in enumerate(batch)]
                for record in pool.map(self._run_one, tasks):
                    self.trials.append(record)
                    if journal is not None:
                        journal.append(record)
        return self.trials
