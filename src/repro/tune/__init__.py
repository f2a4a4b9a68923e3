"""Parallel, memoized kernel autotuning over the codegen search space.

The repo's one autotuner: a block-size search grown into full kernel
synthesis. :mod:`~repro.tune.space` enumerates register
tiles, rotation schemes, issue schedules and blocking neighborhoods;
:mod:`~repro.tune.evaluate` prices candidates analytically and times the
survivors through the compiled engine; :mod:`~repro.tune.memo` keys every
evaluation by content hash into a persistent result store; and
:mod:`~repro.tune.search` composes them into the two-stage search behind
``repro tune``.
"""

from repro.tune.evaluate import (
    analytic_eval,
    build_kernel,
    clear_eval_caches,
    resolve_plan,
    timed_eval,
)
from repro.tune.memo import (
    TUNE_SCHEMA_VERSION,
    TuneMemo,
    eval_key,
    make_answer,
    stats_of,
)
from repro.tune.search import tune_search
from repro.tune.space import (
    ROTATIONS,
    SCHEDULES,
    Candidate,
    enumerate_candidates,
)

__all__ = [
    "ROTATIONS",
    "SCHEDULES",
    "TUNE_SCHEMA_VERSION",
    "Candidate",
    "TuneMemo",
    "analytic_eval",
    "build_kernel",
    "clear_eval_caches",
    "enumerate_candidates",
    "eval_key",
    "make_answer",
    "resolve_plan",
    "stats_of",
    "timed_eval",
    "tune_search",
]
