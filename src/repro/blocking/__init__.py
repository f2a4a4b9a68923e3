"""Analytic block-size engine (paper Sec. IV).

The empirical search over these block sizes is :mod:`repro.tune`.
"""

from repro.blocking.cache_blocking import (
    CacheBlocking,
    goto_blocking,
    solve_cache_blocking,
    solve_kc,
    solve_mc,
    solve_nc,
)
from repro.blocking.prefetch import (
    DEFAULT_ALPHA_PREA,
    DEFAULT_UNROLL,
    PrefetchPlan,
    plan_prefetch,
)
from repro.blocking.register_blocking import (
    RegisterBlocking,
    RegisterBlockingProblem,
)

__all__ = [
    "RegisterBlocking",
    "RegisterBlockingProblem",
    "CacheBlocking",
    "solve_cache_blocking",
    "solve_kc",
    "solve_mc",
    "solve_nc",
    "goto_blocking",
    "PrefetchPlan",
    "plan_prefetch",
    "DEFAULT_ALPHA_PREA",
    "DEFAULT_UNROLL",
]
