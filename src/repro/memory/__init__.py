"""Memory-system simulation: caches, hierarchy, TLB, traces."""

from repro.memory.batch import (
    ACCESS_DTYPE,
    BatchTrace,
    compile_trace,
    warm_region,
)
from repro.memory.cache import (
    CODE_LOAD,
    CODE_PREFETCH,
    CODE_STORE,
    KIND_LOAD,
    KIND_PREFETCH,
    KIND_STORE,
    Cache,
    CacheStats,
)
from repro.memory.hierarchy import AccessResult, MemoryHierarchy
from repro.memory.prefetcher import (
    DropPattern,
    PrefetcherStats,
    SequentialPrefetcher,
)
from repro.memory.replacement import (
    LruSetPolicy,
    PlruSetPolicy,
    RandomSetPolicy,
    SetPolicy,
    make_set_policy,
)
from repro.memory.tlb import Tlb, TlbStats
from repro.memory.trace import (
    Access,
    TraceCost,
    contiguous_trace,
    run_trace,
    run_trace_levels,
    strided_matrix_trace,
)

__all__ = [
    "Cache",
    "CacheStats",
    "BatchTrace",
    "compile_trace",
    "warm_region",
    "ACCESS_DTYPE",
    "KIND_LOAD",
    "KIND_STORE",
    "KIND_PREFETCH",
    "CODE_LOAD",
    "CODE_STORE",
    "CODE_PREFETCH",
    "MemoryHierarchy",
    "AccessResult",
    "Tlb",
    "TlbStats",
    "Access",
    "TraceCost",
    "run_trace",
    "run_trace_levels",
    "contiguous_trace",
    "strided_matrix_trace",
    "SetPolicy",
    "DropPattern",
    "SequentialPrefetcher",
    "PrefetcherStats",
    "LruSetPolicy",
    "RandomSetPolicy",
    "PlruSetPolicy",
    "make_set_policy",
]
