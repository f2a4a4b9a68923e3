"""Engine names accepted by the replay entry points and the serve layer.

A leaf module, so the query validator can share the vocabulary without
importing the simulators.
"""

#: Cache-replay engines (:func:`~repro.sim.gebp_cachesim.simulate_gebp_cache`,
#: :func:`~repro.workloads.base.simulate_workload_cache`): ``auto`` and
#: ``batched`` run the vectorized walk, ``scalar`` the per-access oracle.
CACHE_ENGINES = ("auto", "batched", "scalar")

#: Timed-execution engines (:func:`~repro.sim.timed_executor.
#: run_timed_micro_tile`, :func:`~repro.workloads.base.timed_workload`):
#: ``auto`` compiles when the kernel supports it and falls back to the
#: interpreter otherwise; ``compiled`` raises on non-compilable kernels;
#: ``interpreted`` always takes the oracle path.
TIMED_ENGINES = ("auto", "compiled", "interpreted")
