"""Search-space helpers for the kernel autotuner.

The paper closes with "we also plan to apply auto-tuning to generate a
highly optimized GEBP". :func:`repro.tune.tune_search` is that search:
it scores every candidate blocking with the Sec. III/IV cost model and
times the surviving code shapes on the compiled engine, and lands on the
paper's analytic answer (8x6 with 512x56x1920 serial; pinned in
``tests/test_tune.py`` and ``benchmarks/bench_ablation_autotune.py``).

This module is deliberately a leaf (it imports only ``arch``, ``kernels``
and the sibling ``blocking`` solvers); :mod:`repro.tune.space` builds the
search space from :func:`candidate_tiles` and :func:`neighborhood`.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.arch.params import ChipParams
from repro.blocking.register_blocking import RegisterBlockingProblem
from repro.errors import BlockingError
from repro.kernels.kernel_spec import KernelSpec


def candidate_tiles(
    chip: ChipParams,
    max_candidates: Optional[int] = None,
    require_codegen: bool = False,
) -> List[Tuple[int, int]]:
    """Distinct feasible (mr, nr) register tiles, best first.

    Tiles come from the eq. (8)-(11) feasibility enumeration and are
    ordered by the same tie-breakers the analytic solver uses: gamma
    descending, then cache-line-aligned mr, then larger mr. Each (mr, nr)
    pair appears exactly once regardless of how many nrf choices make it
    feasible.

    Args:
        chip: Architecture whose register file bounds the enumeration.
        max_candidates: Keep only the first N tiles (``None`` = all).
        require_codegen: Additionally require that the code generator can
            realize the tile — ``KernelSpec(mr, nr)`` must fit the
            register file with its rotation pool. Eq. (9) alone admits
            tiles like 12x4 whose C block leaves no room for the
            rotation registers.

    Returns:
        Deduplicated (mr, nr) list, best candidate first.
    """
    problem = RegisterBlockingProblem.from_core(chip.core)
    nf = chip.core.fp_registers
    line_doubles = chip.l1d.line_bytes // 8

    def sort_key(t):
        return (t.gamma, t.mr % line_doubles == 0, t.mr)

    seen: Set[Tuple[int, int]] = set()
    out: List[Tuple[int, int]] = []
    for t in sorted(problem.feasible_tiles(), key=sort_key, reverse=True):
        pair = (t.mr, t.nr)
        if pair in seen:
            continue
        if require_codegen and not KernelSpec(t.mr, t.nr).fits_register_file(nf):
            continue
        seen.add(pair)
        out.append(pair)
        if max_candidates is not None and len(out) >= max_candidates:
            break
    return out


def neighborhood(
    value: int, step: int, multiple: int, radius: int = 1
) -> List[int]:
    """The analytic value plus ``radius`` steps either side, floored to a
    multiple and deduplicated (center first, then outward)."""
    if radius < 0:
        raise BlockingError("neighborhood radius must be >= 0")
    seen: Set[int] = set()
    out: List[int] = []
    offsets = [0]
    for r in range(1, radius + 1):
        offsets.extend((-r, r))
    for off in offsets:
        v = max(multiple, ((value + off * step) // multiple) * multiple)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out
