"""Baseline comparison for committed run reports.

Loads committed ``benchmarks/results/*.json`` documents and compares a
fresh :class:`~repro.obs.run_report.RunReport` against them:

- **wall-clock is never compared** — any leaf under ``metrics.spans`` or
  whose path mentions seconds is machine noise, not a result;
- **integer leaves are compared exactly** — the engines are deterministic
  (seeded RNGs, drop patterns, bit-identical batched/compiled paths), so
  a drifted counter is a behaviour change, not noise;
- **float leaves are compared with a relative tolerance**, and the
  direction of an out-of-tolerance change is classified by name
  (``gflops`` up is an improvement, ``miss`` up is a regression;
  unknown directions are conservatively regressions).

``repro report --diff`` drives this and exits nonzero when
:meth:`Comparison.ok` is false (unless ``--warn-only``), which is the
CI regression gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.obs.run_report import RunReport, flatten

__all__ = [
    "Comparison",
    "DEFAULT_TOLERANCE",
    "Finding",
    "compare_files",
    "compare_reports",
    "format_comparison",
    "load_report_dict",
]

#: Default relative tolerance for float leaves.
DEFAULT_TOLERANCE = 0.05

#: Path fragments that mark wall-clock leaves (never compared).
_TIME_MARKERS = ("seconds", "wall_", ".time", "duration")

#: Leaf-name fragments where a larger value is better / worse.
_HIGHER_BETTER = ("gflops", "speedup", "efficiency", "ipc", "hits",
                  "accesses_per_s", "iters_per_s")
_LOWER_BETTER = ("miss", "stall", "cycles", "latency", "eviction",
                 "writeback", "fallback", "late", "dram")


@dataclass(frozen=True)
class Finding:
    """One compared leaf that deviated.

    ``kind`` is ``"regression"`` (fails the gate), ``"improvement"``
    (out of tolerance in the good direction), ``"mismatch"`` (the two
    reports describe different runs — also fails), or ``"added"`` (leaf
    present only in the current report — informational).
    """

    path: str
    baseline: Any
    current: Any
    kind: str
    note: str = ""


@dataclass
class Comparison:
    """Outcome of comparing a current report against a baseline."""

    findings: List[Finding] = field(default_factory=list)
    checked: int = 0
    skipped: int = 0

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings
                if f.kind in ("regression", "mismatch")]

    @property
    def improvements(self) -> List[Finding]:
        return [f for f in self.findings if f.kind == "improvement"]

    @property
    def ok(self) -> bool:
        """True when nothing fails the regression gate."""
        return not self.regressions


def _is_time_path(path: str) -> bool:
    if path.startswith("metrics.spans."):
        return True
    return any(marker in path for marker in _TIME_MARKERS)


def _direction(path: str) -> Optional[str]:
    """``"higher"``/``"lower"`` = better, ``None`` = unknown."""
    leaf = path.rsplit(".", 1)[-1]
    probe = f"{leaf}.{path}"
    for marker in _HIGHER_BETTER:
        if marker in probe:
            return "higher"
    for marker in _LOWER_BETTER:
        if marker in probe:
            return "lower"
    return None


def _classify_float(
    path: str, base: float, cur: float, tolerance: float
) -> Optional[Finding]:
    scale = max(abs(base), abs(cur))
    if scale == 0:
        return None
    rel = abs(cur - base) / scale
    if rel <= tolerance:
        return None
    direction = _direction(path)
    improved = (direction == "higher" and cur > base) or (
        direction == "lower" and cur < base
    )
    return Finding(
        path=path,
        baseline=base,
        current=cur,
        kind="improvement" if improved else "regression",
        note=f"relative change {rel:.1%} exceeds tolerance {tolerance:.1%}",
    )


def compare_reports(
    baseline: Union[RunReport, Dict[str, Any]],
    current: Union[RunReport, Dict[str, Any]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Comparison:
    """Compare ``current`` against ``baseline`` (see module docstring)."""
    if isinstance(baseline, RunReport):
        baseline = baseline.to_dict()
    if isinstance(current, RunReport):
        current = current.to_dict()
    comp = Comparison()

    for meta in ("command", "schema_version"):
        if baseline.get(meta) != current.get(meta):
            comp.findings.append(Finding(
                path=meta,
                baseline=baseline.get(meta),
                current=current.get(meta),
                kind="mismatch",
                note="reports describe different runs",
            ))

    base_leaves = dict(flatten(baseline))
    cur_leaves = dict(flatten(current))
    for path in sorted(set(base_leaves) | set(cur_leaves)):
        if path in ("command", "schema_version", "created"):
            continue
        if _is_time_path(path):
            comp.skipped += 1
            continue
        in_base, in_cur = path in base_leaves, path in cur_leaves
        if in_base and not in_cur:
            comp.findings.append(Finding(
                path=path, baseline=base_leaves[path], current=None,
                kind="regression", note="leaf missing from current report",
            ))
            continue
        if in_cur and not in_base:
            comp.findings.append(Finding(
                path=path, baseline=None, current=cur_leaves[path],
                kind="added", note="leaf not in baseline",
            ))
            continue
        base, cur = base_leaves[path], cur_leaves[path]
        comp.checked += 1
        if path.startswith("params."):
            if base != cur:
                comp.findings.append(Finding(
                    path=path, baseline=base, current=cur, kind="mismatch",
                    note="run parameters differ",
                ))
            continue
        if base == cur:
            continue
        numeric = all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in (base, cur)
        )
        if not numeric:
            comp.findings.append(Finding(
                path=path, baseline=base, current=cur, kind="regression",
                note="non-numeric leaf changed",
            ))
            continue
        if isinstance(base, int) and isinstance(cur, int):
            comp.findings.append(Finding(
                path=path, baseline=base, current=cur, kind="regression",
                note="deterministic counter drifted",
            ))
            continue
        finding = _classify_float(path, float(base), float(cur), tolerance)
        if finding is not None:
            comp.findings.append(finding)
    return comp


def load_report_dict(path: str) -> Dict[str, Any]:
    """Load a report document from ``path`` without schema enforcement
    (the comparator reports schema drift as findings instead).

    Raises :class:`~repro.errors.ReproError` naming ``path`` when the
    file cannot be read, is not JSON, or is not a JSON object.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ReproError(f"cannot read report {path}: {exc}") from exc
    except ValueError as exc:
        raise ReproError(f"{path}: not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ReproError(f"{path}: report must be a JSON object")
    return doc


def compare_files(
    baseline_path: str,
    current_path: str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Comparison:
    """Compare two report files (baseline first)."""
    return compare_reports(
        load_report_dict(baseline_path),
        load_report_dict(current_path),
        tolerance=tolerance,
    )


def format_comparison(
    comp: Comparison, baseline_name: str = "baseline",
    current_name: str = "current",
) -> str:
    """Human-readable comparison summary (one line per finding)."""
    lines = [
        f"compared {comp.checked} leaves against {baseline_name} "
        f"({comp.skipped} wall-clock leaves skipped)"
    ]
    for f in comp.findings:
        lines.append(
            f"  [{f.kind}] {f.path}: {baseline_name}={f.baseline!r} "
            f"{current_name}={f.current!r}"
            + (f" ({f.note})" if f.note else "")
        )
    if comp.ok:
        lines.append(
            "OK: no regressions"
            + (f" ({len(comp.improvements)} improvements)"
               if comp.improvements else "")
        )
    else:
        lines.append(f"FAIL: {len(comp.regressions)} regression(s)")
    return "\n".join(lines)
