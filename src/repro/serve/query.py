"""Canonical query documents and their content-hash cache keys.

A *query* is a plain JSON document asking the stack one question: what
does this machine/kernel/shape combination do under one of the three
engine families? The serving layer never keys a cache on Python objects
— a query is canonicalized (defaults filled, fields validated, unknown
keys rejected) and the canonical JSON serialization is SHA-256-hashed
into the cache key, reusing the JSON-only param-doc idiom of
:mod:`repro.verify.oracles`.

Five query kinds exist — one per engine family, plus one per workload
exhibit:

- ``simulate`` — the analytic Sec. III/IV performance model
  (:meth:`~repro.sim.gemm_sim.GemmSimulator.simulate`);
- ``cachesim`` — the event-accurate GEBP cache replay
  (:func:`~repro.sim.gebp_cachesim.simulate_gebp_cache`);
- ``timed`` — the timing-functional micro-tile run
  (:meth:`~repro.sim.gemm_sim.GemmSimulator.timed_kernel`);
- ``stencil`` — the blocked-vs-unblocked stencil exhibit
  (:func:`~repro.workloads.exhibit.stencil_exhibit`);
- ``conv`` — the direct-vs-im2col convolution exhibit
  (:func:`~repro.workloads.exhibit.conv_exhibit`).

The GEMM kinds take a ``kernel`` field; the workload kinds do not (their
kernels are generated from the workload shape), and reject it like any
other field that does not belong to the kind.

The ``machine`` field is either a registered preset name (any key of
:data:`repro.arch.presets.PRESETS` — ``"xgene"``, ``"mobile"``,
``"big_little"``) or a full machine document in the
:mod:`repro.verify.machines` schema, so fuzzer-shaped chips are servable
too.

Both :data:`QUERY_SCHEMA_VERSION` and the answer document's
:data:`~repro.obs.run_report.SCHEMA_VERSION` are folded into the key
material: bumping either version changes every key, so stale cache
entries become unreachable (and are additionally rejected on read by the
store's own version check) instead of being served in an old shape.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Tuple

from repro.arch.params import ChipParams
from repro.arch.presets import preset_names
from repro.engines import CACHE_ENGINES, TIMED_ENGINES
from repro.errors import ArchitectureError, ReproError
from repro.obs.run_report import SCHEMA_VERSION

__all__ = [
    "GEMM_KINDS",
    "KINDS",
    "MACHINE_PRESETS",
    "WORKLOAD_KINDS",
    "QUERY_SCHEMA_VERSION",
    "QueryError",
    "canonical_query",
    "query_key",
    "resolve_machine",
]

#: Version of the canonical query shape. Bump whenever a field is added,
#: renamed, or its default changes — any of those changes what a cached
#: answer means, so the key must change with it.
QUERY_SCHEMA_VERSION = 1

#: The GEMM query kinds, one per engine family (these take ``kernel``).
GEMM_KINDS = ("simulate", "cachesim", "timed")

#: The workload-exhibit query kinds (no ``kernel`` field).
WORKLOAD_KINDS = ("stencil", "conv")

#: All query kinds.
KINDS = GEMM_KINDS + WORKLOAD_KINDS

#: Named machine presets a query may reference — derived from the one
#: chip registry (:data:`repro.arch.presets.PRESETS`) so a new preset is
#: servable without touching this module. Preset *names* are part of the
#: cache-key material; the chips behind them must stay byte-stable.
MACHINE_PRESETS = preset_names()


class QueryError(ReproError):
    """Raised for malformed or unserviceable query documents."""


#: Per-kind field specs: name -> (default, validator description).
_COMMON_FIELDS = ("kind", "machine", "kernel")

_KIND_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "simulate": {
        "m": 256, "n": 256, "k": 256, "threads": 1, "parallel_axis": "m",
    },
    "cachesim": {
        "threads": 1, "nc_slice": None, "seed": 0, "engine": "auto",
    },
    "timed": {
        "kc": None, "hw_late": 0.25, "seed": 0, "engine": "auto",
    },
    "stencil": {
        "height": None, "width": None, "radius": 1, "iterations": 2,
        "seed": 0, "smoke": False,
    },
    "conv": {
        "cin": None, "height": None, "width": None, "kh": 3, "kw": 3,
        "filters": None, "seed": 0, "smoke": False,
    },
}


def _require_int(query: Dict[str, Any], field: str, minimum: int) -> None:
    value = query[field]
    if not isinstance(value, int) or isinstance(value, bool):
        raise QueryError(f"query field {field!r} must be an integer, "
                         f"got {value!r}")
    if value < minimum:
        raise QueryError(f"query field {field!r} must be >= {minimum}, "
                         f"got {value}")


def canonical_query(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Validate ``doc`` and return its canonical form.

    Canonicalization fills every optional field with its default and
    rejects unknown fields, so two queries that mean the same thing
    always produce the same document — and therefore the same cache key.
    The input is not mutated.
    """
    if not isinstance(doc, dict):
        raise QueryError(
            f"query must be an object, got {type(doc).__name__}"
        )
    kind = doc.get("kind")
    if kind not in KINDS:
        raise QueryError(
            f"query kind {kind!r} unknown; choose from {list(KINDS)}"
        )
    query: Dict[str, Any] = {
        "kind": kind,
        "machine": doc.get("machine", "xgene"),
    }
    common = _COMMON_FIELDS if kind in GEMM_KINDS else ("kind", "machine")
    if kind in GEMM_KINDS:
        query["kernel"] = doc.get("kernel", "OpenBLAS-8x6")
    defaults = _KIND_DEFAULTS[kind]
    unknown = set(doc) - set(common) - set(defaults)
    if unknown:
        raise QueryError(
            f"unknown {kind} query field(s): {sorted(unknown)}"
        )
    for field, default in defaults.items():
        query[field] = doc.get(field, default)

    if kind in GEMM_KINDS:
        from repro.kernels.variants import VARIANTS

        if query["kernel"] not in VARIANTS:
            raise QueryError(
                f"unknown kernel {query['kernel']!r}; choose from "
                f"{sorted(VARIANTS)}"
            )
    machine = query["machine"]
    if isinstance(machine, str):
        if machine not in MACHINE_PRESETS:
            raise QueryError(
                f"unknown machine preset {machine!r}; choose from "
                f"{list(MACHINE_PRESETS)} or pass a machine document"
            )
    elif not isinstance(machine, dict):
        raise QueryError(
            "machine must be a preset name or a machine document"
        )

    if kind == "simulate":
        for field in ("m", "n", "k", "threads"):
            _require_int(query, field, 1)
        if query["parallel_axis"] not in ("m", "n"):
            raise QueryError("parallel_axis must be 'm' or 'n'")
    elif kind == "cachesim":
        _require_int(query, "threads", 1)
        _require_int(query, "seed", 0)
        if query["nc_slice"] is not None:
            _require_int(query, "nc_slice", 1)
        if query["engine"] not in CACHE_ENGINES:
            raise QueryError(
                f"cachesim engine {query['engine']!r} unknown"
            )
    elif kind == "timed":
        _require_int(query, "seed", 0)
        if query["kc"] is not None:
            _require_int(query, "kc", 1)
        if not isinstance(query["hw_late"], (int, float)) or isinstance(
            query["hw_late"], bool
        ):
            raise QueryError("hw_late must be a number")
        query["hw_late"] = float(query["hw_late"])
        if query["engine"] not in TIMED_ENGINES:
            raise QueryError(f"timed engine {query['engine']!r} unknown")
    else:  # stencil / conv
        _require_int(query, "seed", 0)
        if not isinstance(query["smoke"], bool):
            raise QueryError("smoke must be a boolean")
        sized = (
            ("height", "width", "radius", "iterations")
            if kind == "stencil"
            else ("cin", "height", "width", "kh", "kw", "filters")
        )
        for field in sized:
            if query[field] is not None:
                _require_int(query, field, 1)
    return query


def query_key(query: Dict[str, Any]) -> Tuple[Dict[str, Any], str]:
    """Canonicalize ``query`` and derive its content-hash cache key.

    Returns ``(canonical, key)``. The key covers the canonical query
    plus both schema versions, so any schema bump invalidates the whole
    cache by construction.
    """
    canonical = canonical_query(query)
    material = json.dumps(
        {
            "query_schema": QUERY_SCHEMA_VERSION,
            "report_schema": SCHEMA_VERSION,
            "query": canonical,
        },
        sort_keys=True,
    )
    return canonical, hashlib.sha256(material.encode()).hexdigest()


def resolve_machine(machine: Any) -> Tuple[str, "ChipParams"]:
    """Materialize a query's ``machine`` field into a chip.

    Returns ``(label, chip)`` where the label names the preset or marks
    a custom machine document.
    """
    from repro.arch.presets import get_preset

    if isinstance(machine, str):
        try:
            return machine, get_preset(machine)
        except ArchitectureError:
            raise QueryError(
                f"unknown machine preset {machine!r}"
            ) from None
    from repro.verify.machines import build_chip

    try:
        return "custom", build_chip(machine)
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise QueryError(f"invalid machine document: {exc}") from exc
