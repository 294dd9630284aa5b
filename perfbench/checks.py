"""Correctness checks on simulation results.

A served result (pool, memo or disk) is correct when it equals a fresh
serial ``simulate()`` of the same cell on every simulated statistic the
figures read — core, cache, DRAM and prefetch counters, the per-line
miss footprints and the attempted-prefetch sets.  The provenance fields
(``kernel``, ``manifest``) legitimately differ between tiers and are
left out.
"""

from __future__ import annotations

import dataclasses

_SKIP_FIELDS = ("kernel", "manifest")


def same(a, b) -> bool:
    """Whether two results (``SimulationResult`` or ``MulticoreResult``)
    agree on every simulated statistic."""
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a) if f.name not in _SKIP_FIELDS)
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return a == b

