"""Deterministic fault injection for the evaluation stack.

Chaos is configured by the ``REPRO_CHAOS`` environment variable (so it
crosses process boundaries to pool workers for free) or programmatically
via :func:`set_chaos`.  The spec is a semicolon-separated directive
list:

```
REPRO_CHAOS="kill=spec.mcf/tpc;slow=spec.libquantum/bop:6.0;corrupt=spec.mcf/tpc;torn=spec.astar/tpc"
```

* ``kill=<workload>/<spec>`` — the worker simulating that cell calls
  ``os._exit`` before simulating, which breaks the process pool exactly
  the way an OOM kill or a stray ``SIGKILL`` does.  Fires only inside a
  pool worker (the parent marks workers via the pool initializer), so a
  serial run can never chaos-kill itself.
* ``slow=<workload>/<spec>:<seconds>`` — the cell sleeps that long
  before simulating, which is how the per-cell timeout watchdog is
  exercised.
* ``torn=<substring>`` — the next cache write whose label contains the
  substring lands truncated (the torn tail a crash mid-write would
  leave).
* ``corrupt=<substring>`` — the next matching cache write lands as
  garbage bytes (a corrupted pickle).

Cell targets match when the directive string equals — or is a substring
of — ``"<workload>/<spec key>"``; write labels are
``"result:<workload>/<spec>:<tag>"`` and ``"trace:<name>"`` (see the
cache ``put`` methods).  Every directive fires **once per process** and
cell directives fire **only on attempt 0**, so a retried cell always
runs clean — injected faults are recoverable by construction, which is
what lets the chaos suite assert bit-identical final figures.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

CHAOS_ENV = "REPRO_CHAOS"

#: Exit code chaos-killed workers die with (visible in pool diagnostics).
KILL_EXIT_CODE = 87

_IN_WORKER = False

# (env string it was parsed from, config) — re-parsed when the env
# variable changes, so tests can flip REPRO_CHAOS without reloading.
_parsed: "tuple[str | None, ChaosConfig] | None" = None
_override: "ChaosConfig | None" = None
_fired: set = set()


@dataclass(frozen=True)
class ChaosConfig:
    """Parsed chaos directives (empty tuples everywhere = disabled)."""

    kill: tuple = ()                  # cell targets
    slow: tuple = ()                  # (cell target, seconds) pairs
    torn: tuple = ()                  # write-label substrings
    corrupt: tuple = ()               # write-label substrings

    @property
    def enabled(self) -> bool:
        return bool(self.kill or self.slow or self.torn or self.corrupt)

    def spec(self) -> str:
        """Serialize back to the ``REPRO_CHAOS`` grammar."""
        parts = [f"kill={t}" for t in self.kill]
        parts += [f"slow={t}:{s}" for t, s in self.slow]
        parts += [f"torn={t}" for t in self.torn]
        parts += [f"corrupt={t}" for t in self.corrupt]
        return ";".join(parts)


def parse_spec(text: str) -> ChaosConfig:
    """Parse a ``REPRO_CHAOS`` directive string (malformed parts are
    ignored rather than fatal — chaos must never break a clean run)."""
    kill: list = []
    slow: list = []
    torn: list = []
    corrupt: list = []
    for part in text.split(";"):
        part = part.strip()
        if not part or "=" not in part:
            continue
        verb, _, target = part.partition("=")
        verb = verb.strip()
        target = target.strip()
        if not target:
            continue
        if verb == "kill":
            kill.append(target)
        elif verb == "slow":
            cell, _, seconds = target.rpartition(":")
            try:
                slow.append((cell or target, float(seconds)))
            except ValueError:
                continue
        elif verb == "torn":
            torn.append(target)
        elif verb == "corrupt":
            corrupt.append(target)
    return ChaosConfig(kill=tuple(kill), slow=tuple(slow),
                       torn=tuple(torn), corrupt=tuple(corrupt))


def get_chaos() -> ChaosConfig:
    """The active chaos config (programmatic override, else env)."""
    global _parsed
    if _override is not None:
        return _override
    raw = os.environ.get(CHAOS_ENV)
    if _parsed is None or _parsed[0] != raw:
        _parsed = (raw, parse_spec(raw) if raw else ChaosConfig())
    return _parsed[1]


def set_chaos(config: "ChaosConfig | None") -> None:
    """Programmatic override (``None`` returns control to the env).

    Note: pool workers inherit the *environment*, not this override —
    for cross-process injection export ``config.spec()`` via
    ``REPRO_CHAOS`` before the pool spawns (the degraded-matrix test
    in ``tests/test_faults.py`` does exactly that).
    """
    global _override
    _override = config


def reset_chaos() -> None:
    """Forget fired directives and cached parses (test isolation)."""
    global _parsed, _override
    _parsed = None
    _override = None
    _fired.clear()


def mark_worker() -> None:
    """Pool-worker initializer hook: kill directives only fire here."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    return _IN_WORKER


def _fire_once(token) -> bool:
    """True exactly once per process for a given directive token."""
    if token in _fired:
        return False
    _fired.add(token)
    return True


def _cell_id(workload: str, spec, tag: str) -> str:
    """``workload/speckey`` identity chaos cell targets match against."""
    if isinstance(spec, str):
        key = spec
    else:
        key = getattr(spec, "cache_key", None) \
            or getattr(spec, "__name__", None) or repr(spec)
    return f"{workload}/{key}"


def on_cell_start(workload: str, spec, tag: str, attempt: int) -> None:
    """Cell-dispatch checkpoint: may sleep (slow) or die (kill).

    Called by the worker entry point and the serial fallback right
    before simulating.  No-ops instantly when chaos is disabled, on any
    attempt past the first, and for cells no directive targets.
    """
    config = get_chaos()
    if not config.enabled or attempt != 0:
        return
    cell = _cell_id(workload, spec, tag)
    for target, seconds in config.slow:
        if target in cell and _fire_once(("slow", target)):
            time.sleep(seconds)
    if _IN_WORKER:
        for target in config.kill:
            if target in cell and _fire_once(("kill", target)):
                os._exit(KILL_EXIT_CODE)


def filter_write(label: str, data: bytes) -> bytes:
    """Cache-write checkpoint: may tear or corrupt the payload.

    :func:`repro.faults.atomic.atomic_write_bytes` routes every labeled
    cache write through here; unmatched labels pass through untouched.
    """
    config = get_chaos()
    if not config.enabled or not label:
        return data
    for target in config.torn:
        if target in label and _fire_once(("torn", target)):
            return data[: max(1, len(data) // 3)]
    for target in config.corrupt:
        if target in label and _fire_once(("corrupt", target)):
            return b"\x00repro-chaos-corrupt\x00" * 8
    return data
