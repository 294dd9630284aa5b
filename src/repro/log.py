"""Leveled progress logging for the harness CLIs (``REPRO_LOG``).

``report_all`` used to narrate progress with ad-hoc
``print(..., file=sys.stderr)`` lines — fine for a terminal, useless for
the queued sweep server or a CI job that wants structured progress.
This module is the one knob:

* ``REPRO_LOG=text`` (default) — human-readable lines on stderr
  (``simulations: 12 fresh, 0 memoized, ...``).
* ``REPRO_LOG=json`` — one JSON object per line
  (``{"ts": ..., "level": "info", "logger": "report", "msg": ...}``),
  extra keyword fields included verbatim — what a server/CI consumer
  tails.
* ``REPRO_LOG=quiet`` — progress suppressed; errors still print
  (a failing gate must never vanish).

The mode is read per call, so tests (and long-lived servers) can flip
the environment variable without re-creating loggers.  Deliberately not
:mod:`logging`: no handler graph, no global configuration order — a
logger is two methods and an environment variable.
"""

from __future__ import annotations

import datetime
import json
import os
import sys

LOG_ENV = "REPRO_LOG"
MODES = ("quiet", "text", "json")


def log_mode() -> str:
    """Current mode from ``REPRO_LOG`` (unknown values mean ``text``)."""
    mode = os.environ.get(LOG_ENV, "text").strip().lower()
    return mode if mode in MODES else "text"


class Logger:
    """Named stderr logger with ``info`` / ``error`` levels."""

    def __init__(self, name: str, stream=None) -> None:
        self.name = name
        self._stream = stream

    def _emit(self, level: str, message: str, fields: dict) -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        if log_mode() == "json":
            record = {
                "ts": datetime.datetime.now(datetime.timezone.utc)
                .isoformat(timespec="milliseconds"),
                "level": level,
                "logger": self.name,
                "msg": message,
            }
            record.update(fields)
            print(json.dumps(record, sort_keys=True, default=str),
                  file=stream)
            return
        suffix = "".join(f" {key}={value}" for key, value in fields.items())
        print(message + suffix, file=stream)

    def info(self, message: str, **fields) -> None:
        """Progress line; suppressed under ``REPRO_LOG=quiet``."""
        if log_mode() == "quiet":
            return
        self._emit("info", message, fields)

    def warn(self, message: str, **fields) -> None:
        """Misconfiguration line; suppressed under ``REPRO_LOG=quiet``."""
        if log_mode() == "quiet":
            return
        self._emit("warn", message, fields)

    def error(self, message: str, **fields) -> None:
        """Failure line; printed in every mode, ``quiet`` included."""
        self._emit("error", message, fields)


def get_logger(name: str) -> Logger:
    """A named logger (loggers are stateless; construct freely)."""
    return Logger(name)
