"""The TREELAT_THREADS setting.

TREELAT_THREADS, when set, must be a positive integer; the CLI checks it at
start-up and exits 2 otherwise.  It is the documented cap on internal
parallelism, but no code path currently runs in parallel: every stage is
sequential whatever its value, and results never depend on it.
"""

from __future__ import annotations

import os

_DEFAULT_WORKERS = 1


def worker_count() -> int:
    raw = os.environ.get("TREELAT_THREADS")
    if raw is None:
        return _DEFAULT_WORKERS
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"TREELAT_THREADS must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"TREELAT_THREADS must be a positive integer, got {raw!r}")
    return value
