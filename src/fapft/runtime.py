"""Process-level runtime knobs.

``PFT_THREADS`` is an integer >= 0; 0 means auto (one per CPU). ``fapft
soup`` still checks it, and a bad value is a usage error, but it sets
nothing: soup inputs are streamed in step, and their hashes run on one fixed
helper thread. Results are byte-identical at any setting.
"""

from __future__ import annotations

import os

from .errors import UsageError

__all__ = ["thread_cap"]

_ENV_VAR = "PFT_THREADS"


def thread_cap() -> int:
    raw = os.environ.get(_ENV_VAR)
    if raw is None or raw.strip() == "":
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise UsageError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise UsageError(f"{_ENV_VAR} must be >= 0, got {value}")
    if value == 0:
        return os.cpu_count() or 1
    return value
