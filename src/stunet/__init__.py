"""Graph-structured time-series forecasting with a U-shaped recurrent network."""

import os

from .errors import StunetError, UsageError

__version__ = "0.1.0"

__all__ = ["StunetError", "__version__", "thread_cap"]


def thread_cap() -> int | None:
    """The thread count STUNET_THREADS sets, or None when it is unset or
    empty. Free of NumPy, so the CLI can read it before NumPy loads."""
    raw = os.environ.get("STUNET_THREADS", "")
    if raw and not (raw.isdecimal() and int(raw) >= 1):
        raise UsageError(f"STUNET_THREADS must be an integer >= 1, got {raw!r}")
    return int(raw) if raw else None
