"""Exact combinatorics of inertial parameters for classical p-adic groups."""

__version__ = "0.1.0"


class CheckError(Exception):
    """A built-in consistency or oracle check failed.

    Raised explicitly, never through ``assert``, so the checks also run
    under ``python -O``.
    """
