"""Exact combinatorics of inertial parameters for classical p-adic groups."""

__version__ = "0.1.0"

# the rank caps of the suites, here so that ``verify.SUITES`` reads them
# without loading the layers they bound
MATRIX_DIM_CAP = 16  # largest ambient dimension the matrix oracle takes
BRUTE_FORCE_CAP = 6  # largest rank the Weyl group scans take


class CheckError(Exception):
    """A built-in consistency or oracle check failed.

    Raised explicitly, never through ``assert``, so the checks also run
    under ``python -O``.
    """
