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


class cached_view:
    """A view of an instance, worked out on its first read and kept in the
    instance ``__dict__``, which every later read finds first.

    ``functools.cached_property`` does the same, but before Python 3.12 it
    takes a lock on every first computation.  A view that raises stores
    nothing and raises again on the next read.  A frozen dataclass takes
    the value too: it goes into ``__dict__``, not through ``__setattr__``.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value
