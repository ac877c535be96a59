"""Exception hierarchy shared across the package.

The split mirrors the CLI exit codes: bad inputs (files, specs, graph
definitions) raise :class:`DataError`, failures of the numerics themselves
(factorizations, solver breakdowns, stability guards) raise
:class:`NumericError` or a subclass.
"""


class DataError(ValueError):
    """Invalid user-supplied data: graphs, specs, files, or arguments."""


class NumericError(RuntimeError):
    """A numerical procedure failed beyond recovery."""


class FactorizationError(NumericError):
    """A Cholesky factorization failed: after maximum jitter, or, for the
    lattice likelihood's missing-cell block, which is never jittered, at once."""


class StabilityError(NumericError):
    """An explicit SDE integration step violates its stability guard."""
