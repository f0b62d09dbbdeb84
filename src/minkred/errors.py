"""Exception hierarchy shared by all modules.

Every failure mode that callers are expected to distinguish ("dependent"
vs "not primitive", an unreduced form vs an unsupported dimension) gets
its own class; everything derives from LatticeError so blanket handling
stays possible. Outside input beyond an entry point's domain raises
InvalidInputError.
"""


class LatticeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(LatticeError, ValueError):
    """Vector/matrix dimensions do not agree."""


class NotSymmetricError(LatticeError, ValueError):
    """A Gram matrix candidate is not symmetric."""


class NotPositiveDefiniteError(LatticeError, ValueError):
    """A form required to be positive definite is not.

    ``pivot_index`` is the 0-based index of the first non-positive
    LDL pivot.
    """

    def __init__(self, pivot_index, message=None):
        self.pivot_index = pivot_index
        super().__init__(
            message or f"form is not positive definite (pivot {pivot_index} <= 0)"
        )


class InvalidInputError(LatticeError, ValueError):
    """Outside input lies outside the domain of the entry point it names."""


class NotUnimodularError(InvalidInputError):
    """apply_transform's T has a non-integral entry or determinant not +-1."""


class DependentVectorsError(LatticeError, ValueError):
    """Input vectors are linearly dependent (distinct from "not primitive")."""


class NotPrimitiveError(LatticeError, ValueError):
    """A vector system required to be primitive is not."""


class UnsupportedDimensionError(LatticeError, ValueError):
    """Requested dimension is outside the range covered by the finite tables."""


class NotReducedError(LatticeError, ValueError):
    """An operation requiring a Minkowski-reduced input got an unreduced one."""


class ReductionCapError(LatticeError, RuntimeError):
    """A reduction loop exceeded its iteration cap (treated as a bug).

    Nothing in minkred raises it now: reduction is one greedy pass with no
    loop to cap. It is kept because the benchmark's gate test raises it by
    name (bench/test_bench.py). Carries the trace of fixes applied so far
    for post-mortem.
    """

    def __init__(self, trace, message=None):
        self.trace = trace
        super().__init__(message or f"iteration cap exceeded after {len(trace)} fixes")
