"""Exception hierarchy shared by every blockpoly module.

All numerical failures derive from :class:`BlockPolyError` so callers (and the
CLI) can map them to a single exit code while still catching specific modes.
"""


class BlockPolyError(Exception):
    """Base class for all blockpoly errors."""


class DimensionMismatch(BlockPolyError):
    """Operands have incompatible shapes."""


class NotMonic(BlockPolyError):
    """Operation requires a monic matrix polynomial (A_0 = I)."""


class SingularMatrix(BlockPolyError):
    """Pivoted elimination hit a negligible pivot.

    Attributes
    ----------
    pivot_index : int or None
        Zero-based elimination step at which the pivot fell below threshold;
        None when every pivot cleared it but LAPACK could not invert.
    pivot_value : float
        Magnitude of the offending pivot (0.0 when ``pivot_index`` is None).
    block : int
        Index of the failing matrix in the stack that was inverted (0 for a
        single matrix).
    """

    def __init__(self, pivot_index, pivot_value, message=None):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        self.block = 0
        super().__init__(
            message
            or f"singular matrix: pivot {pivot_index} has magnitude {pivot_value:.3e}"
        )


class NoConvergence(BlockPolyError):
    """Iteration budget exhausted before the stopping criterion was met."""

    def __init__(self, message, trace=None):
        self.trace = trace
        super().__init__(message)


class SingularCoefficient(BlockPolyError):
    """A required interior coefficient A_k is singular (Q.D. initialization)."""

    def __init__(self, k):
        self.k = k
        super().__init__(f"coefficient A_{k} is singular")


class SingularPivot(BlockPolyError):
    """A Q-block became singular during a Q.D. sweep.

    Signals dominance-order breakdown or equal-modulus block eigenvalues.
    """

    def __init__(self, block_index, sweep):
        self.block_index = block_index
        self.sweep = sweep
        super().__init__(f"Q-block {block_index} singular at sweep {sweep}")


class SingularStep(BlockPolyError):
    """The step matrix (B_{l-1}, C_{l-1} or Delta) is singular."""


class SingularSylvester(BlockPolyError):
    """The system Σ_j C_j H X^{d-j} = R of a Newton step or a transform is singular."""


class InputNotSolvent(BlockPolyError):
    """A transform received a matrix that fails the solvent residual gate."""


class RankDeficientTransformer(BlockPolyError):
    """A similarity transformer failed its rank-m check."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"transformer {index} is rank deficient")


class DeflationResidualLarge(BlockPolyError):
    """A chain→solvent step's left division left a remainder above the gate."""

    def __init__(self, index, residual):
        self.index = index
        self.residual = residual
        super().__init__(f"deflation at factor {index} left residual {residual:.3e}")


class SolventResidualLarge(BlockPolyError):
    """A chain→solvent step emitted a solvent above the residual gate."""

    def __init__(self, index, residual):
        self.index = index
        self.residual = residual
        super().__init__(f"solvent from transform step {index} has residual {residual:.3e}")


class SpectrumOverlap(BlockPolyError):
    """Chain factors share spectrum; the transform requires disjointness."""


class IncompleteSet(BlockPolyError):
    """A solvent set of the wrong cardinality was supplied."""


class InsufficientTrace(BlockPolyError):
    """A trace with too few iterates was passed to a diagnostic."""


class SingularLeadingCoefficient(BlockPolyError):
    """The numerator's leading coefficient N_k is singular."""


class NumeratorFactorizationFailed(BlockPolyError):
    """The decoupler could not factorize the numerator into block zeros."""


class SingularAtLambda(BlockPolyError):
    """Evaluation point coincides with a latent root of the denominator."""


class PipelineStageError(BlockPolyError):
    """Wraps a solver error with pipeline stage context."""

    def __init__(self, stage, factor_index, cause):
        self.stage = stage
        self.factor_index = factor_index
        self.cause = cause
        super().__init__(
            f"pipeline failed in stage '{stage}' at factor {factor_index}: {cause}"
        )
