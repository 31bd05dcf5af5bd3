"""Block-pole-placement decoupling of a right matrix-fraction description.

Given H(λ) = N(λ) D(λ)^{-1} with N of degree k (ascending coefficients
N_0..N_k, N_k nonsingular) and D monic of degree l > k, the numerator is
factorized into its block-zero chain N(λ) = N_k (λI - Z_{leftmost}) ...
(λI - Z_{rightmost}); the desired denominator chain places those zeros in the
SAME right-to-left positions so they cancel exactly, and fills the remaining
l - k leftmost positions with conjugated mode blocks inv(N_k) J_i N_k.  With
input transform F = inv(N_k) the closed loop collapses to

    H_closed(λ) = N(λ) D_d(λ)^{-1} F = Π (λI - J_i)^{-1},

which is diagonal when the J_i are diagonal.  Note the conjugation
orientation inv(N_k) J N_k (not N_k J inv(N_k)): only this orientation
cancels the N_k factors bracketing the chain, a fact checked directly by the
closed-loop identity test.

Feedback gains are reported in block-controller coordinates,
K_ci = D_di - D_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    BlockPolyError,
    DimensionMismatch,
    NumeratorFactorizationFailed,
    SingularAtLambda,
    SingularLeadingCoefficient,
    SingularMatrix,
)
from .pipeline import factorize_nonmonic
from .polynomial import (MatrixPolynomial, SpectralFactorChain, _built, companion_right,
                         reconstruct)


@dataclass(frozen=True)
class MFDSystem:
    """Right MFD with ascending coefficient stacks (index = power of λ).

    ``numerator[i]`` is N_i, ``denominator[i]`` is D_i; D_l must be the
    identity and the numerator degree must be strictly smaller.
    """

    numerator: np.ndarray
    denominator: np.ndarray

    def __init__(self, numerator, denominator):
        num = linalg.as_blocks(numerator)
        den = linalg.as_blocks(denominator)
        m = den.shape[1]
        if num.shape[1] != m:
            raise DimensionMismatch(f"all coefficients must be {m}x{m}")
        if len(num) >= len(den):
            raise DimensionMismatch("need deg N < deg D")
        if not _built(MatrixPolynomial, den[::-1]).is_monic:
            raise DimensionMismatch("denominator must be monic (D_l = I)")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @property
    def m(self) -> int:
        return self.denominator.shape[1]

    @property
    def k(self) -> int:
        """Numerator degree."""
        return len(self.numerator) - 1

    @property
    def l(self) -> int:
        """Denominator degree."""
        return len(self.denominator) - 1

    def numerator_polynomial(self) -> MatrixPolynomial:
        """Descending-coefficient view (leading N_k first)."""
        return _built(MatrixPolynomial, self.numerator[::-1])

    def denominator_polynomial(self) -> MatrixPolynomial:
        return _built(MatrixPolynomial, self.denominator[::-1])


@dataclass
class DecouplingResult:
    """Everything the state-feedback decoupling design produces."""

    F: np.ndarray
    desired_chain: SpectralFactorChain
    Dd: MatrixPolynomial                  # monic, descending coefficients
    Kc_blocks: np.ndarray                 # [K_c0, ..., K_c,l-1] ascending
    J_blocks: list
    zero_chain: SpectralFactorChain | None  # numerator block zeros, rightmost-first
    zero_residuals: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def design_decoupling(sys: MFDSystem, modes: list) -> DecouplingResult:
    """Design the decoupling feedback for ``sys`` with desired mode blocks.

    ``modes`` supplies the l - k diagonal blocks J_1..J_{l-k}.
    """
    k, l = sys.k, sys.l
    j_blocks = [linalg.as_matrix(j) for j in modes]
    if len(j_blocks) != l - k:
        raise DimensionMismatch(f"need {l - k} mode blocks, got {len(j_blocks)}")
    warnings = []
    for i, j in enumerate(j_blocks):
        if j.shape != (sys.m, sys.m):
            raise DimensionMismatch(f"mode block {i} has shape {j.shape}, need {sys.m}x{sys.m}")
        if np.any(np.real(np.linalg.eigvals(j)) >= 0):
            warnings.append(
                "a desired mode block has eigenvalues with non-negative real "
                "part; the closed loop will not be asymptotically stable"
            )
    n_lead = sys.numerator[-1]
    try:
        n_lead_inv = linalg.invert(n_lead)
    except SingularMatrix as exc:
        raise SingularLeadingCoefficient(str(exc)) from exc

    zero_chain, zero_residuals = None, []
    if k > 0:
        try:
            zero_chain, report, _ = factorize_nonmonic(sys.numerator_polynomial(), n_lead_inv)
        except BlockPolyError as exc:
            raise NumeratorFactorizationFailed(str(exc)) from exc
        zero_residuals = list(report.per_factor_residuals)

    # Desired chain, rightmost-first: the numerator zeros keep their positions
    # (so they cancel), the conjugated mode blocks fill the leftmost slots.
    desired = np.array([n_lead_inv @ j @ n_lead for j in j_blocks])
    if zero_chain is not None:
        desired = np.concatenate([zero_chain.factors, desired])
    desired_chain = SpectralFactorChain(desired)
    dd = reconstruct(desired_chain)

    # K_ci = D_di - D_i in ascending index i = 0..l-1 (dd.coeffs is descending).
    kc = dd.coeffs[:0:-1] - sys.denominator[:-1]
    return DecouplingResult(
        F=n_lead_inv,
        desired_chain=desired_chain,
        Dd=dd,
        Kc_blocks=kc,
        J_blocks=j_blocks,
        zero_chain=zero_chain,
        zero_residuals=zero_residuals,
        warnings=warnings,
    )


def closed_loop_eval(sys: MFDSystem, res: DecouplingResult, lam):
    """Evaluate the closed loop and its diagonal target at a scalar λ.

    Returns ``(h_closed, target)`` with
    h_closed = N(λ) D_d(λ)^{-1} F and target = Π (λI - J_i)^{-1}.
    """
    try:
        lam = complex(lam)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"λ must be a number, got {lam!r}") from exc
    if not np.isfinite(lam):
        raise DimensionMismatch(f"λ must be finite, got {lam}")
    n_val = sys.numerator_polynomial().eval_scalar(lam)
    dd_val = res.Dd.eval_scalar(lam)
    cond = np.linalg.cond(dd_val)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularAtLambda(f"D_d({lam}) is numerically singular")
    h_closed = n_val @ np.linalg.inv(dd_val) @ res.F
    m = sys.m
    target = np.eye(m, dtype=complex)
    for j in res.J_blocks:
        target = target @ np.linalg.inv(lam * np.eye(m) - j)
    return h_closed, target


def controller_form(sys: MFDSystem):
    """Block-controller realization (A_c, B_c, C_c) of N(λ) D(λ)^{-1}.

    A_c is the bottom-row block companion of D; B_c = [0; ...; 0; I];
    C_c = [N_0, N_1, ..., N_{l-1}] (numerator blocks zero-padded to l).
    """
    m, l = sys.m, sys.l
    a_c = companion_right(sys.denominator_polynomial())
    b_c = np.eye(m * l, m, k=-(l - 1) * m)
    c_c = np.zeros((m, m * l))
    c_c[:, :m * (sys.k + 1)] = np.hstack(sys.numerator)
    return a_c, b_c, c_c
