"""Matrix polynomials (λ-matrices) and their structural operations.

A degree-``l`` order-``m`` matrix polynomial is

    A(λ) = A_0 λ^l + A_1 λ^{l-1} + ... + A_l,

stored with ``A_0`` first.  Evaluation, division, deflation and the Fréchet
matrix take any A_0; an entry that builds a companion form, a Q.D. tableau
or a factor chain needs ``A_0 = I`` and checks it once.  Spectral factor chains

    A(λ) = (λI - Q_l) ... (λI - Q_2)(λI - Q_1)

are stored rightmost-first: ``factors[0] = Q_1`` is the rightmost factor and
therefore a right solvent; ``factors[-1] = Q_l`` is the leftmost factor and a
left solvent.

Coefficients, chains and solvent sets are each stored as one read-only float
(k, m, m) array built by :func:`linalg.as_blocks`: ``coeffs[i]`` is A_i,
``factors[i]`` is Q_{i+1}, and whole-list operations (transposition,
reversal, batched products) act on the stack at once.

Every left-side operation is its right twin applied to the transposed data.
With pᵀ the polynomial whose coefficients are the transposed A_i,

    A_L(X) = A_Rᵀ(Xᵀ)ᵀ,

and A(λ) = (λI - X) S(λ) + R is the transpose of
Aᵀ(λ) = Sᵀ(λ)(λI - Xᵀ) + Rᵀ, so only the right-side recurrences are coded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotMonic

MONIC_ATOL = 1e-12

#: Eigenvalues this close, relative to max(1, the largest modulus), coincide.
SPECTRUM_TOL = 1e-6


@dataclass(frozen=True)
class MatrixPolynomial:
    """Coefficients A_0 .. A_l of an order-m, degree-l λ-matrix: an (l+1, m, m) stack."""

    coeffs: np.ndarray

    def __init__(self, coeffs):
        if not len(coeffs):
            raise DimensionMismatch("need at least one coefficient")
        object.__setattr__(self, "coeffs", linalg.as_blocks(coeffs))

    @property
    def m(self) -> int:
        """Matrix order."""
        return self.coeffs.shape[1]

    @property
    def l(self) -> int:
        """Polynomial degree."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        """A_0 = I to ``MONIC_ATOL`` in every entry, with no relative tolerance."""
        return bool((np.abs(self.coeffs[0] - np.eye(self.m)) <= MONIC_ATOL).all())

    def require_monic(self):
        if not self.is_monic:
            raise NotMonic("operation requires a monic matrix polynomial")

    def coefficient_scale(self) -> float:
        """max(1, ||A_l||_F): the normalization used for relative residuals."""
        return max(1.0, linalg.frob_norm(self.coeffs[-1]))

    def eval_scalar(self, lam) -> np.ndarray:
        """Evaluate A(λ) at a scalar λ (possibly complex) by Horner nesting."""
        result = np.asarray(self.coeffs[0], dtype=complex)
        for k in range(1, self.l + 1):
            result = result * lam + self.coeffs[k]
        return result


@dataclass(frozen=True)
class SpectralFactorChain:
    """Spectral factors as an (l, m, m) stack; ``factors[0]`` is the rightmost, Q_1."""

    factors: np.ndarray

    def __init__(self, factors):
        if not len(factors):
            raise DimensionMismatch("chain needs at least one factor")
        object.__setattr__(self, "factors", linalg.as_blocks(factors))

    @property
    def m(self) -> int:
        return self.factors.shape[1]

    def __len__(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class SolventSet:
    """Right or left solvents as a (k, m, m) stack; ``side`` is 'right' or 'left'."""

    side: str
    solvents: np.ndarray

    def __init__(self, side, solvents):
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "solvents", linalg.as_blocks(solvents))

    def __len__(self) -> int:
        return len(self.solvents)


@dataclass
class CompletenessReport:
    """Outcome of the complete-set conditions on a solvent set."""

    spectrum_union_matches: bool = False
    pairwise_disjoint: bool = False
    vandermonde_cond: float = float("inf")
    max_pairing_error: float = float("inf")

    @property
    def complete(self) -> bool:
        return bool(self.spectrum_union_matches and self.pairwise_disjoint)


def _transpose(p: MatrixPolynomial) -> MatrixPolynomial:
    """pᵀ: the λ-matrix whose coefficients are the transposed A_i."""
    return MatrixPolynomial(p.coeffs.transpose(0, 2, 1))


def _square(p: MatrixPolynomial, x) -> np.ndarray:
    """x as an m x m matrix for p, checked before any transposition."""
    x = linalg.as_matrix(x)
    if x.shape != (p.m, p.m):
        raise DimensionMismatch(f"x must be {p.m}x{p.m}, got {x.shape}")
    return x


def eval_right(p: MatrixPolynomial, x) -> np.ndarray:
    """A_R(X) = Σ A_i X^{l-i}, computed by the nested block recursion."""
    x = _square(p, x)
    b = p.coeffs[0].copy()
    for k in range(1, p.l + 1):
        b = b @ x + p.coeffs[k]
    return b


def eval_left(p: MatrixPolynomial, x) -> np.ndarray:
    """A_L(X) = Σ X^{l-i} A_i, evaluated as A_Rᵀ(Xᵀ)ᵀ."""
    return eval_right(_transpose(p), _square(p, x).T).T


def synthetic_div_right(p: MatrixPolynomial, x):
    """Divide A(λ) = Q(λ)(λI - X) + R on the right, for any A_0.

    Returns ``(quotient, remainder)``.  The recurrence B_0 = A_0,
    B_k = A_k + B_{k-1} X gives the quotient coefficients B_0..B_{l-1}, so
    the quotient leads with A_0, and its last term B_l = A_R(X) is the
    remainder (the generalized Bézout theorem).  A non-finite quotient
    raises ``DimensionMismatch``.
    """
    x = _square(p, x)
    if p.l == 0:
        raise DimensionMismatch("cannot divide a degree-0 polynomial")
    b = p.coeffs.copy()
    for k in range(1, p.l + 1):
        b[k] = p.coeffs[k] + b[k - 1] @ x
    return MatrixPolynomial(b[:-1]), b[-1]


def synthetic_div_left(p: MatrixPolynomial, x):
    """Divide A(λ) = (λI - X) S(λ) + A_L(X) on the left, for any A_0, as the
    transpose of the right division of pᵀ by (λI - Xᵀ); S leads with A_0."""
    quotient, remainder = synthetic_div_right(_transpose(p), _square(p, x).T)
    return _transpose(quotient), remainder.T


def companion_right(p: MatrixPolynomial) -> np.ndarray:
    """Block companion with -A_l ... -A_1 along the last block row."""
    p.require_monic()
    c = np.eye(p.m * p.l, k=p.m)
    c[-p.m:] = np.hstack(-p.coeffs[:0:-1])
    return c


def block_vandermonde(s: SolventSet) -> np.ndarray:
    """Block Vandermonde V: block column j holds I, R_j, ..., R_j^{l-1} for a
    right set.  A left set gives the transpose of that layout built from the
    transposed solvents, so block row j holds I, L_j, ..., L_j^{l-1}.
    """
    if s.side == "left":
        return block_vandermonde(SolventSet("right", s.solvents.transpose(0, 2, 1))).T
    l, m = s.solvents.shape[:2]
    powers = np.empty((l, l, m, m))       # powers[i, j] = R_j^i
    powers[0] = np.eye(m)
    for i in range(1, l):
        powers[i] = powers[i - 1] @ s.solvents
    return powers.transpose(0, 2, 1, 3).reshape(m * l, m * l)


def _pair_spectra(target, candidate):
    """Greedy nearest-pair matching; returns the max pairing distance."""
    remaining = list(candidate)
    worst = 0.0
    for t in target:
        if not remaining:
            return float("inf")
        dists = [abs(t - c) for c in remaining]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        remaining.pop(k)
    return worst


def spectral_overlap(spectra, bound):
    """The first pair ``(i, j, gap)``, i < j, of rows of the (k, m) eigenvalue
    array ``spectra`` whose closest eigenvalues lie within ``bound``; or None."""
    gaps = np.abs(spectra[:, None, :, None] - spectra[None, :, None, :]).min(axis=(2, 3))
    close = np.argwhere(np.triu(gaps <= bound, 1))
    if not len(close):
        return None
    i, j = close[0]
    return int(i), int(j), gaps[i, j]


def check_order(p: MatrixPolynomial, blocks: np.ndarray, what: str) -> None:
    """Raise ``DimensionMismatch`` unless a (k, m, m) stack has p's order m."""
    if blocks.shape[1] != p.m:
        raise DimensionMismatch(
            f"{what} have order {blocks.shape[1]}, the polynomial has order {p.m}")


def check_chain(p: MatrixPolynomial, chain: SpectralFactorChain) -> None:
    """Raise ``DimensionMismatch`` unless a chain has p's order and l factors."""
    check_order(p, chain.factors, "factors")
    if len(chain) != p.l:
        raise DimensionMismatch(
            f"the chain has {len(chain)} factors, the polynomial has degree {p.l}")


def is_complete_set(p: MatrixPolynomial, s: SolventSet) -> CompletenessReport:
    """Check the complete-set conditions: the solvents' spectra pair with the
    latent roots, and are pairwise disjoint.

    These two decide ``complete``: right solvents with pairwise disjoint
    spectra always have a nonsingular block Vandermonde (Dennis, Traub &
    Weber, SIAM J. Numer. Anal. 13(6), 1976).  V's condition number is
    reported as a measure of how close the set is to losing that.
    """
    check_order(p, s.solvents, "solvents")
    report = CompletenessReport()
    if len(s) != p.l:
        return report
    companion_eigs = linalg.eigvals(companion_right(p))
    solvent_eigs = np.linalg.eigvals(s.solvents)
    scale = max(1.0, float(np.max(np.abs(companion_eigs))))
    report.max_pairing_error = _pair_spectra(companion_eigs, solvent_eigs.ravel())
    report.spectrum_union_matches = report.max_pairing_error <= SPECTRUM_TOL * scale
    report.pairwise_disjoint = spectral_overlap(solvent_eigs, SPECTRUM_TOL * scale) is None
    sv = np.linalg.svd(block_vandermonde(s), compute_uv=False)
    report.vandermonde_cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    return report


def reconstruct(chain: SpectralFactorChain) -> MatrixPolynomial:
    """Multiply out (λI - Q_l)...(λI - Q_1) into coefficient form."""
    f = chain.factors
    coeffs = np.zeros((len(f) + 1, chain.m, chain.m))
    coeffs[0] = np.eye(chain.m)
    for k in range(1, len(f) + 1):
        # left-multiply the accumulated degree-(k-1) polynomial by (λI - Q_k)
        coeffs[1:k + 1] -= f[k - 1] @ coeffs[:k]
    return MatrixPolynomial(coeffs)


def latent_roots(p: MatrixPolynomial) -> np.ndarray:
    """The ml latent roots: eigenvalues of the right block companion."""
    return linalg.eigvals(companion_right(p))


def residual_right(p: MatrixPolynomial, x) -> float:
    """Relative right-evaluation residual ||A_R(X)||_F / max(1, ||A_l||_F)."""
    return linalg.frob_norm(eval_right(p, x)) / p.coefficient_scale()


def residual_left(p: MatrixPolynomial, x) -> float:
    """Relative left-evaluation residual."""
    return linalg.frob_norm(eval_left(p, x)) / p.coefficient_scale()
