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
(k, m, m) array: ``coeffs[i]`` is A_i, ``factors[i]`` is Q_{i+1}, and
whole-list operations (transposition, reversal, batched products) act on the
stack at once.  The constructors check a caller's blocks with
:func:`linalg.as_blocks`, and ``_square`` a caller's X.  The unchecked
functions ``_horner`` (the one right-side Horner kernel), ``_residual``
(the one residual kernel), ``synthetic_div_right``, ``synthetic_div_left``,
``_transpose`` and ``reconstruct`` see only blocks the package built or
checked; ``_built`` wraps the stacks they build.

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
            raise NotMonic("the polynomial is not monic: its leading coefficient A_0 must be I")

    def coefficient_scale(self) -> float:
        """max(1, ||A_l||_F): the normalization used for relative residuals."""
        return max(1.0, linalg._max_norm(self.coeffs[-1]))

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
        object.__setattr__(self, "factors", linalg.as_blocks(factors))

    @property
    def m(self) -> int:
        return self.factors.shape[1]

    def __len__(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class SolventSet:
    """Right or left solvents as a (k, m, m) stack; ``side`` is 'right' or 'left'.

    ``residuals`` holds each solvent's relative residual on the polynomial
    when the set comes from a chain's transform, which gates them; it is
    None for a set built from given solvents.
    """

    side: str
    solvents: np.ndarray
    residuals: tuple | None = None

    def __init__(self, side, solvents, residuals=None):
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "solvents", linalg.as_blocks(solvents))
        object.__setattr__(self, "residuals", residuals)

    def __len__(self) -> int:
        return len(self.solvents)


@dataclass
class CompletenessReport:
    """Outcome of the complete-set conditions on a solvent set."""

    spectrum_union_matches: bool = False
    pairwise_disjoint: bool = False
    vandermonde_cond: float = float("inf")

    @property
    def complete(self) -> bool:
        return bool(self.spectrum_union_matches and self.pairwise_disjoint)


def _built(cls, blocks: np.ndarray):
    """The one-field stack class ``cls`` over a stack the package built, unchecked."""
    obj, view = object.__new__(cls), blocks.view()
    view.flags.writeable = False
    object.__setattr__(obj, next(iter(cls.__dataclass_fields__)), view)
    return obj


def _transpose(p: MatrixPolynomial) -> MatrixPolynomial:
    """pᵀ: the λ-matrix whose coefficients are the transposed A_i."""
    return _built(MatrixPolynomial, p.coeffs.transpose(0, 2, 1))


def _square(p: MatrixPolynomial, x) -> np.ndarray:
    """x as an m x m matrix for p, checked before any transposition."""
    x = linalg.as_matrix(x)
    if x.shape != (p.m, p.m):
        raise DimensionMismatch(f"x must be {p.m}x{p.m}, got {x.shape}")
    return x


def _horner(coeffs: np.ndarray, x) -> np.ndarray:
    """B_0 = A_0, B_k = A_k + B_{k-1} X: the right quotient B_0..B_{l-1}, then A_R(X)."""
    b = coeffs.copy()
    for k in range(1, len(b)):
        b[k] += b[k - 1] @ x
    return b


def eval_right(p: MatrixPolynomial, x) -> np.ndarray:
    """A_R(X) = Σ A_i X^{l-i}, computed by the nested block recursion."""
    return _horner(p.coeffs, _square(p, x))[-1]


def eval_left(p: MatrixPolynomial, x) -> np.ndarray:
    """A_L(X) = Σ X^{l-i} A_i, evaluated as A_Rᵀ(Xᵀ)ᵀ."""
    return _horner(p.coeffs.transpose(0, 2, 1), _square(p, x).T)[-1].T


def synthetic_div_right(p: MatrixPolynomial, x):
    """Divide A(λ) = Q(λ)(λI - X) + R on the right, for any A_0: returns
    ``(quotient, remainder)``, ``_horner``'s B_0..B_{l-1}, which lead with A_0,
    and B_l = A_R(X) (the generalized Bézout theorem).  A non-finite quotient
    raises ``DimensionMismatch``."""
    if p.l == 0:
        raise DimensionMismatch("cannot divide a degree-0 polynomial")
    b = _horner(p.coeffs, x)
    if not np.isfinite(b[:-1]).all():
        raise DimensionMismatch("matrix contains non-finite entries")
    return _built(MatrixPolynomial, b[:-1]), b[-1]


def synthetic_div_left(p: MatrixPolynomial, x):
    """Divide A(λ) = (λI - X) S(λ) + A_L(X) on the left, for any A_0, as the
    transpose of the right division of pᵀ by (λI - Xᵀ); S leads with A_0.

    No package code calls it: the solvent conversions make that right
    division themselves, through ``transforms.deflate_right``.  It stays
    while ``bench/tracer.py`` names it as a span."""
    quotient, remainder = synthetic_div_right(_transpose(p), np.transpose(x))
    return _transpose(quotient), remainder.T


def companion_right(p: MatrixPolynomial) -> np.ndarray:
    """Block companion with -A_l ... -A_1 along the last block row."""
    p.require_monic()
    return _companion(p)


def _companion(p: MatrixPolynomial) -> np.ndarray:
    """:func:`companion_right` of a p already tested monic."""
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
    latent roots, and are pairwise disjoint.  p must be monic; its callers
    test that.

    These two decide ``complete``: right solvents with pairwise disjoint
    spectra always have a nonsingular block Vandermonde (Dennis, Traub &
    Weber, SIAM J. Numer. Anal. 13(6), 1976).  V's condition number is
    reported as a measure of how close the set is to losing that.
    """
    check_order(p, s.solvents, "solvents")
    report = CompletenessReport()
    if len(s) != p.l:
        return report
    roots = np.linalg.eigvals(_companion(p))
    solvent_eigs = np.linalg.eigvals(s.solvents)
    scale = max(1.0, float(np.max(np.abs(roots))))
    pairing_error = _pair_spectra(roots, solvent_eigs.ravel())
    report.spectrum_union_matches = pairing_error <= SPECTRUM_TOL * scale
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
    return _built(MatrixPolynomial, coeffs)


def latent_roots(p: MatrixPolynomial) -> np.ndarray:
    """The ml latent roots: eigenvalues of the right block companion."""
    return np.linalg.eigvals(companion_right(p))


def _residual(p: MatrixPolynomial, x: np.ndarray) -> float:
    """The relative residual ||A_R(X)||_F / max(1, ||A_l||_F), the one kernel
    of every evaluation residual the package reports or gates."""
    return linalg.frob_norm(_horner(p.coeffs, x)[-1]) / p.coefficient_scale()


def residual_right(p: MatrixPolynomial, x) -> float:
    """Relative right-evaluation residual ||A_R(X)||_F / max(1, ||A_l||_F)."""
    return _residual(p, _square(p, x))


def residual_left(p: MatrixPolynomial, x) -> float:
    """Relative left-evaluation residual: pᵀ's right one at Xᵀ, so
    ||A_L(X)||_F / max(1, ||A_l||_F)."""
    return _residual(_transpose(p), _square(p, x).T)
