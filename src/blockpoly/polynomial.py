"""Matrix polynomials (λ-matrices) and their structural operations.

A degree-``l`` order-``m`` matrix polynomial is

    A(λ) = A_0 λ^l + A_1 λ^{l-1} + ... + A_l,

stored with ``A_0`` first.  All solver modules require monic input
(``A_0 = I``).  Spectral factor chains

    A(λ) = (λI - Q_l) ... (λI - Q_2)(λI - Q_1)

are stored rightmost-first: ``factors[0] = Q_1`` is the rightmost factor and
therefore a right solvent; ``factors[-1] = Q_l`` is the leftmost factor and a
left solvent.

Every left-side operation is its right twin applied to the transposed data.
With pᵀ the polynomial whose coefficients are the transposed A_i,

    A_L(X) = A_Rᵀ(Xᵀ)ᵀ,

and A(λ) = (λI - X) S(λ) + R is the transpose of
Aᵀ(λ) = Sᵀ(λ)(λI - Xᵀ) + Rᵀ, so only the right-side recurrences are coded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotMonic

MONIC_ATOL = 1e-12


@dataclass(frozen=True)
class MatrixPolynomial:
    """Coefficients ``[A_0, A_1, ..., A_l]`` of an order-m, degree-l λ-matrix."""

    coeffs: tuple

    def __init__(self, coeffs):
        mats = tuple(linalg.as_matrix(c) for c in coeffs)
        if not mats:
            raise DimensionMismatch("need at least one coefficient")
        m = mats[0].shape[0]
        for c in mats:
            if c.shape != (m, m):
                raise DimensionMismatch(
                    f"all coefficients must be {m}x{m}, got {c.shape}"
                )
        object.__setattr__(self, "coeffs", mats)

    @classmethod
    def _wrap(cls, mats):
        """A polynomial on finite m x m float arrays that need no checks."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(mats))
        return p

    @property
    def m(self) -> int:
        """Matrix order."""
        return self.coeffs[0].shape[0]

    @property
    def l(self) -> int:
        """Polynomial degree."""
        return len(self.coeffs) - 1

    @cached_property
    def is_monic(self) -> bool:
        """A_0 = I to ``MONIC_ATOL``; computed once, the coefficients are frozen."""
        return bool(
            np.allclose(self.coeffs[0], np.eye(self.m), atol=MONIC_ATOL)
        )

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
    """Ordered spectral factors, ``factors[0]`` = rightmost factor Q_1."""

    factors: tuple

    def __init__(self, factors):
        mats = tuple(linalg.as_matrix(f) for f in factors)
        if not mats:
            raise DimensionMismatch("chain needs at least one factor")
        m = mats[0].shape[0]
        for f in mats:
            if f.shape != (m, m):
                raise DimensionMismatch(f"all factors must be {m}x{m}")
        object.__setattr__(self, "factors", mats)

    @property
    def m(self) -> int:
        return self.factors[0].shape[0]

    def __len__(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class SolventSet:
    """A set of right or left solvents. ``side`` is 'right' or 'left'."""

    side: str
    solvents: tuple

    def __init__(self, side, solvents):
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        mats = tuple(linalg.as_matrix(s) for s in solvents)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "solvents", mats)

    def __len__(self) -> int:
        return len(self.solvents)


@dataclass
class CompletenessReport:
    """Outcome of the complete-set conditions on a solvent set."""

    spectrum_union_matches: bool = False
    pairwise_disjoint: bool = False
    vandermonde_det: float = 0.0
    vandermonde_cond: float = float("inf")
    max_pairing_error: float = float("inf")

    @property
    def complete(self) -> bool:
        return (
            self.spectrum_union_matches
            and self.pairwise_disjoint
            and self.vandermonde_det != 0.0
        )


def _transpose(p: MatrixPolynomial) -> MatrixPolynomial:
    """pᵀ: the λ-matrix whose coefficients are the transposed A_i."""
    t = MatrixPolynomial._wrap([c.T for c in p.coeffs])
    if "is_monic" in vars(p):
        # A_0ᵀ is as close to I as A_0, entry for entry.
        vars(t)["is_monic"] = p.is_monic
    return t


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
    """Divide A(λ) = Q(λ)(λI - X) + R on the right.

    Returns ``(quotient, remainder)``.  The recurrence B_0 = I,
    B_k = A_k + B_{k-1} X gives the quotient coefficients B_0..B_{l-1}, and
    its last term B_l = A_R(X) is the remainder.
    """
    p.require_monic()
    x = _square(p, x)
    if p.l == 0:
        raise DimensionMismatch("cannot divide a degree-0 polynomial")
    b = [p.coeffs[0].copy()]
    for k in range(1, p.l + 1):
        b.append(p.coeffs[k] + b[-1] @ x)
    if not np.isfinite(b[:-1]).all():
        raise DimensionMismatch("matrix contains non-finite entries")
    return MatrixPolynomial._wrap(b[:-1]), b[-1]


def synthetic_div_left(p: MatrixPolynomial, x):
    """Divide A(λ) = (λI - X) S(λ) + R on the left, as the transpose of the
    right division of pᵀ by (λI - Xᵀ)."""
    quotient, remainder = synthetic_div_right(_transpose(p), _square(p, x).T)
    return _transpose(quotient), remainder.T


def companion_right(p: MatrixPolynomial) -> np.ndarray:
    """Block companion with -A_l ... -A_1 along the last block row."""
    p.require_monic()
    m, l = p.m, p.l
    c = np.zeros((m * l, m * l))
    for i in range(l - 1):
        c[i * m:(i + 1) * m, (i + 1) * m:(i + 2) * m] = np.eye(m)
    for j in range(l):
        c[(l - 1) * m:, j * m:(j + 1) * m] = -p.coeffs[l - j]
    return c


def block_vandermonde(s: SolventSet) -> np.ndarray:
    """Block Vandermonde V: block column j holds I, R_j, ..., R_j^{l-1} for a
    right set.  A left set gives the transpose of that layout built from the
    transposed solvents, so block row j holds I, L_j, ..., L_j^{l-1}.
    """
    if s.side == "left":
        return block_vandermonde(SolventSet("right", [x.T for x in s.solvents])).T
    l = len(s)
    m = s.solvents[0].shape[0]
    v = np.zeros((m * l, m * l))
    for j, x in enumerate(s.solvents):
        power = np.eye(m)
        for i in range(l):
            v[i * m:(i + 1) * m, j * m:(j + 1) * m] = power
            power = power @ x
    return v


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


def is_complete_set(p: MatrixPolynomial, s: SolventSet, tol: float = 1e-6) -> CompletenessReport:
    """Check the complete-set conditions: spectrum union, disjointness, det V."""
    report = CompletenessReport()
    if len(s) != p.l:
        return report
    companion_eigs = linalg.eigvals(companion_right(p))
    solvent_eigs = [linalg.eigvals(x) for x in s.solvents]
    union = np.concatenate(solvent_eigs)
    scale = max(1.0, float(np.max(np.abs(companion_eigs))))
    report.max_pairing_error = _pair_spectra(companion_eigs, union)
    report.spectrum_union_matches = report.max_pairing_error <= tol * scale
    disjoint = True
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            d = np.min(
                np.abs(solvent_eigs[i][:, None] - solvent_eigs[j][None, :])
            )
            if d <= tol * scale:
                disjoint = False
    report.pairwise_disjoint = disjoint
    v = block_vandermonde(s)
    report.vandermonde_det = linalg.det(v)
    sv = np.linalg.svd(v, compute_uv=False)
    report.vandermonde_cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    return report


def reconstruct(chain: SpectralFactorChain) -> MatrixPolynomial:
    """Multiply out (λI - Q_l)...(λI - Q_1) into coefficient form."""
    m = chain.m
    coeffs = [np.eye(m), -chain.factors[0]]
    for q in chain.factors[1:]:
        # left-multiply the accumulated polynomial by (λI - q)
        new = [coeffs[0]]
        for k in range(1, len(coeffs)):
            new.append(coeffs[k] - q @ coeffs[k - 1])
        new.append(-q @ coeffs[-1])
        coeffs = new
    return MatrixPolynomial(coeffs)


def latent_roots(p: MatrixPolynomial) -> np.ndarray:
    """The ml latent roots: eigenvalues of the right block companion."""
    p.require_monic()
    return linalg.eigvals(companion_right(p))


def residual_right(p: MatrixPolynomial, x) -> float:
    """Relative right-evaluation residual ||A_R(X)||_F / max(1, ||A_l||_F)."""
    return linalg.frob_norm(eval_right(p, x)) / p.coefficient_scale()


def residual_left(p: MatrixPolynomial, x) -> float:
    """Relative left-evaluation residual."""
    return linalg.frob_norm(eval_left(p, x)) / p.coefficient_scale()
