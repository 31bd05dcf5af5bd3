"""Similarity-transform conversions between chains and solvent sets.

Chain storage is rightmost-first throughout (``factors[0]`` is the rightmost
factor of the product).  :func:`chain_to_right_solvents` processes the chain
from its LEFTMOST factor inward: factor Q is pulled out of the current
polynomial by left synthetic division, and the remaining (deflated)
coefficients A_{ji} give the polynomial Sylvester equation

    Σ_j A_{ji} P Q^{d-j} = I

whose solution P is the similarity with R = P Q P^{-1}, solved by
:func:`linalg.solve_sylvester`, which holds the vec/Kronecker convention.
:func:`right_to_left_solvent` is this same step on the transposed data, and
:func:`right_solvents_to_chain` shares its rank-checked conjugation.

The left-side transforms are the right ones applied to the transposed data.
Transposing A(λ) = (λI - Q_l) ... (λI - Q_1) gives
Aᵀ(λ) = (λI - Q_1ᵀ) ... (λI - Q_lᵀ), whose right solvents are the transposed
left solvents of A.  Output solvent sets are indexed so that R_i and L_i
share spectrum (index 1 carries the leftmost factor's spectrum, matching the
worked-example ordering R_l = rightmost factor = right solvent).
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import (
    DeflationResidualLarge,
    IncompleteSet,
    InputNotSolvent,
    RankDeficientTransformer,
    SolventResidualLarge,
    SpectrumOverlap,
)
from .polynomial import (
    SPECTRUM_TOL,
    MatrixPolynomial,
    SolventSet,
    SpectralFactorChain,
    _horner,
    _square,
    _transpose,
    check_chain,
    check_order,
    spectral_overlap,
    synthetic_div_left,
    synthetic_div_right,
)

#: Relative-residual gate for matrices claimed to be solvents/factors.
SOLVENT_GATE = 1e-6

#: σ_min / σ_max at or below this fails the rank-m check.
RANK_TOL = 1e-10


def _rank_check(t: np.ndarray) -> bool:
    sv = np.linalg.svd(t, compute_uv=False)
    return bool(sv[-1] > RANK_TOL * sv[0])


def _conjugate(t: np.ndarray, x: np.ndarray, index: int) -> np.ndarray:
    """T X T⁻¹, once T passes the rank-m check as transformer ``index``."""
    if not _rank_check(t):
        raise RankDeficientTransformer(index)
    return t @ x @ linalg.invert(t)


def _similarity_step(coeffs: np.ndarray, q: np.ndarray, index: int):
    """P solving Σ_j A_j P Q^{d-j} = I for the quotient coefficients A_j, and P Q P⁻¹."""
    pmat = linalg.solve_sylvester(coeffs, q, np.eye(len(q)))
    return pmat, _conjugate(pmat, q, index)


def right_to_left_solvent(p: MatrixPolynomial, r):
    """Convert a right solvent R into a left solvent L = Q^{-1} R Q; returns (L, Q).

    With B(λ) the quotient of A(λ) divided by (λI - R) on the right, Rᵀ is
    the leftmost factor of Aᵀ(λ) = Bᵀ(λ)(λI - Rᵀ), so Lᵀ is the similarity
    step of :func:`chain_to_right_solvents` on (Bᵀ, Rᵀ) with P = Qᵀ.
    """
    p.require_monic()
    r = _square(p, r)
    quotient, rel = deflate_right(p, r)
    if rel > SOLVENT_GATE:
        raise InputNotSolvent(
            f"right-solvent residual {rel:.3e} exceeds gate {SOLVENT_GATE:.1e}")
    pmat, left = _similarity_step(quotient.coeffs.transpose(0, 2, 1), r.T, 0)
    return left.T, pmat.T


def _check_disjoint(chain: SpectralFactorChain):
    spectra = np.linalg.eigvals(chain.factors)
    scale = max(1.0, float(np.max(np.abs(spectra))))
    overlap = spectral_overlap(spectra, SPECTRUM_TOL * scale)
    if overlap is not None:
        raise SpectrumOverlap(
            "factors {} and {} share spectrum (min gap {:.3e})".format(*overlap)
        )


def _chain_solvents(p: MatrixPolynomial, factors: np.ndarray, side: str = "right") -> SolventSet:
    """The ``side`` solvents of a checked chain's factors, right ones leftmost
    factor first, and the residuals that gated them.  The left ones are pᵀ's
    right ones, transposed back and reversed so that L_i pairs with R_i."""
    if side == "left":
        p, factors = _transpose(p), factors[::-1].transpose(0, 2, 1)
    current = p
    solvents, residuals = [], []
    scale = p.coefficient_scale()
    for step, q in enumerate(factors[::-1]):
        solvent = q
        if current.l > 1:
            current, remainder = synthetic_div_left(current, q)
            rem = linalg.frob_norm(remainder) / scale
            if rem > SOLVENT_GATE:
                raise DeflationResidualLarge(step, rem)
            solvent = _similarity_step(current.coeffs, q, step)[1]
        res = linalg.frob_norm(_horner(p.coeffs, solvent)[-1]) / scale
        if res > SOLVENT_GATE:
            raise SolventResidualLarge(step, res)
        solvents.append(solvent)
        residuals.append(res)
    if side == "left":
        solvents, residuals = np.array(solvents)[::-1].transpose(0, 2, 1), residuals[::-1]
    return SolventSet(side, solvents, tuple(residuals))


def chain_to_right_solvents(p: MatrixPolynomial, chain: SpectralFactorChain) -> SolventSet:
    """Recover the complete right solvent set from a factor chain.

    Processes the chain leftmost-first; each step left-divides the current
    polynomial by (λI - Q), solves Σ_j A_j P Q^{d-j} = I for P, and emits
    R = P Q P^{-1}.  Output index 1 carries the leftmost factor's spectrum;
    the last output equals the rightmost factor (P = I there).  Each emitted
    solvent must be a right solvent of p to the gate, or the step fails.
    """
    p.require_monic()
    check_chain(p, chain)
    _check_disjoint(chain)
    return _chain_solvents(p, chain.factors)


def chain_to_left_solvents(p: MatrixPolynomial, chain: SpectralFactorChain) -> SolventSet:
    """Recover the complete left solvent set from a factor chain.  Step k of
    the errors is the k-th factor from the right, the order in which this
    side divides them out."""
    p.require_monic()
    check_chain(p, chain)
    _check_disjoint(chain)
    return _chain_solvents(p, chain.factors, "left")


def check_set(p: MatrixPolynomial, s: SolventSet, side: str) -> None:
    """Monic p, then a ``side`` set of p.l solvents, then p's order."""
    p.require_monic()
    if s.side != side or len(s) != p.l:
        raise IncompleteSet(
            f"need a complete {side} set of {p.l} solvents, got {len(s)} ({s.side})"
        )
    check_order(p, s.solvents, "solvents")


def _solvents_to_factors(r: np.ndarray) -> np.ndarray:
    """The factors, rightmost first, that the recursion builds from a stack
    of right solvents."""
    l, m = r.shape[:2]
    n_mats = np.tile(np.eye(m), (l, 1, 1))    # n_mats[j] = N_k(R_j)
    factors = np.empty(r.shape)
    for k in range(l):
        factors[k] = _conjugate(n_mats[k], r[k], k)
        n_mats[k + 1:] = n_mats[k + 1:] @ r[k + 1:] - factors[k] @ n_mats[k + 1:]
    return factors


def right_solvents_to_chain(p: MatrixPolynomial, s: SolventSet) -> SpectralFactorChain:
    """Build a factor chain from a complete right solvent set.

    Runs the recursion N_0(R_j) = I,
    Q_k = N_{k-1}(R_k) R_k N_{k-1}(R_k)^{-1},
    N_k(R_j) = N_{k-1}(R_j) R_j - Q_k N_{k-1}(R_j); Q_1 = R_1 becomes the
    rightmost factor, so the chain is emitted in recursion order.
    """
    check_set(p, s, "right")
    return SpectralFactorChain(_solvents_to_factors(s.solvents))


def left_solvents_to_chain(p: MatrixPolynomial, s: SolventSet) -> SpectralFactorChain:
    """Build a factor chain from a complete left set.

    The chain of pᵀ built from the transposed solvents, with its factors
    transposed and reversed: Q from L_1 is the LEFTMOST factor of p.
    """
    check_set(p, s, "left")
    factors = _solvents_to_factors(s.solvents.transpose(0, 2, 1))
    return SpectralFactorChain(factors[::-1].transpose(0, 2, 1))


def deflate_right(p: MatrixPolynomial, q):
    """Divide out a rightmost factor (λI - Q) of any λ-matrix: returns the
    quotient, which leads with A_0, and the discarded remainder's ‖·‖_F
    relative to ``p.coefficient_scale()``."""
    quotient, remainder = synthetic_div_right(p, q)
    return quotient, linalg.frob_norm(remainder) / p.coefficient_scale()
