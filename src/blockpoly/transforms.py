"""Similarity-transform conversions between chains and solvent sets.

Chain storage is rightmost-first throughout (``factors[0]`` is the rightmost
factor of the product).  :func:`chain_to_right_solvents` processes the chain
from its LEFTMOST factor inward: factor Q is pulled out of the current
polynomial by left synthetic division, and the remaining (deflated)
coefficients A_{ji} give the polynomial Sylvester equation

    Σ_j A_{ji} P Q^{d-j} = I

whose solution P is the similarity with R = P Q P^{-1}.  Both this system
and the one of :func:`right_to_left_solvent` are solved by
:func:`linalg.solve_sylvester`, which holds the vec/Kronecker convention.

The left-side transforms are the right ones applied to the transposed data.
Transposing A(λ) = (λI - Q_l) ... (λI - Q_1) gives
Aᵀ(λ) = (λI - Q_1ᵀ) ... (λI - Q_lᵀ), whose right solvents are the transposed
left solvents of A.  Output solvent sets are indexed so that R_i and L_i
share spectrum (index 1 carries the leftmost factor's spectrum, matching the
worked-example ordering R_l = rightmost factor = right solvent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DeflationResidualLarge,
    IncompleteSet,
    InputNotSolvent,
    RankDeficientTransformer,
    ResidualTooLarge,
    SolventResidualLarge,
    SpectrumOverlap,
)
from .polynomial import (
    MatrixPolynomial,
    SolventSet,
    SpectralFactorChain,
    _transpose,
    residual_left,
    residual_right,
    spectral_overlap,
    synthetic_div_left,
    synthetic_div_right,
)

#: Default relative-residual gate for matrices claimed to be solvents/factors.
SOLVENT_GATE = 1e-6

#: σ_min / σ_max at or below this fails the rank-m check.
RANK_TOL = 1e-10


@dataclass
class TransformResult:
    """A transform output together with its similarity matrix and residual."""

    output: object
    transformer: np.ndarray
    residual: float


def _rank_check(t: np.ndarray) -> bool:
    sv = np.linalg.svd(t, compute_uv=False)
    return bool(sv[-1] > RANK_TOL * sv[0])


def right_to_left_solvent(p: MatrixPolynomial, r, gate: float = SOLVENT_GATE) -> TransformResult:
    """Convert a right solvent R into a left solvent L = Q^{-1} R Q.

    Q solves Σ_i R^{l-1-i} Q B_i = I with B_i the quotient coefficients of
    A(λ) divided by (λI - R) on the right; transposed, that is the Sylvester
    equation Σ_i B_iᵀ Qᵀ (Rᵀ)^{l-1-i} = I.
    """
    quotient, remainder = synthetic_div_right(p, r)
    r = linalg.as_matrix(r)
    rel = linalg.frob_norm(remainder) / p.coefficient_scale()
    if rel > gate:
        raise InputNotSolvent(f"right-solvent residual {rel:.3e} exceeds gate {gate:.1e}")
    q = linalg.solve_sylvester(_transpose(quotient).coeffs, r.T, np.eye(p.m)).T
    if not _rank_check(q):
        raise RankDeficientTransformer(0, "similarity matrix Q is rank deficient")
    left = linalg.solve(q, r @ q)
    return TransformResult(
        output=left,
        transformer=q,
        residual=residual_left(p, left),
    )


def _check_disjoint(chain: SpectralFactorChain, tol: float = 1e-6):
    spectra = np.linalg.eigvals(chain.factors)
    scale = max(1.0, float(np.max(np.abs(spectra))))
    overlap = spectral_overlap(spectra, tol * scale)
    if overlap is not None:
        raise SpectrumOverlap(
            "factors {} and {} share spectrum (min gap {:.3e})".format(*overlap)
        )


def chain_to_right_solvents(p: MatrixPolynomial, chain: SpectralFactorChain,
                            gate: float = SOLVENT_GATE) -> SolventSet:
    """Recover the complete right solvent set from a factor chain.

    Processes the chain leftmost-first; each step left-divides the current
    polynomial by (λI - Q), solves Σ_j A_j P Q^{d-j} = I for P, and emits
    R = P Q P^{-1}.  Output index 1 carries the leftmost factor's spectrum;
    the last output equals the rightmost factor (P = I there).  Each emitted
    solvent must be a right solvent of p to the gate, or the step fails.
    """
    p.require_monic()
    _check_disjoint(chain)
    current = p
    solvents = []
    tol = max(gate, 1e-6)
    scale = p.coefficient_scale()
    for step, q in enumerate(chain.factors[::-1]):
        d = current.l - 1
        if d == 0:
            solvent = q
        else:
            quotient, remainder = synthetic_div_left(current, q)
            rem = linalg.frob_norm(remainder) / scale
            if rem > tol:
                raise DeflationResidualLarge(step, rem)
            pmat = linalg.solve_sylvester(quotient.coeffs, q, np.eye(p.m))
            if not _rank_check(pmat):
                raise RankDeficientTransformer(step)
            solvent = pmat @ q @ linalg.invert(pmat)
            current = quotient
        res = residual_right(p, solvent)
        if res > tol:
            raise SolventResidualLarge(step, res)
        solvents.append(solvent)
        if d == 0:
            break
    return SolventSet("right", solvents)


def chain_to_left_solvents(p: MatrixPolynomial, chain: SpectralFactorChain,
                           gate: float = SOLVENT_GATE) -> SolventSet:
    """Recover the complete left solvent set from a factor chain.

    The right solvents of pᵀ from the transposed chain, transposed back and
    reversed so that L_i pairs in spectrum with R_i.  Step k of the errors
    is the k-th factor from the right, the order in which this side
    divides them out.
    """
    _check_disjoint(chain)
    dual = SpectralFactorChain(chain.factors[::-1].transpose(0, 2, 1))
    right = chain_to_right_solvents(_transpose(p), dual, gate)
    return SolventSet("left", right.solvents[::-1].transpose(0, 2, 1))


def right_solvents_to_chain(p: MatrixPolynomial, s: SolventSet) -> SpectralFactorChain:
    """Build a factor chain from a complete right solvent set.

    Runs the recursion N_0(R_j) = I,
    Q_k = N_{k-1}(R_k) R_k N_{k-1}(R_k)^{-1},
    N_k(R_j) = N_{k-1}(R_j) R_j - Q_k N_{k-1}(R_j); Q_1 = R_1 becomes the
    rightmost factor, so the chain is emitted in recursion order.
    """
    p.require_monic()
    if s.side != "right" or len(s) != p.l:
        raise IncompleteSet(
            f"need a complete right set of {p.l} solvents, got {len(s)} ({s.side})"
        )
    r = s.solvents
    n_mats = np.tile(np.eye(p.m), (p.l, 1, 1))    # n_mats[j] = N_k(R_j)
    factors = np.empty(r.shape)
    for k in range(p.l):
        nk = n_mats[k]
        if not _rank_check(nk):
            raise RankDeficientTransformer(k)
        factors[k] = nk @ r[k] @ linalg.invert(nk)
        n_mats[k + 1:] = n_mats[k + 1:] @ r[k + 1:] - factors[k] @ n_mats[k + 1:]
    return SpectralFactorChain(factors)


def left_solvents_to_chain(p: MatrixPolynomial, s: SolventSet) -> SpectralFactorChain:
    """Build a factor chain from a complete left set.

    The chain of pᵀ built from the transposed solvents, with its factors
    transposed and reversed: Q from L_1 is the LEFTMOST factor of p.
    """
    if s.side != "left" or len(s) != p.l:
        raise IncompleteSet(
            f"need a complete left set of {p.l} solvents, got {len(s)} ({s.side})"
        )
    dual = SolventSet("right", s.solvents.transpose(0, 2, 1))
    chain = right_solvents_to_chain(_transpose(p), dual)
    return SpectralFactorChain(chain.factors[::-1].transpose(0, 2, 1))


def deflate_right(p: MatrixPolynomial, q, gate_rtol: float = SOLVENT_GATE) -> MatrixPolynomial:
    """Divide out a rightmost factor, gating on the discarded remainder."""
    quotient, remainder = synthetic_div_right(p, q)
    rel = linalg.frob_norm(remainder) / p.coefficient_scale()
    if rel > gate_rtol:
        raise ResidualTooLarge(
            f"deflation gate: relative remainder {rel:.3e} exceeds {gate_rtol:.1e}"
        )
    return quotient
