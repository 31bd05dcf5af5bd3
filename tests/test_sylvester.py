"""The polynomial Sylvester solve against the Kronecker assemblies it replaced.

The Newton step, ``frechet_matrix`` and both similarity transforms go through
``linalg.sylvester_matrix``/``solve_sylvester``.  The references below are
the earlier formulas, each assembled term by term with ``np.kron``, so these
property tests check that the quotient-based systems are the same systems.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blockpoly import linalg
from blockpoly.horner import frechet_matrix
from blockpoly.polynomial import (
    MatrixPolynomial,
    SpectralFactorChain,
    reconstruct,
    synthetic_div_left,
    synthetic_div_right,
)
from blockpoly.transforms import chain_to_right_solvents, right_to_left_solvent

EPS = np.finfo(float).eps

#: Both assemblies sum at most l(l+1)/2 = 10 Kronecker terms built from at
#: most 4 products of 4x4 blocks: a few dozen ulps of the summed term
#: magnitudes bound the rounding of either order.
ASSEMBLY_TOL = 64 * EPS

#: Two solves of one n x n system, assembled in two orders, differ by at most
#: a small multiple of n κ eps relative to the solution.
SOLVE_TOL = 8 * EPS

DIM = st.integers(1, 4)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _blocks(m, bound):
    return hnp.arrays(np.float64, (m, m), elements=st.floats(-bound, bound))


@st.composite
def monic_and_x(draw):
    m, l = draw(DIM), draw(DIM)
    coeffs = [np.eye(m)] + [draw(_blocks(m, 2.0)) for _ in range(l)]
    return MatrixPolynomial(coeffs), draw(_blocks(m, 2.0))


@st.composite
def separated_chain(draw):
    """Factors 3(j+1) I + E_j, |E_j| entries <= 0.1: disjoint spectra."""
    m, l = draw(DIM), draw(DIM)
    factors = [3.0 * (j + 1) * np.eye(m) + draw(_blocks(m, 0.1)) for j in range(l)]
    return SpectralFactorChain(factors)


def _powers(x, n):
    powers = [np.eye(x.shape[0])]
    for _ in range(n):
        powers.append(powers[-1] @ x)
    return powers


def _vec_solve(system, m):
    """Solve system @ vec(Y) = vec(I) for the m x m Y, columns stacked."""
    y = np.linalg.solve(system, np.eye(m).reshape(-1, order="F"))
    return y.reshape(m, m, order="F"), np.linalg.cond(system)


def ref_frechet(p, x):
    """Σ_i Σ_k kron((X^{l-i-1-k})ᵀ, A_i X^k): the product rule term by term."""
    m, l = p.m, p.l
    powers = _powers(x, l)
    j = np.zeros((m * m, m * m))
    for i in range(l):
        for k in range(l - i):
            j += np.kron(powers[l - i - 1 - k].T, p.coeffs[i] @ powers[k])
    return j


def ref_right_to_left_q(p, r):
    """Q from Σ_i kron(B_iᵀ, R^{l-1-i}) vec(Q) = vec(I), and the system's κ."""
    quotient, _ = synthetic_div_right(p, r)
    powers = _powers(r, p.l - 1)
    system = sum(np.kron(quotient.coeffs[i].T, powers[p.l - 1 - i]) for i in range(p.l))
    return _vec_solve(system, p.m)


def ref_right_solvents(p, chain):
    """R = P Q P^{-1} with P from the G system Σ_j kron((Q^{d-j})ᵀ, A_j),
    leftmost factor first; each R comes with its κ(G) κ(P)."""
    current, out = p, []
    for q in reversed(chain.factors):
        d = current.l - 1
        if d == 0:
            out.append((q, 1.0))
            break
        quotient, _ = synthetic_div_left(current, q)
        powers = _powers(q, d)
        g = sum(np.kron(powers[d - j].T, quotient.coeffs[j]) for j in range(d + 1))
        pmat, kappa = _vec_solve(g, p.m)
        out.append((pmat @ q @ np.linalg.inv(pmat), kappa * np.linalg.cond(pmat)))
        current = quotient
    return out


@SETTINGS
@given(monic_and_x())
def test_frechet_matrix_matches_product_rule_sum(case):
    p, x = case
    m, l = p.m, p.l
    # every term kron((X^a)ᵀ, A_i X^k) has a + k = l-1-i, so its norm is at
    # most √m ||A_i|| max(1, ||X||)^{l-1-i}, and there are l-i of them
    xn = max(1.0, linalg.frob_norm(x))
    scale = np.sqrt(m) * sum((l - i) * linalg.frob_norm(p.coeffs[i]) * xn ** (l - 1 - i)
                             for i in range(l))
    err = linalg.frob_norm(frechet_matrix(p, x) - ref_frechet(p, x))
    assert err <= ASSEMBLY_TOL * scale


@SETTINGS
@given(separated_chain())
def test_right_to_left_q_matches_kronecker_solve(chain):
    p = reconstruct(chain)
    r = chain.factors[0]
    want, kappa = ref_right_to_left_q(p, r)
    got = right_to_left_solvent(p, r).transformer
    tol = SOLVE_TOL * p.m ** 2 * kappa * linalg.frob_norm(want)
    assert linalg.frob_norm(got - want) <= tol


@SETTINGS
@given(separated_chain())
def test_chain_to_right_solvents_match_g_solve(chain):
    p = reconstruct(chain)
    got = chain_to_right_solvents(p, chain).solvents
    want = ref_right_solvents(p, chain)
    assert len(got) == len(want)
    # R = P Q P^{-1} moves by at most 2 κ(P) ||R|| times P's relative error
    for r, (r_ref, kappa) in zip(got, want):
        tol = 2 * SOLVE_TOL * p.m ** 2 * kappa * linalg.frob_norm(r_ref)
        assert linalg.frob_norm(r - r_ref) <= tol
