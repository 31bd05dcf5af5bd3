"""Left-side operations against direct left recurrences.

blockpoly computes every left-side operation as its right twin applied to
transposed data.  The references below are the direct left recurrences, so
these property tests check the transposition identities on random input.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blockpoly import linalg
from blockpoly.polynomial import (
    MatrixPolynomial,
    SolventSet,
    SpectralFactorChain,
    block_vandermonde,
    eval_left,
    reconstruct,
    synthetic_div_left,
)
from blockpoly.transforms import (
    SOLVENT_GATE,
    chain_to_left_solvents,
    left_solvents_to_chain,
    right_to_left_solvent,
)

from inputs import random_chain

EPS = np.finfo(float).eps

#: Recurrences of at most 4 steps on 4x4 blocks: a few ulps of the summed
#: term magnitudes bound the rounding of either evaluation order.
RECURRENCE_TOL = 64 * EPS

#: Solvents L_j = 3(j+1) I + E_j with |E_j| entries <= 0.1 keep every
#: M_k(L_j) within a small condition number, so the two orders of the
#: M-recursion agree to a few thousand ulps of ||Q_k||.
TRANSFORM_TOL = 1e4 * EPS

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
def separated_set(draw):
    """l near-scalar matrices 3(j+1) I + E_j with well separated spectra."""
    m, l = draw(DIM), draw(DIM)
    return [3.0 * (j + 1) * np.eye(m) + draw(_blocks(m, 0.1)) for j in range(l)]


def ref_eval_left(p, x):
    """Σ X^{l-i} A_i by the direct recursion b = X b + A_k."""
    b = p.coeffs[0].copy()
    for k in range(1, p.l + 1):
        b = x @ b + p.coeffs[k]
    return b


def ref_div_left(p, x):
    """B_0 = I, B_k = A_k + X B_{k-1}: quotient B_0..B_{l-1}, remainder B_l."""
    b = [p.coeffs[0].copy()]
    for k in range(1, p.l + 1):
        b.append(p.coeffs[k] + x @ b[-1])
    return b[:-1], b[-1]


def ref_left_solvents_to_chain(solvents):
    """M_0(L_j) = I, Q_k = M_{k-1}(L_k)^{-1} L_k M_{k-1}(L_k),
    M_k(L_j) = L_j M_{k-1}(L_j) - M_{k-1}(L_j) Q_k.  Q from L_1 is the
    leftmost factor, so the factors are returned reversed (rightmost-first).
    """
    m = solvents[0].shape[0]
    m_mats = [np.eye(m) for _ in solvents]
    factors = []
    for k, lk in enumerate(solvents):
        qk = np.linalg.solve(m_mats[k], lk @ m_mats[k])
        factors.append(qk)
        for j in range(k + 1, len(solvents)):
            m_mats[j] = solvents[j] @ m_mats[j] - m_mats[j] @ qk
    return factors[::-1]


def _term_scale(p, x):
    """Σ ||A_i|| max(1, ||X||)^{l-i}: bounds every partial sum of the recursion."""
    xn = max(1.0, linalg.frob_norm(x))
    return sum(linalg.frob_norm(a) * xn ** (p.l - i) for i, a in enumerate(p.coeffs))


@SETTINGS
@given(monic_and_x())
def test_eval_left_matches_direct_recursion(case):
    p, x = case
    err = linalg.frob_norm(eval_left(p, x) - ref_eval_left(p, x))
    assert err <= RECURRENCE_TOL * _term_scale(p, x)


@SETTINGS
@given(monic_and_x())
def test_synthetic_div_left_matches_direct_recursion(case):
    p, x = case
    quotient, remainder = synthetic_div_left(p, x)
    ref_quotient, ref_remainder = ref_div_left(p, x)
    tol = RECURRENCE_TOL * _term_scale(p, x)
    assert quotient.l == p.l - 1
    for got, want in zip(quotient.coeffs, ref_quotient):
        assert linalg.frob_norm(got - want) <= tol
    assert linalg.frob_norm(remainder - ref_remainder) <= tol


@SETTINGS
@given(separated_set())
def test_left_solvents_to_chain_matches_m_recursion(solvents):
    m, l = solvents[0].shape[0], len(solvents)
    # the recursion does not read the coefficients, only the degree and order
    p = MatrixPolynomial([np.eye(m)] * (l + 1))
    chain = left_solvents_to_chain(p, SolventSet("left", solvents))
    for got, want in zip(chain.factors, ref_left_solvents_to_chain(solvents)):
        assert linalg.frob_norm(got - want) <= TRANSFORM_TOL * max(1.0, linalg.frob_norm(want))


@SETTINGS
@given(separated_set())
def test_chain_to_left_solvents_are_left_solvents(factors):
    chain = SpectralFactorChain(factors)
    p = reconstruct(chain)
    left = chain_to_left_solvents(p, chain)
    assert len(left) == p.l
    for x in left.solvents:
        rel = linalg.frob_norm(ref_eval_left(p, x)) / p.coefficient_scale()
        assert rel <= SOLVENT_GATE
    # the reference M-recursion rebuilds p from the left set
    rebuilt = reconstruct(SpectralFactorChain(ref_left_solvents_to_chain(list(left.solvents))))
    for got, want in zip(rebuilt.coeffs, p.coeffs):
        assert linalg.frob_norm(got - want) <= SOLVENT_GATE * p.coefficient_scale()


@SETTINGS
@given(separated_set())
def test_left_block_vandermonde_layout(solvents):
    m, l = solvents[0].shape[0], len(solvents)
    v = block_vandermonde(SolventSet("left", solvents))
    for j, x in enumerate(solvents):
        power = np.eye(m)
        for i in range(l):
            block = v[j * m:(j + 1) * m, i * m:(i + 1) * m]
            tol = RECURRENCE_TOL * np.sqrt(m) * linalg.frob_norm(x) ** i
            assert linalg.frob_norm(block - power) <= tol
            power = x @ power


def test_right_to_left_is_the_left_chains_first_step():
    # R = Q_1 is the rightmost factor, so its left twin is the step that
    # divides Q_1ᵀ out of pᵀ first: the last left solvent, bit for bit.
    unequal = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        chain = random_chain(1 + seed % 4, 2 + seed // 4 % 3, rng)
        p = reconstruct(chain)
        got = right_to_left_solvent(p, chain.factors[0])[0]
        if not np.array_equal(got, chain_to_left_solvents(p, chain).solvents[-1]):
            unequal.append(seed)
    assert unequal == []
