"""The polynomial Sylvester solve against the Kronecker assemblies it replaced.

The Newton step, ``frechet_matrix`` and both similarity transforms go through
``linalg.sylvester_matrix``/``solve_sylvester``.  The references below are
the earlier formulas, each assembled term by term with ``np.kron``, so these
property tests check that the quotient-based systems are the same systems.
They run below ``linalg.SPECTRAL_MIN_ORDER``; the tests at the end check the
spectral route above it against the dense route and its elimination arbiter.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blockpoly import linalg
from blockpoly.errors import SingularMatrix, SingularSylvester
from blockpoly.horner import IterConfig, frechet_matrix, newton_horner
from blockpoly.polynomial import (
    MatrixPolynomial,
    SpectralFactorChain,
    reconstruct,
    synthetic_div_left,
    synthetic_div_right,
)
from blockpoly.transforms import chain_to_right_solvents, right_to_left_solvent

from inputs import random_chain

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
    got = right_to_left_solvent(p, r)[1]
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


def _spectral_case(rng):
    """(coeffs, X, rhs, kind) at an order where the spectral route runs.

    C_0 = I and C_1..C_d are Gaussian, d in 1..3.  X is V T V^{-1} with
    V = randn + 2I and T of one of five kinds: a Gaussian matrix (complex
    spectrum), a Jordan block of size 2 or 3 on a diagonal, the same block
    with ε in its corner (eigenvalues ε^{1/size} apart), a diagonal T with
    C_d moved so that M(λ_0) = Σ_j C_j λ_0^{d-j} has σ_min ≈ τ ||M(λ_0)||,
    or a diagonal T in an ill-conditioned basis V = Q_1 diag(s) Q_2 with
    κ(V) in [1e2, 1e12].  The near-singular kind takes an orthogonal V:
    there the eigenvector basis is exact to rounding, so only the
    certificate can tell a system the dense gate rejects from one it
    accepts.  The ill-conditioned kind is where the computed V^{-1} is
    furthest from the exact one.
    """
    m = int(rng.integers(linalg.SPECTRAL_MIN_ORDER, linalg.SPECTRAL_MIN_ORDER + 3))
    d = int(rng.integers(1, 4))
    kind = str(rng.choice(["gaussian", "jordan", "near-defective", "near-singular",
                           "ill-conditioned"]))
    coeffs = np.array([np.eye(m)] + [rng.standard_normal((m, m)) for _ in range(d)])
    lam = rng.uniform(-4, 4, m)
    t = rng.standard_normal((m, m)) if kind == "gaussian" else np.diag(lam)
    if kind in ("jordan", "near-defective"):
        size = int(rng.integers(2, 4))
        t[:size, :size] = lam[0] * np.eye(size) + np.eye(size, k=1)
        if kind == "near-defective":
            t[size - 1, 0] = 10.0 ** rng.uniform(-16, -6)
    v = rng.standard_normal((m, m)) + 2 * np.eye(m)
    if kind == "near-singular":
        v = np.linalg.qr(v)[0]
        tau = 0.0 if rng.uniform() < 0.2 else 10.0 ** rng.uniform(-16, -6)
        m0 = sum(c * lam[0] ** (d - j) for j, c in enumerate(coeffs))
        u = rng.standard_normal(m)
        u /= np.linalg.norm(u)
        coeffs[-1] = coeffs[-1] - (1 - tau) * np.outer(m0 @ u, u)
    if kind == "ill-conditioned":
        q1, q2 = (np.linalg.qr(rng.standard_normal((m, m)))[0] for _ in range(2))
        v = q1 @ np.diag(np.logspace(0, rng.uniform(2, 12), m)) @ q2
    x = v @ t @ np.linalg.inv(v)
    return coeffs, x, rng.standard_normal((m, m)), kind


def test_spectral_route_never_accepts_what_elimination_rejects():
    # The spectral route may only return where the dense gate's certificate
    # clears J, so where _lu_factor accepts; its answer then matches the
    # dense solve.  Anything else takes the dense route, whose decision is
    # _lu_factor's.
    rng = np.random.default_rng(80000)
    outcomes = set()
    for _ in range(240):
        coeffs, x, rhs, kind = _spectral_case(rng)
        m, d = x.shape[0], len(coeffs) - 1
        n = m * m
        s = linalg.sylvester_matrix(coeffs, x)
        try:
            linalg._lu_factor(s)
            expected = None
        except SingularMatrix as exc:
            expected = (exc.pivot_index, exc.pivot_value)
        h = linalg._spectral_sylvester(coeffs, x, linalg._powers(x, d), rhs)
        if h is not None:
            assert expected is None, f"spectral route accepted a rejected {kind} system"
            gate = (linalg.frob_norm(s) * linalg.frob_norm(np.linalg.inv(s))
                    * np.sqrt(n * (n + 1) / 2) * linalg.PIVOT_RTOL)
            assert gate < 0.5, f"spectral route accepted an uncertified {kind} system"
        try:
            got = linalg.solve_sylvester(coeffs, x, rhs)
            raised = None
        except SingularSylvester as exc:
            raised = (exc.__cause__.pivot_index, exc.__cause__.pivot_value)
        assert raised == expected
        if expected is None:
            want = linalg.unvec(linalg.solve(s, linalg.vec(rhs)), m, m)
            tol = SOLVE_TOL * m ** 2 * np.linalg.cond(s) * linalg.frob_norm(want)
            assert linalg.frob_norm(got - want) <= tol, kind
        outcomes.add(("accepted" if h is not None else "fallback", kind))
    accepted = {k for route, k in outcomes if route == "accepted"}
    fallback = {k for route, k in outcomes if route == "fallback"}
    assert {"gaussian", "near-defective", "near-singular", "ill-conditioned"} <= accepted
    assert {"jordan", "near-defective", "near-singular", "ill-conditioned"} <= fallback


def test_spectral_bound_brackets_the_inverse_norm():
    # _spectral_factors bounds ||J~^{-1}||_F, J~ = Σ_j kron((X~^{d-j})ᵀ, C_j)
    # for X~ = V Λ V^{-1} with the computed (λ, V), by three k x k Gram
    # matrices and the residuals of the computed inverses.  The bound must lie
    # above the norm of the inverse of the assembled J~, up to that inverse's
    # rounding, and below the product bound ||V^{-1}||_2 (Σ_c ||v_c||²
    # ||M_c^{-1}||_F²)^{1/2} that it replaced, up to its own rounding terms.
    rng = np.random.default_rng(24)
    for _ in range(200):
        m, k, d = (int(rng.integers(lo, hi)) for lo, hi in ((2, 6), (2, 6), (1, 4)))
        mats = np.array([np.eye(m)] + [rng.standard_normal((m, m)) for _ in range(d)])
        if rng.uniform() < 0.5:
            x = rng.standard_normal((k, k))
        else:
            q1, q2 = (np.linalg.qr(rng.standard_normal((k, k)))[0] for _ in range(2))
            v = q1 @ np.diag(np.logspace(0, rng.uniform(0, 3), k)) @ q2
            x = v @ np.diag(rng.uniform(-3, 3, k)) @ np.linalg.inv(v)
        with np.errstate(all="ignore"):
            lam, v, v_inv, ops_inv, bound, _ = linalg._spectral_factors(
                mats, x, linalg.frob_norm(x), np.linalg.norm(mats, axis=(1, 2)).tolist())
        x_t = v @ np.diag(lam) @ np.linalg.inv(v)
        j_t = sum(np.kron(np.linalg.matrix_power(x_t, d - j).T, c) for j, c in enumerate(mats))
        exact = np.linalg.norm(np.linalg.inv(j_t))
        old = np.linalg.norm(v_inv, 2) * math.sqrt(np.sum(
            np.linalg.norm(v, axis=0) ** 2 * np.linalg.norm(ops_inv, axis=(1, 2)) ** 2))
        reference = SOLVE_TOL * (m * k) ** 2 * np.linalg.cond(j_t) * np.linalg.cond(v)
        assert bound >= exact * (1 - reference)
        assert bound <= old * (1 + 1e-10)


@pytest.mark.parametrize("l", [2, 3])
def test_spectral_route_taken_at_order_16(monkeypatch, l):
    # A silent fallback to the m² x m² Kronecker solve would erase the
    # spectral route's gain unnoticed, so the assembly is made to fail: the
    # solve at the solvent and a Newton polish must not need it.
    rng = np.random.default_rng(160 + l)
    chain = random_chain(16, l, rng)
    p, x = reconstruct(chain), chain.factors[0]
    quotient, _ = synthetic_div_right(p, x)
    rhs = rng.standard_normal((16, 16))

    def refuse(*args):
        raise AssertionError("dense route taken")

    monkeypatch.setattr(linalg, "sylvester_matrix", refuse)
    h = linalg.solve_sylvester(quotient.coeffs, x, rhs)
    powers = linalg._powers(x, l - 1)
    residual = linalg._sylvester_apply(list(quotient.coeffs), powers, h) - rhs
    assert linalg.frob_norm(residual) <= 1e-12 * linalg.frob_norm(rhs)
    d = rng.standard_normal((16, 16))
    x0 = x + 1e-4 * linalg.frob_norm(x) / linalg.frob_norm(d) * d
    got, _ = newton_horner(p, IterConfig(x0=x0))
    assert linalg.frob_norm(got - x) <= 1e-10 * linalg.frob_norm(x)


def test_spectral_route_declines_after_two_backward_error_misses(monkeypatch):
    # The certificate holds here, so only the backward-error test can send
    # the solve to the dense route.  No generated system was found whose
    # refined answer misses that test (near-defective and ill-conditioned
    # bases clear it after the one refinement step), so the residual that
    # the route measures is made to miss by 1e-6 relative, with the sign
    # flipped on the second call so that the refinement cannot absorb it.
    rng = np.random.default_rng(81)
    chain = random_chain(8, 2, rng)
    p, x = reconstruct(chain), chain.factors[0]
    coeffs = synthetic_div_right(p, x)[0].coeffs
    rhs = rng.standard_normal((8, 8))
    assert linalg._spectral_sylvester(coeffs, x, linalg._powers(x, 1), rhs) is not None
    apply = linalg._sylvester_apply
    misses = []

    def off(mats, powers, h):
        misses.append(h)
        out = apply(mats, powers, h)
        return out + (-1) ** len(misses) * 1e-6 * linalg.frob_norm(out) * np.ones_like(out)

    monkeypatch.setattr(linalg, "_sylvester_apply", off)
    got = linalg.solve_sylvester(coeffs, x, rhs)
    assert len(misses) == 2
    dense = linalg.unvec(linalg.solve(linalg.sylvester_matrix(coeffs, x), linalg.vec(rhs)), 8, 8)
    assert np.array_equal(got, dense)


@pytest.mark.parametrize("m, l, seed", [(16, 2, 16020), (8, 2, 8021)])
def test_newton_polish_takes_no_dense_solve(monkeypatch, m, l, seed):
    # The bench's polish chains (the band generator seeded 1000 m + 10 l + s),
    # Newton from 20 starts 1e-4 from the dominant factor: no system whose
    # Kronecker matrix clears the dense gate's certificate may be assembled.
    # On m16/l2/s0 the product bound ||V^{-1}||_2 (Σ_c ||v_c||² ||M_c^{-1}||_F²)^{1/2}
    # declined about half of these runs; below order 10 the spectral route did
    # not run.  m8/l2/s1 has a near-double eigenvalue, which the starts split
    # into a complex pair.  One m = 16 start meets a system with
    # σ_min(M_c) = 6.7e-5 that the dense certificate's Frobenius form fails
    # (1.6 against 1/2); only such systems may still be assembled.  Its
    # row-sum form clears that one, so the arbiter never runs.
    chain = random_chain(m, l, np.random.default_rng(seed))
    p, x = reconstruct(chain), chain.factors[0]
    assemble = linalg.sylvester_matrix
    uncertified = []
    arbiter = linalg._lu_factor
    arbitrated = []

    def counted(a):
        arbitrated.append(len(a))
        return arbiter(a)

    monkeypatch.setattr(linalg, "_lu_factor", counted)

    def certified_refused(coeffs, x):
        s = assemble(coeffs, x)
        n = len(s)
        gate = (linalg.frob_norm(s) * linalg.frob_norm(np.linalg.inv(s))
                * math.sqrt(n * (n + 1) / 2) * linalg.PIVOT_RTOL)
        assert gate >= 0.5, f"dense route taken on a system its gate certifies ({gate:.3g})"
        uncertified.append(gate)
        return s

    monkeypatch.setattr(linalg, "sylvester_matrix", certified_refused)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        d = rng.standard_normal((m, m))
        x0 = x + 1e-4 * linalg.frob_norm(x) / linalg.frob_norm(d) * d
        got, _ = newton_horner(p, IterConfig(x0=x0))
        assert linalg.frob_norm(got - x) <= 1e-10 * linalg.frob_norm(x)
    assert len(uncertified) <= 1
    assert arbitrated == []


def test_exact_singular_order_16_falls_back():
    # J = 0 at m = 16: the batched inverse fails, and the dense route raises
    # the same pivot message as the scalar cases of test_horner/test_transforms.
    eye = np.eye(16)
    with pytest.raises(SingularSylvester, match=r"pivot 0 has magnitude 0\.000e\+00"):
        newton_horner(MatrixPolynomial([eye, -2 * eye, -3 * eye]), IterConfig(x0=eye))
    with pytest.raises(SingularSylvester, match=r"pivot 0 has magnitude 0\.000e\+00"):
        right_to_left_solvent(MatrixPolynomial([eye, -2 * eye, eye]), eye)
