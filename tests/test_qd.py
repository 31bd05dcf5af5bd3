import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blockpoly import linalg
from blockpoly.errors import (
    NoConvergence,
    SingularCoefficient,
    SingularMatrix,
    SingularPivot,
)
from blockpoly.polynomial import (
    MatrixPolynomial,
    reconstruct,
    residual_right,
)
from blockpoly.qd import QDConfig, QDTableau, qd_init, qd_run, qd_step

from conftest import random_chain, scalar_polynomial

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)

#: Nearly singular: LAPACK inverts it (u_22 = -2^-49), the gate rejects pivot 1.
NEAR_SINGULAR = np.array([[1.0, 2.0], [2.0, 4.0 * (1 + 2.0 ** -50)]])


def ref_qd_step(q, e, sweep):
    """The rhombus rules one block at a time on lists, with the per-matrix gate."""
    l = len(q)
    new_q = [q[i - 1] + e[i] - e[i - 1] for i in range(1, l + 1)]
    new_e = [np.zeros_like(q[0])]
    for i in range(1, l):
        try:
            new_e.append(new_q[i] @ e[i] @ linalg.invert(new_q[i - 1]))
        except SingularMatrix as exc:
            raise SingularPivot(i - 1, sweep) from exc
    new_e.append(np.zeros_like(q[0]))
    return new_q, new_e


def _tableau(q, interior, iteration=0):
    """A tableau from stacked Q blocks and interior E blocks."""
    zero = np.zeros((1,) + q.shape[1:])
    return QDTableau(q_row=q, e_row=np.concatenate([zero, interior, zero]),
                     iteration=iteration)


@st.composite
def tableaux(draw):
    m, l = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    blocks = lambda k: hnp.arrays(np.float64, (k, m, m), elements=st.floats(-4.0, 4.0))
    return _tableau(draw(blocks(l)), draw(blocks(l - 1)), draw(st.integers(0, 9)))


def _assert_same_error(got, want):
    assert type(got) is type(want) and str(got) == str(want)
    assert str(got.__cause__) == str(want.__cause__)


def test_qd_init_scalar():
    t = qd_init(scalar_polynomial([1.0, -3.0, 2.0]))
    assert t.q_row[0][0, 0] == pytest.approx(3.0)
    assert t.q_row[1][0, 0] == pytest.approx(0.0)
    assert t.e_row[1][0, 0] == pytest.approx(2.0 / -3.0)
    assert np.allclose(t.e_row[0], 0.0) and np.allclose(t.e_row[-1], 0.0)


def test_qd_init_example1(example1):
    t = qd_init(example1)
    assert np.allclose(t.q_row[0], -example1.coeffs[1])
    assert np.allclose(t.q_row[1], 0.0)
    assert np.allclose(t.q_row[2], 0.0)


def test_qd_init_singular_coefficient():
    p = MatrixPolynomial([np.eye(2), np.zeros((2, 2)), np.eye(2)])
    with pytest.raises(SingularCoefficient):
        qd_init(p)


def test_qd_linear_polynomial_immediate():
    a1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    chain, trace = qd_run(MatrixPolynomial([np.eye(2), a1]))
    assert len(chain.factors) == 1
    assert np.allclose(chain.factors[0], -a1)


def test_qd_step_scalar_oracle():
    # classical scalar rules: q_i' = q_i + e_i - e_{i-1}', e_i' = e_i q_{i+1}/q_i'
    p = scalar_polynomial([1.0, -3.0, 2.0])
    t = qd_init(p)
    qs = [b[0, 0] for b in t.q_row]
    es = [b[0, 0] for b in t.e_row]
    for _ in range(8):
        t = qd_step(t)
        new_q = [qs[0] + es[1] - es[0], qs[1] + es[2] - es[1]]
        new_e = [0.0, new_q[1] * es[1] / new_q[0], 0.0]
        qs, es = new_q, new_e
        assert t.q_row[0][0, 0] == pytest.approx(qs[0])
        assert t.q_row[1][0, 0] == pytest.approx(qs[1])
        assert t.e_row[1][0, 0] == pytest.approx(es[1])


def test_qd_converged_tableau_is_fixed_point():
    p = scalar_polynomial([1.0, -3.0, 2.0])
    chain, _ = qd_run(p, QDConfig(e_tol=1e-14, max_iterations=500))
    t = qd_init(p)
    for _ in range(200):
        t = qd_step(t)
    t2 = qd_step(t)
    for a, b in zip(t.q_row, t2.q_row):
        assert np.allclose(a, b, atol=1e-12)


def test_qd_scalar_dominance_order():
    chain, _ = qd_run(scalar_polynomial([1.0, -3.0, 2.0]), QDConfig(e_tol=1e-13))
    roots = [f[0, 0] for f in chain.factors]
    assert roots[0] == pytest.approx(2.0, abs=1e-9)
    assert roots[1] == pytest.approx(1.0, abs=1e-9)


def test_qd_example1_within_35_sweeps(example1):
    chain, trace = qd_run(example1, QDConfig(max_iterations=35, e_tol=1e-6))
    s1 = np.array([[3.0, 2.0], [-90.0, -15.0]])
    s2 = np.array([[-8.2908, 0.7118], [-16.84, 8.1248]])
    s3 = np.array([[32.4434, -3.5284], [286.6226, -31.2773]])
    got = chain.factors
    # dominant block is the rightmost factor (index 0)
    assert linalg.frob_norm(got[0] - s1) / linalg.frob_norm(s1) < 1e-2
    assert linalg.frob_norm(got[2] - s3) / linalg.frob_norm(s3) < 1e-2
    # the middle factor of this dataset is ill-conditioned against the
    # fixture's 1-decimal coefficients; see notes/decisions.md § Criterion 1
    assert linalg.frob_norm(got[1] - s2) / linalg.frob_norm(s2) < 1e-1


def test_qd_equal_modulus_roots_fail():
    with pytest.raises((NoConvergence, SingularPivot, SingularCoefficient)):
        # λ²+1: roots ±i share a modulus; classical q-d cannot separate them
        qd_run(scalar_polynomial([1.0, 1e-30, 1.0]), QDConfig(max_iterations=50))


def test_qd_trace_conservation():
    rng = np.random.default_rng(9)
    chain = random_chain(2, 3, rng)
    p = reconstruct(chain)
    cfg = QDConfig(max_iterations=400, e_tol=1e-11)
    got, trace = qd_run(p, cfg)
    total = sum(np.trace(q) for q in got.factors)
    assert total == pytest.approx(np.trace(-p.coeffs[1]), rel=1e-8)


def test_qd_dominance_on_gapped_fixture():
    rng = np.random.default_rng(10)
    chain = random_chain(2, 3, rng, gap=2.5)
    p = reconstruct(chain)
    got, _ = qd_run(p, QDConfig(max_iterations=600, e_tol=1e-11))
    mods = [max(abs(np.linalg.eigvals(q))) for q in got.factors]
    mins = [min(abs(np.linalg.eigvals(q))) for q in got.factors]
    for i in range(len(mods) - 1):
        assert mins[i] > mods[i + 1]
    assert residual_right(p, got.factors[0]) / p.coefficient_scale() < 1e-8


def test_qd_reconstruction_quality():
    rng = np.random.default_rng(12)
    chain = random_chain(2, 2, rng, gap=3.0)
    p = reconstruct(chain)
    got, _ = qd_run(p, QDConfig(max_iterations=600, e_tol=1e-12))
    recon = reconstruct(got)
    err = max(
        linalg.frob_norm(a - b) for a, b in zip(recon.coeffs, p.coeffs)
    ) / p.coefficient_scale()
    assert err < 1e-9


def test_qd_no_convergence_carries_tableau():
    rng = np.random.default_rng(13)
    chain = random_chain(2, 2, rng, gap=2.0)
    p = reconstruct(chain)
    with pytest.raises(NoConvergence) as exc:
        qd_run(p, QDConfig(max_iterations=3))
    assert exc.value.tableau is not None
    assert len(exc.value.tableau.q_row) == 2
    assert len(exc.value.trace.max_relative_e) == 3


# A tiny pivot's inverse overflows its squared norm in both sweeps; the
# certificate then fails and the arbiter decides.
@pytest.mark.filterwarnings("ignore:overflow encountered in:RuntimeWarning")
@SETTINGS
@given(tableaux())
def test_qd_step_matches_blockwise_sweep(t):
    try:
        want_q, want_e = ref_qd_step(list(t.q_row), list(t.e_row), t.iteration + 1)
    except SingularPivot as want:
        with pytest.raises(SingularPivot) as got:
            qd_step(t)
        _assert_same_error(got.value, want)
        assert (got.value.block_index, got.value.sweep) == (want.block_index, want.sweep)
        return
    got = qd_step(t)
    assert np.array_equal(got.q_row, np.array(want_q))
    assert np.array_equal(got.e_row, np.array(want_e))
    assert got.iteration == t.iteration + 1
    assert got.pivot_norms == [linalg.frob_norm(b) for b in want_q[:-1]]


def test_qd_step_names_first_singular_middle_block():
    # pivots Q_0..Q_2 are I, NEAR_SINGULAR, NEAR_SINGULAR; block 1 is named
    q = np.array([np.eye(2), NEAR_SINGULAR, NEAR_SINGULAR, np.eye(2)])
    t = _tableau(q, np.zeros((3, 2, 2)), iteration=6)
    with pytest.raises(SingularPivot) as exc:
        qd_step(t)
    assert (exc.value.block_index, exc.value.sweep) == (1, 7)
    assert str(exc.value) == "Q-block 1 singular at sweep 7"
    assert exc.value.__cause__.pivot_index == 1


def test_qd_step_names_exact_zero_block_when_lapack_fails_the_stack():
    # pivots are I, 0, NEAR_SINGULAR: the zero block makes LAPACK raise on
    # the stack, and it is the first block the gate rejects
    q = np.array([np.eye(2), np.zeros((2, 2)), NEAR_SINGULAR, np.eye(2)])
    t = _tableau(q, np.zeros((3, 2, 2)))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(q[:-1])
    with pytest.raises(SingularPivot) as exc:
        qd_step(t)
    assert (exc.value.block_index, exc.value.sweep) == (1, 1)
    with pytest.raises(SingularPivot) as want:
        ref_qd_step(list(t.q_row), list(t.e_row), 1)
    _assert_same_error(exc.value, want.value)


def test_arbitrated_pivot_gets_the_per_matrix_inverse():
    # new Q_0 = diag(1, 3e-12) exactly: the certificate fails, the arbiter
    # passes; new Q_1 is certified
    e1 = np.array([[0.5, 0.25], [-1.0, 0.0]])
    q = np.array([np.diag([1.0, 3e-12]) - e1, 3 * np.eye(2), np.eye(2)])
    t = _tableau(q, np.array([e1, e1.T]))
    pivot = (t.q_row + t.e_row[1:] - t.e_row[:-1])[0]
    assert np.array_equal(pivot, np.diag([1.0, 3e-12]))
    bound = (linalg.frob_norm(pivot) * linalg.frob_norm(np.linalg.inv(pivot))
             * math.sqrt(3) * linalg.PIVOT_RTOL)
    assert bound >= 0.5
    linalg._lu_factor(pivot, linalg.PIVOT_RTOL)
    got = qd_step(t)
    want_q, want_e = ref_qd_step(list(t.q_row), list(t.e_row), 1)
    assert np.array_equal(got.q_row, np.array(want_q))
    assert np.array_equal(got.e_row, np.array(want_e))
    inv, _ = linalg.invert_blocks(got.q_row[:-1])
    assert np.array_equal(inv[0], linalg.invert(pivot))


@pytest.mark.parametrize("zero_at", [1, 2, 3])
def test_qd_init_singular_coefficient_keeps_k(zero_at):
    coeffs = [np.eye(2)] + [np.eye(2) + k for k in range(1, 5)]
    coeffs[zero_at] = np.zeros((2, 2))
    coeffs[zero_at + 1] = NEAR_SINGULAR  # a later singular A_k is not the one named
    with pytest.raises(SingularCoefficient) as exc:
        qd_init(MatrixPolynomial(coeffs))
    assert exc.value.k == zero_at
    assert str(exc.value) == f"coefficient A_{zero_at} is singular"
