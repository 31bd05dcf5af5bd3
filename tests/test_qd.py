import copy
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blockpoly import linalg
from blockpoly import qd
from blockpoly.errors import (
    BlockPolyError,
    DimensionMismatch,
    NoConvergence,
    SingularCoefficient,
    SingularMatrix,
    SingularPivot,
)
from blockpoly.polynomial import (
    MatrixPolynomial,
    SpectralFactorChain,
    reconstruct,
    residual_right,
)
from blockpoly.qd import (
    _BLOCK,
    STALL_WINDOW,
    QDConfig,
    QDTrace,
    qd_init,
    qd_run,
)

from inputs import random_chain, scalar_polynomial

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)

#: Nearly singular: LAPACK inverts it (u_22 = -2^-49), the gate rejects pivot 1.
NEAR_SINGULAR = np.array([[1.0, 2.0], [2.0, 4.0 * (1 + 2.0 ** -50)]])


def ref_sweep(q, e, sweep):
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


def ref_blocks(p, cfg):
    """:func:`qd._blocks` as a loop of :func:`ref_sweep`, one sweep at a time.

    Each sweep is gated, traced and tested for the stop and the stall as soon
    as it is made.  Yields the final ``(q_row, trace, False)`` of a converged
    run only, the Q-row as a list, and raises as :func:`qd._blocks` does.
    """
    q, e = map(list, qd_init(p))
    trace = QDTrace()
    if p.l == 1:
        yield q, trace, False
        return
    best, since_best, failure = math.inf, 0, None
    for sweep in range(1, cfg.max_iterations + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            q, e = ref_sweep(q, e, sweep)
            e_norms = [linalg.frob_norm(b) for b in e[1:-1]]
            pivot_norms = [linalg.frob_norm(b) for b in q[:-1]]
        rel = max([0.0] + [x / max(1.0, y) for x, y in zip(e_norms, pivot_norms)])
        trace.sweeps.append(sweep)
        trace.e_block_norms.append(e_norms)
        trace.max_relative_e.append(rel)
        if rel <= cfg.e_tol:
            break
        if rel < best * (1 - 1e-12):
            best, since_best = rel, 0
        else:
            since_best += 1
            if since_best >= STALL_WINDOW:
                failure = (f"Q.D. stalled: max relative E-norm {rel:.3e} did not "
                           f"improve over {STALL_WINDOW} sweeps")
                break
    else:
        failure = (f"Q.D. budget of {cfg.max_iterations} sweeps exhausted "
                   f"(max relative E-norm {rel:.3e})")
    if failure:
        raise NoConvergence(failure, trace=trace)
    yield q, trace, False


def _run_outcome(blocks, p, cfg):
    """What a Q.D. run, drawn from the generator ``blocks(p, cfg)``, returned
    or raised, in a form :func:`_assert_same_run` compares: the final Q-row
    (or the error) and the trace."""
    try:
        for q_row, trace, _ in blocks(p, cfg):
            pass
    except NoConvergence as exc:
        return exc, exc.trace
    except Exception as exc:  # the error itself is the outcome compared
        return exc, None
    return np.asarray(q_row), trace


def _qd_run_outcome(p, cfg):
    """:func:`_run_outcome` of :func:`qd_run`."""
    try:
        chain, trace = qd_run(p, cfg)
    except NoConvergence as exc:
        return exc, exc.trace
    except Exception as exc:  # the error itself is the outcome compared
        return exc, None
    return chain.factors, trace


def _assert_same_run(got, want):
    (g, g_trace), (w, w_trace) = got, want
    if isinstance(w, Exception):
        _assert_same_error(g, w)
    else:
        assert np.array_equal(g, w)
    if w_trace is not None:
        assert g_trace.sweeps == w_trace.sweeps
        assert g_trace.e_block_norms == w_trace.e_block_norms
        assert g_trace.max_relative_e == w_trace.max_relative_e
        assert all(type(x) is float for x in g_trace.max_relative_e)


def _block_of(sweep, sizes):
    """'first', 'middle' or 'last': where ``sweep`` falls in the blocks of ``sizes``."""
    start = 0
    for n in sizes:
        if sweep <= start + n:
            return "first" if sweep == start + 1 else "last" if sweep == start + n else "middle"
        start += n
    raise AssertionError(f"sweep {sweep} is outside the blocks {sizes}")


@pytest.fixture
def block_sizes(monkeypatch):
    """The sizes of the blocks that qd_run computes, in order."""
    sizes = []
    sweeps = qd._sweeps

    def spy(q, e, n):
        sizes.append(n)
        return sweeps(q, e, n)

    monkeypatch.setattr(qd, "_sweeps", spy)
    return sizes


def _sweep(q, e, done=0):
    """The row ``(q, e)`` after one sweep, gated as sweep ``done + 1``."""
    qs, es, invs, (q_norms, inv_norms, _) = qd._sweeps(q, e, 1)
    qd._gate(qs, invs, q_norms, inv_norms, done)
    return qs[0], es[0]


def _e_row(interior):
    """An E-row from its interior blocks, with the zero boundary blocks."""
    zero = np.zeros((1,) + interior.shape[1:])
    return np.concatenate([zero, interior, zero])


@st.composite
def tableaux(draw):
    """``(q_row, e_row, done)``: a tableau row after ``done`` sweeps."""
    m, l = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    blocks = lambda k: hnp.arrays(np.float64, (k, m, m), elements=st.floats(-4.0, 4.0))
    return draw(blocks(l)), _e_row(draw(blocks(l - 1))), draw(st.integers(0, 9))


def _assert_same_error(got, want):
    assert type(got) is type(want) and str(got) == str(want)
    assert str(got.__cause__) == str(want.__cause__)


def test_qd_init_scalar():
    q, e = qd_init(scalar_polynomial([1.0, -3.0, 2.0]))
    assert q[0][0, 0] == pytest.approx(3.0)
    assert q[1][0, 0] == pytest.approx(0.0)
    assert e[1][0, 0] == pytest.approx(2.0 / -3.0)
    assert np.allclose(e[0], 0.0) and np.allclose(e[-1], 0.0)


def test_qd_init_example1(example1):
    q, _ = qd_init(example1)
    assert np.allclose(q[0], -example1.coeffs[1])
    assert np.allclose(q[1], 0.0)
    assert np.allclose(q[2], 0.0)


def test_qd_init_singular_coefficient():
    p = MatrixPolynomial([np.eye(2), np.zeros((2, 2)), np.eye(2)])
    with pytest.raises(SingularCoefficient):
        qd_init(p)


def test_qd_linear_polynomial_immediate():
    a1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    chain, trace = qd_run(MatrixPolynomial([np.eye(2), a1]))
    assert len(chain.factors) == 1
    assert np.allclose(chain.factors[0], -a1)


def test_sweep_scalar_oracle():
    # classical scalar rules: q_i' = q_i + e_i - e_{i-1}', e_i' = e_i q_{i+1}/q_i'
    p = scalar_polynomial([1.0, -3.0, 2.0])
    q, e = qd_init(p)
    qs = [b[0, 0] for b in q]
    es = [b[0, 0] for b in e]
    for done in range(8):
        q, e = _sweep(q, e, done)
        new_q = [qs[0] + es[1] - es[0], qs[1] + es[2] - es[1]]
        new_e = [0.0, new_q[1] * es[1] / new_q[0], 0.0]
        qs, es = new_q, new_e
        assert q[0][0, 0] == pytest.approx(qs[0])
        assert q[1][0, 0] == pytest.approx(qs[1])
        assert e[1][0, 0] == pytest.approx(es[1])


def test_qd_converged_tableau_is_fixed_point():
    p = scalar_polynomial([1.0, -3.0, 2.0])
    chain, _ = qd_run(p, QDConfig(e_tol=1e-14, max_iterations=500))
    q, e = qd_init(p)
    for done in range(200):
        q, e = _sweep(q, e, done)
    q2, _ = _sweep(q, e, 200)
    for a, b in zip(q, q2):
        assert np.allclose(a, b, atol=1e-12)


def test_qd_scalar_dominance_order():
    chain, _ = qd_run(scalar_polynomial([1.0, -3.0, 2.0]), QDConfig(e_tol=1e-13))
    roots = [f[0, 0] for f in chain.factors]
    assert roots[0] == pytest.approx(2.0, abs=1e-9)
    assert roots[1] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("kwargs, message", [
    ({"max_iterations": 0}, "max_iterations must be >= 1"),
    ({"max_iterations": 2.5}, "max_iterations must be an integer, got 2.5"),
    ({"max_iterations": True}, "max_iterations must be an integer, got True"),
    ({"max_iterations": "5"}, "max_iterations must be an integer, got '5'"),
    ({"e_tol": 0.0}, "e_tol must be a finite positive number"),
    ({"e_tol": float("inf")}, "e_tol must be a finite positive number"),
    ({"e_tol": True}, "e_tol must be a finite positive number"),
    ({"e_tol": "a"}, "e_tol must be a finite positive number"),
    ({"e_tol": None}, "e_tol must be a finite positive number"),
])
def test_qd_config_rejects(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        QDConfig(**kwargs)


def test_qd_config_takes_a_numpy_float_tolerance():
    assert QDConfig(e_tol=np.float32(1e-3)).e_tol == np.float32(1e-3)


def test_qd_config_takes_a_numpy_integer_budget():
    chain, _ = qd_run(scalar_polynomial([1.0, -3.0, 2.0]),
                      QDConfig(max_iterations=np.int64(200), e_tol=1e-13))
    assert chain.factors[0][0, 0] == pytest.approx(2.0, abs=1e-9)


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
    assert residual_right(p, got.factors[0]) < 1e-8


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
    # the error carries the run's trace, and no final Q-row is yielded
    rng = np.random.default_rng(13)
    chain = random_chain(2, 2, rng, gap=2.0)
    p = reconstruct(chain)
    blocks = qd._blocks(p, QDConfig(max_iterations=3))
    with pytest.raises(NoConvergence) as exc:
        next(blocks)
    assert exc.value.trace.sweeps == [1, 2, 3]
    assert len(exc.value.trace.max_relative_e) == 3


@SETTINGS
@given(tableaux())
def test_sweep_matches_blockwise_sweep(row):
    q, e, done = row
    try:
        want_q, want_e = ref_sweep(list(q), list(e), done + 1)
    except SingularPivot as want:
        with pytest.raises(SingularPivot) as got:
            _sweep(q, e, done)
        _assert_same_error(got.value, want)
        assert (got.value.block_index, got.value.sweep) == (want.block_index, want.sweep)
        return
    got_q, got_e = _sweep(q, e, done)
    assert np.array_equal(got_q, np.array(want_q))
    assert np.array_equal(got_e, np.array(want_e))


def test_gate_names_first_singular_middle_block():
    # pivots Q_0..Q_2 are I, NEAR_SINGULAR, NEAR_SINGULAR; block 1 is named
    q = np.array([np.eye(2), NEAR_SINGULAR, NEAR_SINGULAR, np.eye(2)])
    with pytest.raises(SingularPivot) as exc:
        _sweep(q, _e_row(np.zeros((3, 2, 2))), done=6)
    assert (exc.value.block_index, exc.value.sweep) == (1, 7)
    assert str(exc.value) == "Q-block 1 singular at sweep 7"
    assert exc.value.__cause__.pivot_index == 1


def test_gate_names_exact_zero_block_when_lapack_fails_the_stack():
    # pivots are I, 0, NEAR_SINGULAR: the zero block makes LAPACK raise on
    # the stack, and it is the first block the gate rejects
    q = np.array([np.eye(2), np.zeros((2, 2)), NEAR_SINGULAR, np.eye(2)])
    e = _e_row(np.zeros((3, 2, 2)))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(q[:-1])
    with pytest.raises(SingularPivot) as exc:
        _sweep(q, e)
    assert (exc.value.block_index, exc.value.sweep) == (1, 1)
    with pytest.raises(SingularPivot) as want:
        ref_sweep(list(q), list(e), 1)
    _assert_same_error(exc.value, want.value)


def test_arbitrated_pivot_gets_the_per_matrix_inverse():
    # new Q_0 = diag(1, 3e-12) exactly: the certificate fails, the arbiter
    # passes; new Q_1 is certified
    e1 = np.array([[0.5, 0.25], [-1.0, 0.0]])
    q = np.array([np.diag([1.0, 3e-12]) - e1, 3 * np.eye(2), np.eye(2)])
    e = _e_row(np.array([e1, e1.T]))
    pivot = (q + e[1:] - e[:-1])[0]
    assert np.array_equal(pivot, np.diag([1.0, 3e-12]))
    bound = (linalg.frob_norm(pivot) * linalg.frob_norm(np.linalg.inv(pivot))
             * math.sqrt(3) * linalg.PIVOT_RTOL)
    assert bound >= 0.5
    linalg._lu_factor(pivot)
    got_q, got_e = _sweep(q, e)
    want_q, want_e = ref_sweep(list(q), list(e), 1)
    assert np.array_equal(got_q, np.array(want_q))
    assert np.array_equal(got_e, np.array(want_e))
    inv = linalg.invert(got_q[:-1])
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


def test_qd_init_degree_zero_raises_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match=r"^Q.D. needs degree >= 1$"):
        qd_init(MatrixPolynomial([np.eye(2)]))


@st.composite
def small_integer_runs(draw):
    """Monic polynomials with entries in -3..3, and budgets over a few blocks.

    Exact zero pivots (LAPACK fails the stack), pivots the gate rejects,
    singular coefficients, stops and exhausted budgets are all common here.
    """
    m, l = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    coeffs = draw(hnp.arrays(np.float64, (l, m, m), elements=st.integers(-3, 3).map(float)))
    cfg = QDConfig(max_iterations=draw(st.integers(1, 3 * _BLOCK + 1)),
                   e_tol=draw(st.sampled_from([1e-1, 1e-3, 1e-6, 1e-10])))
    return MatrixPolynomial(np.concatenate([np.eye(m)[None], coeffs])), cfg


@st.composite
def slow_runs(draw):
    """Products of factors c_k I + N_k, c_k falling by ratios near 1 and N_k
    small, so that Q.D. converges slowly, and budgets of 33 to 200 sweeps.

    About half of these runs reach a block end ready for a hand-off; drawn on,
    they converge, exhaust the budget or, now and then, stall."""
    m, l = draw(st.integers(1, 2)), draw(st.integers(2, 3))
    ratios = draw(hnp.arrays(np.float64, l - 1, elements=st.floats(0.8, 0.97)))
    noise = draw(hnp.arrays(np.float64, (l, m, m), elements=st.integers(-3, 3).map(float)))
    scales = np.cumprod(np.concatenate([[draw(st.floats(1.0, 4.0))], ratios]))
    factors = scales[:, None, None] * np.eye(m) + noise / 10
    cfg = QDConfig(max_iterations=draw(st.integers(_BLOCK + 1, 200)),
                   e_tol=draw(st.sampled_from([1e-6, 1e-10])))
    return reconstruct(SpectralFactorChain(factors)), cfg


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_integer_runs())
def test_qd_run_matches_one_sweep_loop(run):
    p, cfg = run
    want = _run_outcome(ref_blocks, p, cfg)
    _assert_same_run(_run_outcome(qd._blocks, p, cfg), want)
    _assert_same_run(_qd_run_outcome(p, cfg), want)


def test_qd_run_stops_at_each_position_of_a_block(block_sizes):
    # E decays by 1/2 a sweep, so e_tol = the relative E-norm of sweep s
    # stops the run at sweep s
    p = scalar_polynomial([1.0, -3.0, 2.0])
    budget = 3 * _BLOCK + 1
    exc, trace = _run_outcome(ref_blocks, p, QDConfig(max_iterations=budget, e_tol=1e-300))
    assert isinstance(exc, NoConvergence)
    rels = trace.max_relative_e
    assert all(a > b for a, b in zip(rels, rels[1:]))
    positions = set()
    for stop in range(1, budget + 1):
        cfg = QDConfig(max_iterations=budget, e_tol=rels[stop - 1])
        block_sizes.clear()
        got = _run_outcome(qd._blocks, p, cfg)
        _assert_same_run(got, _run_outcome(ref_blocks, p, cfg))
        assert got[1].sweeps[-1] == stop
        positions.add(_block_of(stop, block_sizes))
    assert positions == {"first", "middle", "last"}


def test_example1_computes_only_the_sweeps_it_uses(example1, block_sizes):
    # each block is sized from the last _BLOCK relative E-norms of the run,
    # so a one-sweep block does not leave the next one without a rate
    _, trace = qd_run(example1)
    assert trace.sweeps[-1] == sum(block_sizes) == 54


def _yields(p, cfg):
    """The yields of a :func:`qd._blocks` run, up to its end or its error."""
    try:
        yield from qd._blocks(p, cfg)
    except BlockPolyError:
        pass


def _rest(blocks, last):
    """For :func:`_run_outcome`: the run left in ``blocks`` after its yield
    ``last``, that yield first."""
    return lambda p, cfg: itertools.chain([last], blocks)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(small_integer_runs(), slow_runs()))
def test_hand_off_ends_a_descending_run_at_a_block_end(run):
    """A ``ready`` yield at sweep n carries the trace of the same run given a
    budget of n sweeps, and the Q-row and trace of the same run stopped at
    sweep n by an ``e_tol`` of its E-norm there, a new best that the full run
    goes past."""
    p, cfg = run
    plain = _run_outcome(qd._blocks, p, cfg)
    handed = [copy.deepcopy((q, trace)) for q, trace, ready in _yields(p, cfg) if ready]
    for q_row, trace in handed:
        n = len(trace.sweeps)
        assert trace.sweeps[-1] == n
        budget = _run_outcome(qd._blocks, p, QDConfig(max_iterations=n, e_tol=cfg.e_tol))
        assert str(budget[0]).startswith(f"Q.D. budget of {n} sweeps exhausted")
        _assert_same_run((budget[0], trace), budget)
        stopped = QDConfig(max_iterations=cfg.max_iterations, e_tol=trace.max_relative_e[-1])
        _assert_same_run((q_row, trace), _run_outcome(qd._blocks, p, stopped))
        rels = plain[1].max_relative_e
        assert len(rels) > n and rels[n - 1] < min(rels[:n - 1])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(slow_runs())
def test_resuming_a_hand_off_gives_the_plain_run(run):
    """Drained after any of its yields, a :func:`qd._blocks` run returns or
    raises what an undisturbed run does, with the whole run's trace, and
    leaves the Q-row of that yield as it was."""
    p, cfg = run
    plain = _run_outcome(qd._blocks, p, cfg)
    for k in range(len(list(_yields(p, cfg)))):
        blocks = qd._blocks(p, cfg)
        for _ in range(k + 1):
            last = next(blocks)
        kept = last[0].copy()
        _assert_same_run(_run_outcome(_rest(blocks, last), p, cfg), plain)
        assert np.array_equal(last[0], kept)


def test_a_resumed_run_stalls_where_the_plain_run_does():
    # The run is ready to hand off at sweep 64, its best, then climbs and
    # stalls 60 sweeps later; a run that forgot that best would stall at
    # sweep 129.
    p = MatrixPolynomial([np.eye(2), [[0.63, 0.37], [-0.33, 1.81]],
                          [[0.81, -0.2], [-1.58, 0.37]]])
    blocks = qd._blocks(p, QDConfig())
    last = next(block for block in blocks if block[2])
    assert last[1].sweeps[-1] == 64
    resumed = _run_outcome(_rest(blocks, last), p, QDConfig())
    _assert_same_run(resumed, _run_outcome(qd._blocks, p, QDConfig()))
    assert str(resumed[0]).startswith("Q.D. stalled") and resumed[1].sweeps[-1] == 124


def test_block_size_when_the_decay_rate_rounds_to_one():
    # last < first, yet (last / first)^(1/31) rounds to 1.0: no decay to
    # extrapolate, so the next block is a full one
    rels = [1.0] * 31 + [1 - 2 ** -52]
    assert (rels[-1] / rels[0]) ** (1 / 31) == 1.0
    assert qd._block_size(rels, 1e-10) == _BLOCK


def test_qd_run_stall_matches_one_sweep_loop():
    p = scalar_polynomial([1.0, -3.0, -3.0, -1.0])
    cfg = QDConfig(max_iterations=100)
    got = _run_outcome(qd._blocks, p, cfg)
    _assert_same_run(got, _run_outcome(ref_blocks, p, cfg))
    assert str(got[0]).startswith("Q.D. stalled") and got[1].sweeps[-1] == STALL_WINDOW + 1


#: (A_1 .. A_l, the sweep of the first singular pivot, whether LAPACK fails
#: the pivot stack of that sweep); found by a search over entries in -3..3
#: (m = 2, l = 2, except sweep 32, found only at l = 3).
SINGULAR_PIVOTS = [
    ([[[-1, 1], [-3, 2]], [[-2, 2], [-3, -3]]], 1, False),
    ([[[3, 1], [-2, -1]], [[-1, -1], [-3, 0]]], 2, False),
    ([[[3, 2], [-3, 0]], [[1, 3], [-1, -2]]], 3, False),
    ([[[-1, 3], [1, 3]], [[2, 1], [0, -2]]], 4, False),
    ([[[-1, 3], [-1, -2]], [[-2, 0], [2, 1]], [[2, 1], [-1, -1]]], 5, False),
    ([[[1, 2], [-3, -2]], [[-1, -1], [-1, -2]]], 6, False),
    ([[[-2, 1], [-2, 2]], [[-1, 2], [-1, 2]]], 7, False),
    ([[[1, 0], [-2, -2]], [[0, -1], [3, 3]], [[-3, -2], [-1, -1]]], 8, False),
    ([[[1, -1], [3, -1]], [[-3, 1], [1, -1]]], 9, False),
    ([[[2, 2], [-1, -3]], [[1, 1], [3, 3]]], 16, False),
    ([[[1]], [[1]]], 1, True),
    ([[[-2]], [[2]], [[-1]]], 3, True),
    ([[[-1]], [[2]], [[-1]]], 5, True),
    ([[[1]], [[-2]], [[-3]]], 6, True),
    ([[[-1, -1], [0, 3]], [[2, -2], [-1, -3]]], 10, False),
    ([[[2, 1], [0, -2]], [[2, 1], [-1, 1]]], 11, False),
    ([[[-3, -3], [1, 2]], [[2, -3], [-1, 2]]], 12, False),
    ([[[1, 0], [2, -1]], [[0, -1], [3, -2]]], 13, False),
    ([[[1, 1], [2, -1]], [[1, 0], [1, 0]]], 14, False),
    ([[[0, 2], [-1, 3]], [[2, 3], [2, 3]]], 15, False),
    ([[[2, -2], [-1, 3]], [[3, -2], [-3, 2]]], 17, False),
    ([[[1, -2], [2, -3]], [[3, 1], [3, 1]]], 18, False),
    ([[[1, 0], [2, -1]], [[-3, -3], [-3, -3]]], 19, False),
    ([[[0, 1], [-1, 2]], [[1, 3], [1, 3]]], 20, False),
    ([[[-2, 0], [2, -1]], [[1, -1], [-2, 2]]], 21, False),
    ([[[3, -2], [2, -1]], [[-3, -2], [-3, -2]]], 22, False),
    ([[[1, 0], [3, 1]], [[0, 0], [1, 3]]], 23, False),
    ([[[0, 1], [-1, -2]], [[-3, 2], [3, -2]]], 24, False),
    ([[[0, 1], [-1, -2]], [[0, -3], [0, 3]]], 25, False),
    ([[[0, 1], [1, 0]], [[2, -1], [-2, 1]]], 26, False),
    ([[[1, 0], [0, 2]], [[0, 0], [-1, 3]]], 27, False),
    ([[[2, -3], [1, -2]], [[-2, -2], [-2, -2]]], 28, False),
    ([[[2, -2], [0, -2]], [[0, 3], [-1, 1]]], 29, False),
    ([[[-2, 0], [2, -1]], [[1, 0], [1, 3]]], 30, False),
    ([[[-2, 0], [2, 1]], [[1, 0], [3, 3]]], 31, False),
    ([[[3, 1], [0, 2]], [[3, 2], [0, -1]], [[2, 0], [0, 0]]], 32, False),
    ([[[-1, -3], [-3, -1]], [[3, 1], [2, 2]]], 33, False),
]


def _monic(blocks):
    blocks = np.array(blocks, dtype=float)
    return MatrixPolynomial(np.concatenate([np.eye(blocks.shape[1])[None], blocks]))


def test_singular_pivots_cover_every_position_of_the_first_block():
    assert set(range(1, _BLOCK + 2)) <= {sweep for _, sweep, _ in SINGULAR_PIVOTS}
    assert any(lapack and 1 < sweep < _BLOCK for _, sweep, lapack in SINGULAR_PIVOTS)


@pytest.mark.parametrize("blocks, sweep, lapack", SINGULAR_PIVOTS)
def test_qd_run_raises_the_first_singular_pivot_of_the_one_sweep_loop(blocks, sweep, lapack):
    p = _monic(blocks)
    cfg = QDConfig(max_iterations=3 * _BLOCK + 1)
    got = _run_outcome(qd._blocks, p, cfg)
    _assert_same_run(got, _run_outcome(ref_blocks, p, cfg))
    assert isinstance(got[0], SingularPivot) and got[0].sweep == sweep
    q, e = qd_init(p)
    for done in range(sweep - 1):
        q, e = _sweep(q, e, done)
    pivots = (q + e[1:] - e[:-1])[:-1]
    try:
        np.linalg.inv(pivots)
        failed = False
    except np.linalg.LinAlgError:
        failed = True
    assert failed == lapack


def test_singular_pivot_after_the_stop_in_the_same_block_is_not_raised():
    blocks, sweep, _ = SINGULAR_PIVOTS[6]
    assert sweep == 7 <= _BLOCK
    p = _monic(blocks)
    exc, trace = _run_outcome(ref_blocks, p, QDConfig(max_iterations=sweep - 1, e_tol=1e-300))
    assert isinstance(exc, NoConvergence)
    rels = trace.max_relative_e
    cfg = QDConfig(max_iterations=_BLOCK, e_tol=min(rels[:3]))
    got = _run_outcome(qd._blocks, p, cfg)
    _assert_same_run(got, _run_outcome(ref_blocks, p, cfg))
    assert got[1].sweeps[-1] <= 3
