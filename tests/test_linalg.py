import ast
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import blockpoly
from blockpoly import linalg
from blockpoly.errors import DimensionMismatch, SingularMatrix


def test_frob_norm_identity():
    assert linalg.frob_norm(np.eye(2)) == pytest.approx(np.sqrt(2))


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_frob_norms_of_a_contiguous_stack_are_frob_norm_bit_for_bit(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((500, n, n)) * 10.0 ** rng.uniform(-3, 3, (500, 1, 1))
    assert stack.flags.c_contiguous
    assert linalg.frob_norms(stack).tolist() == [linalg.frob_norm(a) for a in stack]


def _graded(rng, n=None):
    """U diag(s) V^T, n in 1..12 unless given, σ_min/σ_max log-uniform in
    [1e-16, 1e-6]."""
    n = int(rng.integers(1, 13)) if n is None else n
    ratio = 10.0 ** rng.uniform(-16, -6)
    scale = 10.0 ** rng.uniform(-3, 3)
    inner = np.sort(rng.uniform(0, 1, max(n - 2, 0)))
    s = scale * ratio ** np.concatenate([[0.0], inner, [1.0]])[-n:]
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return u @ np.diag(s) @ v.T, s[0] / s[-1]


def _pivot_failure(fn, *args):
    try:
        fn(*args)
    except SingularMatrix as exc:
        return exc.pivot_index, exc.pivot_value
    return None


def test_solve_singular_decisions_match_elimination():
    rng = np.random.default_rng(20000)
    eps = np.finfo(float).eps
    outcomes = set()
    for _ in range(2000):
        a, kappa = _graded(rng)
        n = a.shape[0]
        b = rng.standard_normal((n, 2))
        certified = (linalg.frob_norm(a) * linalg.frob_norm(np.linalg.inv(a))
                     * math.sqrt(n * (n + 1) / 2) * linalg.PIVOT_RTOL < 0.5)
        expected = _pivot_failure(linalg._lu_factor, a)
        assert not (certified and expected), "a certified matrix failed elimination"
        assert _pivot_failure(linalg.solve, a, b) == expected
        if expected is None:
            x, ref = linalg.solve(a, b), np.linalg.solve(a, b)
            assert linalg.frob_norm(x - ref) <= 4 * n * kappa * eps * linalg.frob_norm(ref)
        outcomes.add("certified" if certified else "raised" if expected else "arbitrated")
    assert outcomes == {"certified", "raised", "arbitrated"}


def test_invert_on_a_stack_is_invert_in_stack_order():
    # Stacks of graded matrices, some singular to the gate and some with a
    # NaN: a stack gives what invert gives for each matrix, or the error of
    # the first matrix that invert rejects.
    rng = np.random.default_rng(20001)
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(1, 6))
        stack = np.array([_graded(rng, n)[0] for _ in range(int(rng.integers(1, 5)))])
        if rng.uniform() < 0.2:
            stack[rng.integers(len(stack)), 0, 0] = np.nan
        want = None
        for i, a in enumerate(stack):
            try:
                linalg.invert(a)
            except (SingularMatrix, DimensionMismatch) as exc:
                want = (i, type(exc), str(exc))
                break
        try:
            inv = linalg.invert(stack)
        except (SingularMatrix, DimensionMismatch) as exc:
            assert want is not None and (type(exc), str(exc)) == want[1:]
            if isinstance(exc, SingularMatrix):
                assert exc.block == want[0]
            outcomes.add(type(exc).__name__)
            continue
        assert want is None
        for i, a in enumerate(stack):
            assert np.array_equal(inv[i], linalg.invert(a))
        outcomes.add("inverted")
    assert outcomes == {"inverted", "SingularMatrix", "DimensionMismatch"}


def test_lapack_failure_on_accepted_matrix_is_singular(monkeypatch):
    # Elimination accepts a subnormal 1x1 (its threshold is floored at
    # 1e-312), but the LAPACK inverse overflows.
    with pytest.raises(SingularMatrix) as exc:
        linalg.solve(np.array([[1e-310]]), np.ones(1))
    assert exc.value.pivot_index is None

    def refuse(a):
        return np.full(a.shape, np.nan)

    monkeypatch.setattr(linalg, "lapack_inv", refuse)
    with pytest.raises(SingularMatrix) as exc:
        linalg.solve(np.eye(3), np.ones(3))
    assert exc.value.pivot_index is None


#: Norms of any size, with 0, inf, NaN and pairs whose product overflows.
_NORMS = st.one_of(
    st.sampled_from([0.0, math.inf, math.nan, 1e-300, 1.0, 5e11, 1e154, 1e160, 1e300]),
    st.floats(min_value=0.0, max_value=1e308),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 4))
def test_gate_arbitrates_exactly_what_the_float_certificate_fails(data, n):
    # The gate sends to the arbiter, in C order, exactly the pairs that fail
    # both forms of the certificate on Python floats, the Frobenius form
    # ||A|| ||A^-1|| sqrt(n(n+1)/2) PIVOT_RTOL < 1/2 and the row-sum form
    # ||A|| ||A^-1||_inf PIVOT_RTOL < 1/2, warns about no overflow or NaN, and
    # raises at the first rejection.
    shape = data.draw(st.sampled_from([(1,), (1, 1)])
                      | hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))
    norms = data.draw(hnp.arrays(float, shape, elements=_NORMS))
    inv_norms = data.draw(hnp.arrays(float, shape, elements=_NORMS))
    # each inverse is one finite entry repeated, so its row sums are n times it
    fills = data.draw(hnp.arrays(float, shape, elements=st.floats(0.0, 1e308)))
    inv = fills[..., None, None] * np.ones((n, n))
    with np.errstate(over="ignore"):
        row_sums = np.abs(inv).sum(-1).max(-1)
    scale = math.sqrt(n * (n + 1) / 2)
    want = [i for i, (x, y, r) in enumerate(zip(norms.ravel().tolist(),
                                                inv_norms.ravel().tolist(),
                                                row_sums.ravel().tolist()))
            if not x * y * scale * linalg.PIVOT_RTOL < 0.5
            and not x * r * linalg.PIVOT_RTOL < 0.5]
    # each matrix holds its own flat index, so the arbiter can tell them apart
    a = np.broadcast_to(np.arange(norms.size, dtype=float).reshape(shape + (1, 1)),
                        shape + (n, n))
    reject = data.draw(st.sampled_from([None, *want]))
    seen = []

    def arbiter(m):
        seen.append(int(m[0, 0]))
        if seen[-1] == reject:
            raise SingularMatrix(0, 0.0)

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(linalg, "_lu_factor", arbiter)
        warnings.simplefilter("error")
        if reject is None:
            linalg.gate_inverses(a, inv, norms, inv_norms)
        else:
            with pytest.raises(SingularMatrix) as exc:
                linalg.gate_inverses(a, inv, norms, inv_norms)
            assert exc.value.block == reject and type(exc.value.block) is int
            want = want[:want.index(reject) + 1]
    assert seen == want


def test_row_sum_form_clears_what_the_frobenius_form_fails(monkeypatch):
    # A last pivot of 2e-11 at order 16: ||A^-1||_F is 5.1e10 and
    # ||A^-1||_inf 5.0e10, so the Frobenius form reads 2.4 and the row-sum
    # form 0.2, and the arbiter is not asked.
    n = 16
    a = np.eye(n) + np.triu(np.full((n, n), 0.1), 1)
    a[-1, -1] = 2e-11
    inv = np.linalg.inv(a)
    norm = linalg.frob_norm(a)
    assert norm * linalg.frob_norm(inv) * math.sqrt(n * (n + 1) / 2) * linalg.PIVOT_RTOL >= 0.5
    assert norm * np.abs(inv).sum(-1).max() * linalg.PIVOT_RTOL < 0.5

    def refuse(m):
        raise AssertionError("the arbiter ran on a matrix the row-sum form clears")

    monkeypatch.setattr(linalg, "_lu_factor", refuse)
    assert np.array_equal(linalg.invert(a), inv)
    assert np.array_equal(linalg.invert(np.stack([np.eye(n), a])), np.stack([np.eye(n), inv]))


@pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
def test_lapack_inv_equals_numpy_inv(n):
    # The bound gufunc is what np.linalg.inv calls; a NumPy release that
    # moves or changes it fails here.
    rng = np.random.default_rng(n)
    a = rng.standard_normal((5, n, n)) + n * np.eye(n)
    assert np.array_equal(linalg.lapack_inv(a), np.linalg.inv(a))
    out = np.empty_like(a)
    assert linalg.lapack_inv(a, out=out) is out
    assert np.array_equal(out, np.linalg.inv(a))


def test_lapack_inverses_are_nan_exactly_where_lapack_fails():
    rng = np.random.default_rng(4)
    stack = np.array([rng.standard_normal((3, 3)), np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]),
                      np.eye(3), np.zeros((3, 3)), np.diag([1.0, 0.0, 2.0]),
                      rng.standard_normal((3, 3))])
    with np.errstate(invalid="ignore"):
        inv = linalg.lapack_inv(stack)
    for a, got in zip(stack, inv):
        try:
            want = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            assert np.isnan(got).all()
        else:
            assert np.array_equal(got, want)
    assert np.isnan(inv).all(axis=(1, 2)).tolist() == [False, True, False, True, True, False]


@pytest.mark.parametrize("m, k, d", [(1, 1, 2), (2, 2, 3), (2, 3, 2), (3, 1, 1), (5, 2, 0),
                                     (8, 8, 2), (16, 16, 3)])
def test_sylvester_matrix_equals_the_kron_sum(m, k, d):
    rng = np.random.default_rng(10 * m + k + d)
    coeffs = rng.standard_normal((d + 1, m, m))
    x = rng.standard_normal((k, k))
    powers = [np.eye(k)]
    for _ in range(d):
        powers.append(powers[-1] @ x)
    want = np.kron(powers[0], coeffs[-1])
    for j in range(d - 1, -1, -1):
        want += np.kron(powers[d - j].T, coeffs[j])
    assert np.array_equal(linalg.sylvester_matrix(coeffs, x), want)


def test_import_loads_no_scipy():
    # scipy's import alone costs more than the whole of blockpoly's set-up.
    code = ("import blockpoly, sys; "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(blockpoly.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_only_linalg_assembles_kronecker_systems():
    # linalg.solve_sylvester holds the vec/Kronecker convention; a module
    # that builds a Kronecker product or vectorizes would keep a second copy.
    src = os.path.dirname(os.path.abspath(linalg.__file__))
    offenders = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "linalg.py":
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            ident = (node.attr if isinstance(node, ast.Attribute)
                     else node.id if isinstance(node, ast.Name)
                     else node.name if isinstance(node, ast.alias) else None)
            if ident in ("kron", "vec", "unvec"):
                offenders.append(f"{name}:{node.lineno} {ident}")
    assert not offenders, "Kronecker/vec use outside linalg.py: " + ", ".join(offenders)


UNCHECKED_KERNELS = {"solve", "invert", "unvec", "sylvester_matrix", "solve_sylvester",
                     "_spectral_sylvester", "_spectral_factors"}


def test_unchecked_kernels_call_no_validator():
    # The module docstring names the kernels that only package-built arrays
    # reach; none of them may validate its input again.
    listed = re.search(r"The kernels (.*?) call neither validator", linalg.__doc__, re.S)
    assert set(re.findall(r":func:`(\w+)`", listed.group(1))) == UNCHECKED_KERNELS
    with open(linalg.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert UNCHECKED_KERNELS <= set(defs)
    offenders = []
    for name in sorted(UNCHECKED_KERNELS):
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Call):
                func = node.func
                ident = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if ident in ("as_matrix", "as_blocks"):
                    offenders.append(f"{name}:{node.lineno} {ident}")
    assert not offenders, "validator called in a kernel: " + ", ".join(offenders)


def test_solve_identity():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(linalg.solve(np.eye(2), b), b)


def test_solve_diagonal():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    b = np.array([[2.0], [8.0]])
    assert np.allclose(linalg.solve(a, b), [[1.0], [2.0]])


def test_solve_singular_reports_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix) as exc:
        linalg.solve(a, np.eye(2))
    assert exc.value.pivot_index == 1


def test_invert_random_well_conditioned():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        assert linalg.frob_norm(linalg.invert(a) @ a - np.eye(4)) < 1e-8


def test_det_matches_numpy():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        assert linalg.det(a) == pytest.approx(np.linalg.det(a), rel=1e-9)


def test_vec_column_stacking():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(linalg.vec(a).ravel(), [1, 3, 2, 4])
    assert np.allclose(linalg.vec(np.eye(2)).ravel(), [1, 0, 0, 1])
    assert np.allclose(linalg.unvec(linalg.vec(a), 2, 2), a)


def test_vec_kron_identity():
    # The coefficients [A, 0] make Σ_j C_j H X^{1-j} = A H B, so the matrix
    # must be kron(B.T, A) under column stacking; H is 3x4.
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 4))
        lhs = linalg.vec(a @ x @ b)
        rhs = linalg.sylvester_matrix(np.array([a, np.zeros((3, 3))]), b) @ linalg.vec(x)
        assert np.linalg.norm(lhs - rhs) < 1e-10
