import ast
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import blockpoly
from blockpoly import linalg
from blockpoly.errors import DimensionMismatch, SingularMatrix


def test_frob_norm_identity():
    assert linalg.frob_norm(np.eye(2)) == pytest.approx(np.sqrt(2))


def test_frob_norm_complex():
    z = np.array([[3 + 4j, -1j], [0.5, 2 - 2j]])
    assert linalg.frob_norm(z) == pytest.approx(math.sqrt(np.sum(np.abs(z) ** 2)), rel=1e-15)


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
        expected = _pivot_failure(linalg._lu_factor, a, linalg.PIVOT_RTOL)
        assert not (certified and expected), "a certified matrix failed elimination"
        assert _pivot_failure(linalg.solve, a, b) == expected
        if expected is None:
            x, ref = linalg.solve(a, b), np.linalg.solve(a, b)
            assert linalg.frob_norm(x - ref) <= 4 * n * kappa * eps * linalg.frob_norm(ref)
        outcomes.add("certified" if certified else "raised" if expected else "arbitrated")
    assert outcomes == {"certified", "raised", "arbitrated"}


def test_invert_blocks_is_invert_in_stack_order():
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
            inv, norms = linalg.invert_blocks(stack)
        except (SingularMatrix, DimensionMismatch) as exc:
            assert want is not None and (type(exc), str(exc)) == want[1:]
            if isinstance(exc, SingularMatrix):
                assert exc.block == want[0]
            outcomes.add(type(exc).__name__)
            continue
        assert want is None
        for i, a in enumerate(stack):
            assert np.array_equal(inv[i], linalg.invert(a))
            assert norms[i] == linalg.frob_norm(a)
        outcomes.add("inverted")
    assert outcomes == {"inverted", "SingularMatrix", "DimensionMismatch"}


def test_lapack_failure_on_accepted_matrix_is_singular(monkeypatch):
    # Elimination accepts a subnormal 1x1 (its threshold is floored at
    # 1e-312), but the LAPACK inverse overflows.
    with pytest.raises(SingularMatrix) as exc:
        linalg.solve(np.array([[1e-310]]), np.ones(1))
    assert exc.value.pivot_index is None

    def refuse(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(linalg.np.linalg, "inv", refuse)
    with pytest.raises(SingularMatrix) as exc:
        linalg.solve(np.eye(3), np.ones(3))
    assert exc.value.pivot_index is None


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
        rhs = linalg.sylvester_matrix([a, np.zeros((3, 3))], b) @ linalg.vec(x)
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_sylvester_shape_checks():
    with pytest.raises(DimensionMismatch):
        linalg.sylvester_matrix([np.eye(2), np.eye(3)], np.eye(2))
    with pytest.raises(DimensionMismatch):
        linalg.sylvester_matrix([np.eye(2)], np.ones((2, 3)))
    # H is 3x2 here, so a 2x3 right side has the right size but not the shape
    with pytest.raises(DimensionMismatch):
        linalg.solve_sylvester([np.eye(3)], np.eye(2), np.ones((2, 3)))


def test_eigvals_diagonal():
    got = np.sort_complex(linalg.eigvals(np.diag([3.0, -5.0])))
    assert np.allclose(got, [-5.0, 3.0])


def test_eigvals_rotation():
    got = np.sort_complex(linalg.eigvals(np.array([[0.0, 1.0], [-1.0, 0.0]])))
    assert np.allclose(got, [-1j, 1j])


def test_eigvals_companion():
    c = np.array([[0.0, 1.0], [-2.0, 3.0]])
    got = np.sort_complex(linalg.eigvals(c))
    assert np.allclose(got, [1.0, 2.0])


def test_eigvals_conjugate_closed_and_trace():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((5, 5))
        ev = linalg.eigvals(a)
        assert np.allclose(np.sort_complex(ev), np.sort_complex(np.conj(ev)))
        assert sum(ev).real == pytest.approx(np.trace(a), rel=1e-8, abs=1e-8)
