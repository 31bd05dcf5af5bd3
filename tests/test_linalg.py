import numpy as np
import pytest

from blockpoly import linalg
from blockpoly.errors import SingularMatrix


def test_frob_norm_identity():
    assert linalg.frob_norm(np.eye(2)) == pytest.approx(np.sqrt(2))


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
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.standard_normal((3, 2))
        x = rng.standard_normal((2, 4))
        b = rng.standard_normal((4, 3))
        lhs = linalg.vec(a @ x @ b)
        rhs = linalg.kron(b.T, a) @ linalg.vec(x)
        assert np.linalg.norm(lhs - rhs) < 1e-10


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
