import numpy as np
import pytest

from blockpoly import decoupler, linalg
from blockpoly.decoupler import (
    MFDSystem,
    closed_loop_eval,
    controller_form,
    design_decoupling,
)
from blockpoly.errors import (
    DimensionMismatch,
    NoConvergence,
    NumeratorFactorizationFailed,
    SingularAtLambda,
    SingularLeadingCoefficient,
)
from blockpoly.polynomial import latent_roots

from conftest import spectrum_pair_error


@pytest.fixture
def siso():
    # H(λ) = 1 / (λ² + 3λ + 2)
    return MFDSystem(
        numerator=[np.array([[1.0]])],
        denominator=[np.array([[2.0]]), np.array([[3.0]]), np.array([[1.0]])],
    )


def test_mfd_dimensions(gas_turbine):
    assert gas_turbine.m == 2
    assert gas_turbine.k == 2
    assert gas_turbine.l == 3



def test_mfd_denominator_off_identity_is_rejected():
    with pytest.raises(DimensionMismatch, match="denominator must be monic"):
        MFDSystem(numerator=[np.eye(2)],
                  denominator=[np.eye(2), np.eye(2), (1.0 + 5e-6) * np.eye(2)])

def _transfer(a_c, b_c, c_c, lam):
    """C (λI - A)^{-1} B at a scalar λ."""
    n = a_c.shape[0]
    return c_c @ np.linalg.solve(complex(lam) * np.eye(n) - a_c, b_c)


def test_controller_form_siso(siso):
    a_c, b_c, c_c = controller_form(siso)
    assert np.allclose(a_c, [[0.0, 1.0], [-2.0, -3.0]])
    assert np.allclose(b_c.ravel(), [0.0, 1.0])
    assert np.allclose(c_c.ravel(), [1.0, 0.0])
    assert _transfer(a_c, b_c, c_c, 1.0)[0, 0] == pytest.approx(1.0 / 6.0)


def test_controller_form_realizes_mfd(gas_turbine):
    a_c, b_c, c_c = controller_form(gas_turbine)
    rng = np.random.default_rng(0)
    for _ in range(10):
        lam = complex(rng.standard_normal(), rng.standard_normal()) * 3.0
        h_ss = _transfer(a_c, b_c, c_c, lam)
        h_mfd = gas_turbine.numerator_polynomial().eval_scalar(lam) @ np.linalg.inv(
            gas_turbine.denominator_polynomial().eval_scalar(lam)
        )
        assert np.max(np.abs(h_ss - h_mfd)) < 1e-8


def test_design_constant_numerator_identity():
    # N = I, D = λ²I + 0λ + 0: desired chain is the modes themselves
    m = 2
    sys = MFDSystem(
        numerator=[np.eye(m)],
        denominator=[np.zeros((m, m)), np.zeros((m, m)), np.eye(m)],
    )
    j1, j2 = np.diag([-1.0, -2.0]), np.diag([-3.0, -4.0])
    res = design_decoupling(sys, [j1, j2])
    assert np.allclose(res.F, np.eye(m))
    got = np.sort_complex(latent_roots(res.Dd))
    assert np.allclose(got, [-4.0, -3.0, -2.0, -1.0])


def test_design_siso_pole_placement(siso):
    res = design_decoupling(siso, [np.array([[-5.0]]), np.array([[-6.0]])])
    # D_d = (λ+5)(λ+6); K_ci = D_di - D_i
    assert res.Dd.coeffs[1][0, 0] == pytest.approx(11.0)
    assert res.Dd.coeffs[2][0, 0] == pytest.approx(30.0)
    assert res.Kc_blocks[0][0, 0] == pytest.approx(30.0 - 2.0)
    assert res.Kc_blocks[1][0, 0] == pytest.approx(11.0 - 3.0)
    for lam in (0.0, 1.0, 2 + 1j):
        h, target = closed_loop_eval(siso, res, lam)
        assert abs(h[0, 0] - 1.0 / ((lam + 5.0) * (lam + 6.0))) < 1e-10
        assert np.max(np.abs(h - target)) < 1e-10


def test_gas_turbine_zero_chain(gas_turbine):
    res = design_decoupling(gas_turbine, [np.diag([-1.0, -2.0])])
    z_right = np.array([[24.7235, 23.1394], [-27.4494, -24.9281]])
    z_left = np.array([[-18.5711, -16.0841], [16.1166, 13.4353]])
    zr, zl = res.zero_chain.factors
    assert linalg.frob_norm(zr - z_right) / linalg.frob_norm(z_right) < 1e-2
    assert linalg.frob_norm(zl - z_left) / linalg.frob_norm(z_left) < 1e-2
    assert res.zero_residuals[0] < 1e-6


def test_gas_turbine_closed_loop_diagonal(gas_turbine):
    res = design_decoupling(gas_turbine, [np.diag([-1.0, -2.0])])
    for lam in (0.0, 1.0, 2 + 1j, -0.5 + 2j):
        h, target = closed_loop_eval(gas_turbine, res, lam)
        want = np.diag([1.0 / (lam + 1.0), 1.0 / (lam + 2.0)])
        assert np.max(np.abs(h - want)) < 1e-6
        assert np.max(np.abs(target - want)) < 1e-12


def test_gas_turbine_closed_loop_state_matrix(gas_turbine):
    res = design_decoupling(gas_turbine, [np.diag([-1.0, -2.0])])
    a_c, b_c, _ = controller_form(gas_turbine)
    k_c = np.hstack(res.Kc_blocks)
    ev = np.linalg.eigvals(a_c - b_c @ k_c)
    want = latent_roots(res.Dd)
    assert spectrum_pair_error(ev, want) < 1e-6


def test_unstable_modes_warn(gas_turbine):
    res = design_decoupling(gas_turbine, [np.diag([1.0, -2.0])])
    assert any("stab" in w.lower() for w in res.warnings)


def test_strictly_proper_decay(gas_turbine):
    res = design_decoupling(gas_turbine, [np.diag([-1.0, -2.0])])
    h, _ = closed_loop_eval(gas_turbine, res, 1e6)
    assert np.max(np.abs(h)) < 1e-5


def test_singular_leading_numerator_coefficient(gas_turbine):
    numerator = np.array(gas_turbine.numerator)
    numerator[-1] = np.diag([1.0, 0.0])
    with pytest.raises(SingularLeadingCoefficient):
        design_decoupling(MFDSystem(numerator, gas_turbine.denominator),
                          [np.diag([-1.0, -2.0])])


def test_numerator_factorization_failure_is_named(gas_turbine, monkeypatch):
    def fail(*args):
        raise NoConvergence("no convergence in 0 iterations")

    monkeypatch.setattr(decoupler, "factorize_nonmonic", fail)
    with pytest.raises(NumeratorFactorizationFailed, match="no convergence in 0"):
        design_decoupling(gas_turbine, [np.diag([-1.0, -2.0])])


@pytest.mark.parametrize("lam", [-1.0, -2.0])
def test_closed_loop_at_a_closed_loop_pole(gas_turbine, lam):
    res = design_decoupling(gas_turbine, [np.diag([-1.0, -2.0])])
    with pytest.raises(SingularAtLambda):
        closed_loop_eval(gas_turbine, res, lam)
