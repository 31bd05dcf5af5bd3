import re

import numpy as np
import pytest

from blockpoly import horner, linalg
from blockpoly.errors import (
    DimensionMismatch,
    InsufficientTrace,
    NoConvergence,
    SingularStep,
    SingularSylvester,
)
from blockpoly.horner import (
    IterConfig,
    convergence_bounds_check,
    default_guess,
    frechet_matrix,
    horner_iterate,
    newton_horner,
    two_stage,
)
from blockpoly.polynomial import (
    MatrixPolynomial,
    SpectralFactorChain,
    eval_right,
    reconstruct,
    residual_right,
    synthetic_div_right,
)

from inputs import random_chain, scalar_polynomial


def run_steps(fn, p, x0, n, **kw):
    """Run exactly n steps (η disabled) and return the trace."""
    try:
        _, trace = fn(p, IterConfig(x0=x0, max_iterations=n, eta=1e30), **kw)
    except NoConvergence as exc:
        trace = exc.trace
    return trace


def test_plain_horner_scalar():
    p = scalar_polynomial([1.0, -3.0, 2.0])
    x, trace = horner_iterate(p, IterConfig(x0=[[1.5]]))
    assert min(abs(x[0, 0] - 1.0), abs(x[0, 0] - 2.0)) < 1e-8


def test_plain_horner_scalar_step_formula():
    # one step of the closed form x' = x * a_l / (a_l - p(x))
    p = scalar_polynomial([1.0, -3.0, 2.0])
    x0 = 1.7
    trace = run_steps(horner_iterate, p, [[x0]], 1)
    expected = x0 * 2.0 / (2.0 - (x0 * x0 - 3 * x0 + 2.0))
    assert trace.iterates[1][0, 0] == pytest.approx(expected, rel=1e-12)


def test_plain_horner_exact_solvent_immediate():
    chain = random_chain(2, 2, np.random.default_rng(1))
    p = reconstruct(chain)
    x, trace = horner_iterate(p, IterConfig(x0=chain.factors[0]))
    assert len(trace.iterates) == 1


def test_plain_horner_example3_repeated_factor(example3):
    cfg = IterConfig(x0=default_guess(example3), eta=1e-2)
    x, trace = horner_iterate(example3, cfg)
    assert residual_right(example3, x) <= horner.RESIDUAL_GUARD


def test_fixed_point_identity():
    chain = random_chain(2, 3, np.random.default_rng(2))
    p = reconstruct(chain)
    x = chain.factors[0]
    # one explicit step of X' = X (A_l - A_R(X))^{-1} A_l leaves a solvent put
    a_l = p.coeffs[-1]
    x_next = x @ linalg.invert(a_l - eval_right(p, x)) @ a_l
    assert linalg.frob_norm(x_next - x) / linalg.frob_norm(x) < 1e-12


def test_frechet_linear_is_identity():
    c = np.random.default_rng(3).standard_normal((3, 3))
    p = MatrixPolynomial([np.eye(3), -c])
    assert np.allclose(frechet_matrix(p, c), np.eye(9))


def test_frechet_scalar_is_derivative():
    p = scalar_polynomial([1.0, -3.0, 2.0])
    x = 1.7
    assert frechet_matrix(p, [[x]])[0, 0] == pytest.approx(2 * x - 3.0)


def test_frechet_finite_difference():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        p = MatrixPolynomial([np.eye(m)] + [rng.standard_normal((m, m)) for _ in range(l)])
        x = rng.standard_normal((m, m))
        h = rng.standard_normal((m, m))
        h /= linalg.frob_norm(h)
        j = frechet_matrix(p, x)
        step = 1e-5
        fd = (eval_right(p, x + step * h) - eval_right(p, x - step * h)) / (2 * step)
        err = np.linalg.norm(j @ linalg.vec(h) - linalg.vec(fd))
        assert err <= 1e-5 * max(1.0, np.linalg.norm(j @ linalg.vec(h)))


def test_frechet_finite_difference_of_any_leading_coefficient():
    # The product rule holds for every A_0, singular ones included.
    rng = np.random.default_rng(8)
    for case in range(20):
        m = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        a0 = rng.standard_normal((m, m))
        if case % 2:
            a0[:, 0] = 0.0
        p = MatrixPolynomial([a0] + [rng.standard_normal((m, m)) for _ in range(l)])
        assert not p.is_monic
        x = rng.standard_normal((m, m))
        h = rng.standard_normal((m, m))
        h /= linalg.frob_norm(h)
        j = frechet_matrix(p, x)
        step = 1e-5
        fd = (eval_right(p, x + step * h) - eval_right(p, x - step * h)) / (2 * step)
        err = np.linalg.norm(j @ linalg.vec(h) - linalg.vec(fd))
        assert err <= 1e-5 * max(1.0, np.linalg.norm(j @ linalg.vec(h)))


def test_newton_horner_scalar_quadratic_decay():
    p = scalar_polynomial([1.0, -3.0, 2.0])
    x, trace = newton_horner(p, IterConfig(x0=[[1.8]]))
    assert x[0, 0] == pytest.approx(2.0, abs=1e-10)
    # residual exponents roughly double while above roundoff
    res = [r for r in trace.residuals if r > 1e-14]
    assert len(res) >= 3
    logs = np.log10(res)
    assert logs[-1] / logs[-2] > 1.5


def test_newton_horner_exact_solvent_immediate():
    chain = random_chain(2, 2, np.random.default_rng(5))
    p = reconstruct(chain)
    x, trace = newton_horner(p, IterConfig(x0=chain.factors[0]))
    assert len(trace.deltas) <= 1


def test_newton_horner_stops_at_rounding_floor():
    # The grid chain m=16, l=4, s=3: its Fréchet systems are so ill-conditioned
    # that δ stays near 1e-7 % once the residual reaches rounding level.
    chain = random_chain(16, 4, np.random.default_rng(16043))
    p = reconstruct(chain)
    q = chain.factors[0]
    d = np.random.default_rng(0).standard_normal((16, 16))
    x0 = q + 1e-4 * linalg.frob_norm(q) / linalg.frob_norm(d) * d
    x, trace = newton_horner(p, IterConfig(x0=x0, max_iterations=20))
    assert trace.residuals[-1] / p.coefficient_scale() <= 1e-12
    assert linalg.frob_norm(x - q) <= 1e-6


@pytest.mark.parametrize("a_last, steps", [
    (np.zeros((2, 2)), 5),
    (np.outer([0.1, 0.3], [0.7, 0.2]), 6),
], ids=["zero", "rank1"])
def test_newton_horner_singular_a_last(a_last, steps):
    # The Newton system Σ_j B_j H X^{l-1-j} = A_R(X) never inverts A_l, so a
    # singular A_l is no obstacle.
    p = MatrixPolynomial([np.eye(2), np.array([[1.0, 2.0], [0.0, 3.0]]), a_last])
    x, trace = newton_horner(p, IterConfig(x0=np.eye(2)))
    assert len(trace.iterates) == steps + 1
    assert residual_right(p, x) <= horner.RESIDUAL_GUARD


def test_diverging_iterate_ends_as_no_convergence():
    # λ⁴ - λ³ + 3λ² + 3 has no real root: the scalar Horner iterates grow
    # until iterate 11 overflows, with no NumPy warning on the way.
    p = scalar_polynomial([1.0, -1.0, 3.0, 0.0, 3.0])
    with pytest.raises(NoConvergence, match="^diverged: iterate 11,") as exc:
        horner_iterate(p, IterConfig(x0=default_guess(p)))
    assert len(exc.value.trace.iterates) == 11
    assert np.isfinite(exc.value.trace.residuals).all()


def test_newton_horner_singular_derivative():
    # p(x) = x² - 2x - 3 at x = 1: the derivative 2x - 2 vanishes while the
    # residual is -4, so the Newton system has no solution.
    p = scalar_polynomial([1.0, -2.0, -3.0])
    with pytest.raises(SingularSylvester, match=r"pivot 0 has magnitude 0\.000e\+00"):
        newton_horner(p, IterConfig(x0=[[1.0]]))


def test_horner_singular_step():
    # x0 = -A_1 makes the step matrix B_1 = A_1 + x0 exactly zero
    p = reconstruct(SpectralFactorChain([np.diag([4.0, 5.0]), np.diag([1.0, 2.0])]))
    with pytest.raises(SingularStep, match=r"pivot 0 has magnitude 0\.000e\+00"):
        horner_iterate(p, IterConfig(x0=-p.coeffs[1]))


def test_newton_horner_example4(example4):
    x0 = np.array([[5.2114, 4.8890], [2.3159, 6.2406]])
    x, trace = newton_horner(example4, IterConfig(x0=x0))
    assert len(trace.deltas) <= 15
    assert residual_right(example4, x) / linalg.frob_norm(example4.coeffs[-1]) <= 1e-6


def test_two_stage_scalar_is_newton():
    p = scalar_polynomial([1.0, 2.0, -5.0, 1.0])
    x0 = 0.9
    trace = run_steps(two_stage, p, [[x0]], 1)
    fx = x0**3 + 2 * x0**2 - 5 * x0 + 1
    dfx = 3 * x0**2 + 4 * x0 - 5
    assert trace.iterates[1][0, 0] == pytest.approx(x0 - fx / dfx, rel=1e-12)


def test_two_stage_variants_agree():
    # The double-division divisor C_{l-1} and the closed form
    # Δ(X) = Σ (l-i) A_i X^{l-1-i} are one matrix, so one two-stage step
    # covers both forms of the method.
    rng = np.random.default_rng(6)
    for m, l in [(1, 1), (2, 3), (3, 2), (4, 4)]:
        chain = random_chain(m, l, rng)
        p = reconstruct(chain)
        x = chain.factors[0] + 0.01 * rng.standard_normal((m, m))
        quotient, _ = synthetic_div_right(p, x)
        c = eval_right(quotient, x)
        powers = [np.linalg.matrix_power(x, l - 1 - i) for i in range(l)]
        delta = sum((l - i) * p.coeffs[i] @ powers[i] for i in range(l))
        # rounding bound: a few ulps of the summed term magnitudes
        scale = sum((l - i) * linalg.frob_norm(p.coeffs[i]) * linalg.frob_norm(powers[i])
                    for i in range(l))
        assert linalg.frob_norm(c - delta) <= 64 * np.finfo(float).eps * scale


def test_two_stage_example4_fifteen_iterations(example4):
    x0 = np.array([[5.2114, 4.8890], [2.3159, 6.2406]])
    cfg = IterConfig(x0=x0, max_iterations=15, eta=1e30)
    with pytest.raises(NoConvergence) as exc:
        two_stage(example4, cfg)
    trace = exc.value.trace
    x15 = trace.iterates[15]
    a_r = eval_right(example4, x15)
    assert linalg.frob_norm(a_r) <= 0.05
    printed = np.array([[-0.0081, 0.0106], [0.0265, 0.0145]])
    assert np.max(np.abs(a_r - printed)) < 5e-3


def test_two_stage_example4_runs_to_the_guard_with_eta_disabled(example4):
    # The two-stage map converges at rate 0.985 around a complex pair, so its
    # residual oscillates; with every δ counted as small, only the residual
    # guard may end the run.
    x0 = np.array([[5.2114, 4.8890], [2.3159, 6.2406]])
    x, _ = two_stage(example4, IterConfig(x0=x0, eta=1e30, max_iterations=2000))
    assert residual_right(example4, x) <= 1e-8


def test_one_division_per_iterate(monkeypatch):
    calls = {"synthetic_div_right": 0, "eval_right": 0}

    def counted(name):
        fn = getattr(horner, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(horner, name, counted(name))
    rng = np.random.default_rng(12)
    chain = random_chain(3, 3, rng)
    p = reconstruct(chain)
    x0 = chain.factors[0] + 1e-3 * rng.standard_normal((3, 3))
    _, trace = newton_horner(p, IterConfig(x0=x0))
    steps = len(trace.iterates) - 1
    assert steps >= 2
    assert calls == {"synthetic_div_right": steps + 1, "eval_right": 0}


def test_two_stage_exact_solvent_immediate():
    chain = random_chain(2, 2, np.random.default_rng(7))
    p = reconstruct(chain)
    x, trace = two_stage(p, IterConfig(x0=chain.factors[0]))
    assert len(trace.deltas) <= 1


def test_converged_residual_contract():
    rng = np.random.default_rng(8)
    for method in (horner_iterate, newton_horner, two_stage):
        chain = random_chain(2, 2, rng, gap=3.0)
        p = reconstruct(chain)
        x0 = chain.factors[0] + 1e-6 * rng.standard_normal((2, 2))
        x, _ = method(p, IterConfig(x0=x0, max_iterations=3000))
        assert residual_right(p, x) <= horner.RESIDUAL_GUARD


def test_bounds_check_sandwich():
    rng = np.random.default_rng(9)
    chain = random_chain(2, 2, rng)
    p = reconstruct(chain)
    x0 = chain.factors[0] + 1e-2 * rng.standard_normal((2, 2))
    _, trace = horner_iterate(p, IterConfig(x0=x0, max_iterations=3000))
    report = convergence_bounds_check(p, trace)
    assert report.sandwich_holds


def test_bounds_check_insufficient_trace():
    chain = random_chain(2, 2, np.random.default_rng(10))
    p = reconstruct(chain)
    _, trace = horner_iterate(p, IterConfig(x0=chain.factors[0]))
    with pytest.raises(InsufficientTrace):
        convergence_bounds_check(p, trace)


def test_bounds_check_needs_six_iterates_and_checks_five_steps():
    rng = np.random.default_rng(9)
    chain = random_chain(2, 2, rng)
    p = reconstruct(chain)
    x0 = chain.factors[0] + 1e-2 * rng.standard_normal((2, 2))
    _, trace = horner_iterate(p, IterConfig(x0=x0, max_iterations=3000))
    assert len(trace.iterates) > 6

    def first(n):
        return horner.ConvergenceTrace(trace.iterates[:n], trace.deltas[:n], trace.residuals[:n])

    with pytest.raises(InsufficientTrace, match="need at least 6 iterates, got 5"):
        convergence_bounds_check(p, first(5))
    report = convergence_bounds_check(p, first(6))
    assert len(report.lower_margins) == len(report.upper_margins) == 5


def test_bounds_check_fails_a_trace_that_stands_still_off_a_solvent():
    # ξ_k = 0 puts the upper bound at 0, under a nonzero residual
    chain = random_chain(2, 2, np.random.default_rng(9))
    p = reconstruct(chain)
    x = chain.factors[0] + 0.1 * np.eye(2)
    still = horner.ConvergenceTrace([x] * 6, [0.0] * 6, [1.0] * 6)
    report = convergence_bounds_check(p, still)
    assert not report.sandwich_holds
    assert min(report.upper_margins) < 0


@pytest.mark.parametrize("kwargs, message", [
    ({"eta": 0.0}, "eta must be a finite positive number"),
    ({"eta": float("nan")}, "eta must be a finite positive number"),
    ({"max_iterations": 0}, "max_iterations must be >= 1"),
    ({"max_iterations": 2.5}, "max_iterations must be an integer, got 2.5"),
    ({"max_iterations": True}, "max_iterations must be an integer, got True"),
    ({"max_iterations": "5"}, "max_iterations must be an integer, got '5'"),
    ({"eta": True}, "eta must be a finite positive number"),
    ({"eta": "a"}, "eta must be a finite positive number"),
    ({"eta": None}, "eta must be a finite positive number"),
])
def test_iter_config_rejects(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IterConfig(**kwargs)


def test_iter_config_takes_a_numpy_float_tolerance():
    assert IterConfig(eta=np.float32(1e-3)).eta == np.float32(1e-3)


def test_iter_config_takes_a_numpy_integer_budget():
    p = scalar_polynomial([1.0, -3.0, 2.0])
    x, _ = newton_horner(p, IterConfig(x0=[[1.8]], max_iterations=np.int64(20)))
    assert x[0, 0] == pytest.approx(2.0)


def test_x0_of_the_wrong_shape_raises():
    p = reconstruct(random_chain(2, 2, np.random.default_rng(9)))
    with pytest.raises(DimensionMismatch, match=r"^x must be 2x2, got \(3, 3\)$"):
        newton_horner(p, IterConfig(x0=np.eye(3)))


def test_overflow_at_the_start_is_no_convergence():
    # A_1 = 1.7e308 I: the default guess's trace overflows, and from
    # x0 = 1.7e308 I the first quotient does; neither may warn
    eye = np.eye(2)
    p = MatrixPolynomial([eye, 1.7e308 * eye, np.ones((2, 2))])
    with pytest.raises(NoConvergence, match="^diverged: the default guess is not finite$"):
        newton_horner(p)
    with pytest.raises(NoConvergence, match="^diverged: iterate 0, its quotient") as exc:
        newton_horner(p, IterConfig(x0=1.7e308 * eye))
    assert exc.value.trace.iterates == []


def test_newton_ratio_trend_below_plain():
    rng = np.random.default_rng(11)
    chain = random_chain(2, 2, rng)
    p = reconstruct(chain)
    x0 = chain.factors[0] + 1e-2 * rng.standard_normal((2, 2))
    _, plain = horner_iterate(p, IterConfig(x0=x0, max_iterations=3000))
    _, newt = newton_horner(p, IterConfig(x0=x0))
    assert len(newt.deltas) < len(plain.deltas)
