"""Acceptance suite: the eight replication / property criteria.

One test per criterion, asserted at the stated tolerances. Three criteria
contain a sub-check that fails deliberately and is kept as stated:
criteria 1 and 3 compare against printed values that the printed 4-digit /
1-decimal data does not determine to the stated tolerance, and criterion 4
asks the two-stage map for a residual that its linear rate cannot reach in
30 iterations. Those failure messages name the section of
notes/decisions.md where the numerical evidence is recorded.
"""

import time

import numpy as np
import pytest

from blockpoly import io, linalg, transforms
from blockpoly.decoupler import closed_loop_eval, design_decoupling
from blockpoly.errors import NoConvergence
from blockpoly.horner import (
    IterConfig,
    convergence_bounds_check,
    default_guess,
    frechet_matrix,
    horner_iterate,
    newton_horner,
    two_stage,
)
from blockpoly.pipeline import PipelineConfig, full_factorize
from blockpoly.polynomial import (
    MatrixPolynomial,
    SpectralFactorChain,
    eval_right,
    reconstruct,
    residual_right,
)
from blockpoly.qd import QDConfig, qd_run

from conftest import scalar_with_separated_roots, spectrum_pair_error
from inputs import random_chain, scalar_polynomial


def _rel(got, want):
    return linalg.frob_norm(got - want) / linalg.frob_norm(want)


def _check(failures, ok, label):
    if not ok:
        failures.append(label)


def _finish(failures, section=None):
    """Fail on any recorded clause; ``section`` names the part of
    notes/decisions.md that holds the evidence for this criterion."""
    where = f" (see notes/decisions.md § {section})" if section else ""
    assert not failures, (
        "clauses outside stated tolerance: " + "; ".join(failures) + where
    )


# -- criterion 1: Q.D. + transforms replication ------------------------------

def test_criterion_1_qd_and_transforms_replication(example1):
    t0 = time.perf_counter()
    chain, report, _ = full_factorize(
        example1, PipelineConfig(qd=QDConfig(max_iterations=35))
    )
    elapsed = time.perf_counter() - t0

    failures = []
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.3f}s >= 1s")
    _check(failures, report.rightmost_residual <= 1e-8,
           f"rightmost residual {report.rightmost_residual:.2e} > 1e-8")
    _check(failures, report.leftmost_residual <= 1e-8,
           f"leftmost residual {report.leftmost_residual:.2e} > 1e-8")

    s_printed = [
        np.array([[3.0, 2.0], [-90.0, -15.0]]),
        np.array([[-8.2908, 0.7118], [-16.84, 8.1248]]),
        np.array([[32.4434, -3.5284], [286.6226, -31.2773]]),
    ]
    for i, (got, want) in enumerate(zip(chain.factors, s_printed)):
        err = _rel(got, want)
        _check(failures, err < 1e-2, f"factor S{i + 1} error {err:.2e} >= 1e-2")

    right = transforms.chain_to_right_solvents(example1, chain)
    left = transforms.chain_to_left_solvents(example1, chain)
    r_printed = [
        np.array([[0.3637, -4.5495], [-0.8183, 0.8024]]),
        np.array([[7.2354, 1.4024], [1.2995, -7.4015]]),
        s_printed[0],
    ]
    l_printed = [
        np.array([[32.443, -3.5284], [286.622, -31.2773]]),
        np.array([[25.1323, -2.8370], [204.5931, -25.2983]]),
        np.array([[21.0123, -4.6531], [178.0910, -33.0123]]),
    ]
    for i, (got, want) in enumerate(zip(right.solvents, r_printed)):
        err = _rel(got, want)
        _check(failures, err < 1e-2, f"R{i + 1} error {err:.2e} >= 1e-2")
    for i, (got, want) in enumerate(zip(left.solvents, l_printed)):
        err = _rel(got, want)
        _check(failures, err < 1e-2, f"L{i + 1} error {err:.2e} >= 1e-2")
    _finish(failures, "Criterion 1")


# -- criterion 2: repeated Horner extraction + deflation ---------------------

def test_criterion_2_horner_extraction_replication(example2):
    cfg = PipelineConfig(refine_method="horner", qd=QDConfig(max_iterations=400))
    chain, report, _ = full_factorize(example2, cfg)

    failures = []
    _check(failures, len(chain.factors) == 3, "did not produce three factors")
    _check(failures, report.reconstruction_error <= 1e-6,
           f"reconstruction error {report.reconstruction_error:.2e} > 1e-6")
    for i, r in enumerate(report.per_factor_residuals):
        _check(failures, r <= 1e-8, f"factor {i} residual {r:.2e} > 1e-8")
    _finish(failures)


# -- criterion 3: repeated-factor polynomial ---------------------------------

def test_criterion_3_repeated_factor(example3):
    t0 = time.perf_counter()
    x, _ = horner_iterate(
        example3, IterConfig(x0=default_guess(example3), eta=1e-2)
    )
    elapsed = time.perf_counter() - t0

    failures = []
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.3f}s >= 1s")
    res = linalg.frob_norm(eval_right(example3, x))
    bound = 1e-6 * linalg.frob_norm(example3.coeffs[2])
    _check(failures, res <= bound, f"||A_R(X)|| {res:.2e} > {bound:.2e}")

    w = np.array([[-7.1230, -6.3246], [5.9279, 5.1230]])
    w_res = linalg.frob_norm(eval_right(example3, w))
    _check(failures, w_res <= 1e-3,
           f"eval at printed base matrix {w_res:.2e} > 1e-3 absolute")
    _finish(failures, "Criterion 3")


# -- criterion 4: two-stage iteration ----------------------------------------

def _two_stage_iterate(p, x0, n):
    cfg = IterConfig(x0=x0, max_iterations=n, eta=1e30)
    try:
        _, trace = two_stage(p, cfg)
    except NoConvergence as exc:
        trace = exc.trace
    return trace.iterates[min(n, len(trace.iterates) - 1)]


def test_criterion_4_two_stage(example4):
    x0 = np.array([[5.2114, 4.8890], [2.3159, 6.2406]])
    failures = []

    x15 = _two_stage_iterate(example4, x0, 15)
    res15 = linalg.frob_norm(eval_right(example4, x15))
    _check(failures, res15 <= 0.05, f"15-iteration residual {res15:.2e} > 0.05")
    printed = np.array([[-0.0081, 0.0106], [0.0265, 0.0145]])
    gap = np.max(np.abs(eval_right(example4, x15) - printed))
    _check(failures, gap < 5e-3,
           f"15-iteration residual entries off printed values by {gap:.2e}")

    x30 = _two_stage_iterate(example4, x0, 30)
    res30 = linalg.frob_norm(eval_right(example4, x30))
    _check(failures, res30 < 1e-6, f"30-iteration residual {res30:.2e} >= 1e-6")
    _finish(failures, "Criterion 4")


# -- criterion 5: gas-turbine decoupling -------------------------------------

def test_criterion_5_gas_turbine_decoupling(gas_turbine):
    t0 = time.perf_counter()
    res = design_decoupling(gas_turbine, [np.diag([-1.0, -2.0])])
    elapsed = time.perf_counter() - t0

    failures = []
    _check(failures, elapsed < 5.0, f"runtime {elapsed:.3f}s >= 5s")

    n_poly = gas_turbine.numerator_polynomial()
    n0 = linalg.frob_norm(gas_turbine.numerator[0])
    zr = res.zero_chain.factors[0]
    zero_res = linalg.frob_norm(eval_right(n_poly, zr)) / n0
    _check(failures, zero_res <= 1e-3,
           f"numerator zero residual {zero_res:.2e} > 1e-3")

    z_printed = [
        np.array([[24.7235, 23.1394], [-27.4494, -24.9281]]),
        np.array([[-18.5711, -16.0841], [16.1166, 13.4353]]),
    ]
    for i, (got, want) in enumerate(zip(res.zero_chain.factors, z_printed)):
        err = _rel(got, want)
        _check(failures, err < 1e-2, f"Z{i + 1} error {err:.2e} >= 1e-2")

    # The printed D_d is (λI - inv(N_2) J N_2)(λI - Z1)(λI - Z2): Z2 sits
    # rightmost, but Z1 is the right zero of N, so that chain does not cancel
    # the numerator. The cancelling chain keeps Z1 rightmost. Degree 2 is the
    # same for either order and stays checked against the printed literal.
    n_lead = gas_turbine.numerator[-1]
    j_conj = linalg.invert(n_lead) @ np.diag([-1.0, -2.0]) @ n_lead
    z1p, z2p = z_printed
    cancelling = reconstruct(SpectralFactorChain([z1p, z2p, j_conj]))
    swapped = reconstruct(SpectralFactorChain([z2p, z1p, j_conj]))
    dd_printed = [
        np.array([[-13.5596, -14.6249], [21.7809, 21.8999]]),
        np.array([[-126.4282, -121.5061], [161.6710, 152.4741]]),
        np.array([[-178.9732, -164.0512], [223.2851, 202.6227]]),
    ]
    for idx, printed in enumerate(dd_printed, start=1):
        want = printed if idx == 1 else cancelling.coeffs[idx]
        err = _rel(res.Dd.coeffs[idx], want)
        _check(failures, err < 1e-2,
               f"D_d coefficient of degree {3 - idx} error {err:.2e} >= 1e-2")
        gap = _rel(swapped.coeffs[idx], printed)
        _check(failures, gap < 1e-4,
               f"printed D_d degree {3 - idx} is not the swapped chain ({gap:.2e})")

    worst = 0.0
    for lam in (0.0, 1.0, 2 + 1j):
        h, target = closed_loop_eval(gas_turbine, res, lam)
        worst = max(worst, float(np.max(np.abs(h - target))))
    _check(failures, worst <= 1e-6, f"closed-loop error {worst:.2e} > 1e-6")
    _finish(failures, "Criterion 5")


# -- criterion 6: scalar-reduction oracle suite ------------------------------

def test_criterion_6_scalar_oracle_suite():
    rng = np.random.default_rng(2026)
    qd_cfg = QDConfig(max_iterations=2000, e_tol=1e-12)
    failures = []
    for case in range(100):
        roots, coeffs = scalar_with_separated_roots(rng)
        p = scalar_polynomial(coeffs)
        want = np.sort_complex(np.array(roots, dtype=complex))

        chain, _ = qd_run(p, qd_cfg)
        got = [f[0, 0] for f in chain.factors]
        if spectrum_pair_error(got, want) > 1e-8:
            failures.append(f"case {case}: qd roots off")
        mods = [abs(g) for g in got]
        if any(mods[i] <= mods[i + 1] for i in range(len(mods) - 1)):
            failures.append(f"case {case}: qd output not in dominance order")

        for method in ("horner", "newton-horner", "two-stage"):
            cfg = PipelineConfig(refine_method=method, qd=qd_cfg)
            mchain, _, _ = full_factorize(p, cfg)
            mgot = [f[0, 0] for f in mchain.factors]
            if spectrum_pair_error(mgot, want) > 1e-8:
                failures.append(f"case {case}: {method} roots off")
    _finish(failures)


# -- criterion 7: roundtrip property suite -----------------------------------

def test_criterion_7_roundtrip_suite():
    rng = np.random.default_rng(7)
    cfg = PipelineConfig(qd=QDConfig(max_iterations=1000))
    failures = []
    for case in range(50):
        m = int(rng.integers(1, 4))
        l = int(rng.integers(2, 4))
        chain = random_chain(m, l, rng)
        p = reconstruct(chain)

        got_chain, report, _ = full_factorize(p, cfg)
        if report.reconstruction_error > 1e-6:
            failures.append(
                f"case {case}: reconstruction {report.reconstruction_error:.2e}"
            )

        right = transforms.chain_to_right_solvents(p, got_chain)
        chain_r = transforms.right_solvents_to_chain(p, right)
        # the right roundtrip returns the same polynomial with the factor
        # order reversed, so spectra pair up against the reversed chain
        for f, g in zip(got_chain.factors, reversed(chain_r.factors)):
            err = spectrum_pair_error(np.linalg.eigvals(f), np.linalg.eigvals(g))
            if err > 1e-6:
                failures.append(f"case {case}: right roundtrip spectrum {err:.2e}")
                break

        left = transforms.chain_to_left_solvents(p, got_chain)
        chain_l = transforms.left_solvents_to_chain(p, left)
        for f, g in zip(got_chain.factors, chain_l.factors):
            err = spectrum_pair_error(np.linalg.eigvals(f), np.linalg.eigvals(g))
            if err > 1e-6:
                failures.append(f"case {case}: left roundtrip spectrum {err:.2e}")
                break
    _finish(failures)


# -- criterion 8: numerical-check suite --------------------------------------

def test_criterion_8_numerical_checks():
    failures = []

    # Fréchet operator vs central finite differences on 20 random instances
    rng = np.random.default_rng(4)
    for case in range(20):
        m = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        p = MatrixPolynomial(
            [np.eye(m)] + [rng.standard_normal((m, m)) for _ in range(l)]
        )
        x = rng.standard_normal((m, m))
        h = rng.standard_normal((m, m))
        h /= linalg.frob_norm(h)
        j = frechet_matrix(p, x)
        step = 1e-5
        fd = (eval_right(p, x + step * h) - eval_right(p, x - step * h)) / (2 * step)
        err = np.linalg.norm(j @ linalg.vec(h) - linalg.vec(fd))
        scale = max(1.0, float(np.linalg.norm(j @ linalg.vec(h))))
        if err > 1e-5 * scale:
            failures.append(f"Fréchet case {case}: FD gap {err:.2e}")

    # residual sandwich on every converged plain-Horner tail
    for seed in range(10):
        srng = np.random.default_rng(seed)
        chain = random_chain(2, 2, srng, gap=2.5, top=6.0)
        p = reconstruct(chain)
        x0 = chain.factors[0] + 1e-2 * srng.standard_normal((2, 2))
        try:
            _, trace = horner_iterate(p, IterConfig(x0=x0, max_iterations=2000))
        except NoConvergence:
            failures.append(f"sandwich seed {seed}: plain Horner did not converge")
            continue
        if not convergence_bounds_check(p, trace).sandwich_holds:
            failures.append(f"sandwich seed {seed}: bounds violated")

    # Newton–Horner residual-exponent doubling on >= 8 of 10 seeded runs
    doubling = 0
    for seed in range(10):
        srng = np.random.default_rng(100 + seed)
        chain = random_chain(2, 2, srng, gap=2.5, top=6.0)
        p = reconstruct(chain)
        x0 = chain.factors[0] + 1e-3 * srng.standard_normal((2, 2))
        try:
            _, trace = newton_horner(p, IterConfig(x0=x0))
        except NoConvergence as exc:
            trace = exc.trace
        res = [
            linalg.frob_norm(eval_right(p, x)) for x in trace.iterates
        ]
        ratios = [
            np.log(res[k + 1]) / np.log(res[k])
            for k in range(len(res) - 1)
            if res[k + 1] > 0 and 1e-12 < res[k] < 1e-2
        ]
        if ratios and 1.6 <= float(np.median(ratios)) <= 2.4:
            doubling += 1
    if doubling < 8:
        failures.append(f"exponent doubling on only {doubling}/10 runs")
    _finish(failures)
