from dataclasses import replace

import numpy as np
import pytest

from blockpoly import horner, linalg, pipeline, polynomial, transforms
from blockpoly.errors import (
    DimensionMismatch,
    NoConvergence,
    NotMonic,
    PipelineStageError,
    SingularStep,
    SingularSylvester,
    SpectrumOverlap,
)
from blockpoly.horner import RESIDUAL_GUARD
from blockpoly.pipeline import (
    REFINE_METHODS,
    PipelineConfig,
    factorize_nonmonic,
    full_factorize,
    full_solvent_sets,
    verify,
)
from blockpoly.polynomial import (
    MatrixPolynomial,
    SolventSet,
    SpectralFactorChain,
    reconstruct,
)
from blockpoly.qd import QDConfig, qd_run

from conftest import random_chain, scalar_polynomial, singular_a1, spectrum_pair_error


def test_scalar_cubic():
    p = scalar_polynomial(np.poly([3.0, 2.0, 1.0]))
    chain, report, _ = full_factorize(p)
    got = [f[0, 0] for f in chain.factors]
    assert np.allclose(got, [3.0, 2.0, 1.0], atol=1e-10)  # dominance order
    assert report.reconstruction_error < 1e-10


def test_linear_no_iteration():
    a1 = np.random.default_rng(0).standard_normal((2, 2))
    p = MatrixPolynomial([np.eye(2), a1])
    chain, report, traces = full_factorize(p)
    assert np.allclose(chain.factors[0], -a1)
    assert report.reconstruction_error < 1e-14


def test_example1_chain(example1):
    chain, report, _ = full_factorize(example1)
    s1 = np.array([[3.0, 2.0], [-90.0, -15.0]])
    assert linalg.frob_norm(chain.factors[0] - s1) / linalg.frob_norm(s1) < 1e-2
    assert report.reconstruction_error <= 1e-8
    assert report.rightmost_residual <= 1e-8
    assert report.leftmost_residual <= 1e-8


def test_refine_methods_agree(example1):
    chains = {}
    for method in ("horner", "newton-horner", "two-stage"):
        chain, _, _ = full_factorize(example1, PipelineConfig(refine_method=method))
        chains[method] = chain
    ref = chains["newton-horner"]
    for method, chain in chains.items():
        for a, b in zip(ref.factors, chain.factors):
            assert linalg.frob_norm(a - b) / max(1.0, linalg.frob_norm(a)) < 1e-6


def test_deflation_degree_bookkeeping():
    rng = np.random.default_rng(1)
    chain = random_chain(2, 3, rng)
    p = reconstruct(chain)
    got, report, traces = full_factorize(p)
    assert len(got.factors) == 3
    assert report.reconstruction_error < 1e-8


def test_full_solvent_sets(example1):
    right, left, report = full_solvent_sets(example1)
    assert right.side == "right" and left.side == "left"
    assert len(right) == len(left) == 3
    assert report.completeness is not None
    assert report.completeness.complete
    assert all(r <= 1e-6 for r in report.per_solvent_residuals)


def test_verify_exact_chain():
    rng = np.random.default_rng(2)
    chain = random_chain(2, 3, rng)
    p = reconstruct(chain)
    report = verify(p, chain=chain)
    assert report.reconstruction_error < 1e-12
    assert report.rightmost_residual < 1e-12
    assert all(r < 1e-12 for r in report.per_factor_residuals)


def test_verify_perturbed_chain_scaling():
    rng = np.random.default_rng(3)
    chain = random_chain(2, 2, rng)
    p = reconstruct(chain)
    noisy = SpectralFactorChain(
        [f + 1e-3 * rng.standard_normal(f.shape) for f in chain.factors]
    )
    report = verify(p, chain=noisy)
    assert 1e-6 < report.reconstruction_error < 1e-1


@pytest.mark.parametrize("kwargs, what", [
    ({"chain": SpectralFactorChain([np.eye(3), 2 * np.eye(3)])}, "factors"),
    ({"solvents": SolventSet("right", [np.eye(3), 2 * np.eye(3)])}, "solvents"),
], ids=["chain", "solvents"])
def test_verify_rejects_blocks_of_another_order(kwargs, what):
    p = reconstruct(random_chain(2, 2, np.random.default_rng(6)))
    with pytest.raises(DimensionMismatch,
                       match=f"^{what} have order 3, the polynomial has order 2$"):
        verify(p, **kwargs)


def test_full_factorize_degree_zero_raises_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match=r"^Q.D. needs degree >= 1$"):
        full_factorize(MatrixPolynomial([np.eye(2)]))


def test_qd_budget_exhaustion_still_refines():
    # tiny Q.D. budget: seeds are rough, refinement must still land
    rng = np.random.default_rng(5)
    chain = random_chain(2, 2, rng, gap=3.0)
    p = reconstruct(chain)
    cfg = PipelineConfig(qd=QDConfig(max_iterations=8))
    got, report, _ = full_factorize(p, cfg)
    assert report.reconstruction_error < 1e-8
    assert any("Q.D." in w or "seed" in w for w in report.warnings)


def test_factorize_nonmonic():
    rng = np.random.default_rng(6)
    chain = random_chain(2, 2, rng)
    lead = rng.standard_normal((2, 2)) + 3 * np.eye(2)
    monic = reconstruct(chain)
    coeffs = [lead @ c for c in monic.coeffs]
    p = MatrixPolynomial(coeffs)
    lead_out, got, report, _ = factorize_nonmonic(p)
    assert np.allclose(lead_out, lead)
    assert report.reconstruction_error < 1e-8
    union = np.concatenate([np.linalg.eigvals(q) for q in chain.factors])
    union_got = np.concatenate([np.linalg.eigvals(q) for q in got.factors])
    assert spectrum_pair_error(union, union_got) < 1e-6


@pytest.mark.parametrize("length", [2, 4])
def test_verify_rejects_a_chain_of_the_wrong_length(length):
    # λ³I + A_3: the chain [0, 0] multiplies back to λ²I, which matches the
    # first three coefficients.
    p = MatrixPolynomial([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.diag([1.0, 2.0])])
    with pytest.raises(DimensionMismatch,
                       match=f"^the chain has {length} factors, the polynomial has degree 3$"):
        verify(p, chain=SpectralFactorChain(np.zeros((length, 2, 2))))


def test_singular_a1_falls_back_to_default_guesses():
    chain, report, _ = full_factorize(singular_a1())
    assert len(chain) == 2
    assert report.reconstruction_error < 1e-14
    assert any(w.startswith("Q.D. failed (coefficient A_1 is singular)") for w in report.warnings)


def test_refine_failure_names_the_stage_and_factor():
    with pytest.raises(PipelineStageError) as exc:
        full_factorize(singular_a1(), PipelineConfig(refine_method="horner"))
    assert (exc.value.stage, exc.value.factor_index) == ("refine", 0)
    assert isinstance(exc.value.cause, NoConvergence)


def test_transform_failure_names_the_stage():
    # the two factors share the eigenvalue 1, so no solvent set exists
    p = reconstruct(SpectralFactorChain([np.diag([5.0, 1.0]), np.diag([-3.0, 1.0])]))
    with pytest.raises(PipelineStageError, match="stage 'transform'") as exc:
        full_solvent_sets(p)
    assert isinstance(exc.value.cause, SpectrumOverlap)


#: A singular A_l (three ways), a Q.D. breakdown at the first sweep, and a
#: polynomial with no real root, whose plain Horner iterates overflow.
HARD_CASES = {
    "a_last_zero": MatrixPolynomial(
        [np.eye(2), np.array([[1.0, 2.0], [0.0, 3.0]]), np.zeros((2, 2))]),
    "a_last_rank1": MatrixPolynomial(
        [np.eye(2), np.array([[1.0, 2.0], [0.0, 3.0]]), np.outer([0.1, 0.3], [0.7, 0.2])]),
    # (λI - diag(0, 1))(λI - diag(2, 3)), whose A_2 = diag(0, 3)
    "a_last_diag": reconstruct(SpectralFactorChain([np.diag([2.0, 3.0]), np.diag([0.0, 1.0])])),
    "qd_pivot": scalar_polynomial([1.0, -3.0, -3.0, -3.0]),
    "no_real_root": scalar_polynomial([1.0, -1.0, 3.0, 0.0, 3.0]),
}


def corpus(n):
    """The first ``n`` seeded random monic polynomials, m in 1..3, l in 1..4:
    integer, scaled Gaussian and product-of-real-factors coefficients in turn."""
    rng = np.random.default_rng(12345)
    draws = {}
    for i in range(n):
        m, l = rng.integers(1, 4), rng.integers(1, 5)
        if i % 3 == 0:
            draws[f"draw{i}"] = MatrixPolynomial([np.eye(m), *rng.integers(-5, 6, (l, m, m))])
        elif i % 3 == 1:
            coeffs = rng.standard_normal((l, m, m)) * 10 ** rng.uniform(-3, 3)
            draws[f"draw{i}"] = MatrixPolynomial([np.eye(m), *coeffs])
        else:
            factors = [rng.standard_normal((m, m)) + rng.uniform(-3, 3) * np.eye(m)
                       for _ in range(l)]
            draws[f"draw{i}"] = reconstruct(SpectralFactorChain(factors))
    return draws


CONTRACT_INPUTS = corpus(60) | HARD_CASES


@pytest.mark.parametrize("name, method", [
    *((name, "newton-horner") for name in CONTRACT_INPUTS),
    *((name, method) for name in HARD_CASES for method in REFINE_METHODS
      if method != "newton-horner"),
])
def test_solvent_sets_contract(name, method):
    """A chain whose every factor passes the gate, or a ``PipelineStageError``
    that names the stage.  pytest turns warnings into errors, so no input
    may warn either."""
    try:
        p = CONTRACT_INPUTS[name]
        chain, report, _ = full_factorize(p, PipelineConfig(refine_method=method))
        pipeline.solvent_sets(p, chain, report)
    except PipelineStageError as exc:
        assert exc.stage in {"refine", "transform"}
        if exc.stage == "refine":     # the method failed; it refused nothing
            assert isinstance(exc.cause, (NoConvergence, SingularStep, SingularSylvester))
    else:
        assert max(report.per_factor_residuals) <= RESIDUAL_GUARD


def test_newton_horner_factors_a_singular_a_last():
    chain, report, _ = full_factorize(HARD_CASES["a_last_diag"])
    assert report.reconstruction_error < 1e-10


def test_qd_breakdown_falls_back_to_default_guesses():
    # Q.D. stops at its first sweep; the default guesses find the real root,
    # and the deflated quadratic has none.
    with pytest.raises(PipelineStageError) as exc:
        full_factorize(HARD_CASES["qd_pivot"])
    assert (exc.value.stage, exc.value.factor_index) == ("refine", 1)
    assert isinstance(exc.value.cause, NoConvergence)


def test_leading_coefficient_off_identity_is_not_monic():
    # within a relative 1e-5 of I, but not within MONIC_ATOL: the l = 1
    # shortcut would take -A_1 as an exact factor
    p = MatrixPolynomial([[[1.0 + 5e-6]], [[-3.0]], [[2.0]]])
    with pytest.raises(NotMonic):
        full_factorize(p)


def _nearly_monic():
    """A chain's product with A_0 = I + 2e-12 E, its chain and solvents."""
    chain = SpectralFactorChain([np.diag([5.0, 6.0]), np.diag([1.0, 2.0])])
    coeffs = np.array(reconstruct(chain).coeffs)
    coeffs[0] += 2e-12 * np.ones((2, 2))
    right = SolventSet("right", chain.factors[::-1])
    return MatrixPolynomial(coeffs), chain, right, SolventSet("left", right.solvents)


#: Every public entry that needs a monic polynomial, called so that the
#: monic test is the first check that can fail.
MONIC_ENTRIES = {
    "companion_right": lambda p, chain, right, left: polynomial.companion_right(p),
    "latent_roots": lambda p, chain, right, left: polynomial.latent_roots(p),
    "qd_run": lambda p, chain, right, left: qd_run(p),
    "horner_iterate": lambda p, chain, right, left: horner.horner_iterate(p),
    "newton_horner": lambda p, chain, right, left: horner.newton_horner(p),
    "two_stage": lambda p, chain, right, left: horner.two_stage(p),
    "refine_chain": lambda p, chain, right, left: pipeline.refine_chain(p, PipelineConfig()),
    "full_factorize": lambda p, chain, right, left: full_factorize(p),
    "full_solvent_sets": lambda p, chain, right, left: full_solvent_sets(p),
    "chain_to_right_solvents":
        lambda p, chain, right, left: transforms.chain_to_right_solvents(p, chain),
    "chain_to_left_solvents":
        lambda p, chain, right, left: transforms.chain_to_left_solvents(p, chain),
    "right_solvents_to_chain":
        lambda p, chain, right, left: transforms.right_solvents_to_chain(p, right),
    "left_solvents_to_chain":
        lambda p, chain, right, left: transforms.left_solvents_to_chain(p, left),
    "right_to_left_solvent":
        lambda p, chain, right, left: transforms.right_to_left_solvent(p, chain.factors[0]),
    "verify": lambda p, chain, right, left: verify(p, chain=chain),
}


@pytest.mark.parametrize("entry", list(MONIC_ENTRIES))
def test_entries_that_need_monic_input_raise_not_monic(entry):
    # Division, deflation and the Fréchet matrix take any A_0; these build a
    # companion form, a Q.D. tableau or a factor chain, and check A_0 = I.
    with pytest.raises(NotMonic):
        MONIC_ENTRIES[entry](*_nearly_monic())


#: example3's Q.D. seeds do not refine under these two methods (its failed
#: share in the benchmark); every other pair returns a chain.
REPORT_CASES = [
    *((name, method) for name in ("example1", "example2", "example3", "example4")
      for method in REFINE_METHODS
      if (name, method) not in {("example3", "horner"), ("example3", "newton-horner")}),
    # the benchmark's generated chains m4/l4/s0 and m16/l4/s0
    *((f"m{m}", method) for m in (4, 16) for method in REFINE_METHODS),
]


@pytest.mark.parametrize("name, method", REPORT_CASES)
def test_pipeline_report_equals_verify(name, method, request):
    """The pipeline measures each factor on its one deflation; ``verify``
    divides the chain out again, and must report the same bits."""
    if name.startswith("example"):
        p = request.getfixturevalue(name)
    else:
        m = int(name[1:])
        p = reconstruct(random_chain(m, 4, np.random.default_rng(1000 * m + 40)))
    chain, report, _ = full_factorize(p, PipelineConfig(refine_method=method))
    # the Q.D. warnings are the only field verify cannot know
    assert replace(report, warnings=[]) == verify(p, chain=chain)


def test_each_factor_divided_out_once(monkeypatch):
    """With no Newton step, each of the l - 1 refined factors is divided by
    its refiner's accepting iterate and by its deflation, and the last
    factor by its deflation alone: 2l - 1 divisions."""
    calls = []
    divide = polynomial.synthetic_div_right
    for module in (horner, pipeline, polynomial, transforms):
        if hasattr(module, "synthetic_div_right"):
            monkeypatch.setattr(module, "synthetic_div_right",
                                lambda *args: calls.append(1) or divide(*args))
    l = 4
    p = reconstruct(random_chain(4, l, np.random.default_rng(1000 * 4 + 10 * l)))
    _, _, traces = full_factorize(p)
    assert [len(t.iterates) for t in traces] == [1] * (l - 1) + [0]
    assert len(calls) == 2 * l - 1
