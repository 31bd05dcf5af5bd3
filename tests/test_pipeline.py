import itertools
from dataclasses import replace

import numpy as np
import pytest

from blockpoly import horner, linalg, pipeline, polynomial, qd, transforms
from blockpoly.decoupler import MFDSystem, design_decoupling
from blockpoly.errors import (
    BlockPolyError,
    DimensionMismatch,
    NoConvergence,
    NotMonic,
    PipelineStageError,
    SingularPivot,
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

from conftest import singular_a1, spectrum_pair_error
from inputs import HARD_CASES, corpus, random_chain, scalar_polynomial
from outcomes import compare


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


@pytest.mark.parametrize("name", ["example1", "example4"])
def test_solvent_sets_report_the_residuals_the_transforms_gated(name, request):
    # right first, then left, each in its set's order, and the same bits as
    # evaluating every solvent again
    p = request.getfixturevalue(name)
    right, left, report = full_solvent_sets(p)
    assert report.per_solvent_residuals == (
        [polynomial.residual_right(p, r) for r in right.solvents]
        + [polynomial.residual_left(p, x) for x in left.solvents])
    assert SolventSet("right", right.solvents).residuals is None


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
    p = MatrixPolynomial([np.eye(2)])
    with pytest.raises(DimensionMismatch, match=r"^Q.D. needs degree >= 1$"):
        full_factorize(p)
    # a refiner decides the degree before it guesses or divides
    for refine in (horner.newton_horner, horner.horner_iterate, horner.two_stage):
        for cfg in (None, horner.IterConfig(x0=np.eye(2))):
            with pytest.raises(DimensionMismatch, match=r"^refinement needs degree >= 1$"):
                refine(p, cfg)


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
    lead_inv = np.linalg.inv(lead)
    got, report, _ = factorize_nonmonic(p, lead_inv)
    normalized = lead_inv @ p.coeffs
    normalized[0] = np.eye(2)
    want, _, _ = full_factorize(MatrixPolynomial(normalized))
    assert np.array_equal(got.factors, want.factors)
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


def test_singular_a1_is_factorized_by_the_grouping_search():
    chain, report, _ = full_factorize(singular_a1())
    assert len(chain) == 2
    assert report.reconstruction_error < 1e-14
    assert report.warnings == [f"coefficient A_1 is singular; {SEARCH_WARNING}"]


def test_refine_failure_names_the_stage_and_factor():
    # A_3 = 0 stops Q.D., and with no real root no grouping of the roots is real
    with pytest.raises(PipelineStageError) as exc:
        full_factorize(HARD_CASES["no_real_root"], PipelineConfig(refine_method="horner"))
    assert (exc.value.stage, exc.value.factor_index) == ("refine", 0)
    assert isinstance(exc.value.cause, NoConvergence)


def test_singular_a1_under_horner_is_finished_by_the_grouping_search():
    # A_1 = diag(0, -8) stops Q.D.; the search polishes with plain Horner
    cfg = PipelineConfig(refine_method="horner")
    chain, report, _ = full_factorize(singular_a1(), cfg)
    assert report.reconstruction_error <= 1e-14
    assert np.array_equal(chain.factors, pipeline._group_search(singular_a1(), cfg)[0].factors)
    assert report.warnings == [f"coefficient A_1 is singular; {SEARCH_WARNING}"]


def test_overflow_at_the_start_fails_the_refine_stage():
    # A_1 = 1.7e308 I: Q.D. cannot invert A_1 to a certified inverse, and
    # the search's starts overflow
    eye = np.eye(2)
    p = MatrixPolynomial([eye, 1.7e308 * eye, np.ones((2, 2))])
    with pytest.raises(PipelineStageError) as exc:
        full_factorize(p)
    assert (exc.value.stage, exc.value.factor_index) == ("refine", 0)
    assert isinstance(exc.value.cause, NoConvergence)


def test_a_coefficient_norm_that_overflows_scales_the_residuals():
    # (λ - 2e77)(λ - 1e77): ||A_2||_F = 2e154 squares past the largest float,
    # yet is the scale of every relative residual; read as inf, it would make
    # them all 0, and Newton would accept its default guess 1.5e77, whose
    # true relative residual is 0.125
    p = scalar_polynomial([1.0, -3e77, 2e154])
    assert p.coefficient_scale() == 2e154
    with pytest.raises(BlockPolyError):
        horner.newton_horner(p)
    chain, report, _ = full_factorize(p)
    assert chain.factors.ravel() == pytest.approx([2e77, 1e77], rel=1e-9)
    assert report.reconstruction_error <= 1e-9 and report.warnings == []
    right, _, _ = full_solvent_sets(p)
    assert sorted(right.solvents.ravel()) == pytest.approx([1e77, 2e77], rel=1e-9)


def test_refine_method_must_be_known():
    with pytest.raises(ValueError, match=r"^refine_method must be one of \('horner', "):
        PipelineConfig(refine_method="qd")


def test_a_start_in_the_pipeline_config_raises():
    # the pipeline starts every factor itself, from Q.D., the grouping search
    # or default guesses, so a caller's x0 would be silently ignored
    with pytest.raises(ValueError, match=r"^iter.x0 must be None: "):
        PipelineConfig(iter=horner.IterConfig(x0=np.full((2, 2), 1e6)))


def test_verify_reports_a_set_of_the_wrong_count_incomplete(example1):
    right, _, _ = full_solvent_sets(example1)
    report = verify(example1, solvents=SolventSet("right", right.solvents[:2]))
    assert len(report.per_solvent_residuals) == 2
    assert max(report.per_solvent_residuals) <= transforms.SOLVENT_GATE
    assert not report.completeness.complete
    assert report.completeness.vandermonde_cond == float("inf")


def test_transform_failure_names_the_stage():
    # the two factors share the eigenvalue 1, so no solvent set exists
    p = reconstruct(SpectralFactorChain([np.diag([5.0, 1.0]), np.diag([-3.0, 1.0])]))
    with pytest.raises(PipelineStageError, match="stage 'transform'") as exc:
        full_solvent_sets(p)
    assert isinstance(exc.value.cause, SpectrumOverlap)


#: How a report's last warning ends when the grouping search replaced a
#: failed refinement.
SEARCH_WARNING = "the grouping search over the latent roots factorized it instead"


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


#: Corpus draws that ``full_factorize`` turns into a chain; it may rise.
CORPUS_CHAINS = 2568


def test_the_whole_corpus_keeps_the_contract():
    """Every draw of the corpus gives a chain whose every factor passes the
    gate, or a ``PipelineStageError`` in the 'refine' stage with a
    ``NoConvergence`` cause (each failing draw has odd m and too few real
    latent roots for a real chain); no draw may warn."""
    chains = 0
    for p in corpus(3000).values():
        try:
            chain, report, _ = full_factorize(p)
        except PipelineStageError as exc:
            assert exc.stage == "refine" and isinstance(exc.cause, NoConvergence)
        else:
            assert max(report.per_factor_residuals) <= RESIDUAL_GUARD
            chains += 1
    assert chains >= CORPUS_CHAINS


def test_newton_horner_factors_a_singular_a_last():
    chain, report, _ = full_factorize(HARD_CASES["a_last_diag"])
    assert report.reconstruction_error < 1e-10


def test_qd_breakdown_with_no_real_chain_names_the_qd_error():
    # Q.D. stops at its first sweep, and the cubic has one real root, so the
    # search finds no chain; the breakdown leaves no Q.D. trace
    with pytest.raises(PipelineStageError) as exc:
        full_factorize(HARD_CASES["qd_pivot"])
    assert (exc.value.stage, exc.value.factor_index) == ("refine", 0)
    assert isinstance(exc.value.cause, NoConvergence) and exc.value.cause.trace is None
    assert str(exc.value.cause) == ("Q-block 1 singular at sweep 1; the grouping search "
                                    "over the latent roots found no chain")
    assert isinstance(exc.value.__cause__, SingularPivot)


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
    "verify_solvents": lambda p, chain, right, left: verify(p, solvents=right),
}


@pytest.mark.parametrize("entry", list(MONIC_ENTRIES))
def test_entries_that_need_monic_input_raise_not_monic(entry):
    # Division, deflation and the Fréchet matrix take any A_0; these build a
    # companion form, a Q.D. tableau or a factor chain, and check A_0 = I.
    with pytest.raises(NotMonic):
        MONIC_ENTRIES[entry](*_nearly_monic())


#: Every paper fixture under every method; example3's Q.D. seeds do not
#: refine under horner and newton-horner, so those two chains come from the
#: grouping search.
REPORT_CASES = [
    *((name, method) for name in ("example1", "example2", "example3", "example4")
      for method in REFINE_METHODS),
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
    """With no Newton step, each of the l - 1 refined factors is divided once,
    by its refiner's accepting iterate, whose quotient is the next stage, and
    the last factor by its deflation alone: l divisions."""
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
    assert len(calls) == l


@pytest.fixture
def qd_runs(monkeypatch):
    """``(ready, end, sweeps)`` of each Q.D. run that the pipeline draws: the
    sweep of the run's first block end ready for a hand-off (or None), how the
    run ended ("left" where the pipeline stopped drawing blocks, "converged",
    or the error's name) and the sweeps in its trace then; and the sweeps
    that Q.D. computes in all, dropped ones included, as the last entry of
    ``computed``."""
    runs, computed = [], [0]
    blocks, sweeps = pipeline._blocks, qd._sweeps

    def spy_blocks(*args):
        ready_at, end, trace = None, "left", qd.QDTrace()
        try:
            for q, trace, ready in blocks(*args):
                if ready and ready_at is None:
                    ready_at = len(trace.sweeps)
                yield q, trace, ready
            end = "converged"
        except BlockPolyError as exc:
            end, trace = type(exc).__name__, getattr(exc, "trace", trace)
            raise
        finally:
            runs.append((ready_at, end, len(trace.sweeps)))

    def spy_sweeps(q, e, n):
        computed[0] += n
        return sweeps(q, e, n)

    monkeypatch.setattr(pipeline, "_blocks", spy_blocks)
    monkeypatch.setattr(qd, "_sweeps", spy_sweeps)
    return runs, computed


def _plain_qd_chain(p, method="newton-horner"):
    """The chain that ``refine_chain`` gives from the final Q-row of a Q.D.
    run with no hand-off, converged or not: the rhombus rules swept as many
    times from the first row."""
    try:
        sweeps = len(qd_run(p)[1].sweeps)
    except NoConvergence as exc:
        sweeps = len(exc.trace.sweeps)
    q_row = qd._sweeps(*qd.qd_init(p), sweeps)[0][-1]
    return pipeline.refine_chain(p, PipelineConfig(refine_method=method), q_row)[0]


@pytest.mark.parametrize("name", ["example2", "example4"])
def test_hand_off_finishes_the_paper_fixtures_by_newton(name, request, qd_runs):
    p = request.getfixturevalue(name)
    chain, report, traces = full_factorize(p)
    runs, computed = qd_runs
    assert runs == [(64, "left", 64)] and computed == [64]
    assert report.warnings == []
    assert all(len(t.iterates) >= 2 for t in traces[:-1])     # >= 1 Newton step each
    assert report.reconstruction_error <= 1e-14
    plain = _plain_qd_chain(p)
    assert all(linalg.frob_norm(a - b) / linalg.frob_norm(b) <= 1e-8
               for a, b in zip(chain.factors, plain.factors))


#: Corpus draws whose handed-off Q-row does not refine, with why: on draw
#: 178 newton-horner fails at factor 1, and on draw 135 it does not converge
#: within the hand-off's budget of one Q.D. block.
REJECTED_HAND_OFFS = {
    "draw178": "rejected: pipeline failed in stage 'refine' at factor 1: singular matrix",
    "draw135": ("rejected: pipeline failed in stage 'refine' at factor 0: "
                f"no convergence in {pipeline.HAND_OFF_ITERATIONS} iterations ("),
}


@pytest.mark.parametrize("name", list(REJECTED_HAND_OFFS))
def test_rejected_hand_off_goes_to_the_grouping_search(name, qd_runs):
    # Q.D. stops at the hand-off, and the chain is the search's, in any order
    p = corpus(2817)[name]
    chain, report, _ = full_factorize(p)
    runs, computed = qd_runs
    assert runs == [(32, "left", 32)] and computed == [32]
    searched, _, _ = pipeline._group_search(p, PipelineConfig())
    assert np.array_equal(chain.factors, searched.factors)
    [warning] = report.warnings
    assert warning.startswith("Q.D. handed off at sweep 32 (max relative E-norm ")
    assert REJECTED_HAND_OFFS[name] in warning and warning.endswith(SEARCH_WARNING)


def _in_dominance_order(chain):
    """Whether every eigenvalue modulus of each factor is at least every
    modulus of the next, to ``SPECTRUM_TOL`` times max(1, max |λ|): the
    grouping of a converged Q.D. run."""
    moduli = np.abs(np.linalg.eigvals(chain.factors))
    tol = polynomial.SPECTRUM_TOL * max(1.0, float(moduli.max()))
    return bool((moduli[:-1].min(axis=1) >= moduli[1:].max(axis=1) - tol).all())


def test_draw_2816_keeps_its_hand_off_chain_out_of_dominance_order(qd_runs, group_searches):
    # Newton refines every factor from the handed-off Q-row, in another
    # grouping than a converged Q.D. run's; any grouping is a factorization
    p = corpus(2817)["draw2816"]
    chain, report, _ = full_factorize(p)
    assert not _in_dominance_order(chain)
    assert report.warnings == [] and group_searches == []
    runs, _ = qd_runs
    assert runs == [(32, "left", 32)]
    assert report.reconstruction_error <= 1e-15


def test_the_slowest_kept_hand_off_stays_within_its_budget(qd_runs):
    # the first corpus draw whose kept hand-off takes the most Newton
    # iterates (draw 2534 takes as many)
    p = corpus(250)["draw249"]
    chain, report, traces = full_factorize(p)
    runs, _ = qd_runs
    [(ready, end, n)] = runs
    assert end == "left" and ready == n and report.warnings == []
    assert max(len(t.iterates) for t in traces) == 31 <= pipeline.HAND_OFF_ITERATIONS


@pytest.mark.parametrize("name", list(CONTRACT_INPUTS))
def test_pipeline_computes_no_more_qd_sweeps_than_a_plain_run(name, qd_runs):
    p = CONTRACT_INPUTS[name]
    try:
        full_factorize(p)
    except PipelineStageError:
        pass
    _, computed = qd_runs
    used, computed[0] = computed[0], 0
    try:
        qd_run(p)
    except BlockPolyError:
        pass
    assert used <= computed[0]


#: Inputs on which no hand-off happens: the linearly convergent methods never
#: ask for one, and the benchmark's m = 4 and 8 chains converge within a
#: block of where Q.D. predicts.
NO_HAND_OFF = [
    *(("example4", method) for method in ("horner", "two-stage")),
    *((f"m{m}/l{l}/s{s}", "newton-horner")
      for m in (4, 8) for l in (2, 3, 4) for s in range(4)),
]


@pytest.mark.parametrize("name, method", NO_HAND_OFF)
def test_no_hand_off_keeps_the_plain_qd_chain(name, method, request, qd_runs):
    if name.startswith("example"):
        p = request.getfixturevalue(name)
    else:
        m, l, s = (int(part[1:]) for part in name.split("/"))
        p = reconstruct(random_chain(m, l, np.random.default_rng(1000 * m + 10 * l + s)))
    chain, _, _ = full_factorize(p, PipelineConfig(refine_method=method))
    runs, _ = qd_runs
    [(ready, end, _)] = runs
    assert end != "left" and (ready is None or method != "newton-horner")
    assert np.array_equal(chain.factors, _plain_qd_chain(p, method).factors)


def test_example3_hand_off_fails_then_the_grouping_search_factorizes_it(example3, qd_runs):
    # Newton from the handed-off Q-row hits a singular step, and Q.D. stops
    # there while the search factorizes it
    chain, report, _ = full_factorize(example3)
    assert report.warnings == [
        "Q.D. handed off at sweep 32 (max relative E-norm 9.131e-04), rejected: pipeline "
        "failed in stage 'refine' at factor 0: singular matrix: pivot 3 has magnitude "
        "1.183e-12; " + SEARCH_WARNING]
    runs, computed = qd_runs
    assert runs == [(32, "left", 32)] and computed == [32]
    searched, _, _ = pipeline._group_search(example3, PipelineConfig())
    assert np.array_equal(chain.factors, searched.factors)


def test_a_failed_search_raises_the_refine_error_itself(example1, qd_runs, monkeypatch):
    # one Horner step does not refine the Q-row of a Q.D. run stopped at
    # e_tol 1e-3, and a search with no groups to try finds no chain
    raised = []
    refine = pipeline.refine_chain

    def spy(*args):
        try:
            return refine(*args)
        except PipelineStageError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(pipeline, "refine_chain", spy)
    monkeypatch.setattr(pipeline, "GROUP_BUDGET", 0)
    cfg = PipelineConfig(refine_method="horner", qd=QDConfig(e_tol=1e-3),
                         iter=horner.IterConfig(max_iterations=1))
    with pytest.raises(PipelineStageError) as exc:
        full_factorize(example1, cfg)
    assert raised == [exc.value]
    assert str(exc.value).startswith("pipeline failed in stage 'refine' at factor 0: "
                                     "no convergence in 1 iterations")
    runs, _ = qd_runs
    assert runs == [(None, "converged", 18)]


def test_a_failed_search_after_a_qd_failure_names_it_with_its_trace(qd_runs):
    # draw 1 is a scalar cubic with one real root, so it has no real chain:
    # under horner Q.D. stalls, under newton-horner the hand-off fails to
    # refine, and either way the search finds none
    p = corpus(2)["draw1"]
    with pytest.raises(PipelineStageError) as exc:
        full_factorize(p, PipelineConfig(refine_method="horner"))
    assert str(exc.value) == (
        "pipeline failed in stage 'refine' at factor 0: Q.D. stalled: max relative E-norm "
        "4.895e-01 did not improve over 60 sweeps; the grouping search over the latent "
        "roots found no chain")
    qd_error = exc.value.__cause__
    assert isinstance(qd_error, NoConvergence) and exc.value.cause.trace is qd_error.trace
    assert exc.value.cause.trace.sweeps == list(range(1, 156))
    with pytest.raises(PipelineStageError) as exc:
        full_factorize(p)
    assert str(exc.value) == (
        "pipeline failed in stage 'refine' at factor 0: Q.D. handed off at sweep 32 (max "
        "relative E-norm 6.130e-01), rejected: pipeline failed in stage 'refine' at factor 1: "
        "no convergence in 32 iterations (last δ=6.817e+02%, relative residual 3.760e-01); "
        "the grouping search over the latent roots found no chain")
    hand_off = exc.value.__cause__
    assert isinstance(hand_off, NoConvergence) and exc.value.cause.trace is hand_off.trace
    assert exc.value.cause.trace.sweeps == list(range(1, 33))
    runs, computed = qd_runs
    assert runs == [(32, "NoConvergence", 155), (32, "left", 32)] and computed == [160 + 32]


@pytest.fixture
def group_searches(monkeypatch):
    """One entry per call of the grouping search."""
    calls = []
    search = pipeline._group_search

    def spy(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(pipeline, "_group_search", spy)
    return calls


def test_the_grouping_search_runs_once_per_call_at_most(group_searches):
    # draws 1, 135 and 178 reject their hand-offs, which go to the one search
    # as every other failure does; draw 1's finds no chain
    inputs = CONTRACT_INPUTS | {name: corpus(2817)[name] for name in REJECTED_HAND_OFFS}
    counts = {}
    for name, p in inputs.items():
        try:
            full_factorize(p)
        except PipelineStageError:
            pass
        counts[name] = len(group_searches)
        group_searches.clear()
    assert max(counts.values()) == 1
    assert counts["draw1"] == counts["draw135"] == counts["draw178"] == 1


@pytest.mark.parametrize("name", ["draw143", "draw734"])
def test_a_failed_hand_off_takes_the_search_chain_in_dominance_order(name, qd_runs):
    # the search's chain is in dominance order, where Q.D. would run on to a
    # stall and its Q-row refines to factors out of that order
    p = corpus(735)[name]
    chain, report, _ = full_factorize(p)
    assert _in_dominance_order(chain)
    runs, _ = qd_runs
    [(ready, end, sweeps)] = runs
    assert end == "left" and ready == sweeps
    with pytest.raises(NoConvergence, match="^Q.D. stalled"):
        qd_run(p)
    assert not _in_dominance_order(_plain_qd_chain(p))
    [warning] = report.warnings
    assert warning.startswith("Q.D. handed off at sweep ") and warning.endswith(SEARCH_WARNING)


@pytest.mark.parametrize("name", ["draw667", "draw1410", "draw2804"])
def test_a_failed_hand_off_searches_for_the_full_run_factorization(name):
    # the search finds the factors that refining the final Q-row of Q.D. run
    # on to its end gives; on draw 2804 those reconstruct to only 6.1e-10
    # and are 5.4e-8 off
    p = corpus(2805)[name]
    chain, report, _ = full_factorize(p)
    assert report.warnings[-1].endswith(SEARCH_WARNING)
    assert all(linalg.frob_norm(a - b) / linalg.frob_norm(b) <= 1e-7
               for a, b in zip(chain.factors, _plain_qd_chain(p).factors))
    assert report.reconstruction_error <= 1e-13


def test_example3_is_factorized_to_working_precision(example3):
    chain, report, traces = full_factorize(example3)
    assert max(report.per_factor_residuals) <= RESIDUAL_GUARD
    assert report.reconstruction_error <= 1e-13
    assert len(traces) == len(chain) == 2


def _roots(p):
    return np.linalg.eig(polynomial.companion_right(p))[0]


def test_root_groups_are_every_conjugation_closed_group_dominant_first():
    # m = 2, l = 3: the 6 latent roots hold 2 conjugate pairs and 2 real roots
    p = reconstruct(SpectralFactorChain([[[0.0, -4.0], [1.0, 0.0]], [[3.0, 0.0], [0.0, -0.5]],
                                         [[1.0, -1.0], [1.0, 1.0]]]))
    roots = _roots(p)
    groups = list(pipeline._root_groups(roots, 2))
    closed = [list(g) for g in itertools.combinations(range(6), 2)
              if np.allclose(np.sort_complex(roots[list(g)].conj()), np.sort_complex(roots[list(g)]))]
    assert sorted(map(sorted, groups)) == sorted(closed) and len(groups) == 3
    # moduli 3, 2 (±2i), √2 (1 ± i) and 0.5: the group with 3 comes first
    assert [set(np.round(roots[g], 12).tolist()) for g in groups] == [
        {3, -0.5}, {2j, -2j}, {1 + 1j, 1 - 1j}]


def test_root_groups_are_drawn_lazily():
    # C(64, 16) groups at m = 16, l = 4, all of real roots: the first, the
    # dominant factor's spectrum, comes without the others
    chain = random_chain(16, 4, np.random.default_rng(16040))
    roots = _roots(reconstruct(chain))
    first = next(pipeline._root_groups(roots, 16))
    assert spectrum_pair_error(roots[first], np.linalg.eigvals(chain.factors[0])) <= 1e-6
    # 32 conjugate pairs hold no group of 15, and the search for one stops at once
    z = np.exp(np.linspace(0.1, 1.5, 32) * 1j) * np.arange(1, 33)
    assert list(pipeline._root_groups(np.ravel(np.column_stack([z, z.conj()])), 15)) == []


@pytest.fixture
def search_starts(monkeypatch):
    """The starts the grouping search hands to the refiner, in order."""
    starts = []
    refiner = pipeline.refiner

    def spy(method):
        def refine(p, cfg):
            starts.append(cfg.x0)
            return refiner(method)(p, cfg)
        return refine

    monkeypatch.setattr(pipeline, "refiner", spy)
    return starts


def test_a_group_with_a_singular_eigenvector_block_is_skipped(search_starts, monkeypatch):
    # diag((λ - 1)(λ - 2), (λ - 3)(λ - 4)): the eigenvectors of the dominant
    # roots 4 and 3 are both e₂, so the first group, {4, 3}, has U singular
    p = MatrixPolynomial([np.eye(2), np.diag([-3.0, -7.0]), np.diag([2.0, 12.0])])
    chain, report, _ = pipeline._group_search(p, PipelineConfig())
    assert np.allclose(search_starts[0], np.diag([2.0, 4.0]))
    assert report.reconstruction_error <= 1e-15
    # the skipped group counts against the budget
    monkeypatch.setattr(pipeline, "GROUP_BUDGET", 1)
    assert pipeline._group_search(p, PipelineConfig()) is None


def _nearly_defective():
    """m = 3, l = 2: each factor's first two eigenvectors are 1e-9 apart."""
    rng = np.random.default_rng(76)
    factors = []
    for _ in range(2):
        v = rng.standard_normal((3, 3))
        v[:, 1] = v[:, 0] + 1e-9 * rng.standard_normal(3)
        factors.append(v @ rng.standard_normal((3, 3)) @ np.linalg.inv(v))
    return reconstruct(SpectralFactorChain(factors))


def test_a_group_whose_solvent_comes_out_complex_is_skipped(search_starts, monkeypatch):
    def fail(*args):
        raise NoConvergence("every start fails")

    # so the search tries every group of the first stage
    monkeypatch.setattr(pipeline, "newton_horner", fail)
    p = _nearly_defective()
    assert pipeline._group_search(p, PipelineConfig()) is None
    roots, vectors = np.linalg.eig(polynomial.companion_right(p))
    complex_starts, real_starts = [], []
    for group in pipeline._root_groups(roots, 3):
        u = vectors[:3, group]
        x = np.linalg.solve(u.T, (u * roots[group]).T).T
        if linalg.frob_norm(x.imag) > polynomial.SPECTRUM_TOL * max(1.0, np.linalg.norm(x)):
            complex_starts.append(x.real)
        else:
            real_starts.append(x.real)
    assert complex_starts and len(search_starts) == len(real_starts)
    assert all(np.array_equal(a, b) for a, b in zip(search_starts, real_starts))


def test_draw_2652_is_left_to_qd():
    # (λ + 1)³: the search takes the one computed real root, and the
    # quadratic left has a conjugate pair of computed roots, so it finds no
    # chain; the Q.D. seeds refine as they did before the search
    p = corpus(2653)["draw2652"]
    assert pipeline._group_search(p, PipelineConfig()) is None
    chain, report, _ = full_factorize(p)
    assert report.reconstruction_error <= 1e-10 and report.warnings == []


@pytest.mark.parametrize("name", ["draw8", "draw166", "draw904"])
def test_corpus_failures_that_the_search_factorizes(name):
    # draw 8 is a product of real factors, draws 166 and 904 are Gaussian
    # draws whose latent-root moduli span 10³; Q.D. stalls on all three
    p = corpus(905)[name]
    chain, report, _ = full_factorize(p)
    with pytest.raises(NoConvergence, match="^Q.D. stalled") as qd_error:
        qd_run(p)
    assert report.warnings == [f"{qd_error.value}; {SEARCH_WARNING}"]
    assert max(report.per_factor_residuals) <= RESIDUAL_GUARD
    assert report.reconstruction_error <= 1e-8


def test_factorization_checks_each_input_once(monkeypatch, example2, example4, gas_turbine):
    """The package's own quotients, transposes, iterates and factors are not
    checked again: ``as_blocks`` builds only the stacks a call returns (the
    chain, the two solvent sets, the decoupler's two chains) and the
    normalized numerator, a new product, ``as_matrix`` checks only the
    caller's mode blocks, and p is tested monic once per public call that
    needs it, by Q.D."""
    grid = reconstruct(random_chain(8, 3, np.random.default_rng(8030)))
    calls = []
    for name in ("as_blocks", "as_matrix"):
        check = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, name=name, check=check:
                            calls.append(name) or check(*args))
    is_monic = MatrixPolynomial.is_monic
    monkeypatch.setattr(MatrixPolynomial, "is_monic",
                        property(lambda p: calls.append("is_monic") or is_monic.fget(p)))
    disjoint = transforms._check_disjoint
    monkeypatch.setattr(transforms, "_check_disjoint",
                        lambda *args: calls.append("disjoint") or disjoint(*args))
    for run, want in [
        (lambda: full_factorize(example2), ["is_monic", "as_blocks"]),
        (lambda: full_factorize(grid), ["is_monic", "as_blocks"]),
        (lambda: full_solvent_sets(example4),
         ["is_monic", "as_blocks", "disjoint", "as_blocks", "as_blocks"]),
        (lambda: design_decoupling(gas_turbine, [np.diag([-1.0, -2.0])]),
         ["as_matrix", "as_blocks", "is_monic", "as_blocks", "as_blocks"]),
        (lambda: MFDSystem(gas_turbine.numerator, gas_turbine.denominator),
         ["as_blocks", "as_blocks", "is_monic"]),
    ]:
        calls.clear()
        run()
        assert calls == want


def test_outcomes_compare_lists_the_inputs_whose_hashes_differ(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("example1 aaaa\nm4/l2/s0 bbbb\ndraw7 cccc\n")
    b.write_text("example1 aaaa\nm4/l2/s0 dddd\ndraw8 eeee\n")
    assert compare(a, a) == 0
    assert compare(a, b) == 1
    assert capsys.readouterr().out.splitlines() == [
        "0 of 3 inputs differ", "m4/l2/s0 bbbb dddd", "draw7 cccc -", "draw8 - eeee",
        "3 of 4 inputs differ"]
