import numpy as np
import pytest

from blockpoly import linalg
from blockpoly.pipeline import (
    PipelineConfig,
    factorize_nonmonic,
    full_factorize,
    full_solvent_sets,
    verify,
)
from blockpoly.polynomial import (
    MatrixPolynomial,
    SpectralFactorChain,
    reconstruct,
)
from blockpoly.qd import QDConfig

from conftest import random_chain, scalar_polynomial, spectrum_pair_error


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
    assert report.rightmost_residual / example1.coefficient_scale() <= 1e-8
    assert report.leftmost_residual / example1.coefficient_scale() <= 1e-8


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
    scale = example1.coefficient_scale()
    assert all(r / scale <= 1e-6 for r in report.per_solvent_residuals)


def test_verify_exact_chain():
    rng = np.random.default_rng(2)
    chain = random_chain(2, 3, rng)
    p = reconstruct(chain)
    report = verify(p, chain=chain)
    assert report.reconstruction_error < 1e-12
    assert report.rightmost_residual / p.coefficient_scale() < 1e-12
    assert all(r / p.coefficient_scale() < 1e-12 for r in report.per_factor_residuals)


def test_verify_perturbed_chain_scaling():
    rng = np.random.default_rng(3)
    chain = random_chain(2, 2, rng)
    p = reconstruct(chain)
    noisy = SpectralFactorChain(
        [f + 1e-3 * rng.standard_normal(f.shape) for f in chain.factors]
    )
    report = verify(p, chain=noisy)
    assert 1e-6 < report.reconstruction_error < 1e-1


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
