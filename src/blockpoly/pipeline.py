"""The combined strategy: global Q.D. start, local Horner-family refinement.

``full_factorize`` runs Q.D. for a global view (using the final Q-row even
when the sweep budget ends first), then for k = 1..l refines the k-th Q.D.
block on the CURRENT deflated polynomial, appends the refined factor to the
chain, and deflates.  The rightmost factor of each stage is an exact right
solvent of that stage, so the final chain reconstructs the input to solver
precision even when Q.D. alone had only a few correct digits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg, transforms
from .errors import (
    BlockPolyError,
    NoConvergence,
    PipelineStageError,
    SingularCoefficient,
)
from .horner import (
    ConvergenceTrace,
    IterConfig,
    default_guess,
    horner_iterate,
    newton_horner,
    two_stage,
)
from .polynomial import (
    CompletenessReport,
    MatrixPolynomial,
    SolventSet,
    SpectralFactorChain,
    is_complete_set,
    reconstruct,
    residual_left,
    residual_right,
    synthetic_div_right,
)
from .qd import QDConfig, qd_run

REFINE_METHODS = ("horner", "newton-horner", "two-stage")

#: Jittered default guesses tried per factor when Q.D. preconditions fail.
MULTI_START = 5

#: Relative remainder gate on each deflation of a refined factor.
VERIFY_TOL = 1e-8


@dataclass
class PipelineConfig:
    """Configuration for the Q.D. + refinement pipeline."""

    refine_method: str = "newton-horner"
    qd: QDConfig = field(default_factory=QDConfig)
    iter: IterConfig = field(default_factory=IterConfig)

    def __post_init__(self):
        if self.refine_method not in REFINE_METHODS:
            raise ValueError(f"refine_method must be one of {REFINE_METHODS}")


@dataclass
class VerificationReport:
    """Residual and completeness summary for a factorization."""

    per_factor_residuals: list = field(default_factory=list)
    per_solvent_residuals: list = field(default_factory=list)
    reconstruction_error: float = float("inf")
    rightmost_residual: float = float("inf")
    leftmost_residual: float = float("inf")
    completeness: CompletenessReport | None = None
    warnings: list = field(default_factory=list)


def refiner(method: str):
    """The Horner-family solver named by a ``REFINE_METHODS`` entry.

    The names are looked up at call time, so a wrapper installed on this
    module's solver names at run time is the one called.
    """
    return {"horner": horner_iterate, "newton-horner": newton_horner,
            "two-stage": two_stage}[method]


def _qd_seeds(p: MatrixPolynomial, cfg: PipelineConfig):
    """Q.D. factor blocks to use as refinement seeds, plus any warnings."""
    warnings = []
    try:
        chain, trace = qd_run(p, cfg.qd)
        return chain.factors, warnings
    except NoConvergence as exc:
        warnings.append(
            f"Q.D. did not reach e_tol ({exc}); using the final Q-row as seeds"
        )
        return exc.tableau.q_row, warnings
    except SingularCoefficient as exc:
        warnings.append(
            f"Q.D. preconditions failed ({exc}); falling back to default guesses"
        )
        return None, warnings


def full_factorize(p: MatrixPolynomial, cfg: PipelineConfig | None = None):
    """Factorize into a complete spectral factor chain.

    Returns ``(chain, report, traces)`` with one refinement trace per factor.
    """
    cfg = cfg or PipelineConfig()
    p.require_monic()
    seeds, warnings = _qd_seeds(p, cfg)
    current = p
    factors = []
    traces = []
    for k in range(p.l):
        if current.l == 1:
            factors.append(-current.coeffs[1])
            traces.append(ConvergenceTrace())
            break
        if seeds is not None:
            guesses = [seeds[k]]
        else:
            guesses = [default_guess(current, jitter_seed=s)
                       for s in range(MULTI_START)]
        x = None
        last_error = None
        for guess in guesses:
            try:
                x, trace = refiner(cfg.refine_method)(current, replace(cfg.iter, x0=guess))
                break
            except BlockPolyError as exc:
                last_error = exc
        if x is None:
            raise PipelineStageError("refine", k, last_error)
        factors.append(x)
        traces.append(trace)
        try:
            current = transforms.deflate_right(current, x, gate_rtol=VERIFY_TOL)
        except BlockPolyError as exc:
            raise PipelineStageError("deflate", k, exc)
    chain = SpectralFactorChain(factors)
    report = verify(p, chain=chain)
    report.warnings.extend(warnings)
    return chain, report, traces


def full_solvent_sets(p: MatrixPolynomial, cfg: PipelineConfig | None = None):
    """Factorize, then convert the chain to right and left solvent sets."""
    cfg = cfg or PipelineConfig()
    chain, report, _ = full_factorize(p, cfg)
    try:
        right = transforms.chain_to_right_solvents(p, chain)
        left = transforms.chain_to_left_solvents(p, chain)
    except BlockPolyError as exc:
        raise PipelineStageError("transform", -1, exc)
    report.per_solvent_residuals = [residual_right(p, r) for r in right.solvents]
    report.per_solvent_residuals += [residual_left(p, x) for x in left.solvents]
    report.completeness = is_complete_set(p, right)
    return right, left, report


def verify(p: MatrixPolynomial, chain: SpectralFactorChain | None = None,
           solvents: SolventSet | None = None) -> VerificationReport:
    """Report-only verification of a chain or solvent set against p."""
    report = VerificationReport()
    if chain is not None:
        recon = reconstruct(chain)
        k = min(len(recon.coeffs), len(p.coeffs))
        num = float(linalg.frob_norms(recon.coeffs[:k] - p.coeffs[:k]).max())
        scale = float(linalg.frob_norms(p.coeffs).max())
        report.reconstruction_error = num / max(scale, 1.0)
        report.rightmost_residual = residual_right(p, chain.factors[0])
        report.leftmost_residual = residual_left(p, chain.factors[-1])
        # Each factor is a right solvent of the polynomial that remains after
        # dividing out the factors to its right, so measure it there.
        report.per_factor_residuals = []
        deflated = p
        for f in chain.factors:
            stage_scale = deflated.coefficient_scale()
            deflated, remainder = synthetic_div_right(deflated, f)
            report.per_factor_residuals.append(linalg.frob_norm(remainder) / stage_scale)
            if deflated.l == 0:
                break
    if solvents is not None:
        res_fn = residual_right if solvents.side == "right" else residual_left
        report.per_solvent_residuals = [res_fn(p, x) for x in solvents.solvents]
        report.completeness = is_complete_set(p, solvents)
    return report


def factorize_nonmonic(n_poly: MatrixPolynomial, cfg: PipelineConfig | None = None):
    """Factorize a possibly non-monic polynomial N(λ) = N_k Π (λI - Z_i).

    Normalizes by the leading coefficient (inv(N_k) N(λ)), factorizes the
    monic part, and returns ``(leading, chain)``.
    """
    cfg = cfg or PipelineConfig()
    lead = n_poly.coeffs[0]
    monic = linalg.invert(lead) @ n_poly.coeffs
    monic[0] = np.eye(n_poly.m)
    chain, report, traces = full_factorize(MatrixPolynomial(monic), cfg)
    return lead, chain, report, traces
