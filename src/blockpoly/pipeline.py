"""The combined strategy: global Q.D. start, local Horner-family refinement.

``full_factorize`` runs Q.D. for a global view (using the final Q-row even
when the sweep budget ends first), then ``refine_chain`` for k = 1..l refines
the k-th Q.D. block on the CURRENT deflated polynomial, appends the refined
factor to the chain, and deflates.  The rightmost factor of each stage is an
exact right solvent of that stage, so the final chain reconstructs the input
to solver precision even when Q.D. alone had only a few correct digits.
Each factor is divided out once, by ``transforms.deflate_right``: the
quotient is the next stage, and the remainder is the factor's residual in
the report.  The refiner accepted the factor on that same residual, under
``horner.RESIDUAL_GUARD``, so deflation needs no gate of its own.
Without Q.D. seeds (the CLI's local methods, or Q.D. breaks down) each
factor starts from ``MULTI_START`` jittered default guesses in turn.
``solvent_sets`` turns a chain into right and left solvent sets.
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
    SingularPivot,
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
    check_chain,
    check_order,
    is_complete_set,
    reconstruct,
    residual_left,
    residual_right,
)
from .qd import QDConfig, qd_run

REFINE_METHODS = ("horner", "newton-horner", "two-stage")

#: Jittered default guesses tried per factor when Q.D. preconditions fail.
MULTI_START = 5


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
    try:
        return qd_run(p, cfg.qd)[0].factors, []
    except NoConvergence as exc:
        return exc.tableau.q_row, [
            f"Q.D. did not reach e_tol ({exc}); using the final Q-row as seeds"]
    except (SingularCoefficient, SingularPivot) as exc:
        return None, [f"Q.D. failed ({exc}); falling back to default guesses"]


def refine_chain(p: MatrixPolynomial, cfg: PipelineConfig, seeds=None):
    """Refine the k-th factor from ``seeds[k]`` (or the jittered default
    guesses) and divide it out; returns ``(chain, report, traces)``, with
    each factor's residual taken from its one deflation."""
    p.require_monic()
    current = p
    factors, traces, residuals = [], [], []
    for k in range(p.l):
        if current.l == 1:
            x, trace = -current.coeffs[1], ConvergenceTrace()
        else:
            if seeds is not None:
                guesses = [seeds[k]]
            else:
                guesses = [default_guess(current, jitter_seed=s)
                           for s in range(MULTI_START)]
            for guess in guesses:
                try:
                    x, trace = refiner(cfg.refine_method)(current, replace(cfg.iter, x0=guess))
                    break
                except BlockPolyError as exc:
                    last_error = exc
            else:
                raise PipelineStageError("refine", k, last_error)
        current, residual = transforms.deflate_right(current, x)
        factors.append(x)
        traces.append(trace)
        residuals.append(residual)
    chain = SpectralFactorChain(factors)
    return chain, _chain_report(p, chain, residuals), traces


def full_factorize(p: MatrixPolynomial, cfg: PipelineConfig | None = None):
    """Factorize into a complete spectral factor chain from Q.D. seeds.

    Returns ``(chain, report, traces)`` with one refinement trace per factor.
    """
    cfg = cfg or PipelineConfig()
    seeds, warnings = _qd_seeds(p, cfg)
    chain, report, traces = refine_chain(p, cfg, seeds)
    report.warnings.extend(warnings)
    return chain, report, traces


def solvent_sets(p: MatrixPolynomial, chain: SpectralFactorChain,
                 report: VerificationReport):
    """Convert a chain to right and left solvent sets, recording their
    residuals and completeness in ``report``."""
    try:
        right = transforms.chain_to_right_solvents(p, chain)
        left = transforms.chain_to_left_solvents(p, chain)
    except BlockPolyError as exc:
        raise PipelineStageError("transform", -1, exc)
    report.per_solvent_residuals = [residual_right(p, r) for r in right.solvents]
    report.per_solvent_residuals += [residual_left(p, x) for x in left.solvents]
    report.completeness = is_complete_set(p, right)
    return right, left


def full_solvent_sets(p: MatrixPolynomial):
    """Factorize, then convert the chain to right and left solvent sets."""
    chain, report, _ = full_factorize(p)
    right, left = solvent_sets(p, chain, report)
    return right, left, report


def _chain_report(p: MatrixPolynomial, chain: SpectralFactorChain,
                  residuals: list) -> VerificationReport:
    """The chain's report, given each factor's residual on the polynomial
    that remains after dividing out the factors to its right."""
    recon = reconstruct(chain)
    num = float(linalg.frob_norms(recon.coeffs - p.coeffs).max())
    scale = float(linalg.frob_norms(p.coeffs).max())
    return VerificationReport(
        per_factor_residuals=residuals,
        reconstruction_error=num / max(scale, 1.0),
        rightmost_residual=residuals[0],
        leftmost_residual=residual_left(p, chain.factors[-1]),
    )


def verify(p: MatrixPolynomial, chain: SpectralFactorChain | None = None,
           solvents: SolventSet | None = None) -> VerificationReport:
    """Report-only verification of a chain or solvent set against p."""
    report = VerificationReport()
    if chain is not None:
        check_chain(p, chain)
        p.require_monic()
        residuals, deflated = [], p
        for f in chain.factors:
            deflated, residual = transforms.deflate_right(deflated, f)
            residuals.append(residual)
        report = _chain_report(p, chain, residuals)
    if solvents is not None:
        check_order(p, solvents.solvents, "solvents")
        res_fn = residual_right if solvents.side == "right" else residual_left
        report.per_solvent_residuals = [res_fn(p, x) for x in solvents.solvents]
        report.completeness = is_complete_set(p, solvents)
    return report


def factorize_nonmonic(n_poly: MatrixPolynomial):
    """Factorize a possibly non-monic polynomial N(λ) = N_k Π (λI - Z_i).

    Normalizes by the leading coefficient (inv(N_k) N(λ)), factorizes the
    monic part, and returns ``(leading, chain, report, traces)``.
    """
    lead = n_poly.coeffs[0]
    monic = linalg.invert(lead) @ n_poly.coeffs
    monic[0] = np.eye(n_poly.m)
    chain, report, traces = full_factorize(MatrixPolynomial(monic))
    return lead, chain, report, traces
