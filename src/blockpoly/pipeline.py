"""The combined strategy: global Q.D. start, local Horner-family refinement.

``full_factorize`` runs Q.D. for a global view, then ``refine_chain`` for
k = 1..l refines the k-th Q.D. block on the CURRENT deflated polynomial,
appends the refined factor to the chain, and deflates.  The rightmost
factor of each stage is an exact right solvent of that stage, so the final
chain reconstructs the input to solver precision even when Q.D. alone had
only a few correct digits.  Every refinement starts from a Q.D. block or
from a solvent of the grouping search below, never from a guess: the CLI's
local methods, too, are ``full_factorize`` with their refiner.
Each factor is divided out once: the refiner's division of the iterate it
accepts is the deflation.  The refiner's trace keeps it as the pair
``transforms.deflate_right`` returns, which the last, degree-1 stage gets
from that function: the quotient is the next stage, and the remainder's
relative norm is the factor's residual in the report.  A chain
with no Newton step thus takes l divisions, not the 2l - 1 of dividing each
refined factor again.  The refiner accepted the factor on that same
residual, under ``horner.RESIDUAL_GUARD``, so deflation needs no gate of its
own.

With ``newton-horner``, the default, the pipeline draws Q.D. one block at a
time (``qd._blocks``) and may take its Q-row early: at the first block end
where the run is still descending and ``e_tol`` is a block or more away, the
groups have settled, and the pipeline draws no further block.  Newton then
finishes the factors in a few quadratic steps, where Q.D.'s linear tail takes
a hundred sweeps or more.  Newton from a handed-off Q-row has
``HAND_OFF_ITERATIONS`` steps per factor at most, one Q.D. block: near a
simple solvent it converges quadratically, so a try that has not converged
by then is given up.  ``horner`` and ``two-stage`` converge linearly, so
from an early Q-row they may not converge at all; they never take a
hand-off.

The rungs of ``full_factorize``, each kept whenever it refines every factor,
in whatever order the factors come (a chain in any order is a
factorization):

1. Newton at the first settled block (``newton-horner`` only); or, with no
   hand-off, the refiner from the Q-row of a Q.D. run that converged;
2. every other outcome goes to the search once: a hand-off that fails to
   refine (as a ``NoConvergence`` that names the hand-off and the refinement
   error, with the Q.D. trace at the hand-off), a Q.D. run that stalls,
   exhausts its budget or breaks down, or a failed refinement after a
   converged run.  The grouping search (``_group_search``) builds right
   solvents U Λ U⁻¹ from the block companion's eigenvectors, over
   conjugation-closed groups of the latent roots, polishes them with the
   refiner and backtracks across stages.  The report's one warning names
   the error it replaced.  When it finds none, a refinement
   error is raised as it is, and any other error as the ``NoConvergence``
   cause of a ``PipelineStageError`` at factor 0, which names that error and
   carries its trace if it has one.

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
    horner_iterate,
    newton_horner,
    two_stage,
)
from .polynomial import (
    SPECTRUM_TOL,
    CompletenessReport,
    MatrixPolynomial,
    SolventSet,
    SpectralFactorChain,
    _companion,
    _residual,
    _transpose,
    check_chain,
    check_order,
    is_complete_set,
    reconstruct,
    residual_left,
    residual_right,
)
from .qd import QDConfig, _blocks

REFINE_METHODS = ("horner", "newton-horner", "two-stage")

#: Most Newton iterations per factor from a handed-off Q-row, one Q.D. block.
#: Kept hand-offs on the seeded test corpus take at most 30.
HAND_OFF_ITERATIONS = 32

#: Groups of latent roots the grouping search tries, over all its stages.
GROUP_BUDGET = 200

#: The grouping search skips a group whose eigenvector block U has a larger
#: condition number.
GROUP_COND_MAX = 1e12


@dataclass
class PipelineConfig:
    """Configuration for the Q.D. + refinement pipeline."""

    refine_method: str = "newton-horner"
    qd: QDConfig = field(default_factory=QDConfig)
    iter: IterConfig = field(default_factory=IterConfig)

    def __post_init__(self):
        if self.refine_method not in REFINE_METHODS:
            raise ValueError(f"refine_method must be one of {REFINE_METHODS}")
        if self.iter.x0 is not None:
            raise ValueError("iter.x0 must be None: the pipeline starts each factor itself")


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


def refine_chain(p: MatrixPolynomial, cfg: PipelineConfig, seeds):
    """Refine the k-th factor from ``seeds[k]`` and divide it out; returns
    ``(chain, report, traces)``, with each factor's residual taken from its
    one division.  A refiner's error is raised at once as the
    ``PipelineStageError`` of its factor.
    """
    current = p
    found = []
    start = replace(cfg.iter)       # x0 below is a start the package built
    for k in range(p.l):
        if current.l == 1:
            found.append(_last_stage(current))
        else:
            start.x0 = seeds[k]
            try:
                found.append(refiner(cfg.refine_method)(current, start))
            except BlockPolyError as exc:
                raise PipelineStageError("refine", k, exc)
        current = found[-1][1].deflation[0]
    return _finish_chain(p, found)


def _finish_chain(p: MatrixPolynomial, found: list):
    """``(chain, report, traces)`` from the (factor, trace) pairs of a chain
    of p, each factor's residual read from its trace's deflation."""
    chain = SpectralFactorChain([x for x, _ in found])
    traces = [trace for _, trace in found]
    return chain, _chain_report(p, chain, [t.deflation[1] for t in traces]), traces


def _last_stage(current: MatrixPolynomial):
    """The factor of a degree-1 stage, -A_1, in closed form, with a trace
    that holds only its ``transforms.deflate_right`` pair."""
    x = -current.coeffs[1]
    return x, ConvergenceTrace(deflation=transforms.deflate_right(current, x))


def _capped(cfg: PipelineConfig) -> PipelineConfig:
    """``cfg`` with at most ``HAND_OFF_ITERATIONS`` refinement iterations per
    factor, the budget of a handed-off Q-row and of the grouping search."""
    return replace(cfg, iter=replace(cfg.iter, max_iterations=min(
        cfg.iter.max_iterations, HAND_OFF_ITERATIONS)))


def _root_groups(roots: np.ndarray, m: int):
    """Yield index lists of m latent roots, closed under conjugation, the
    dominant first: include-first recursion over the conjugate pairs and real
    singletons in descending modulus.  A branch that cannot be completed is
    cut at once, so no group is stored and each costs O(len(roots))."""
    units = sorted(([i] if z.imag == 0 else [i, i + 1]
                    for i, z in enumerate(roots) if z.imag >= 0),
                   key=lambda unit: -abs(roots[unit[0]]))
    room = np.cumsum([len(u) for u in units][::-1])[::-1]
    single = np.cumsum([len(u) == 1 for u in units][::-1])[::-1]

    def extend(i, group, need):
        if not need:
            yield group
        elif i < len(units) and need <= room[i] and (need % 2 == 0 or single[i]):
            if len(units[i]) <= need:
                yield from extend(i + 1, group + units[i], need - len(units[i]))
            yield from extend(i + 1, group, need)

    return extend(0, [], m)


def _group_search(p: MatrixPolynomial, cfg: PipelineConfig):
    """A chain from the companion's eigenvectors, or None.

    For any m latent roots Λ whose eigenvector block U (the top m rows) is
    nonsingular, X = U Λ U⁻¹ is a right solvent, real when the group is
    closed under conjugation (Dennis, Traub & Weber, SIAM J. Numer. Anal.
    13(6), 1976).  Each stage takes the groups of ``_root_groups`` in turn,
    skips those with cond(U) > ``GROUP_COND_MAX`` or a complex X, polishes X
    with the configured refiner, divides it out and goes on to the next
    stage; a stage with no group left backtracks.  It gives up after
    ``GROUP_BUDGET`` groups.  Returns ``(chain, report, traces)``.
    """
    budget = GROUP_BUDGET
    iter_cfg = _capped(cfg).iter

    def search(current):
        """(factor, trace) pairs of a chain of ``current``, or None."""
        nonlocal budget
        if current.l == 1:
            return [_last_stage(current)]
        roots, vectors = np.linalg.eig(_companion(current))
        for group in _root_groups(roots, current.m):
            if not budget:
                return None
            budget -= 1
            u = vectors[:current.m, group]
            sv = np.linalg.svd(u, compute_uv=False)
            if sv[0] > GROUP_COND_MAX * sv[-1]:
                continue
            x = np.linalg.solve(u.T, (u * roots[group]).T).T
            if linalg.frob_norm(x.imag) > SPECTRUM_TOL * max(1.0, np.linalg.norm(x)):
                continue
            iter_cfg.x0 = x.real
            try:
                x, trace = refiner(cfg.refine_method)(current, iter_cfg)
            except BlockPolyError:
                continue
            rest = search(trace.deflation[0])
            if rest is not None:
                return [(x, trace), *rest]
        return None

    # near-overflowing coefficients overflow X; the refiner then rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        found = search(p)
    return None if found is None else _finish_chain(p, found)


def full_factorize(p: MatrixPolynomial, cfg: PipelineConfig | None = None):
    """Factorize into a complete spectral factor chain from Q.D. seeds.

    Returns ``(chain, report, traces)`` with one refinement trace per factor.
    With ``newton-horner`` the seeds may be a handed-off Q-row, kept as the
    module docstring says.
    """
    cfg = cfg or PipelineConfig()
    try:
        for seeds, qd_trace, ready in _blocks(p, cfg.qd):
            if ready and cfg.refine_method == "newton-horner":
                try:
                    return refine_chain(p, _capped(cfg), seeds)
                except PipelineStageError as err:
                    raise NoConvergence(
                        f"Q.D. handed off at sweep {len(qd_trace.sweeps)} (max relative E-norm "
                        f"{qd_trace.max_relative_e[-1]:.3e}), rejected: {err}", trace=qd_trace)
        return refine_chain(p, cfg, seeds)
    except (NoConvergence, SingularCoefficient, SingularPivot, PipelineStageError) as err:
        found = _group_search(p, cfg)
        if found is None:
            if isinstance(err, PipelineStageError):
                raise
            raise PipelineStageError("refine", 0, NoConvergence(
                f"{err}; the grouping search over the latent roots found no chain",
                trace=getattr(err, "trace", None))) from err
        found[1].warnings.append(f"{err}; the grouping search over the latent roots "
                                 "factorized it instead")
        return found


def solvent_sets(p: MatrixPolynomial, chain: SpectralFactorChain,
                 report: VerificationReport):
    """Convert a chain to right and left solvent sets, with one check of the
    chain for both, recording their residuals and completeness in ``report``.
    p must be monic: the factorization that made the chain tested it."""
    try:
        check_chain(p, chain)
        transforms._check_disjoint(chain)
        right = transforms._chain_solvents(p, chain.factors)
        left = transforms._chain_solvents(p, chain.factors, "left")
    except BlockPolyError as exc:
        raise PipelineStageError("transform", -1, exc)
    report.per_solvent_residuals = [*right.residuals, *left.residuals]
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
    scale = linalg._max_norm(p.coeffs)
    return VerificationReport(
        per_factor_residuals=residuals,
        reconstruction_error=num / max(scale, 1.0),
        rightmost_residual=residuals[0],
        leftmost_residual=_residual(_transpose(p), chain.factors[-1].T),    # A_L(Q_l)
    )


def verify(p: MatrixPolynomial, chain: SpectralFactorChain | None = None,
           solvents: SolventSet | None = None) -> VerificationReport:
    """Report-only verification of a chain or solvent set against a monic p."""
    p.require_monic()
    report = VerificationReport()
    if chain is not None:
        check_chain(p, chain)
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


def factorize_nonmonic(n_poly: MatrixPolynomial, lead_inv):
    """Factorize the monic part inv(N_k) N(λ) of N(λ) = N_k Π (λI - Z_i),
    given ``lead_inv`` = inv(N_k); returns ``full_factorize``'s
    ``(chain, report, traces)``.
    """
    monic = lead_inv @ n_poly.coeffs
    monic[0] = np.eye(n_poly.m)
    return full_factorize(MatrixPolynomial(monic))
