"""Iterative extraction of a rightmost factor / right solvent.

Each scheme is a map X -> X' built from one right synthetic division of
A(λ) by (λI - X), which gives the quotient B_0..B_{l-1} and the remainder
B_l = A_R(X):

* plain Block Horner: the fixed-point map X' = -inv(B_{l-1}(X)) A_l, where
  B_{l-1} is the last quotient coefficient; linear convergence;
* Newton-Horner: a true Newton step on A_R(X) = 0, one
  :func:`linalg.solve_sylvester` on the quotient coefficients.  From order
  ``linalg.SPECTRAL_MIN_ORDER`` on it solves column by column in X's
  eigenvector basis when that answer's backward error is at the rounding
  level, else it solves the dense m² x m² Kronecker system, which also
  decides singularity; quadratic convergence near simple solvents;
* two-stage Block Horner: a double synthetic division.  Dividing B(λ) by
  (λI - X) again leaves the remainder C_{l-1} = B_R(X), the matrix analogue
  of p'(x), and X' = X - B_l inv(C_{l-1}).  C_{l-1} equals the closed form
  Δ(X) = Σ (l-i) A_i X^{l-1-i}.  At m = 1 this is exactly scalar Newton; for
  matrices the one-sided C_{l-1} differs from the Fréchet derivative, so
  convergence is linear.

One driver divides each iterate once: the remainder's norm is the residual,
and the quotient and remainder make the step.  The division of the accepted
iterate is also its deflation: the trace keeps that quotient and the
relative residual, which the pipeline takes as its next stage and the
factor's residual, so a chain with no Newton step takes l divisions, not
2l - 1.  It accepts an iterate once
‖A_R(X)‖_F / max(1, ‖A_l‖_F) <= ``RESIDUAL_GUARD`` AND the relative step δ in
percent is <= η or stopped shrinking (δ_k >= δ_{k-1}, the rounding floor of an
ill-conditioned step).  It raises ``NoConvergence`` when the budget ends or at
the first non-finite iterate, quotient or residual of a diverging run, the
start included.  No test for false convergence is needed: X' = X forces
B_l = A_R(X) = 0 in all three maps (B_{l-1} X + A_l = B_l for plain Horner),
so every fixed point is a solvent, and a small step with a large residual is
slow progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    InsufficientTrace,
    NoConvergence,
    SingularMatrix,
    SingularStep,
)
from .polynomial import MatrixPolynomial, _horner, _square, eval_right, synthetic_div_right

#: Relative residual guard: an iterate only counts as converged below this.
RESIDUAL_GUARD = 1e-8


@dataclass
class IterConfig:
    """Initial guess (checked here, its order by the solver) and stopping thresholds."""

    x0: np.ndarray | None = None
    eta: float = 1e-8          # percent threshold on δ
    max_iterations: int = 500

    def __post_init__(self):
        linalg._check_budget(self.max_iterations, "eta", self.eta)
        if self.x0 is not None:
            self.x0 = linalg.as_matrix(self.x0)


@dataclass
class ConvergenceTrace:
    """Per-iteration record shared by the Horner-family solvers.

    ``deflation`` is the pair ``transforms.deflate_right`` returns for the
    accepted iterate X: the quotient Q(λ) of A(λ) = Q(λ)(λI - X) + A_R(X),
    the deflated polynomial, and the relative residual ‖A_R(X)‖_F /
    max(1, ‖A_l‖_F).  It stays ``None`` on a trace that ended without one.
    """

    iterates: list = field(default_factory=list)
    deltas: list = field(default_factory=list)       # δ_k in percent
    residuals: list = field(default_factory=list)    # ||A_R(X_k)||_F
    deflation: tuple[MatrixPolynomial, float] | None = None

    def append(self, x, delta_pct, residual):
        self.iterates.append(np.array(x))
        self.deltas.append(delta_pct)
        self.residuals.append(residual)


def default_guess(p: MatrixPolynomial) -> np.ndarray:
    """ε-perturbed scaled identity: (-trace(A_1)/(l·m)) I plus 1e-3 jitter;
    ``NoConvergence`` where it overflows, as that start diverges at once."""
    rng = np.random.default_rng(0)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = -float(np.trace(p.coeffs[1])) / (p.l * p.m)
        jitter = 1e-3 * max(1.0, abs(scale)) * rng.standard_normal((p.m, p.m))
        guess = scale * np.eye(p.m) + jitter
    if not np.isfinite(guess).all():
        raise NoConvergence("diverged: the default guess is not finite")
    return guess


def _delta_pct(x_new, x_old) -> float:
    denom = max(linalg.frob_norm(x_old), 1e-300)
    return 100.0 * linalg.frob_norm(x_new - x_old) / denom


def _run_iteration(p, cfg, step):
    """Shared driver: divide each iterate once, then stop or take
    ``step(x, quotient, remainder)``; the accepted iterate's quotient and
    relative residual go on the trace."""
    if p.l < 1:
        raise DimensionMismatch("refinement needs degree >= 1")
    cfg = cfg or IterConfig()
    if cfg.x0 is None:
        p.require_monic()       # the default guess is a monic p's mean latent root
    x = default_guess(p) if cfg.x0 is None else cfg.x0
    if x.shape != (p.m, p.m):
        raise DimensionMismatch(f"x must be {p.m}x{p.m}, got {x.shape}")
    scale = p.coefficient_scale()
    trace = ConvergenceTrace()
    delta = float("nan")
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.max_iterations + 1):
            if k:
                try:
                    x_new = step(x, quotient, remainder)
                except SingularMatrix as exc:
                    raise SingularStep(str(exc)) from exc
                delta = _delta_pct(x_new, x)
                x = x_new
            try:
                quotient, remainder = synthetic_div_right(p, x)
                residual = linalg.frob_norm(remainder)
            except DimensionMismatch:
                residual = float("inf")
            if not np.isfinite(residual):
                raise NoConvergence(f"diverged: iterate {k}, its quotient or its "
                                    "residual is not finite", trace=trace)
            trace.append(x, delta, residual)
            # Under the guard, a step that no longer shrinks is at the rounding
            # floor: further steps only repeat it.
            relative = residual / scale
            if relative <= RESIDUAL_GUARD and (
                    not k or delta <= cfg.eta or delta >= trace.deltas[-2]):
                trace.deflation = quotient, relative
                return x, trace
    raise NoConvergence(
        f"no convergence in {cfg.max_iterations} iterations "
        f"(last δ={trace.deltas[-1]:.3e}%, relative residual "
        f"{trace.residuals[-1] / scale:.3e})",
        trace=trace,
    )


def horner_iterate(p: MatrixPolynomial, cfg: IterConfig | None = None):
    """Plain Block Horner fixed-point iteration X' = -inv(B_{l-1}(X)) A_l."""
    def step(x, quotient, remainder):
        return -linalg.solve(quotient.coeffs[-1], p.coeffs[p.l])

    return _run_iteration(p, cfg, step)


def frechet_matrix(p: MatrixPolynomial, x) -> np.ndarray:
    """The m² x m² matrix J with vec(dA_R(X; H)) = J vec(H), for any A_0.

    The product rule on Σ A_i X^{l-i} gathers, in front of H X^{l-1-j}, the
    quotient coefficient B_j = Σ_{i<=j} A_i X^{j-i} of right division by
    (λI - X), so J is the Sylvester matrix of B_0..B_{l-1}.
    """
    x = _square(p, x)
    return linalg.sylvester_matrix(synthetic_div_right(p, x)[0].coeffs, x)


def newton_horner(p: MatrixPolynomial, cfg: IterConfig | None = None):
    """Newton iteration on A_R(X) = 0: X' = X - L^{-1}(A_R(X)).

    L(H) = Σ_j B_j H X^{l-1-j} is the Fréchet derivative, with B_j from the
    right division whose remainder is A_R(X).  Quadratic residual decay near
    a solvent with nonsingular L; a singular L raises ``SingularSylvester``.
    """
    def step(x, quotient, remainder):
        return x - linalg.solve_sylvester(quotient.coeffs, x, remainder)

    return _run_iteration(p, cfg, step)


def two_stage(p: MatrixPolynomial, cfg: IterConfig | None = None):
    """Two-stage Block Horner: X' = X - A_R(X) inv(C_{l-1}(X)).

    Right division by (λI - X) gives the quotient q and B_l = A_R(X); the
    second division's remainder is C_{l-1} = q_R(X).  Reduces to scalar
    Newton at m = 1.
    """
    def step(x, quotient, remainder):
        return x - remainder @ linalg.invert(_horner(quotient.coeffs, x)[-1])

    return _run_iteration(p, cfg, step)


@dataclass
class BoundsReport:
    """Residual sandwich check on the tail of a plain-Horner trace."""

    sandwich_holds: bool = False
    lower_margins: list = field(default_factory=list)
    upper_margins: list = field(default_factory=list)


def convergence_bounds_check(p: MatrixPolynomial, trace: ConvergenceTrace) -> BoundsReport:
    """Verify the residual sandwich ξ_k/(γ M) style bounds on the last five
    steps of a trace, which needs at least six iterates.

    The exact identity behind the bounds: for the plain Horner step,
    X_{k+1} - X_k = X_k inv(A_l - A_R(X_k)) A_R(X_k), hence with
    ξ_k = ||X_{k+1} - X_k||,

        ξ_k / (||X_k|| ||inv(A_l - A_R)||)  <=  ||A_R(X_k)||
                                            <=  ||A_l - A_R|| ||X_k^{-1}|| ξ_k.

    The report holds each step's margin to the lower and the upper bound,
    and ``sandwich_holds``, whether every step lies between them.
    """
    tail = 5
    if len(trace.iterates) <= tail:
        raise InsufficientTrace(f"need at least {tail + 1} iterates, got {len(trace.iterates)}")
    report = BoundsReport()
    xs = trace.iterates[-tail - 1:]
    ok = True
    for k in range(len(xs) - 1):
        xk, xk1 = xs[k], xs[k + 1]
        xi = linalg.frob_norm(xk1 - xk)
        a_r = eval_right(p, xk)
        residual = linalg.frob_norm(a_r)
        shifted = p.coeffs[p.l] - a_r
        lower = xi / (linalg.frob_norm(xk) * linalg.frob_norm(linalg.invert(shifted)))
        upper = (linalg.frob_norm(shifted) * linalg.frob_norm(linalg.invert(xk)) * xi)
        slack = 1e-9 * max(1.0, residual)
        report.lower_margins.append(residual - lower)
        report.upper_margins.append(upper - residual)
        if residual + slack < lower or residual > upper + slack:
            ok = False
    report.sandwich_holds = ok
    return report
