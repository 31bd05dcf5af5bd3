"""Block Quotient-Difference (Q.D.) row-generation factorizer.

One sweep maps the current row of Q-blocks and E-blocks to the next row by
the rhombus rules

    Q_i' = Q_{i} + E_i - E_{i-1}          (using the current-row E blocks)
    E_i' = Q_{i+1}' E_i inv(Q_i')         (using the new-row Q blocks)

with fixed zero boundary blocks E_0 = E_l = 0, initialized from the
coefficients as Q-row [-A_1, 0, ..., 0] and interior E-row
[A_2 A_1^{-1}, ..., A_l A_{l-1}^{-1}].

Index and sign conventions were pinned down in two independent ways:
at m = 1 the sweep reduces exactly to the classical Rutishauser row
recurrence q_i' = q_i + e_i - e_{i-1}', e_i' = e_i q_{i+1}/q_i' (shifted here
to the equivalent all-current-row form), and the block sweep is
iterate-for-iterate identical to the block LR iteration on the first-column
companion form.  At convergence the Q-row holds the spectral factors in
dominance order, the dominant block first; the dominant block is the
RIGHTMOST factor of the chain (validated by reconstruction: only the
dominant-rightmost ordering multiplies back to the input coefficients).

A Q-block that turns singular mid-sweep ends the run with ``SingularPivot``;
the tableau is not jittered and retried.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    NoConvergence,
    NotMonic,
    SingularCoefficient,
    SingularMatrix,
    SingularPivot,
)
from .polynomial import MatrixPolynomial, SpectralFactorChain

#: Sweeps without a new best max relative E-norm before Q.D. reports a stall.
#: Transient E-norm humps spanning ~45 sweeps occur on spectra with close
#: block moduli plus complex pairs; the window must outlast them.
STALL_WINDOW = 60


@dataclass
class QDConfig:
    """Budget and stopping thresholds for :func:`qd_run`."""

    max_iterations: int = 200
    e_tol: float = 1e-10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.e_tol <= 0:
            raise ValueError("e_tol must be positive")


@dataclass
class QDTableau:
    """Current Q-row and E-row of the tableau.

    ``e_row`` has l+1 blocks with fixed zero boundaries E_0 and E_l.
    """

    m: int
    l: int
    q_row: list
    e_row: list
    iteration: int = 0

    def max_relative_e(self) -> float:
        """max over interior blocks of ||E_i||_F / max(1, ||Q_i||_F)."""
        worst = 0.0
        for i in range(1, self.l):
            qn = max(1.0, linalg.frob_norm(self.q_row[i - 1]))
            worst = max(worst, linalg.frob_norm(self.e_row[i]) / qn)
        return worst

    def e_norms(self) -> list:
        return [linalg.frob_norm(e) for e in self.e_row[1:self.l]]


@dataclass
class QDTrace:
    """Per-sweep convergence record."""

    sweeps: list = field(default_factory=list)
    e_block_norms: list = field(default_factory=list)
    max_relative_e: list = field(default_factory=list)


def qd_init(p: MatrixPolynomial) -> QDTableau:
    """Build the initial tableau row from the polynomial coefficients.

    Requires A_1 ... A_{l-1} nonsingular (the LR derivation forms the
    quotients A_{k+1} A_k^{-1}).  The interior E blocks carry the positive
    sign fixed by the scalar-reduction oracle.
    """
    if not p.is_monic:
        raise NotMonic("Q.D. requires a monic polynomial")
    m, l = p.m, p.l
    q_row = [-p.coeffs[1].copy()] + [np.zeros((m, m)) for _ in range(l - 1)]
    e_row = [np.zeros((m, m))]
    for k in range(1, l):
        try:
            e_row.append(p.coeffs[k + 1] @ linalg.invert(p.coeffs[k]))
        except SingularMatrix as exc:
            raise SingularCoefficient(k) from exc
    e_row.append(np.zeros((m, m)))
    return QDTableau(m=m, l=l, q_row=q_row, e_row=e_row, iteration=0)


def qd_step(t: QDTableau) -> QDTableau:
    """One full row-generation sweep."""
    l, m = t.l, t.m
    q, e = t.q_row, t.e_row
    new_q = [q[i - 1] + e[i] - e[i - 1] for i in range(1, l + 1)]
    new_e = [np.zeros((m, m))]
    for i in range(1, l):
        try:
            new_e.append(new_q[i] @ e[i] @ linalg.invert(new_q[i - 1]))
        except SingularMatrix as exc:
            raise SingularPivot(i - 1, t.iteration + 1) from exc
    new_e.append(np.zeros((m, m)))
    return QDTableau(m=m, l=l, q_row=new_q, e_row=new_e, iteration=t.iteration + 1)


def qd_run(p: MatrixPolynomial, cfg: QDConfig | None = None):
    """Iterate sweeps until the interior E blocks vanish.

    Returns ``(chain, trace)``; the chain stores the Q-row blocks
    rightmost-first (dominant block = rightmost factor = right solvent).

    Raises
    ------
    NoConvergence
        Budget exhausted or stalled; the error carries the trace and the last
        tableau so callers (the pipeline) can still use the Q-row as seeds.
    SingularPivot
        A Q-block became singular mid-sweep (dominance breakdown).
    """
    cfg = cfg or QDConfig()
    t = qd_init(p)
    trace = QDTrace()
    if p.l == 1:
        return SpectralFactorChain([t.q_row[0]]), trace

    best = float("inf")
    since_best = 0
    for _ in range(cfg.max_iterations):
        t = qd_step(t)
        rel = t.max_relative_e()
        trace.sweeps.append(t.iteration)
        trace.e_block_norms.append(t.e_norms())
        trace.max_relative_e.append(rel)
        if rel <= cfg.e_tol:
            return SpectralFactorChain(list(t.q_row)), trace
        if rel < best * (1 - 1e-12):
            best = rel
            since_best = 0
        else:
            since_best += 1
            if since_best >= STALL_WINDOW:
                raise NoConvergence(
                    f"Q.D. stalled: max relative E-norm {rel:.3e} did not "
                    f"improve over {STALL_WINDOW} sweeps",
                    trace=trace,
                    tableau=t,
                )
    raise NoConvergence(
        f"Q.D. budget of {cfg.max_iterations} sweeps exhausted "
        f"(max relative E-norm {trace.max_relative_e[-1]:.3e})",
        trace=trace,
        tableau=t,
    )
