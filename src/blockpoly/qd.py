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

The tableau is stored as stacked arrays, so a sweep is a few batched NumPy
operations on all blocks at once: the Q-row update is one expression, the
pivot blocks Q_0' .. Q_{l-2}' are inverted together by the gated
:func:`linalg.invert_blocks`, and the interior E-row is two batched products.
A Q-block that turns singular mid-sweep ends the run with ``SingularPivot``,
naming the first such block; the tableau is not jittered and retried.
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
    """Current Q-row and E-row of the tableau, as stacks of m x m blocks.

    ``q_row`` is an (l, m, m) array and ``e_row`` an (l+1, m, m) array with
    fixed zero boundary blocks E_0 and E_l.  ``pivot_norms`` holds ||Q_i||_F
    for the pivot blocks Q_0 .. Q_{l-2}, as the sweep's inverse gate computed
    them; the initial row has none.
    """

    q_row: np.ndarray
    e_row: np.ndarray
    iteration: int = 0
    pivot_norms: list | None = None


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
    try:
        inv, _ = linalg.invert_blocks(p.coeffs[1:l])
    except SingularMatrix as exc:
        raise SingularCoefficient(exc.block + 1) from exc
    q_row = np.zeros((l, m, m))
    q_row[0] = -p.coeffs[1]
    e_row = np.zeros((l + 1, m, m))
    e_row[1:l] = p.coeffs[2:] @ inv
    return QDTableau(q_row=q_row, e_row=e_row)


def qd_step(t: QDTableau) -> QDTableau:
    """One full row-generation sweep over the stacked blocks."""
    q, e = t.q_row, t.e_row
    new_q = q + e[1:] - e[:-1]
    try:
        inv, pivot_norms = linalg.invert_blocks(new_q[:-1])
    except SingularMatrix as exc:
        raise SingularPivot(exc.block, t.iteration + 1) from exc
    new_e = np.zeros(e.shape)
    new_e[1:-1] = new_q[1:] @ e[1:-1] @ inv
    return QDTableau(q_row=new_q, e_row=new_e, iteration=t.iteration + 1,
                     pivot_norms=pivot_norms)


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
        return SpectralFactorChain(t.q_row), trace

    best = float("inf")
    since_best = 0
    for _ in range(cfg.max_iterations):
        t = qd_step(t)
        # max over interior blocks of ||E_i||_F / max(1, ||Q_{i-1}||_F)
        e_norms = linalg.frob_norms(t.e_row[1:-1]).tolist()
        rel = max([0.0] + [e / max(1.0, q) for e, q in zip(e_norms, t.pivot_norms)])
        trace.sweeps.append(t.iteration)
        trace.e_block_norms.append(e_norms)
        trace.max_relative_e.append(rel)
        if rel <= cfg.e_tol:
            return SpectralFactorChain(t.q_row), trace
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
