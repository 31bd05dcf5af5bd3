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
operations on all blocks at once: the Q-row update is one addition and one
subtraction, the pivot blocks Q_0' .. Q_{l-2}' are inverted together by one
call of the LAPACK gufunc :data:`linalg.lapack_inv` (the one ``np.linalg.inv``
wraps, without the wrapper's Python cost), and the interior E-row is two
batched products.  Each of them writes its result in place.

:func:`qd_run` runs the sweeps in blocks of up to ``_BLOCK``.  Within a block a
sweep does only that arithmetic, into one preallocated buffer, under one
``np.errstate`` for the whole block, and the LAPACK inverses are not yet gated:
a pivot that LAPACK fails gets a NaN inverse, which the gate rejects.  After
the block, one batched call takes the norms
of every pivot, inverse and interior E block of the block, and the relative
E-norms of all its sweeps are computed as one array.  The decisions are then
replayed sweep by sweep, in the order of a one-sweep loop:

* the stop test (``e_tol``) and the stall counter find the last sweep used;
* the gate of :func:`linalg.gate_inverses` (certificate, then arbiter) runs on
  the pivots up to that sweep, and the first one it rejects ends the run with
  ``SingularPivot`` naming that block and sweep;
* the trace takes the sweeps up to that sweep.

The sweeps computed after it are dropped, so every result, error and trace is
that of gating and testing each sweep as it is made.  The tableau is not
jittered and retried.  Each block after the first is sized from the geometric
decay of the run's last ``_BLOCK`` relative E-norms, so that few sweeps are
dropped; the size decides no outcome.  The window spans block ends, so a
one-sweep block, which alone has no rate, does not make the next block a full
one: example 1 computes 32 + 19 + 1 + 1 + 1 = 54 sweeps, where sizing from
the last block alone computes 84.

A block end is where the run can be left.  The private generator
:func:`_blocks` holds the loop and yields the Q-row, the only output Q.D.
hands on, and the trace at each block end that the run goes on from and at
the end of a converged run, with a flag that reads true when the block's
last sweep set a new best max relative E-norm (the stall counter reads 0)
and the next block, sized from the same window, is a full one: at the
observed rate ``e_tol`` is a block or more away.  :func:`qd_run` drains
it; the pipeline tries Newton on the Q-row of the first such yield and
draws no further block, whether it keeps the try or rejects it.  Q.D.
converges at the rate |λ_{km+1}/λ_{km}| of its group boundaries, 0.857 on
examples 2 and 4, so its tail is slow; once the groups have settled, Newton on A_R(X) = 0
converges quadratically near a simple solvent (Dennis, Traub & Weber, SIAM
J. Numer. Anal. 15(3), 1978).  The new-best test keeps a hand-off out of
an E-norm hump: examples 2 and 4 are in one at sweep 32, and Newton from
that Q-row finds factors out of dominance order, which the pipeline would
keep; the test is what keeps them on a converged run's grouping.

A block holds up to 32 sweeps.  Its fixed cost (the norms, the replayed stop
and stall tests, the gate and the trace) is then paid once per 32 sweeps at
most, where the paper's fixtures run 54 to 200.  A run whose E-norms halve
each sweep needs some 33 sweeps to reach the default ``e_tol`` of 1e-10, so a
first block of 32 computes no sweep that such a run then drops.  The price
grows with 32·l·m²: the first block's buffer holds 32·3l·m² floats (0.8 MB at
m = 16, l = 4, some 200 MB at m = 256, l = 4), and a run that stops after
k < 32 sweeps computes 32 - k sweeps of l - 1 inverses and 2(l - 1) products
of m×m blocks that it drops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    NoConvergence,
    SingularCoefficient,
    SingularMatrix,
    SingularPivot,
)
from .polynomial import MatrixPolynomial, SpectralFactorChain, _built

#: Sweeps without a new best max relative E-norm before Q.D. reports a stall.
#: Transient E-norm humps spanning ~45 sweeps occur on spectra with close
#: block moduli plus complex pairs; the window must outlast them.
STALL_WINDOW = 60

#: Most sweeps in one block of :func:`qd_run`, the first block included.  A
#: first block of 8 with later blocks of up to 32 was slower on the paper's
#: fixtures and on generated chains than 32 throughout.
_BLOCK = 32


@dataclass
class QDConfig:
    """Budget and stopping thresholds for :func:`qd_run`."""

    max_iterations: int = 200
    e_tol: float = 1e-10

    def __post_init__(self):
        linalg._check_budget(self.max_iterations, "e_tol", self.e_tol)


@dataclass
class QDTrace:
    """Per-sweep convergence record."""

    sweeps: list = field(default_factory=list)
    e_block_norms: list = field(default_factory=list)
    max_relative_e: list = field(default_factory=list)


def qd_init(p: MatrixPolynomial):
    """The first tableau row: an (l, m, m) Q-row and an (l+1, m, m) E-row
    whose boundary blocks E_0 and E_l are zero.

    Requires a monic p of degree l >= 1 and A_1 ... A_{l-1} nonsingular (the
    LR derivation forms the quotients A_{k+1} A_k^{-1}).  The interior E
    blocks carry the positive sign fixed by the scalar-reduction oracle.
    """
    p.require_monic()
    m, l = p.m, p.l
    if l < 1:
        raise DimensionMismatch("Q.D. needs degree >= 1")
    try:
        inv = linalg.invert(p.coeffs[1:l])
    except SingularMatrix as exc:
        raise SingularCoefficient(exc.block + 1) from exc
    q_row = np.zeros((l, m, m))
    q_row[0] = -p.coeffs[1]
    e_row = np.zeros((l + 1, m, m))
    e_row[1:l] = p.coeffs[2:] @ inv
    return q_row, e_row


def _sweeps(q, e, n):
    """``n`` sweeps of the rhombus rules from the row ``(q, e)``, not gated.

    Returns the Q-rows (n, l, m, m), the E-rows (n, l+1, m, m), the LAPACK
    inverses of the pivots Q_0 .. Q_{l-2} (n, l-1, m, m), and the Frobenius
    norms of the pivots, of those inverses and of the interior E blocks, each
    (n, l-1).  The three stacks share one buffer, so one batched call takes
    every norm; every block of it but the fixed zero E_0 and E_l is written by
    the sweeps.  A sweep after a singular pivot may overflow, but no caller
    uses it.
    """
    l, m = q.shape[:2]
    buf = np.empty((n, 3 * l, m, m))
    qs, es, invs = buf[:, :l], buf[:, l:2 * l + 1], buf[:, 2 * l + 1:]
    es[:, 0] = es[:, l] = 0.0
    prod = np.empty((l - 1, m, m))
    with np.errstate(all="ignore"):
        for new_q, new_e, inv in zip(qs, es, invs):
            np.add(q, e[1:], out=new_q)
            new_q -= e[:-1]
            linalg.lapack_inv(new_q[:-1], out=inv)
            np.matmul(new_q[1:], e[1:-1], out=prod)
            np.matmul(prod, inv, out=new_e[1:-1])
            q, e = new_q, new_e
        norms = linalg.frob_norms(buf.reshape(-1, m, m)).reshape(n, 3 * l)
    return qs, es, invs, (norms[:, :l - 1], norms[:, 2 * l + 1:], norms[:, l + 1:2 * l])


def _gate(qs, invs, q_norms, inv_norms, done):
    """Gate the pivots of sweeps ``done + 1`` .. ``done + len(qs)`` in order.

    Raises ``SingularPivot`` for the first pivot the gate rejects.
    """
    try:
        linalg.gate_inverses(qs[:, :-1], invs, q_norms, inv_norms)
    except SingularMatrix as exc:
        sweep, exc.block = divmod(exc.block, qs.shape[1] - 1)
        raise SingularPivot(exc.block, done + sweep + 1) from exc


def _block_size(rels, e_tol):
    """Sweeps for the next block: ``_BLOCK``, or fewer when the geometric
    decay of the relative E-norms ``rels`` reaches ``e_tol`` sooner."""
    first, last = rels[0], rels[-1]
    if not 0.0 < last < first < math.inf:
        return _BLOCK
    rate = (last / first) ** (1.0 / (len(rels) - 1))
    if not 0.0 < rate < 1.0:
        return _BLOCK
    return max(1, min(_BLOCK, math.ceil(math.log(e_tol / last) / math.log(rate))))


def _blocks(p: MatrixPolynomial, cfg: QDConfig):
    """The run of :func:`qd_run`, one block at a time.

    Yields ``(q_row, trace, ready)`` at each block end that the run goes on
    from, ``ready`` as the module docstring says, and once more with the
    final Q-row when the run converges, ``ready`` false; a run that stalls
    or exhausts its budget raises ``NoConvergence`` instead, with no final
    Q-row.  Each block is gated and traced, then decides how the run goes
    on: a converged block yields and returns, else a stall raises, else an
    exhausted budget raises.  The trace is the run's own and grows as it
    goes on; at a yield at sweep n the Q-row and trace are those of a run
    stopped at sweep n.  Raises what :func:`qd_run` raises.
    """
    q, e = qd_init(p)
    trace = QDTrace()
    if p.l == 1:
        yield q, trace, False
        return

    best, since_best = float("inf"), 0
    size = _BLOCK
    while True:
        done = len(trace.sweeps)
        qs, es, invs, (q_norms, inv_norms, e_norms) = _sweeps(
            q, e, min(size, cfg.max_iterations - done))
        # max over interior blocks of ||E_i||_F / max(1, ||Q_{i-1}||_F)
        with np.errstate(invalid="ignore"):
            rels = np.fmax.reduce(e_norms / np.fmax(q_norms, 1.0),
                                  axis=1, initial=0.0).tolist()
        # the stop and stall tests in sweep order find the last sweep used
        for last, rel in enumerate(rels):
            if rel <= cfg.e_tol:
                break
            if rel < best * (1 - 1e-12):
                best, since_best = rel, 0
            else:
                since_best += 1
                if since_best >= STALL_WINDOW:
                    break
        used = last + 1
        _gate(qs[:used], invs[:used], q_norms[:used], inv_norms[:used], done)
        trace.sweeps.extend(range(done + 1, done + used + 1))
        trace.e_block_norms.extend(e_norms[:used].tolist())
        trace.max_relative_e.extend(rels[:used])
        if rels[last] <= cfg.e_tol:
            yield qs[last], trace, False
            return
        if since_best >= STALL_WINDOW:
            raise NoConvergence(f"Q.D. stalled: max relative E-norm {rels[last]:.3e} did not "
                                f"improve over {STALL_WINDOW} sweeps", trace=trace)
        if len(trace.sweeps) == cfg.max_iterations:
            raise NoConvergence(f"Q.D. budget of {cfg.max_iterations} sweeps exhausted "
                                f"(max relative E-norm {rels[last]:.3e})", trace=trace)
        q, e = qs[-1], es[-1]
        size = _block_size(trace.max_relative_e[-_BLOCK:], cfg.e_tol)
        yield q, trace, since_best == 0 and size == _BLOCK


def qd_run(p: MatrixPolynomial, cfg: QDConfig | None = None):
    """Iterate sweeps until the interior E blocks vanish.

    Returns ``(chain, trace)``; the chain stores the Q-row blocks
    rightmost-first (dominant block = rightmost factor = right solvent).

    Raises
    ------
    NoConvergence
        Budget exhausted or stalled; the error carries the trace.
    SingularPivot
        A Q-block became singular mid-sweep (dominance breakdown).
    """
    for q_row, trace, _ in _blocks(p, cfg or QDConfig()):
        pass
    return _built(SpectralFactorChain, q_row), trace
