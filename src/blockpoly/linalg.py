"""Dense linear-algebra kernel used by every other module.

:func:`as_matrix` and :func:`as_blocks` are the two input validators, and
they take only real, finite entries: every list of m x m blocks in the
package (coefficients, chains, solvent sets) is the read-only float (k, m, m)
stack that :func:`as_blocks` returns.  The kernels :func:`solve`,
:func:`invert`, :func:`unvec`, :func:`sylvester_matrix`, :func:`solve_sylvester`
and :func:`_spectral_sylvester` call neither validator and check no shape:
only arrays the package built reach them.

``solve``/``invert`` run on LAPACK.  :func:`invert` takes one matrix or a
(k, n, n) stack and inverts it with one call of :data:`lapack_inv`, the LAPACK
gufunc that ``np.linalg.inv`` wraps, called without the wrapper;
:func:`solve` multiplies the right-hand side by that inverse.  Every gated
inverse goes through the same two steps: the LAPACK call, which returns a NaN
inverse for each matrix LAPACK fails and the others' inverses as they are,
and :func:`gate_inverses`, the certificate and then the arbiter below, on
norms computed beforehand.  No function returns the
norms.  :func:`invert` and ``qd`` both call :data:`lapack_inv` and
:func:`gate_inverses` directly; ``qd`` writes each sweep's inverses in place
and takes the norms of a whole block of sweeps at once.

LAPACK does not expose its pivots, so the singularity decision is made by a
certificate on the inverse.  With PA = LU and partial pivoting every
|l_ij| <= 1, and U^{-1} = A^{-1} P^T L, so every pivot satisfies
|1/u_kk| <= ||A^{-1}||_inf, the largest absolute row sum of the inverse, and
so |u_kk| >= 1 / (||A^{-1}||_F sqrt(n(n+1)/2)) too (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., §9).  When

    ||A||_F ||A^{-1}||_F sqrt(n(n+1)/2) PIVOT_RTOL < 1/2    (Frobenius form)
    or  ||A||_F ||A^{-1}||_inf PIVOT_RTOL < 1/2             (row-sum form)

no pivot can fall below ``PIVOT_RTOL * ||A||_F``, with a factor 2 to spare for
rounding, and the LAPACK inverse is used as is.  The Frobenius form runs first,
on norms computed for a whole stack at once; the row-sum form, never looser
since ||A^{-1}||_inf <= sqrt(n) ||A^{-1}||_F, runs only on a matrix that the
first cannot clear, so that the inverses Q.D. computes by the thousand pay for
no extra pass.  A matrix that neither form clears goes to
:func:`_lu_factor`, a Python partial-pivoted elimination kept only as the
arbiter, one matrix at a time in stack order: it raises ``SingularMatrix`` with
the index and magnitude of the first pivot under the threshold, and the
position of the matrix in the stack, or accepts the matrix, and then the LAPACK
inverse is returned.

:func:`solve_sylvester` solves the polynomial Sylvester equation

    Σ_j C_j H X^{d-j} = R,    d = len(coeffs) - 1,

which the Newton step, the Fréchet matrix and both similarity transforms
reduce to.  It is the one place that fixes the vec/Kronecker convention:
``vec`` stacks columns, so ``vec(C H X^k) = kron((X^k).T, C) vec(H)``, and
:func:`sylvester_matrix` assembles J = Σ_j kron((X^{d-j}).T, C_j), of order
n = m k for m x m coefficients C_j and a k x k X, one broadcast product per
term and no ``np.kron``.  There are two routes.

* The dense route solves J vec(H) = vec(R) with the gated :func:`solve`.  It
  is the arbiter: every ``SingularSylvester`` comes from it, with the message
  of the ``SingularMatrix`` that its gate raised.
* The spectral route is Bartels–Stewart (CACM 15(9), 1972) in the
  eigenvector basis, since NumPy has no Schur form.  With X = V Λ V^{-1}
  from the LAPACK eig gufunc, K = H V has columns k_c with
  M_c k_c = (R V)_c, where M_c = Σ_j C_j λ_c^{d-j}.  :data:`lapack_inv`
  inverts V and the k column operators, H = Re(K V^{-1}), and one step of
  iterative refinement with the same factors follows when the first H
  fails the test below.  H is returned when its backward error is at the
  rounding level,

      ||Σ_j C_j H X^{d-j} - R||_F <= 64 n eps (||J||_F ||H||_F + ||R||_F),

  with ||J||_F from the Gram identity ||J||_F² = Σ_{i,j} <X^i, X^j>_F
  <C_{d-i}, C_{d-j}>_F, so that J is never assembled.  This is the usual
  acceptance rule for a computed solution (Higham, §7.1, after Rigal and
  Gaches): H solves exactly a system whose matrix and right-hand side lie
  within 64 n eps of J and R, relative.  So the route may return H for a J
  that the dense gate would call singular; it decides nothing about J, and
  every ``SingularSylvester`` still comes from the dense route.  The test
  is written so that a NaN or an overflow fails it, as an eig that does
  not converge or an inverse that fails makes them.  A system it rejects
  goes to the dense route as if this one had not run.

  It costs O(k m³ + k³) time and O(k m²) memory, against O(m³ k³) time and
  O(d m² k²) memory for the dense route.  It runs only when m and k are both
  at least ``SPECTRAL_MIN_ORDER``, the measured crossover below which the
  dense route is faster; there the results are the dense route's, bit for
  bit.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch, SingularMatrix, SingularSylvester

#: The LAPACK gufunc that ``np.linalg.inv`` calls, bound once.  Called directly
#: it returns the same bits without the wrapper's checks and conversions, and
#: for each matrix whose LU factorization meets an exact zero pivot a NaN
#: inverse, where the wrapper raises ``LinAlgError`` for the whole stack.  It
#: raises the floating-point ``invalid`` flag for such a matrix, so callers run
#: it under ``np.errstate(invalid="ignore")``; ``qd`` calls it with ``out=``.
lapack_inv = _umath_linalg.inv

#: Unit roundoff times 2, the spacing of doubles at 1.
EPS = float(np.finfo(float).eps)

#: Relative pivot threshold: a pivot below ``PIVOT_RTOL * ||a||_F`` is singular.
PIVOT_RTOL = 1e-12

#: :func:`solve_sylvester` tries the spectral route first when both orders of
#: H are at least this.  On Newton systems of generated chains (l = 2, 3;
#: s = 0..3; one BLAS thread, 2-core x86-64) it took a median 0.67, 0.47, 0.36
#: and 0.08 of the dense time at m = 8, 9, 10 and 16, and at most 0.89 at
#: m = 8 in two runs; at m = 7 it took a median 0.9 but up to 1.16x.
SPECTRAL_MIN_ORDER = 8


def _real(a: np.ndarray) -> np.ndarray:
    """``a`` as floats; complex or non-numeric entries raise ``DimensionMismatch``."""
    if a.dtype.kind not in "biuf":
        raise DimensionMismatch(f"entries must be real numbers, got {a.dtype}")
    return a.astype(float, copy=False)


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float ndarray of real, finite entries."""
    m = _real(np.asarray(a))
    if m.ndim != 2:
        raise DimensionMismatch(f"expected 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise DimensionMismatch("matrix contains non-finite entries")
    return m


def _check_budget(max_iterations, tol_name, tol) -> None:
    """Raise ValueError unless ``max_iterations`` is an integer >= 1 and
    ``tol`` a finite positive real, neither of them a bool: the checks of a
    solver config's iteration budget and tolerance."""
    if isinstance(max_iterations, bool) or not isinstance(max_iterations, (int, np.integer)):
        raise ValueError(f"max_iterations must be an integer, got {max_iterations!r}")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
        raise ValueError(f"{tol_name} must be a finite positive number")


def as_blocks(mats) -> np.ndarray:
    """Coerce a nonempty sequence of m x m matrices, m >= 1, to a (k, m, m)
    float stack.

    The stack is validated like :func:`as_matrix` and returned as a read-only
    view, so the caller's own array stays writable.
    """
    try:
        a = _real(np.asarray(mats))
    except ValueError as exc:
        # NumPy's error for blocks of different shapes
        raise DimensionMismatch("blocks must all have one shape") from exc
    if a.ndim != 3 or a.shape[1] != a.shape[2] or not a.size:
        raise DimensionMismatch(f"expected a nonempty (k, m, m) stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DimensionMismatch("matrix contains non-finite entries")
    view = a.view()
    view.flags.writeable = False
    return view


def frob_norm(a) -> float:
    """Frobenius norm of a real array: ``np.linalg.norm``'s BLAS dot without
    its wrapper, bit for bit.  The squares may overflow; a scale that must
    not takes :func:`_max_norm`."""
    flat = a.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def frob_norms(a) -> np.ndarray:
    """Frobenius norms of a real (k, n, n) stack.

    On a C-contiguous stack each equals :func:`frob_norm` of its matrix bit
    for bit: a row times a column goes to the same BLAS dot that
    ``np.linalg.norm`` calls, over the entries in the same order.  On another
    layout the reshape copies the entries in row order while
    :func:`frob_norm` sums them in memory order, so the last bit may differ:
    it does on 1,874 of 6,000 transposed 5×5 Gaussian blocks.
    """
    k, n, _ = a.shape
    flat = a.reshape(k, n * n)
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None]).ravel())


def _max_norm(a) -> float:
    """:func:`frob_norm` of a real matrix, or the largest :func:`frob_norms`
    of a (k, n, n) stack, bit for bit where that is finite.

    Where the squares overflow, as a finite entry over ~1e154 makes them, the
    entries are divided by the largest first, so that the scale of relative
    residuals does not read inf and turn every residual into 0.
    """
    with np.errstate(over="ignore"):
        norm = frob_norm(a) if a.ndim == 2 else float(frob_norms(a).max())
        if norm == math.inf:
            big = float(np.abs(a).max())
            norm = big * _max_norm(a / big)
    return norm


def _lu_factor(a: np.ndarray) -> None:
    """Partial-pivoted elimination that raises SingularMatrix on a small pivot.

    The arbiter for matrices the inverse's certificate cannot clear; its
    factors are not kept.
    """
    lu = a.astype(float)
    with np.errstate(over="ignore"):
        # a norm that overflows makes the threshold inf: no pivot clears it
        threshold = PIVOT_RTOL * max(frob_norm(a), 1e-300)
    for k in range(len(lu)):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        pivot = abs(lu[p, k])
        if pivot <= threshold:
            raise SingularMatrix(k, pivot)
        if p != k:
            lu[[k, p]] = lu[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])


def gate_inverses(a, inv, norms, inv_norms) -> None:
    """The certificate, then the arbiter, on a stack and its LAPACK inverses.

    ``a`` and ``inv`` are (..., n, n) stacks, and ``norms`` and ``inv_norms``
    arrays of their Frobenius norms, of the leading shape.  The Frobenius form
    of the certificate runs first, on those norms; a matrix it cannot clear
    takes the row-sum form, on its inverse's largest absolute row sum.  Only
    the matrices neither form clears go to :func:`_lu_factor`, in C order, and
    the first one rejected raises, with the error's ``block`` its flat index.
    The certificate takes Python floats, whose products overflow to inf
    quietly.
    """
    n = a.shape[-1]
    scale = math.sqrt(n * (n + 1) / 2)
    pairs = zip(norms.ravel().tolist(), inv_norms.ravel().tolist())
    for i, (norm, inv_norm) in enumerate(pairs):
        if norm * inv_norm * scale * PIVOT_RTOL < 0.5:
            continue
        at = np.unravel_index(i, norms.shape)
        with np.errstate(over="ignore"):
            inv_inf = float(np.abs(inv[at]).sum(-1).max())
        if norm * inv_inf * PIVOT_RTOL < 0.5:
            continue
        try:
            # as_matrix rejects a non-finite matrix
            _lu_factor(as_matrix(a[at]))
            if not np.isfinite(inv[at]).all():
                # Elimination kept every pivot above the threshold, yet LAPACK
                # met an exact zero pivot or overflowed: there is no inverse.
                raise SingularMatrix(
                    None, 0.0,
                    "singular matrix: LAPACK could not invert a matrix whose "
                    "elimination pivots all clear the threshold",
                )
        except SingularMatrix as exc:
            exc.block = i
            raise


def solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` as ``inv(a) @ b`` with the gated LAPACK inverse.

    Raises
    ------
    SingularMatrix
        If a pivot magnitude of partial-pivoted elimination falls below
        ``PIVOT_RTOL * ||a||_F``; the error carries the pivot index.
    """
    return invert(a) @ b


def invert(a) -> np.ndarray:
    """Gated LAPACK inverse of an n x n matrix, or of each matrix of a (k, n, n) stack.

    One LAPACK call does what a loop over the stack would: the first matrix
    that the gate rejects raises, with the error's ``block`` its index in the
    stack (0 for a single matrix), and a non-finite matrix fails the
    certificate and raises ``DimensionMismatch`` from the arbiter.  An
    inverse's entries are squared for its norm, which may overflow to inf;
    that too fails the certificate and leaves the decision to the arbiter.
    """
    a = np.asarray(a, dtype=float)
    norm = frob_norm if a.ndim == 2 else frob_norms
    with np.errstate(all="ignore"):
        inv = lapack_inv(a)
        norms, inv_norms = np.asarray(norm(a)), np.asarray(norm(inv))
    gate_inverses(a, inv, norms, inv_norms)
    return inv


def det(a) -> float:
    """Determinant from LAPACK's LU factorization.

    No package code calls it; it stays while ``bench/tracer.py`` names it.
    """
    return float(np.linalg.det(as_matrix(a)))


def vec(a) -> np.ndarray:
    """Column-stacking vectorization (so vec(AXB) = kron(B.T, A) vec(X))."""
    return np.asarray(a, dtype=float).reshape(-1, order="F")


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.reshape(v, (rows, cols), order="F")


def _powers(x, d):
    """[I, X, ..., X^d], one product each."""
    powers = [np.eye(x.shape[0])]
    for _ in range(d):
        powers.append(powers[-1] @ x)
    return powers


def _sylvester_apply(mats, powers, h):
    """Σ_j C_j H X^{d-j} with the powers of X from :func:`_powers`."""
    d = len(mats) - 1
    out = mats[-1] @ h
    for j in range(d):
        out += mats[j] @ (h @ powers[d - j])
    return out


def sylvester_matrix(coeffs, x) -> np.ndarray:
    """The matrix S with vec(Σ_j C_j H X^{d-j}) = S vec(H), d = len(coeffs) - 1.

    S = Σ_j kron((X^{d-j}).T, C_j): one Kronecker term per coefficient, with
    the powers of X built by one product each.  S is built as a (k, m, k, m)
    array, so each term is one broadcast product written into a buffer; the
    terms are summed from j = d down, and S equals the ``np.kron`` sum bit for
    bit.
    """
    d = len(coeffs) - 1
    powers = _powers(x, d)
    k, m = x.shape[0], coeffs.shape[1]
    s = np.empty((k, m, k, m))
    term = np.empty_like(s)
    np.multiply(powers[0][:, None, :, None], coeffs[-1][None, :, None, :], out=s)
    for j in range(d - 1, -1, -1):
        np.multiply(powers[d - j].T[:, None, :, None], coeffs[j][None, :, None, :], out=term)
        s += term
    return s.reshape(k * m, k * m)


def _sq(a) -> float:
    """||a||_F², by one BLAS dot over the whole array."""
    return float(np.vdot(a, a).real)


def _spectral_sylvester(mats, x, powers, rhs):
    """H from the eigenvector basis of X, or None where its backward error is
    not at the rounding level.

    With X = V Λ V^{-1} and K = H V, column c of K solves M_c k_c = (R V)_c,
    M_c = Σ_j C_j λ_c^{d-j} (see the module docstring).
    """
    m, k = rhs.shape
    n = m * k
    d = len(mats) - 1
    with np.errstate(all="ignore"):
        # ||J||_F by the Gram identity
        terms = np.array(powers[::-1]).reshape(d + 1, -1)
        flat = mats.reshape(d + 1, -1)
        norm_j = math.sqrt(max(float(((terms @ terms.T) * (flat @ flat.T)).sum()), 0.0))
        # the gufunc behind np.linalg.eig: NaN where it does not converge
        lam, v = _umath_linalg.eig(x)
        if not lam.imag.any():
            lam, v = lam.real, v.real
        ops = mats[:1].repeat(k, 0)
        for c in mats[1:]:
            ops = ops * lam[:, None, None] + c
        v_inv = lapack_inv(v)
        ops_inv = lapack_inv(ops)

        def columns(r):
            kc = np.matmul(ops_inv, (r @ v).T[:, :, None])[:, :, 0]
            return (kc.T @ v_inv).real

        h = columns(rhs)
        rhs_norm = math.sqrt(_sq(rhs))
        for _ in range(2):
            res = rhs - _sylvester_apply(mats, powers, h)
            bound = 64 * n * EPS * (norm_j * math.sqrt(_sq(h)) + rhs_norm)
            # a NaN or an overflow fails the test
            if math.sqrt(_sq(res)) <= bound < math.inf:
                return h
            h = h + columns(res)
    return None


def solve_sylvester(coeffs, x, rhs) -> np.ndarray:
    """Solve Σ_j C_j H X^{d-j} = rhs for H with d = len(coeffs) - 1.

    From order ``SPECTRAL_MIN_ORDER`` on, the spectral route runs first;
    an answer whose backward error it does not accept goes to the dense
    route, where a system the gate calls singular raises
    ``SingularSylvester`` with the message of the ``SingularMatrix`` that
    :func:`solve` raised on the Kronecker matrix.
    """
    if min(rhs.shape) >= SPECTRAL_MIN_ORDER:
        h = _spectral_sylvester(coeffs, x, _powers(x, len(coeffs) - 1), rhs)
        if h is not None:
            return h
    try:
        h = solve(sylvester_matrix(coeffs, x), vec(rhs))
    except SingularMatrix as exc:
        raise SingularSylvester(str(exc)) from exc
    return unvec(h, *rhs.shape)
