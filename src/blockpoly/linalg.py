"""Dense linear-algebra kernel used by every other module.

:func:`as_matrix` and :func:`as_blocks` are the two input validators: every
list of m x m blocks in the package (coefficients, chains, solvent sets) is
the read-only float (k, m, m) stack that :func:`as_blocks` returns.

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
|l_ij| <= 1, so every pivot satisfies
|u_kk| >= 1 / (||A^{-1}||_F sqrt(n(n+1)/2)) (Higham, *Accuracy and Stability
of Numerical Algorithms*, 2nd ed., §9).  When

    ||A||_F ||A^{-1}||_F sqrt(n(n+1)/2) PIVOT_RTOL < 1/2

no pivot can fall below ``PIVOT_RTOL * ||A||_F``, with a factor 2 to spare for
rounding, and the LAPACK inverse is used as is.  The norms in the certificate
are computed for a whole stack at once.  A matrix that it cannot clear goes to
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
  from ``np.linalg.eig``, K = H V has columns k_c with M_c k_c = (R V)_c,
  where M_c = Σ_j C_j λ_c^{d-j}.  One batched ``np.linalg.inv`` inverts the
  k column operators, H = Re(K V^{-1}), and one step of iterative refinement
  with the same factors follows.  The result is returned only when two
  tests pass; otherwise the dense route runs as if this one had not:

  - a certificate that the dense gate accepts J.  ||J||_F comes from the
    Gram identity ||J||_F² = Σ_{i,j} <X^{d-i}, X^{d-j}>_F <C_i, C_j>_F, and
    ||J^{-1}||_F <= ||V^{-1}||_2 (Σ_c ||v_c||² ||M_c^{-1}||_F²)^{1/2} holds
    for the system of V Λ V^{-1}.  The residual ||X V - V Λ||_F bounds how
    far J lies from that system, by θ relative to the bound, which is then
    divided by 1 - θ (θ < 1 is required).  The gate's own certificate
    ||J||_F bound sqrt(n(n+1)/2) ``PIVOT_RTOL`` < 1/2 must then hold;
  - a backward error ||Σ_j C_j H X^{d-j} - R||_F <= 64 n eps
    (||J||_F ||H||_F + ||R||_F).

  It costs O(k m³ + k³) time and O(k m²) memory, against O(m³ k³) time and
  O(d m² k²) memory for the dense route.  It runs only when m and k are both
  at least ``SPECTRAL_MIN_ORDER``, the measured crossover below which the
  dense route is as fast; there the results are the dense route's, bit for
  bit.
"""

from __future__ import annotations

import math

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

#: Relative pivot threshold: a pivot below ``PIVOT_RTOL * ||a||_F`` is singular.
PIVOT_RTOL = 1e-12

#: :func:`solve_sylvester` tries the spectral route first when both orders of
#: H are at least this.  On Newton systems of generated chains (l = 2, 3; one
#: BLAS thread, 2-core x86-64) it took a median 0.8, 0.6, 0.5 and 0.1 of the
#: dense time at m = 8, 9, 10 and 16, but up to 1.5x at m = 8 and 1.0x at
#: m = 9; from m = 10 on it was faster on every system measured.
SPECTRAL_MIN_ORDER = 10


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float ndarray and validate finiteness."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatch("matrix contains non-finite entries")
    return m


def as_blocks(mats) -> np.ndarray:
    """Coerce a nonempty sequence of m x m matrices to a (k, m, m) float stack.

    The stack is validated like :func:`as_matrix` and returned as a read-only
    view, so the caller's own array stays writable.
    """
    try:
        a = np.asarray(mats, dtype=float)
    except ValueError as exc:
        # NumPy's error for blocks of different shapes
        raise DimensionMismatch("blocks must all have one shape") from exc
    if a.ndim != 3 or a.shape[1] != a.shape[2] or not len(a):
        raise DimensionMismatch(f"expected a nonempty (k, m, m) stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DimensionMismatch("matrix contains non-finite entries")
    view = a.view()
    view.flags.writeable = False
    return view


def frob_norm(a) -> float:
    """Frobenius norm: sqrt of the sum of squared magnitudes (complex too)."""
    return float(np.linalg.norm(a))


def frob_norms(a) -> np.ndarray:
    """Frobenius norms of a real (k, n, n) stack.

    Each equals :func:`frob_norm` of its matrix bit for bit: a row times a
    column goes to the same BLAS dot that ``np.linalg.norm`` calls.
    """
    k, n, _ = a.shape
    flat = a.reshape(k, n * n)
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None]).ravel())


def _lu_factor(a: np.ndarray, pivot_rtol: float) -> None:
    """Partial-pivoted elimination that raises SingularMatrix on a small pivot.

    The arbiter for matrices the inverse's certificate cannot clear; its
    factors are not kept.
    """
    n = a.shape[0]
    lu = a.astype(float).copy()
    threshold = pivot_rtol * max(frob_norm(a), 1e-300)
    for k in range(n):
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
    arrays of their Frobenius norms, of the leading shape.  Only the matrices
    the certificate cannot clear go to :func:`_lu_factor`, in C order, and the
    first one rejected raises, with the error's ``block`` its flat index.  The
    certificate takes Python floats, whose products overflow to inf quietly.
    """
    n = a.shape[-1]
    scale = math.sqrt(n * (n + 1) / 2)
    pairs = zip(norms.ravel().tolist(), inv_norms.ravel().tolist())
    for i, (norm, inv_norm) in enumerate(pairs):
        if norm * inv_norm * scale * PIVOT_RTOL < 0.5:
            continue
        at = np.unravel_index(i, norms.shape)
        try:
            # as_matrix rejects a non-finite matrix
            _lu_factor(as_matrix(a[at]), PIVOT_RTOL)
            if not np.all(np.isfinite(inv[at])):
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
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"solve needs a square matrix, got {a.shape}")
    b = np.asarray(b, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs rows {b.shape[0]} != matrix rows {a.shape[0]}")
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
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(
            f"invert needs a square matrix or a (k, n, n) stack, got {a.shape}")
    stack = a[None] if a.ndim == 2 else a
    with np.errstate(all="ignore"):
        inv = lapack_inv(stack)
        inv_norms = frob_norms(inv)
    gate_inverses(stack, inv, frob_norms(stack), inv_norms)
    return inv[0] if a.ndim == 2 else inv


def det(a) -> float:
    """Determinant from LAPACK's LU factorization."""
    return float(np.linalg.det(as_matrix(a)))


def vec(a) -> np.ndarray:
    """Column-stacking vectorization (so vec(AXB) = kron(B.T, A) vec(X))."""
    return np.asarray(a, dtype=float).reshape(-1, order="F")


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != rows * cols:
        raise DimensionMismatch(f"cannot reshape length {v.size} to {rows}x{cols}")
    return v.reshape(rows, cols, order="F")


def _sylvester_operands(coeffs, x):
    """The coefficients as a checked stack and X as a checked square matrix."""
    x = as_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise DimensionMismatch("need square coefficients of one order and a square X")
    return as_blocks(coeffs), x


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
    mats, x = _sylvester_operands(coeffs, x)
    d = len(mats) - 1
    powers = _powers(x, d)
    k, m = x.shape[0], mats.shape[1]
    s = np.empty((k, m, k, m))
    term = np.empty_like(s)
    np.multiply(powers[0][:, None, :, None], mats[-1][None, :, None, :], out=s)
    for j in range(d - 1, -1, -1):
        np.multiply(powers[d - j].T[:, None, :, None], mats[j][None, :, None, :], out=term)
        s += term
    return s.reshape(k * m, k * m)


def _spectral_sylvester(mats, x, powers, rhs):
    """H from the eigenvector basis of X, or None where it is not certified.

    With X = V Λ V^{-1} and K = H V, column c of K solves M_c k_c = (R V)_c,
    M_c = Σ_j C_j λ_c^{d-j}.  The result is returned only when the dense
    route's certificate provably holds for the same system and the backward
    error is at the rounding level (see the module docstring).
    """
    m, k = rhs.shape
    n = m * k
    d = len(mats) - 1
    eps = np.finfo(float).eps
    try:
        lam, v = np.linalg.eig(x)
        v_inv = np.linalg.inv(v)
        ops = mats[0][None]
        for c in mats[1:]:
            ops = ops * lam[:, None, None] + c
        ops_inv = np.linalg.inv(ops)
    except np.linalg.LinAlgError:
        return None

    # ||J||_F by the Gram identity, plus the rounding of its inner products.
    terms = np.array(powers[::-1]).reshape(d + 1, -1)
    coef = np.asarray(mats).reshape(d + 1, -1)
    gram_c = coef @ coef.T
    gram = (terms @ terms.T) * gram_c
    sizes = np.sqrt(np.diag(gram))
    norm_j = math.sqrt(max(float(gram.sum()), 0.0)
                       + (m * m + k * k) * eps * float(sizes.sum()) ** 2)

    # ||J~^{-1}||_F for the system of X~ = V Λ V^{-1}.  X - X~ = E V^{-1} with
    # E = X V - V Λ, counted with its own rounding, so ||X - X~||_F <= δ and
    # ||X^i - X~^i||_F <= i δ (||X||_F + δ)^{i-1}, which bounds ||J - J~||_F
    # by ``drift``.  Since ||J||_F ||M_c^{-1}||_F >= 1, the certificate can only
    # pass when κ_2(V) < 0.71e12 / (m sqrt(k)): the computed V^{-1} is then
    # exact to far less than the factor 2 the certificate spares.
    v_inv_2 = float(np.linalg.svd(v_inv, compute_uv=False)[0])
    bound = v_inv_2 * float(np.linalg.norm(
        np.linalg.norm(v, axis=0) * np.linalg.norm(ops_inv, axis=(1, 2))))
    x_norm = frob_norm(x)
    lam_max = float(np.max(np.abs(lam)))
    eig_err = (frob_norm(x @ v - v * lam)
               + (k + 2) * eps * (x_norm + lam_max) * frob_norm(v))
    delta = eig_err * v_inv_2
    drift = sum(math.sqrt(gram_c[j, j]) * (d - j) * delta * (x_norm + delta) ** (d - j - 1)
                for j in range(d))
    theta = bound * drift
    if not theta < 1.0:
        return None
    bound /= 1.0 - theta
    if not norm_j * bound * math.sqrt(n * (n + 1) / 2) * PIVOT_RTOL < 0.5:
        return None

    def columns(r):
        kc = np.matmul(ops_inv, (r @ v).T[:, :, None])[:, :, 0]
        return (kc.T @ v_inv).real

    h = columns(rhs)
    h = h + columns(rhs - _sylvester_apply(mats, powers, h))
    backward = frob_norm(_sylvester_apply(mats, powers, h) - rhs)
    if not backward <= 64 * n * eps * (norm_j * frob_norm(h) + frob_norm(rhs)):
        return None
    return h


def solve_sylvester(coeffs, x, rhs) -> np.ndarray:
    """Solve Σ_j C_j H X^{d-j} = rhs for H with d = len(coeffs) - 1.

    From order ``SPECTRAL_MIN_ORDER`` on, the certified spectral route runs
    first; anything it does not certify goes to the dense route, so a
    singular system raises ``SingularSylvester`` with the message of the
    ``SingularMatrix`` that :func:`solve` raised on the Kronecker matrix.
    """
    mats, x = _sylvester_operands(coeffs, x)
    rhs = as_matrix(rhs)
    if rhs.shape != (mats[0].shape[0], x.shape[0]):
        raise DimensionMismatch(
            f"rhs is {rhs.shape}, H must be {mats[0].shape[0]}x{x.shape[0]}")
    if min(rhs.shape) >= SPECTRAL_MIN_ORDER:
        h = _spectral_sylvester(mats, x, _powers(x, len(mats) - 1), rhs)
        if h is not None:
            return h
    try:
        h = solve(sylvester_matrix(mats, x), vec(rhs))
    except SingularMatrix as exc:
        raise SingularSylvester(str(exc)) from exc
    return unvec(h, *rhs.shape)


def eigvals(a) -> np.ndarray:
    """Eigenvalues of a square matrix as a complex array, from LAPACK.

    Spectra diagnostics such as the completeness checks use them; the
    spectral route of :func:`solve_sylvester` takes eigenvalues and
    eigenvectors from ``np.linalg.eig`` itself.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"eigvals needs a square matrix, got {a.shape}")
    return np.linalg.eigvals(a)
