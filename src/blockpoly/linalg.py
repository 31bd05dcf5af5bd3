"""Dense linear-algebra kernel used by every other module.

``solve``/``invert`` run on LAPACK through ``numpy.linalg``: one call of
``np.linalg.inv``, then a product with the right-hand side.  LAPACK does not
expose its pivots, so the singularity decision is made by a certificate on the
inverse.  With PA = LU and partial pivoting every |l_ij| <= 1, so every pivot
satisfies |u_kk| >= 1 / (||A^{-1}||_F sqrt(n(n+1)/2)) (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., §9).  When

    ||A||_F ||A^{-1}||_F sqrt(n(n+1)/2) pivot_rtol < 1/2

no pivot can fall below ``pivot_rtol * ||A||_F``, with a factor 2 to spare for
rounding, and the LAPACK inverse is used as is.  A matrix that the certificate
cannot clear goes to :func:`_lu_factor`, a Python partial-pivoted elimination
kept only as the arbiter: it raises ``SingularMatrix`` with the index and
magnitude of the first pivot under the threshold, or accepts the matrix, and
then the LAPACK inverse is returned.

:func:`solve_sylvester` solves the polynomial Sylvester equation

    Σ_j C_j H X^{d-j} = R,    d = len(coeffs) - 1,

which the Newton step, the Fréchet matrix and both similarity transforms
reduce to.  It is the one place that fixes the vec/Kronecker convention:
``vec`` stacks columns, so ``vec(C H X^k) = kron((X^k).T, C) vec(H)``, and
:func:`sylvester_matrix` assembles the d+1 Kronecker terms for the gated
:func:`solve`.  Eigenvalues serve only spectra diagnostics, never the
factorization iterations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, SingularMatrix, SingularSylvester

#: Relative pivot threshold: a pivot below ``PIVOT_RTOL * ||a||_F`` is singular.
PIVOT_RTOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float ndarray and validate finiteness."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatch("matrix contains non-finite entries")
    return m


def frob_norm(a) -> float:
    """Frobenius norm: sqrt of the sum of squared magnitudes (complex too)."""
    return float(np.linalg.norm(a))


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


def _inverse(a: np.ndarray, pivot_rtol: float) -> np.ndarray:
    """LAPACK inverse of a square ``a``, gated like :func:`_lu_factor`."""
    n = a.shape[0]
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inv = None
    if inv is not None:
        bound = frob_norm(a) * frob_norm(inv) * math.sqrt(n * (n + 1) / 2)
        if bound * pivot_rtol < 0.5:
            return inv
    _lu_factor(a, pivot_rtol)
    if inv is None or not np.all(np.isfinite(inv)):
        # Elimination kept every pivot above the threshold, yet LAPACK met an
        # exact zero pivot or overflowed: there is no inverse to return.
        raise SingularMatrix(
            None, 0.0,
            "singular matrix: LAPACK could not invert a matrix whose "
            "elimination pivots all clear the threshold",
        )
    return inv


def solve(a, b, pivot_rtol: float = PIVOT_RTOL) -> np.ndarray:
    """Solve ``a @ x = b`` as ``inv(a) @ b`` with the gated LAPACK inverse.

    Raises
    ------
    SingularMatrix
        If a pivot magnitude of partial-pivoted elimination falls below
        ``pivot_rtol * ||a||_F``; the error carries the pivot index.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"solve needs a square matrix, got {a.shape}")
    b = np.asarray(b, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs rows {b.shape[0]} != matrix rows {a.shape[0]}")
    return _inverse(a, pivot_rtol) @ b


def invert(a, pivot_rtol: float = PIVOT_RTOL) -> np.ndarray:
    """Matrix inverse through :func:`solve` with the identity as right side."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"invert needs a square matrix, got {a.shape}")
    return solve(a, np.eye(a.shape[0]), pivot_rtol=pivot_rtol)


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


def sylvester_matrix(coeffs, x) -> np.ndarray:
    """The matrix S with vec(Σ_j C_j H X^{d-j}) = S vec(H), d = len(coeffs) - 1.

    S = Σ_j kron((X^{d-j}).T, C_j): one Kronecker term per coefficient, with
    the powers of X built by one product each.
    """
    x = as_matrix(x)
    mats = [as_matrix(c) for c in coeffs]
    m = mats[0].shape[0]
    if x.shape[0] != x.shape[1] or any(c.shape != (m, m) for c in mats):
        raise DimensionMismatch("need square coefficients of one order and a square X")
    power = np.eye(x.shape[0])
    s = np.kron(power, mats[-1])
    for c in reversed(mats[:-1]):
        power = power @ x
        s += np.kron(power.T, c)
    return s


def solve_sylvester(coeffs, x, rhs) -> np.ndarray:
    """Solve Σ_j C_j H X^{d-j} = rhs for H with d = len(coeffs) - 1.

    A singular system raises ``SingularSylvester`` with the message of the
    ``SingularMatrix`` that :func:`solve` raised.
    """
    s = sylvester_matrix(coeffs, x)
    rhs = as_matrix(rhs)
    if rhs.shape[1] != np.shape(x)[0]:
        raise DimensionMismatch(f"rhs has {rhs.shape[1]} columns, X is {np.shape(x)}")
    try:
        h = solve(s, vec(rhs))
    except SingularMatrix as exc:
        raise SingularSylvester(str(exc)) from exc
    return unvec(h, *rhs.shape)


def eigvals(a) -> np.ndarray:
    """Eigenvalues of a square matrix as a complex array.

    Delegated to numpy (LAPACK) — eigenvalues serve only spectra diagnostics
    such as the completeness checks, never the factorization iterations.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"eigvals needs a square matrix, got {a.shape}")
    return np.linalg.eigvals(a)
