"""Dense linear-algebra kernel used by every other module.

``invert``/``solve`` are implemented here with partial-pivoted Gaussian
elimination so singularity is detected against an explicit pivot threshold and
reported with the offending pivot index.  Structural helpers (``kron``,
``vec``/``unvec``, ``frob_norm``) fix the conventions the transform modules
rely on: ``vec`` stacks columns, so ``vec(A X B) = kron(B.T, A) vec(X)``.

Eigenvalues are delegated to numpy's LAPACK-backed solver; they are used only
for spectra diagnostics, never inside the factorization iterations.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

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
    """Frobenius norm: sqrt of the sum of squared entries."""
    return float(np.sqrt(np.sum(np.abs(np.asarray(a, dtype=complex)) ** 2)))


def _lu_factor(a: np.ndarray, pivot_rtol: float):
    """LU with partial pivoting.  Returns (lu, perm) or raises SingularMatrix."""
    n = a.shape[0]
    lu = a.astype(float).copy()
    perm = np.arange(n)
    swaps = 0
    threshold = pivot_rtol * max(frob_norm(a), 1e-300)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        pivot = abs(lu[p, k])
        if pivot <= threshold:
            raise SingularMatrix(k, pivot)
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            swaps += 1
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, perm, swaps


def solve(a, b, pivot_rtol: float = PIVOT_RTOL) -> np.ndarray:
    """Solve ``a @ x = b`` by partial-pivoted elimination.

    Raises
    ------
    SingularMatrix
        If a pivot magnitude falls below ``pivot_rtol * ||a||_F``; the error
        carries the pivot index.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"solve needs a square matrix, got {a.shape}")
    b = np.asarray(b, dtype=float)
    b2 = b.reshape(a.shape[0], -1) if b.ndim == 1 else b
    if b2.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs rows {b2.shape[0]} != matrix rows {a.shape[0]}")
    lu, perm, _ = _lu_factor(a, pivot_rtol)
    n = a.shape[0]
    x = b2[perm].astype(float).copy()
    for k in range(n):                      # forward substitution (unit lower)
        x[k + 1:] -= np.outer(lu[k + 1:, k], x[k])
    for k in range(n - 1, -1, -1):          # back substitution
        x[k] /= lu[k, k]
        x[:k] -= np.outer(lu[:k, k], x[k])
    return x.reshape(b.shape) if b.ndim == 1 else x


def invert(a, pivot_rtol: float = PIVOT_RTOL) -> np.ndarray:
    """Matrix inverse via the same pivoted elimination as :func:`solve`."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"invert needs a square matrix, got {a.shape}")
    return solve(a, np.eye(a.shape[0]), pivot_rtol=pivot_rtol)


def det(a, pivot_rtol: float = 0.0) -> float:
    """Determinant from the LU factorization (0.0 when elimination breaks down)."""
    a = as_matrix(a)
    try:
        lu, _, swaps = _lu_factor(a, pivot_rtol if pivot_rtol > 0 else 1e-300)
    except SingularMatrix:
        return 0.0
    sign = -1.0 if swaps % 2 else 1.0
    return float(sign * np.prod(np.diag(lu)))


def kron(a, b) -> np.ndarray:
    """Kronecker product with block structure a[i,j] * b."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def vec(a) -> np.ndarray:
    """Column-stacking vectorization (so vec(AXB) = kron(B.T, A) vec(X))."""
    return np.asarray(a, dtype=float).reshape(-1, order="F")


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != rows * cols:
        raise DimensionMismatch(f"cannot reshape length {v.size} to {rows}x{cols}")
    return v.reshape(rows, cols, order="F")


def eigvals(a) -> np.ndarray:
    """Eigenvalues of a square matrix as a complex array.

    Delegated to numpy (LAPACK) — eigenvalues serve only spectra diagnostics
    such as the completeness checks, never the factorization iterations.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"eigvals needs a square matrix, got {a.shape}")
    return np.linalg.eigvals(a)
