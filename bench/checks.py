"""Correctness checks computed apart from blockpoly.

Every check here uses its own NumPy code: polynomial products by coefficient
convolution, Horner evaluation, right division, a block companion matrix in
first-block-row layout and eigenvalue matching. A check returns a list of
``(label, relative_error, tolerance)`` triples; an output passes when every
error is within its tolerance.

Coefficient lists are descending and monic, ``[I, A_1, ..., A_l]``; factor
lists are rightmost-first, as blockpoly stores them.
"""

from __future__ import annotations

import numpy as np

#: Residual tolerance on factors: blockpoly's verify and deflation gate.
RESIDUAL_RTOL = 1e-8

#: Residual tolerance on solvents from the transforms: blockpoly's solvent gate
#: (``transforms.SOLVENT_GATE``).
SOLVENT_RTOL = 1e-6

#: Reconstruction tolerance: the chain multiplied back against the input.
RECONSTRUCT_RTOL = 1e-8

#: Latent roots against the spectra of factors or solvents, relative to the
#: largest root modulus. Used where no generating factor is known: the
#: eigenvalues of non-normal 16x16 factors are too ill-conditioned for it
#: (on grid input m=16 l=4 s=3 the companion's own eigenvalues sit 1.8e-4
#: from the generator's).
SPECTRUM_RTOL = 1e-6

#: Computed factor against the factor that generated the input. A chain
#: polished by Newton meets it on every grid input (worst 9.2e-6).
FACTOR_RTOL = 1e-4

#: Closed-loop transfer matrix against its diagonal target.
CLOSED_LOOP_RTOL = 1e-6


def _fro(a) -> float:
    return float(np.linalg.norm(a))


def coeff_scale(coeffs) -> float:
    return max(1.0, max(_fro(c) for c in coeffs))


def poly_mul(a, b):
    """Coefficients of A(λ)B(λ) by convolution of descending coefficient lists."""
    out = [np.zeros_like(a[0]) for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai @ bj
    return out


def chain_product(factors):
    """(λI - Q_l) ... (λI - Q_1) for a rightmost-first factor list."""
    m = factors[0].shape[0]
    eye = np.eye(m)
    coeffs = [eye]
    for q in factors:
        coeffs = poly_mul([eye, -q], coeffs)
    return coeffs


def eval_right(coeffs, x):
    """Σ A_i X^{l-i} by Horner nesting from the right."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc @ x + c
    return acc


def eval_left(coeffs, x):
    """Σ X^{l-i} A_i by Horner nesting from the left."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = x @ acc + c
    return acc


def eval_at(coeffs, lam):
    """A(λ) at a complex scalar λ."""
    acc = np.asarray(coeffs[0], dtype=complex)
    for c in coeffs[1:]:
        acc = acc * lam + c
    return acc


def divide_right(coeffs, x):
    """Quotient Q of A(λ) = Q(λ)(λI - X) + A_R(X)."""
    quotient = [coeffs[0]]
    for c in coeffs[1:-1]:
        quotient.append(c + quotient[-1] @ x)
    return quotient


def latent_roots(coeffs):
    """Eigenvalues of the first-block-row companion matrix of a monic A(λ)."""
    m = coeffs[0].shape[0]
    l = len(coeffs) - 1
    c = np.zeros((m * l, m * l))
    c[:m, :] = -np.hstack(coeffs[1:])
    c[m:, :-m] = np.eye(m * (l - 1))
    return np.linalg.eigvals(c)


def match_spectra(a, b) -> float:
    """Largest distance in a greedy closest-pair matching of two multisets."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        return float("inf")
    dist = np.abs(a[:, None] - b[None, :])
    worst = 0.0
    for _ in range(a.size):
        i, j = np.unravel_index(int(np.argmin(dist)), dist.shape)
        worst = max(worst, float(dist[i, j]))
        dist[i, :] = np.inf
        dist[:, j] = np.inf
    return worst


def _residual(coeffs, x, side):
    ev = eval_right if side == "right" else eval_left
    return _fro(ev(coeffs, x)) / max(1.0, _fro(coeffs[-1]))


def check_chain(coeffs, factors, roots, reference=None):
    """A factor chain against the polynomial it factorizes.

    Multiplies the chain back and evaluates each factor on the polynomial
    that remains after dividing out the factors to its right. When
    ``reference`` holds the generating factors it compares factor by factor;
    otherwise it matches the union of factor spectra with the latent roots.
    """
    errors = []
    if len(factors) != len(coeffs) - 1:
        return [("factor count", float("inf"), 0.0)]
    product = chain_product(factors)
    recon = max(_fro(p - c) for p, c in zip(product, coeffs)) / coeff_scale(coeffs)
    errors.append(("reconstruction", recon, RECONSTRUCT_RTOL))
    stage = list(coeffs)
    for k, f in enumerate(factors):
        errors.append((f"factor {k} residual", _residual(stage, f, "right"), RESIDUAL_RTOL))
        if len(stage) > 2:
            stage = divide_right(stage, f)
    if reference is not None:
        for k, (f, g) in enumerate(zip(factors, reference)):
            errors.append((f"factor {k} vs generator", _fro(f - g) / _fro(g), FACTOR_RTOL))
        return errors
    spectra = np.concatenate([np.linalg.eigvals(f) for f in factors])
    root_scale = max(1.0, float(np.max(np.abs(roots))))
    errors.append(("spectrum", match_spectra(roots, spectra) / root_scale, SPECTRUM_RTOL))
    return errors


def check_solvent_sets(coeffs, right, left, roots):
    """Complete right and left solvent sets against the polynomial.

    R_i and L_i must share a spectrum, and the union over i must be the
    latent roots.
    """
    l = len(coeffs) - 1
    if len(right) != l or len(left) != l:
        return [("solvent count", float("inf"), 0.0)]
    errors = []
    root_scale = max(1.0, float(np.max(np.abs(roots))))
    for i, (r, x) in enumerate(zip(right, left)):
        errors.append((f"right solvent {i} residual", _residual(coeffs, r, "right"), SOLVENT_RTOL))
        errors.append((f"left solvent {i} residual", _residual(coeffs, x, "left"), SOLVENT_RTOL))
        pair = match_spectra(np.linalg.eigvals(r), np.linalg.eigvals(x))
        errors.append((f"solvent pair {i} spectrum", pair / root_scale, SPECTRUM_RTOL))
    union = np.concatenate([np.linalg.eigvals(r) for r in right])
    errors.append(("solvent spectrum", match_spectra(roots, union) / root_scale, SPECTRUM_RTOL))
    return errors


def check_solvent(coeffs, x, reference):
    """A right solvent against the factor it should converge to."""
    return [
        ("solvent residual", _residual(coeffs, x, "right"), RESIDUAL_RTOL),
        ("solvent vs generator", _fro(x - reference) / _fro(reference), FACTOR_RTOL),
    ]


def check_closed_loop(numerator, dd_coeffs, f, modes, lams):
    """N(λ) D_d(λ)^{-1} F against Π (λI - J_i)^{-1} at each λ.

    ``numerator`` is ascending (N_0 first), ``dd_coeffs`` descending monic.
    The closed loop must be diagonal and equal to its target.
    """
    errors = []
    m = f.shape[0]
    num_desc = list(reversed(numerator))
    offdiag = ~np.eye(m, dtype=bool)
    for lam in lams:
        h = eval_at(num_desc, lam) @ np.linalg.solve(eval_at(dd_coeffs, lam), f)
        target = np.eye(m, dtype=complex)
        for j in modes:
            target = target @ np.linalg.inv(lam * np.eye(m) - j)
        scale = _fro(target)
        errors.append((f"closed loop diagonal at {lam:.3g}",
                       float(np.linalg.norm(h[offdiag])) / scale, CLOSED_LOOP_RTOL))
        errors.append((f"closed loop at {lam:.3g}", _fro(h - target) / scale, CLOSED_LOOP_RTOL))
    return errors


def passed(errors) -> bool:
    return all(err <= tol for _, err, tol in errors)
