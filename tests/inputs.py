"""Seeded inputs that the suite and ``tests/outcomes.py`` share.

Standard library and NumPy only, so that a script can build the same inputs
without pytest.  Not collected by pytest.
"""

import os

import numpy as np

from blockpoly.polynomial import MatrixPolynomial, SpectralFactorChain, reconstruct

FIXTURES = os.path.join(
    os.path.dirname(__file__), "..", "src", "blockpoly", "fixtures"
)


def fixture_path(name: str) -> str:
    return os.path.abspath(os.path.join(FIXTURES, name))


def scalar_polynomial(coeffs) -> MatrixPolynomial:
    """An m=1 polynomial from scalar coefficients, leading one first."""
    return MatrixPolynomial([np.array([[float(c)]]) for c in coeffs])


def random_chain(m: int, l: int, rng, gap: float = 2.0, top: float = 8.0):
    """A chain whose factor spectra sit in disjoint modulus bands.

    factors[0] is the dominant (rightmost) block; consecutive bands are
    separated by at least ``gap`` in modulus, which is what the Q.D.
    dominance theory requires.
    """
    factors = []
    for _ in range(l):
        lo, hi = top / 1.2, top
        eigs = rng.uniform(lo, hi, size=m) * rng.choice([-1.0, 1.0], size=m)
        v = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
        factors.append(v @ np.diag(eigs) @ np.linalg.inv(v))
        top = lo / gap
    return SpectralFactorChain(factors)


#: A singular A_l (three ways), a Q.D. breakdown at the first sweep, and a
#: polynomial with no real root, whose plain Horner iterates overflow.
HARD_CASES = {
    "a_last_zero": MatrixPolynomial(
        [np.eye(2), np.array([[1.0, 2.0], [0.0, 3.0]]), np.zeros((2, 2))]),
    "a_last_rank1": MatrixPolynomial(
        [np.eye(2), np.array([[1.0, 2.0], [0.0, 3.0]]), np.outer([0.1, 0.3], [0.7, 0.2])]),
    # (λI - diag(0, 1))(λI - diag(2, 3)), whose A_2 = diag(0, 3)
    "a_last_diag": reconstruct(SpectralFactorChain([np.diag([2.0, 3.0]), np.diag([0.0, 1.0])])),
    "qd_pivot": scalar_polynomial([1.0, -3.0, -3.0, -3.0]),
    "no_real_root": scalar_polynomial([1.0, -1.0, 3.0, 0.0, 3.0]),
}


def corpus(n):
    """The first ``n`` seeded random monic polynomials, m in 1..3, l in 1..4:
    integer, scaled Gaussian and product-of-real-factors coefficients in turn."""
    rng = np.random.default_rng(12345)
    draws = {}
    for i in range(n):
        m, l = rng.integers(1, 4), rng.integers(1, 5)
        if i % 3 == 0:
            draws[f"draw{i}"] = MatrixPolynomial([np.eye(m), *rng.integers(-5, 6, (l, m, m))])
        elif i % 3 == 1:
            coeffs = rng.standard_normal((l, m, m)) * 10 ** rng.uniform(-3, 3)
            draws[f"draw{i}"] = MatrixPolynomial([np.eye(m), *coeffs])
        else:
            factors = [rng.standard_normal((m, m)) + rng.uniform(-3, 3) * np.eye(m)
                       for _ in range(l)]
            draws[f"draw{i}"] = reconstruct(SpectralFactorChain(factors))
    return draws
