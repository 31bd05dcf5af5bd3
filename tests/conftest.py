"""Shared fixtures and generators for the blockpoly test suite."""

import numpy as np
import pytest

from blockpoly.io import load_mfd, load_polynomial
from blockpoly.polynomial import SpectralFactorChain, reconstruct

from inputs import fixture_path


@pytest.fixture
def example1():
    return load_polynomial(fixture_path("example1.json"))


@pytest.fixture
def example2():
    return load_polynomial(fixture_path("example2.json"))


@pytest.fixture
def example3():
    return load_polynomial(fixture_path("example3.json"))


@pytest.fixture
def example4():
    return load_polynomial(fixture_path("example4.json"))


@pytest.fixture
def gas_turbine():
    return load_mfd(fixture_path("gas_turbine.json"))


def singular_a1():
    """(λI - diag(-6, 1))(λI - diag(6, 7)), whose A_1 = diag(0, -8) stops Q.D."""
    p = reconstruct(SpectralFactorChain([np.diag([6.0, 7.0]), np.diag([-6.0, 1.0])]))
    assert np.array_equal(p.coeffs[1], np.diag([0.0, -8.0]))
    return p


def spectrum_pair_error(a, b) -> float:
    """Max distance between two eigenvalue multisets after sorting."""
    a = np.sort_complex(np.asarray(a, dtype=complex))
    b = np.sort_complex(np.asarray(b, dtype=complex))
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def scalar_with_separated_roots(rng, max_degree: int = 5):
    """Random monic scalar polynomial with well-separated integer roots.

    Root moduli are drawn from a geometric ladder (ratio 1.5) so every
    pair is separated; sign patterns that zero out an interior coefficient
    are rejected (the Q.D. initialization needs them nonsingular).
    """
    ladder = [1, 2, 3, 5, 8, 12, 18, 27]
    while True:
        d = int(rng.integers(2, max_degree + 1))
        mods = rng.choice(ladder, size=d, replace=False)
        roots = [float(m * rng.choice([-1.0, 1.0])) for m in mods]
        coeffs = np.poly(roots)
        if all(abs(c) > 1e-9 for c in coeffs):
            return roots, coeffs
