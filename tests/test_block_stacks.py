"""Stack-based block routines against their list-based references.

Coefficients, chains and solvent sets are (k, m, m) arrays, and the routines
below work on the whole stack.  The references are the earlier block-by-block
versions, loop for loop, so these property tests check that the stacked code
gives the same arrays bit for bit and the same ``SpectrumOverlap`` message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blockpoly import linalg, transforms
from blockpoly.errors import BlockPolyError, RankDeficientTransformer, SpectrumOverlap
from blockpoly.polynomial import (
    MatrixPolynomial,
    SolventSet,
    SpectralFactorChain,
    block_vandermonde,
    companion_right,
    is_complete_set,
    reconstruct,
)

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)

#: Entries from a few small integers as well as any float in [-2, 2], so that
#: blocks often share eigenvalues (exactly, as with two singular blocks).
ENTRY = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0]), st.floats(-2.0, 2.0))


@st.composite
def block_lists(draw):
    """k blocks of order m, m in 1..5 and k in 1..4, as a list of 2-D arrays."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    return [draw(hnp.arrays(np.float64, (m, m), elements=ENTRY)) for _ in range(k)]


def ref_reconstruct(factors):
    m = factors[0].shape[0]
    coeffs = [np.eye(m), -factors[0]]
    for q in factors[1:]:
        new = [coeffs[0]]
        for k in range(1, len(coeffs)):
            new.append(coeffs[k] - q @ coeffs[k - 1])
        new.append(-q @ coeffs[-1])
        coeffs = new
    return coeffs


def ref_companion_right(coeffs):
    m, l = coeffs[0].shape[0], len(coeffs) - 1
    c = np.zeros((m * l, m * l))
    for i in range(l - 1):
        c[i * m:(i + 1) * m, (i + 1) * m:(i + 2) * m] = np.eye(m)
    for j in range(l):
        c[(l - 1) * m:, j * m:(j + 1) * m] = -coeffs[l - j]
    return c


def ref_block_vandermonde(solvents, side):
    if side == "left":
        return ref_block_vandermonde([x.T for x in solvents], "right").T
    l, m = len(solvents), solvents[0].shape[0]
    v = np.zeros((m * l, m * l))
    for j, x in enumerate(solvents):
        power = np.eye(m)
        for i in range(l):
            v[i * m:(i + 1) * m, j * m:(j + 1) * m] = power
            power = power @ x
    return v


def ref_right_solvents_to_chain(solvents):
    l, m = len(solvents), solvents[0].shape[0]
    n_mats = [np.eye(m) for _ in range(l)]
    factors = []
    for k in range(l):
        nk = n_mats[k]
        if not transforms._rank_check(nk):
            raise RankDeficientTransformer(k)
        qk = nk @ solvents[k] @ linalg.invert(nk)
        factors.append(qk)
        for j in range(k + 1, l):
            n_mats[j] = n_mats[j] @ solvents[j] - qk @ n_mats[j]
    return factors


def ref_pairwise_gaps(spectra, bound):
    """The first (i, j, gap) with gap <= bound, from the pairwise loop."""
    for i in range(len(spectra)):
        for j in range(i + 1, len(spectra)):
            d = np.min(np.abs(spectra[i][:, None] - spectra[j][None, :]))
            if d <= bound:
                return i, j, d
    return None


def ref_check_disjoint(factors, tol=1e-6):
    spectra = [np.linalg.eigvals(f) for f in factors]
    scale = max(1.0, max(float(np.max(np.abs(s))) for s in spectra))
    overlap = ref_pairwise_gaps(spectra, tol * scale)
    if overlap is not None:
        i, j, d = overlap
        raise SpectrumOverlap(f"factors {i} and {j} share spectrum (min gap {d:.3e})")


def _outcome(fn, *args):
    """The result, or the type and message of the blockpoly error raised."""
    try:
        return fn(*args)
    except BlockPolyError as exc:
        return type(exc), str(exc)


def _assert_same(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        assert np.array_equal(np.asarray(got), np.asarray(want))


@SETTINGS
@given(block_lists())
def test_reconstruct_matches_reference(factors):
    got = reconstruct(SpectralFactorChain(factors)).coeffs
    assert np.array_equal(got, np.array(ref_reconstruct(factors)))


@SETTINGS
@given(block_lists())
def test_companion_matches_reference(blocks):
    coeffs = [np.eye(blocks[0].shape[0])] + blocks
    got = companion_right(MatrixPolynomial(coeffs))
    assert np.array_equal(got, ref_companion_right(coeffs))


@SETTINGS
@given(block_lists(), st.sampled_from(["right", "left"]))
def test_block_vandermonde_matches_reference(solvents, side):
    got = block_vandermonde(SolventSet(side, solvents))
    assert np.array_equal(got, ref_block_vandermonde(solvents, side))


@SETTINGS
@given(block_lists())
def test_right_solvents_to_chain_matches_reference(solvents):
    p = MatrixPolynomial([np.eye(solvents[0].shape[0])] * (len(solvents) + 1))

    def stacked(s):
        return transforms.right_solvents_to_chain(p, SolventSet("right", s)).factors

    _assert_same(_outcome(stacked, solvents), _outcome(ref_right_solvents_to_chain, solvents))


@SETTINGS
@given(block_lists())
def test_check_disjoint_matches_reference(factors):
    got = _outcome(transforms._check_disjoint, SpectralFactorChain(factors))
    want = _outcome(ref_check_disjoint, factors)
    assert got == want


@SETTINGS
@given(block_lists())
def test_complete_set_disjointness_matches_reference(solvents):
    m, l = solvents[0].shape[0], len(solvents)
    p = reconstruct(SpectralFactorChain([3.0 * (j + 1) * np.eye(m) for j in range(l)]))
    companion_eigs = np.linalg.eigvals(companion_right(p))
    bound = 1e-6 * max(1.0, float(np.max(np.abs(companion_eigs))))
    spectra = [np.linalg.eigvals(x) for x in solvents]
    report = is_complete_set(p, SolventSet("right", solvents))
    assert report.pairwise_disjoint == (ref_pairwise_gaps(spectra, bound) is None)


def test_overlap_message_names_the_first_pair():
    e = np.eye(2)
    with pytest.raises(SpectrumOverlap, match=r"^factors 0 and 2 share spectrum \(min gap 0.000e\+00\)$"):
        transforms._check_disjoint(SpectralFactorChain([e, 2 * e, e, 2 * e]))
