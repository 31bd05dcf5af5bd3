import numpy as np
import pytest

from blockpoly import linalg, polynomial, transforms
from blockpoly.errors import (
    DeflationResidualLarge,
    DimensionMismatch,
    IncompleteSet,
    InputNotSolvent,
    NotMonic,
    SingularSylvester,
    SolventResidualLarge,
    SpectrumOverlap,
)
from blockpoly.pipeline import full_factorize, verify
from blockpoly.polynomial import (
    MatrixPolynomial,
    SolventSet,
    SpectralFactorChain,
    reconstruct,
    residual_left,
    residual_right,
)
from blockpoly.transforms import (
    SOLVENT_GATE,
    _rank_check,
    chain_to_left_solvents,
    chain_to_right_solvents,
    deflate_right,
    left_solvents_to_chain,
    right_solvents_to_chain,
    right_to_left_solvent,
)

from conftest import spectrum_pair_error
from inputs import random_chain, scalar_polynomial


def test_right_to_left_linear():
    c = np.random.default_rng(0).standard_normal((2, 2))
    p = MatrixPolynomial([np.eye(2), -c])
    left = right_to_left_solvent(p, c)[0]
    assert np.allclose(left, c)


def test_right_to_left_scalar_identity():
    p = scalar_polynomial([1.0, -3.0, 2.0])
    left = right_to_left_solvent(p, [[2.0]])[0]
    assert left[0, 0] == pytest.approx(2.0)


def test_right_to_left_postcondition():
    rng = np.random.default_rng(1)
    chain = random_chain(2, 3, rng)
    p = reconstruct(chain)
    left = right_to_left_solvent(p, chain.factors[0])[0]
    assert residual_left(p, left) <= 1e-6
    assert (
        spectrum_pair_error(
            np.linalg.eigvals(left), np.linalg.eigvals(chain.factors[0])
        )
        < 1e-8
    )


def test_right_to_left_gate():
    rng = np.random.default_rng(2)
    chain = random_chain(2, 2, rng)
    p = reconstruct(chain)
    with pytest.raises(InputNotSolvent):
        right_to_left_solvent(p, chain.factors[0] + 1.0)


def test_right_to_left_double_root():
    # (λ - 1)²: the quotient λ - 1 vanishes at R = 1, so Q cannot be solved for.
    p = scalar_polynomial([1.0, -2.0, 1.0])
    with pytest.raises(SingularSylvester, match=r"pivot 0 has magnitude 0\.000e\+00"):
        right_to_left_solvent(p, [[1.0]])


def test_right_solvents_to_chain_trivial():
    r = np.random.default_rng(3).standard_normal((2, 2))
    p = MatrixPolynomial([np.eye(2), -r])
    chain = right_solvents_to_chain(p, SolventSet("right", [r]))
    assert np.allclose(chain.factors[0], r)


def test_right_solvents_to_chain_scalar():
    p = scalar_polynomial([1.0, -3.0, 2.0])
    chain = right_solvents_to_chain(p, SolventSet("right", [[[2.0]], [[1.0]]]))
    got = sorted(f[0, 0] for f in chain.factors)
    assert np.allclose(got, [1.0, 2.0])


def test_right_solvents_to_chain_requires_complete_count():
    p = scalar_polynomial([1.0, -3.0, 2.0])
    with pytest.raises(IncompleteSet):
        right_solvents_to_chain(p, SolventSet("right", [[[2.0]]]))


def test_right_solvents_to_chain_rejects_solvents_of_another_order():
    p = scalar_polynomial([1.0, -3.0, 2.0])
    with pytest.raises(DimensionMismatch,
                       match="^solvents have order 2, the polynomial has order 1$"):
        right_solvents_to_chain(p, SolventSet("right", [np.eye(2), 2 * np.eye(2)]))


def test_chain_to_right_solvents_orientation():
    rng = np.random.default_rng(4)
    chain = random_chain(2, 3, rng)
    p = reconstruct(chain)
    s = chain_to_right_solvents(p, chain)
    # every output is a right solvent
    for r in s.solvents:
        assert residual_right(p, r) <= 1e-6
    # last output is the rightmost factor itself (its transformer is I)
    assert np.allclose(s.solvents[-1], chain.factors[0])
    # first output carries the leftmost factor's spectrum
    assert (
        spectrum_pair_error(
            np.linalg.eigvals(s.solvents[0]), np.linalg.eigvals(chain.factors[-1])
        )
        < 1e-6
    )


def test_chain_to_left_solvents_orientation():
    rng = np.random.default_rng(5)
    chain = random_chain(2, 3, rng)
    p = reconstruct(chain)
    s = chain_to_left_solvents(p, chain)
    for x in s.solvents:
        assert residual_left(p, x) <= 1e-6
    # output i pairs in spectrum with the right set's output i
    right = chain_to_right_solvents(p, chain)
    for r, x in zip(right.solvents, s.solvents):
        assert (
            spectrum_pair_error(np.linalg.eigvals(r), np.linalg.eigvals(x)) < 1e-6
        )


def test_chain_transforms_reject_overlapping_spectra():
    q = np.diag([2.0, 3.0])
    chain = SpectralFactorChain([q, q])
    p = reconstruct(chain)
    with pytest.raises(SpectrumOverlap):
        chain_to_right_solvents(p, chain)


def test_rank_check_is_scale_invariant():
    assert _rank_check(np.eye(32))
    assert _rank_check(1e-8 * np.eye(32))
    assert not _rank_check(np.diag([1.0, 1e-11]))


def test_chain_to_solvents_order_8_degree_3():
    # Step 0's P is of full rank (condition number 7.8e4), but its |det| is
    # far below ||P||_F^m: the rank test must not depend on that scale.
    chain = random_chain(8, 3, np.random.default_rng(830))
    p = reconstruct(chain)
    right = chain_to_right_solvents(p, chain)
    left = chain_to_left_solvents(p, chain)
    assert max(residual_right(p, r) for r in right.solvents) <= SOLVENT_GATE
    assert max(residual_left(p, x) for x in left.solvents) <= SOLVENT_GATE


def test_chain_to_right_solvents_gates_each_solvent():
    # Step 0's P has condition number 2.0e6 here and its solvent comes back
    # with residual 2.7e-3: the step must fail rather than return it.
    chain = random_chain(8, 3, np.random.default_rng(1317))
    p = reconstruct(chain)
    with pytest.raises(SolventResidualLarge) as exc:
        chain_to_right_solvents(p, chain)
    assert exc.value.index == 0
    assert exc.value.residual > SOLVENT_GATE


def test_roundtrip_right():
    rng = np.random.default_rng(6)
    chain = random_chain(2, 3, rng)
    p = reconstruct(chain)
    s = chain_to_right_solvents(p, chain)
    back = right_solvents_to_chain(p, s)
    recon = reconstruct(back)
    err = max(
        linalg.frob_norm(a - b) for a, b in zip(recon.coeffs, p.coeffs)
    ) / p.coefficient_scale()
    assert err < 1e-8


def test_roundtrip_left():
    rng = np.random.default_rng(7)
    chain = random_chain(2, 3, rng)
    p = reconstruct(chain)
    s = chain_to_left_solvents(p, chain)
    back = left_solvents_to_chain(p, s)
    recon = reconstruct(back)
    err = max(
        linalg.frob_norm(a - b) for a, b in zip(recon.coeffs, p.coeffs)
    ) / p.coefficient_scale()
    assert err < 1e-8


def test_similarity_preserves_spectra():
    rng = np.random.default_rng(8)
    chain = random_chain(3, 2, rng)
    p = reconstruct(chain)
    s = chain_to_right_solvents(p, chain)
    union_chain = np.concatenate([np.linalg.eigvals(q) for q in chain.factors])
    union_set = np.concatenate([np.linalg.eigvals(r) for r in s.solvents])
    assert spectrum_pair_error(union_chain, union_set) < 1e-8


def test_deflate_right_two_factor():
    rng = np.random.default_rng(9)
    c = rng.standard_normal((2, 2))
    d = rng.standard_normal((2, 2))
    p = MatrixPolynomial([np.eye(2), -(c + d), d @ c])
    q, residual = deflate_right(p, c)
    assert q.l == 1
    assert np.allclose(q.coeffs[1], -d)
    assert residual < 1e-14


def test_deflate_right_linear_gives_identity():
    c = np.random.default_rng(10).standard_normal((2, 2))
    p = MatrixPolynomial([np.eye(2), -c])
    q, residual = deflate_right(p, c)
    assert q.l == 0
    assert np.allclose(q.coeffs[0], np.eye(2))
    assert residual == 0.0


def test_deflate_right_divides_once(monkeypatch):
    calls = []
    divide, evaluate = transforms.synthetic_div_right, polynomial.eval_right
    monkeypatch.setattr(transforms, "synthetic_div_right",
                        lambda *args: calls.append("div") or divide(*args))
    monkeypatch.setattr(polynomial, "eval_right",
                        lambda *args: calls.append("eval") or evaluate(*args))
    chain = random_chain(2, 2, np.random.default_rng(12))
    deflate_right(reconstruct(chain), chain.factors[0])
    assert calls == ["div"]


def test_chain_to_left_solvents_checks_the_chain_once(monkeypatch):
    calls = []
    check = transforms._check_disjoint
    monkeypatch.setattr(transforms, "_check_disjoint",
                        lambda *args: calls.append("disjoint") or check(*args))
    chain = random_chain(2, 3, np.random.default_rng(13))
    chain_to_left_solvents(reconstruct(chain), chain)
    assert calls == ["disjoint"]


def test_left_conversion_remainders_are_verifys_factor_residuals(example1, example4,
                                                                monkeypatch):
    # The left conversion divides p on the right, rightmost factor first, as
    # verify does, and measures each remainder against the stage it divides.
    cases = [(p, full_factorize(p)[0]) for p in (example1, example4)]
    for m in (4, 8, 16):
        for l in (2, 3, 4):
            chain = random_chain(m, l, np.random.default_rng(1000 * m + 10 * l))
            cases.append((reconstruct(chain), chain))
    expected = [verify(p, chain=chain).per_factor_residuals[:-1] for p, chain in cases]
    remainders, divide = [], transforms.deflate_right
    monkeypatch.setattr(transforms, "deflate_right",
                        lambda *args: remainders.append(divide(*args)) or remainders[-1])
    for (p, chain), want in zip(cases, expected):
        remainders.clear()
        chain_to_left_solvents(p, chain)
        assert [rem for _, rem in remainders] == want


def test_right_to_left_evaluates_nothing(monkeypatch):
    calls = []
    for name in ("eval_left", "eval_right"):
        evaluate = getattr(polynomial, name)
        monkeypatch.setattr(polynomial, name, lambda *args, name=name, evaluate=evaluate:
                            calls.append(name) or evaluate(*args))
    chain = random_chain(2, 3, np.random.default_rng(14))
    right_to_left_solvent(reconstruct(chain), chain.factors[0])
    assert calls == []


def test_example1_printed_sets(example1, monkeypatch):
    s1 = np.array([[3.0, 2.0], [-90.0, -15.0]])
    s2 = np.array([[-8.2908, 0.7118], [-16.84, 8.1248]])
    s3 = np.array([[32.4434, -3.5284], [286.6226, -31.2773]])
    chain = SpectralFactorChain([s1, s2, s3])
    monkeypatch.setattr(transforms, "SOLVENT_GATE", 1e-2)
    right = chain_to_right_solvents(example1, chain)
    left = chain_to_left_solvents(example1, chain)
    r_printed = [
        np.array([[0.3637, -4.5495], [-0.8183, 0.8024]]),
        np.array([[7.2354, 1.4024], [1.2995, -7.4015]]),
        s1,
    ]
    l_printed = [
        np.array([[32.443, -3.5284], [286.622, -31.2773]]),
        np.array([[25.1323, -2.8370], [204.5931, -25.2983]]),
        np.array([[21.0123, -4.6531], [178.0910, -33.0123]]),
    ]
    for got, want in zip(right.solvents, r_printed):
        assert linalg.frob_norm(got - want) / linalg.frob_norm(want) < 2e-2
    for got, want in zip(left.solvents, l_printed):
        assert linalg.frob_norm(got - want) / linalg.frob_norm(want) < 2e-2


@pytest.mark.parametrize("convert", [chain_to_right_solvents, chain_to_left_solvents])
@pytest.mark.parametrize("length", [2, 4])
def test_chain_to_solvents_rejects_a_chain_of_the_wrong_length(example1, convert, length):
    chain, _, _ = full_factorize(example1)
    bogus = np.full((1, 2, 2), 99.0)
    factors = np.concatenate([bogus, chain.factors])[-length:]
    with pytest.raises(DimensionMismatch,
                       match=f"^the chain has {length} factors, the polynomial has degree 3$"):
        convert(example1, SpectralFactorChain(factors))


def test_chain_to_solvents_honour_a_gate_below_1e_6(example1, monkeypatch):
    # Every quantity below was accepted while the gate was floored at 1e-6.
    chain, _, _ = full_factorize(example1)
    # Each remainder is measured against the stage it divides: step 1's
    # reads 1.08e-10 so, and 2.76e-11 against p's scale.
    monkeypatch.setattr(transforms, "SOLVENT_GATE", 1e-10)
    with pytest.raises(DeflationResidualLarge) as exc:
        chain_to_right_solvents(example1, chain)
    assert exc.value.index == 1
    assert 1e-10 < exc.value.residual < 2e-10
    monkeypatch.setattr(transforms, "SOLVENT_GATE", 2e-10)
    with pytest.raises(SolventResidualLarge) as exc:
        chain_to_right_solvents(example1, chain)
    assert exc.value.index == 1
    assert 2e-10 < exc.value.residual < 1e-9
    monkeypatch.setattr(transforms, "SOLVENT_GATE", 1e-14)
    for convert in (chain_to_right_solvents, chain_to_left_solvents):
        with pytest.raises((DeflationResidualLarge, SolventResidualLarge)):
            convert(example1, chain)


def _twin_inputs(case):
    """A polynomial with A_0 = I + 2e-12 E_01, and each side of one
    conversion with its input."""
    chain = SpectralFactorChain([np.diag([1.0, 2.0]), np.diag([1.0, 2.0])])
    coeffs = np.array(reconstruct(chain).coeffs)
    coeffs[0, 0, 1] += 2e-12
    p = MatrixPolynomial(coeffs)
    if case == "overlapping chain":
        return p, [(chain_to_right_solvents, chain), (chain_to_left_solvents, chain)]
    solvents = chain.factors[::-1] if case == "wrong side" else chain.factors[:1]
    right, left = SolventSet("right", solvents), SolventSet("left", solvents)
    if case == "wrong side":
        right, left = left, right
    return p, [(right_solvents_to_chain, right), (left_solvents_to_chain, left)]


@pytest.mark.parametrize("case", ["overlapping chain", "short set", "wrong side"])
def test_left_conversions_fail_like_their_right_twins(case):
    # Monic-ness is checked first on both sides, before the chain's spectra
    # or the set's side and count.
    p, sides = _twin_inputs(case)
    for convert, given in sides:
        with pytest.raises(NotMonic):
            convert(p, given)
