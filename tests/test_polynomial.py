import ast
import re

import numpy as np
import pytest

from blockpoly import linalg, polynomial
from blockpoly.decoupler import MFDSystem, design_decoupling
from blockpoly.errors import DimensionMismatch, NotMonic
from blockpoly.horner import IterConfig, frechet_matrix, newton_horner
from blockpoly.polynomial import (
    MONIC_ATOL,
    MatrixPolynomial,
    SolventSet,
    SpectralFactorChain,
    block_vandermonde,
    companion_right,
    eval_left,
    eval_right,
    is_complete_set,
    latent_roots,
    reconstruct,
    residual_left,
    residual_right,
    synthetic_div_left,
    synthetic_div_right,
)
from blockpoly.transforms import right_to_left_solvent

from inputs import scalar_polynomial

RNG = np.random.default_rng(11)


def linear_poly(c):
    return MatrixPolynomial([np.eye(len(c)), -np.asarray(c, dtype=float)])


def test_eval_right_linear_at_root():
    c = RNG.standard_normal((2, 2))
    assert np.allclose(eval_right(linear_poly(c), c), 0.0)


def test_eval_left_linear_at_root():
    c = RNG.standard_normal((2, 2))
    assert np.allclose(eval_left(linear_poly(c), c), 0.0)


def test_eval_scalar_case():
    p = scalar_polynomial([1.0, -3.0, 2.0])
    assert eval_right(p, [[2.0]])[0, 0] == pytest.approx(0.0)
    assert eval_left(p, [[2.0]])[0, 0] == pytest.approx(0.0)


def test_eval_right_example3_base_matrix(example3):
    w = np.array([[-7.1230, -6.3246], [5.9279, 5.1230]])
    # coefficients carry 4 printed digits, so the residual is O(1e-3)
    assert linalg.frob_norm(eval_right(example3, w)) < 2e-3


def test_eval_left_example1_left_solvent(example1):
    l1 = np.array([[32.443, -3.5284], [286.622, -31.2773]])
    rel = linalg.frob_norm(eval_left(example1, l1)) / linalg.frob_norm(
        example1.coeffs[3]
    )
    assert rel < 1e-2


def test_synthetic_div_right_two_factor():
    c = RNG.standard_normal((2, 2))
    d = RNG.standard_normal((2, 2))
    p = MatrixPolynomial([np.eye(2), -(c + d), d @ c])
    q, rem = synthetic_div_right(p, c)
    assert np.allclose(rem, 0.0, atol=1e-12)
    assert np.allclose(q.coeffs[0], np.eye(2))
    assert np.allclose(q.coeffs[1], -d)


def test_synthetic_div_remainder_is_eval():
    # Bit for bit: the iteration driver and the deflation gates take A_R(X)
    # from the remainder in place of a separate evaluation.
    for _ in range(5):
        p = MatrixPolynomial([np.eye(2)] + [RNG.standard_normal((2, 2)) for _ in range(3)])
        x = RNG.standard_normal((2, 2))
        _, rem_r = synthetic_div_right(p, x)
        _, rem_l = synthetic_div_left(p, x)
        assert np.array_equal(rem_r, eval_right(p, x))
        assert np.array_equal(rem_l, eval_left(p, x))


def test_division_identity_at_scalars():
    for _ in range(3):
        p = MatrixPolynomial([np.eye(2)] + [RNG.standard_normal((2, 2)) for _ in range(3)])
        x = RNG.standard_normal((2, 2))
        q, rem = synthetic_div_right(p, x)
        s, rem_l = synthetic_div_left(p, x)
        for lam in RNG.standard_normal(10):
            a_lam = p.eval_scalar(lam)
            q_lam = q.eval_scalar(lam)
            s_lam = s.eval_scalar(lam)
            assert (
                np.linalg.norm(a_lam - (q_lam @ (lam * np.eye(2) - x) + rem)) < 1e-8
            )
            assert (
                np.linalg.norm(a_lam - ((lam * np.eye(2) - x) @ s_lam + rem_l)) < 1e-8
            )


def _leading_coefficients(rng, m):
    """Non-monic A_0: a general, a rank-1, a zero and a scaled identity."""
    u, v = rng.standard_normal((2, m, 1))
    return [rng.standard_normal((m, m)), u @ v.T, np.zeros((m, m)), 3.0 * np.eye(m)]


@pytest.mark.parametrize("m, l", [(1, 1), (2, 1), (2, 3), (3, 2), (4, 4)])
def test_division_of_any_leading_coefficient_reconstructs(m, l):
    # A(λ) = Q(λ)(λI - X) + A_R(X) = (λI - X) S(λ) + A_L(X) for every A_0
    # (the generalized Bézout theorem), with Q and S leading with A_0.
    rng = np.random.default_rng(10 * m + l)
    for a0 in _leading_coefficients(rng, m):
        p = MatrixPolynomial([a0] + list(rng.standard_normal((l, m, m))))
        x = rng.standard_normal((m, m))
        q, rem_r = synthetic_div_right(p, x)
        s, rem_l = synthetic_div_left(p, x)
        assert np.array_equal(rem_r, eval_right(p, x))
        assert np.array_equal(rem_l, eval_left(p, x))
        assert np.array_equal(q.coeffs[0], a0) and np.array_equal(s.coeffs[0], a0)
        right = np.zeros_like(p.coeffs)
        right[:l] += q.coeffs
        right[1:] -= q.coeffs @ x
        right[l] += rem_r
        left = np.zeros_like(p.coeffs)
        left[:l] += s.coeffs
        left[1:] -= x @ s.coeffs
        left[l] += rem_l
        scale = linalg.frob_norms(q.coeffs).max() * (1 + linalg.frob_norm(x))
        for got in (right, left):
            assert linalg.frob_norms(got - p.coeffs).max() <= 1e-14 * max(1.0, scale)


def test_scalar_division_left_right_agree():
    p = scalar_polynomial([1.0, 2.0, -5.0, 1.0])
    x = [[0.7]]
    qr, rr = synthetic_div_right(p, x)
    ql, rl = synthetic_div_left(p, x)
    assert np.allclose(rr, rl)
    for a, b in zip(qr.coeffs, ql.coeffs):
        assert np.allclose(a, b)


def test_companion_scalar():
    p = scalar_polynomial([1.0, -3.0, 2.0])
    assert np.allclose(companion_right(p), [[0.0, 1.0], [-2.0, 3.0]])
    got = np.sort_complex(np.linalg.eigvals(companion_right(p)))
    assert np.allclose(got, [1.0, 2.0])


def test_companion_requires_monic():
    p = MatrixPolynomial([2 * np.eye(2), np.eye(2)])
    with pytest.raises(NotMonic):
        companion_right(p)


@pytest.mark.parametrize("pattern", ["ones", "corner", "diagonal", "signs"])
def test_is_monic_is_the_absolute_entrywise_test(pattern):
    # The same decision as np.allclose(A_0, I, rtol=0, atol=MONIC_ATOL) on
    # either side of MONIC_ATOL, and at MONIC_ATOL itself.
    e = {"ones": np.ones((3, 3)), "corner": np.eye(3, k=-2), "diagonal": np.eye(3),
         "signs": np.random.default_rng(3).choice([-1.0, 1.0], (3, 3))}[pattern]
    decisions = set()
    for t in MONIC_ATOL * np.array([0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0]):
        for a0 in (np.eye(3) + t * e, np.eye(3) - t * e):
            want = bool(np.allclose(a0, np.eye(3), rtol=0, atol=MONIC_ATOL))
            assert MatrixPolynomial([a0, np.zeros((3, 3))]).is_monic == want
            decisions.add(want)
    assert decisions == {True, False}


def test_block_vandermonde_trivial():
    s = SolventSet("right", [RNG.standard_normal((3, 3))])
    assert np.allclose(block_vandermonde(s), np.eye(3))


def test_block_vandermonde_scalar():
    s = SolventSet("right", [[[1.0]], [[2.0]]])
    assert np.allclose(block_vandermonde(s), [[1.0, 1.0], [1.0, 2.0]])


def test_is_complete_set_scalar():
    p = scalar_polynomial([1.0, -3.0, 2.0])
    good = is_complete_set(p, SolventSet("right", [[[1.0]], [[2.0]]]))
    assert good.complete
    bad = is_complete_set(p, SolventSet("right", [[[1.0]], [[1.0]]]))
    assert not bad.pairwise_disjoint
    assert bad.vandermonde_cond > 1e12
    assert not bad.complete


def test_is_complete_set_rejects_solvents_of_another_order():
    p = scalar_polynomial([1.0, -3.0, 2.0])
    with pytest.raises(DimensionMismatch,
                       match="^solvents have order 2, the polynomial has order 1$"):
        is_complete_set(p, SolventSet("right", [np.eye(2), 2 * np.eye(2)]))


def test_reconstruct_single_factor():
    q = RNG.standard_normal((2, 2))
    p = reconstruct(SpectralFactorChain([q]))
    assert np.allclose(p.coeffs[0], np.eye(2))
    assert np.allclose(p.coeffs[1], -q)


def test_reconstruct_two_factor_expansion():
    c = RNG.standard_normal((2, 2))
    d = RNG.standard_normal((2, 2))
    p = reconstruct(SpectralFactorChain([c, d]))  # (λI-D)(λI-C)
    assert np.allclose(p.coeffs[1], -(c + d))
    assert np.allclose(p.coeffs[2], d @ c)


def test_rightmost_factor_is_right_solvent():
    chain = SpectralFactorChain([RNG.standard_normal((2, 2)) for _ in range(3)])
    p = reconstruct(chain)
    assert linalg.frob_norm(eval_right(p, chain.factors[0])) < 1e-10
    assert linalg.frob_norm(eval_left(p, chain.factors[-1])) < 1e-10


def test_latent_roots_trivial():
    p = linear_poly(np.diag([1.0, 2.0]))
    assert np.allclose(np.sort_complex(latent_roots(p)), [1.0, 2.0])


def test_latent_roots_scalar_complex():
    p = scalar_polynomial([1.0, 0.0, 1.0])
    assert np.allclose(np.sort_complex(latent_roots(p)), [-1j, 1j])


def test_latent_roots_union_of_factor_spectra():
    from conftest import spectrum_pair_error
    from inputs import random_chain

    chain = random_chain(2, 3, np.random.default_rng(5))
    union = np.concatenate([np.linalg.eigvals(q) for q in chain.factors])
    got = latent_roots(reconstruct(chain))
    assert spectrum_pair_error(got, union) < 1e-6


def test_latent_roots_example3_repeated(example3):
    w_eigs = np.linalg.eigvals(np.array([[-7.1230, -6.3246], [5.9279, 5.1230]]))
    got = np.sort_complex(latent_roots(example3))
    want = np.sort_complex(np.concatenate([w_eigs, w_eigs]))
    assert np.max(np.abs(got - want)) < 0.1  # 4-digit data, defective eigenvalues


E2 = np.eye(2)


@pytest.mark.parametrize("build", [
    lambda: MatrixPolynomial([E2, [[1, 2], [3]]]),
    lambda: MatrixPolynomial([E2, np.eye(3)]),
    lambda: MatrixPolynomial([np.ones((2, 3))]),
    lambda: MatrixPolynomial(np.ones((2, 2))),
    lambda: MatrixPolynomial([E2, np.full((2, 2), np.nan)]),
    lambda: MatrixPolynomial([]),
    lambda: SpectralFactorChain([E2, [[1, 2], [3]]]),
    lambda: SpectralFactorChain([np.ones((3, 2))]),
    lambda: SpectralFactorChain([np.full((2, 2), np.inf)]),
    lambda: SpectralFactorChain([]),
    lambda: SolventSet("right", [E2, np.eye(3)]),
    lambda: SolventSet("left", [np.ones((2, 3))]),
    lambda: SolventSet("right", [E2, np.full((2, 2), -np.inf)]),
    lambda: SolventSet("right", []),
    lambda: MFDSystem([np.eye(3)], [E2, E2]),
    lambda: MFDSystem([[[1, 2], [3]]], [E2, E2]),
    lambda: MFDSystem([np.full((2, 2), np.nan)], [E2, E2]),
    lambda: MFDSystem([], [E2, E2]),
    lambda: MatrixPolynomial(np.zeros((3, 0, 0))),
    lambda: SpectralFactorChain(np.zeros((2, 0, 0))),
    lambda: SolventSet("right", np.zeros((2, 0, 0))),
    lambda: MFDSystem(np.zeros((1, 0, 0)), np.zeros((2, 0, 0))),
], ids=["poly-ragged", "poly-mixed-order", "poly-non-square", "poly-2d", "poly-nan",
        "poly-empty", "chain-ragged", "chain-non-square", "chain-inf", "chain-empty",
        "solvents-mixed-order", "solvents-non-square", "solvents-inf", "solvents-empty",
        "mfd-mixed-order", "mfd-ragged", "mfd-nan", "mfd-empty", "poly-order-0",
        "chain-order-0", "solvents-order-0", "mfd-order-0"])
def test_block_constructors_raise_dimension_mismatch(build):
    with pytest.raises(DimensionMismatch):
        build()


def test_empty_messages_are_kept():
    # as_blocks decides emptiness for every stack class, with one message
    message = r"^expected a nonempty \(k, m, m\) stack, got shape \(0,\)$"
    for build in (MatrixPolynomial, SpectralFactorChain, lambda a: SolventSet("right", a),
                  lambda a: MFDSystem(a, [E2, E2])):
        with pytest.raises(DimensionMismatch, match=message):
            build([])


@pytest.mark.parametrize("build, field", [
    (lambda a: MatrixPolynomial(a), "coeffs"),
    (lambda a: SpectralFactorChain(a), "factors"),
    (lambda a: SolventSet("left", a), "solvents"),
    (lambda a: MFDSystem(a[:1], a), "numerator"),
    (lambda a: MFDSystem(a[:1], a), "denominator"),
])
def test_blocks_are_read_only_float_stacks(build, field):
    a = np.stack([np.eye(2), np.eye(2)])
    blocks = getattr(build(a), field)
    assert blocks.dtype == np.float64 and blocks.ndim == 3
    with pytest.raises(ValueError):
        blocks[0][0, 0] = 5.0
    a[0, 0, 1] = 7.0                       # the caller's array stays writable
    assert a.flags.writeable


def test_as_blocks_stacks_a_list_of_blocks():
    got = linalg.as_blocks([[[1, 2], [3, 4]], np.eye(2)])
    assert got.dtype == np.float64 and got.shape == (2, 2, 2)
    assert not got.flags.writeable
    assert np.array_equal(got[0], [[1.0, 2.0], [3.0, 4.0]])


def _small_mfd():
    """An MFD of order 2 with numerator degree 0 and denominator degree 2."""
    return MFDSystem([np.eye(2)], [2 * np.eye(2), 3 * np.eye(2), np.eye(2)])


@pytest.mark.parametrize("call", [
    lambda c: MatrixPolynomial([E2, c, E2]),
    lambda c: SpectralFactorChain([c, E2]),
    lambda c: SolventSet("right", [E2, c]),
    lambda c: MFDSystem([c], [E2, E2, E2]),
    lambda c: MFDSystem([E2], [E2, c, E2]),
    lambda c: eval_right(MatrixPolynomial([E2, E2]), c),
    lambda c: eval_left(MatrixPolynomial([E2, E2]), c),
    lambda c: newton_horner(MatrixPolynomial([E2, E2, E2]), IterConfig(x0=c)),
    lambda c: frechet_matrix(MatrixPolynomial([E2, E2, E2]), c),
    lambda c: design_decoupling(_small_mfd(), [c, c]),
], ids=["polynomial", "chain", "solvents", "mfd-numerator", "mfd-denominator",
        "eval-right", "eval-left", "newton-x0", "frechet-x", "decoupling-modes"])
def test_complex_input_raises_dimension_mismatch(call):
    # a float cast would keep only the real part: A_1 = 0 here
    with pytest.raises(DimensionMismatch, match="^entries must be real numbers, got complex128$"):
        call(1j * E2)


def test_x_of_the_wrong_shape_raises():
    p = MatrixPolynomial([E2, E2])
    for call in (eval_right, frechet_matrix):
        with pytest.raises(DimensionMismatch, match=r"^x must be 2x2, got \(3, 3\)$"):
            call(p, np.eye(3))
        with pytest.raises(DimensionMismatch, match=r"^x must be 2x2, got \(2, 3\)$"):
            call(p, np.ones((2, 3)))
        with pytest.raises(DimensionMismatch, match="^expected 2-D matrix, got ndim=1$"):
            call(p, np.ones(2))


def test_solvent_set_side_is_right_or_left():
    with pytest.raises(ValueError, match="^side must be 'right' or 'left'$"):
        SolventSet("up", [E2])


def test_degree_0_polynomial_has_no_right_solvent_to_convert():
    with pytest.raises(DimensionMismatch, match="^cannot divide a degree-0 polynomial$"):
        right_to_left_solvent(MatrixPolynomial([E2]), E2)


#: Each input is checked where it enters, and these see only blocks the
#: package built or checked (the module docstring names them).
UNCHECKED_FUNCTIONS = {"_horner", "_residual", "synthetic_div_right", "synthetic_div_left",
                       "_transpose", "reconstruct"}

#: Calls that check a caller's blocks or X again.
CHECKS = {"as_matrix", "as_blocks", "_square", "MatrixPolynomial", "SpectralFactorChain",
          "SolventSet"}


def test_unchecked_functions_check_nothing_again():
    listed = re.search(r"The unchecked\s+functions (.*?) see only", polynomial.__doc__, re.S)
    assert set(re.findall(r"``(\w+)``", listed.group(1))) == UNCHECKED_FUNCTIONS
    with open(polynomial.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    offenders = []
    for name in sorted(UNCHECKED_FUNCTIONS):
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Call):
                func = node.func
                ident = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if ident in CHECKS:
                    offenders.append(f"{name}:{node.lineno} {ident}")
    assert not offenders, "check called in an unchecked function: " + ", ".join(offenders)


def test_built_stacks_are_read_only():
    p = reconstruct(SpectralFactorChain([E2, 2 * E2]))
    quotient, _ = synthetic_div_right(p, E2)
    for stack in (p.coeffs, quotient.coeffs, synthetic_div_left(p, E2)[0].coeffs):
        assert stack.dtype == np.float64 and not stack.flags.writeable


@pytest.mark.parametrize("call", [
    eval_right, eval_left, residual_right, residual_left, right_to_left_solvent,
    lambda p, x: newton_horner(p, IterConfig(x0=x)),
], ids=["eval-right", "eval-left", "residual-right", "residual-left", "right-to-left",
        "newton-x0"])
def test_entries_that_take_a_callers_x_check_it_first(call):
    # the divisions trust their X, so each entry checks it before dividing,
    # with the messages the divisions gave when they checked it
    p = MatrixPolynomial([E2, -3 * E2, 2 * E2])
    with pytest.raises(DimensionMismatch, match=r"^x must be 2x2, got \(3, 3\)$"):
        call(p, np.eye(3))
    with pytest.raises(DimensionMismatch, match="^entries must be real numbers, got complex128$"):
        call(p, 1j * E2)
    with pytest.raises(DimensionMismatch, match="^matrix contains non-finite entries$"):
        call(p, np.full((2, 2), np.nan))
    with pytest.raises(DimensionMismatch, match="^expected 2-D matrix, got ndim=1$"):
        call(p, np.ones(2))


def test_iter_config_checks_its_start_once():
    with pytest.raises(DimensionMismatch, match="^matrix contains non-finite entries$"):
        IterConfig(x0=[[np.inf]])
    cfg = IterConfig(x0=[[1, 2], [3, 4]])
    assert cfg.x0.dtype == np.float64 and np.array_equal(cfg.x0, [[1.0, 2.0], [3.0, 4.0]])
