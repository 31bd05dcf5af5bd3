"""The benchmark's workloads: fixed lists of operations with their checks.

A workload is a list of :class:`Op`. One pass runs every op once, in an order
drawn from the run's seed, so every pass does the same work. The program is
reached through attribute lookups on the ``blockpoly`` modules at call time,
so the tracer's wrappers see every call.

The ``grid`` and ``polish`` chains come from ``default_rng(1000*m + 10*l + s)``
whatever the run's seed: which inputs a program fault spoils is then the same
in every run, and the failed share repeats exactly. The run's seed draws the
pass order, the ``polish`` start directions (new ones every pass) and the
``paper`` closed-loop sample points.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import blockpoly as bp
import blockpoly.io as bpio

import checks

EXAMPLES = ("example1", "example2", "example3", "example4")
SOLVENT_EXAMPLES = ("example1", "example4")
GAS_TURBINE_MODES = (np.diag([-1.0, -2.0]),)

GRID_ORDERS = (4, 8, 16)
GRID_DEGREES = (2, 3, 4)
POLISH_ORDERS = (8, 16)
POLISH_DEGREES = (2, 3)
CHAINS_PER_SHAPE = 4

#: Relative distance of a polish start from the factor it converges to.
POLISH_START_RTOL = 1e-4

#: Order of the reference kernel that corrects an operation's time: the
#: factorizations solve m x m systems (m <= 16); Newton solves m^2 x m^2 ones,
#: and its kernel has their order, so that it shares their working set.
BLOCK_KERNEL_N = 24


@dataclass
class Op:
    """One operation: a program call and the check of its output.

    ``renew``, when set, draws the operation's next input before each call,
    outside the timed region.
    """

    name: str
    kind: str
    kernel_n: int
    call: Callable[[], object]
    check: Callable[[object], list]
    renew: Callable[[], None] | None = None


def random_chain(m: int, l: int, rng, gap: float = 2.0, top: float = 8.0):
    """Factors whose spectra sit in disjoint modulus bands, dominant first.

    The band generator of ``tests/conftest.py``; it returns the factor list
    rather than a chain object so the benchmark can build the input itself.
    """
    factors = []
    for _ in range(l):
        lo, hi = top / 1.2, top
        eigs = rng.uniform(lo, hi, size=m) * rng.choice([-1.0, 1.0], size=m)
        v = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
        factors.append(v @ np.diag(eigs) @ np.linalg.inv(v))
        top = lo / gap
    return factors


def generated_chain(m, l, s):
    factors = random_chain(m, l, np.random.default_rng(1000 * m + 10 * l + s))
    coeffs = checks.chain_product(factors)
    return factors, coeffs


def _factorize_op(name, kind, coeffs, p, reference=None):
    roots = checks.latent_roots(coeffs)
    return Op(
        name=name, kind=kind, kernel_n=BLOCK_KERNEL_N,
        call=lambda: bp.full_factorize(p),
        check=lambda out: checks.check_chain(coeffs, out[0].factors, roots, reference),
    )


def _paper(root, rng):
    fixtures = os.path.join(root, "src", "blockpoly", "fixtures")
    polys = {
        name: bpio.load_polynomial(os.path.join(fixtures, name + ".json"))
        for name in EXAMPLES
    }
    gas = bpio.load_mfd(os.path.join(fixtures, "gas_turbine.json"))
    ops = [_factorize_op(f"factorize {name}", f"factorize {name}", list(p.coeffs), p)
           for name, p in polys.items()]
    for name in SOLVENT_EXAMPLES:
        p = polys[name]
        coeffs, roots = list(p.coeffs), checks.latent_roots(list(p.coeffs))
        ops.append(Op(
            name=f"solvent sets {name}", kind=f"solvent sets {name}", kernel_n=BLOCK_KERNEL_N,
            call=lambda p=p: bp.full_solvent_sets(p),
            check=lambda out, c=coeffs, r=roots: checks.check_solvent_sets(
                c, out[0].solvents, out[1].solvents, r),
        ))
    # Sample points off the real axis, clear of the poles and block zeros.
    lams = rng.uniform(0.5, 4.0, 3) * np.exp(1j * np.pi * rng.uniform(0.15, 0.85, 3))
    ops.append(Op(
        name="decoupling gas_turbine", kind="decoupling", kernel_n=BLOCK_KERNEL_N,
        call=lambda: bp.design_decoupling(gas, list(GAS_TURBINE_MODES)),
        check=lambda out: checks.check_closed_loop(
            gas.numerator, list(out.Dd.coeffs), out.F, GAS_TURBINE_MODES, lams),
    ))
    return ops


def _grid(root, rng):
    ops = []
    for m in GRID_ORDERS:
        for l in GRID_DEGREES:
            for s in range(CHAINS_PER_SHAPE):
                factors, coeffs = generated_chain(m, l, s)
                p = bp.MatrixPolynomial(coeffs)
                ops.append(_factorize_op(f"factorize m={m} l={l} s={s}",
                                         f"factorize m={m} l={l}", coeffs, p, factors))
    return ops


def _polish(root, rng):
    ops = []
    for m in POLISH_ORDERS:
        for l in POLISH_DEGREES:
            for s in range(CHAINS_PER_SHAPE):
                ops.append(_polish_op(m, l, s, rng))
    return ops


def _polish_op(m, l, s, rng):
    """Newton from a start 1e-4 from the dominant factor, in a direction drawn
    afresh for every pass so a run averages over directions."""
    factors, coeffs = generated_chain(m, l, s)
    p = bp.MatrixPolynomial(coeffs)
    target = factors[0]
    start = [target]

    def renew():
        d = rng.standard_normal((m, m))
        start[0] = target + POLISH_START_RTOL * np.linalg.norm(target) / np.linalg.norm(d) * d

    return Op(
        name=f"newton_horner m={m} l={l} s={s}", kind=f"newton_horner m={m} l={l}",
        kernel_n=m * m,
        call=lambda: bp.newton_horner(p, bp.IterConfig(x0=start[0])),
        check=lambda out: checks.check_solvent(coeffs, out[0], target),
        renew=renew,
    )


WORKLOADS = {"paper": _paper, "grid": _grid, "polish": _polish}


def build(name: str, root: str, seed: int):
    """The workload's operations and the generator that orders its passes."""
    rng = np.random.default_rng(seed)
    return WORKLOADS[name](root, rng), rng
