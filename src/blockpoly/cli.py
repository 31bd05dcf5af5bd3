"""Command-line front end.

Each command loads its files, checks them, creates ``--out`` with its
manifest, then runs.  Exit codes: 0 success, 1 usage/input errors, 2
numerical failures; the group maps a usage error, a malformed file
(``io.FileFormatError``) or a ``BlockPolyError``.
"""

from __future__ import annotations

import contextlib
import os
import sys

import click
import numpy as np

from . import io, transforms
from .decoupler import closed_loop_eval, design_decoupling
from .errors import BlockPolyError, DimensionMismatch, IncompleteSet, NotMonic
from .horner import IterConfig
from .pipeline import REFINE_METHODS, PipelineConfig, full_factorize, solvent_sets, verify
from .polynomial import SolventSet, check_chain, check_order
from .qd import QDConfig, qd_run

EXIT_INPUT = 1
EXIT_NUMERICAL = 2


def _fail_input(msg):
    click.echo(f"error: {msg}", err=True)
    sys.exit(EXIT_INPUT)


def _fail_numerical(msg):
    click.echo(f"numerical failure: {msg}", err=True)
    sys.exit(EXIT_NUMERICAL)


def _require(check, *args):
    """``check(*args)``; exits as an input error where the loaded inputs do
    not fit each other."""
    try:
        check(*args)
    except (DimensionMismatch, NotMonic, IncompleteSet) as exc:
        _fail_input(str(exc))


def _start(out, command, input_file, overrides):
    """Create ``out`` and write its manifest, once every input is checked;
    exits as an input error on a malformed SOURCE_DATE_EPOCH."""
    try:
        io.save_manifest(out, command, input_file, overrides)
    except ValueError as exc:
        _fail_input(str(exc))


def _finite_numbers(option, text, parse, tokens):
    """``parse`` of each of the ``tokens`` of an option's ``text``; exits as
    an input error unless every one is a finite number."""
    try:
        values = [parse(tok) for tok in tokens]
        if np.all(np.isfinite(values)):
            return values
    except ValueError:
        pass
    _fail_input(f"cannot parse {option} '{text}': entries must be finite numbers")


#: The conversion each ``--direction`` names.
CONVERSIONS = {
    "chain-to-right": transforms.chain_to_right_solvents,
    "chain-to-left": transforms.chain_to_left_solvents,
    "right-to-left": lambda p, solv: SolventSet(
        "left", [transforms.right_to_left_solvent(p, r)[0] for r in solv.solvents]),
    "right-to-chain": transforms.right_solvents_to_chain,
    "left-to-chain": transforms.left_solvents_to_chain,
}


@contextlib.contextmanager
def _exit_codes():
    """Exit 1 on a usage error of click's, keeping its message, or on a
    malformed file, and 2 on a ``BlockPolyError``."""
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_INPUT
        raise
    except io.FileFormatError as exc:
        _fail_input(str(exc))
    except BlockPolyError as exc:
        _fail_numerical(str(exc))


class _Commands(click.Group):
    """Parses the group's own arguments, and runs every command, under
    :func:`_exit_codes`."""

    parse_args = _exit_codes()(click.Group.parse_args)
    invoke = _exit_codes()(click.Group.invoke)


@click.group(cls=_Commands)
def main():
    """Factorize monic matrix polynomials and design block-decoupling gains."""


@main.command()
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", default="pipeline",
              type=click.Choice(["qd", *REFINE_METHODS, "pipeline"]))
@click.option("--max-iter", default=None, type=int,
              help="Q.D.'s sweep budget and, unless --method=qd, the refiner's "
                   "iterations per factor.")
@click.option("--tol", default=None, type=float,
              help="Stopping tolerance: Q.D.'s e_tol and, unless --method=qd, "
                   "the refiner's eta in percent.")
@click.option("--solvents", is_flag=True,
              help="Also derive right and left solvent sets.")
@click.option("--out", required=True, type=click.Path(file_okay=False))
def factorize(input_file, method, max_iter, tol, solvents, out):
    """Factorize a monic matrix polynomial into spectral factors."""
    p = io.load_polynomial(input_file)
    _require(p.require_monic)
    qd_args, iter_args = {}, {}
    if max_iter is not None:
        qd_args["max_iterations"] = iter_args["max_iterations"] = max_iter
    if tol is not None:
        qd_args["e_tol"] = iter_args["eta"] = tol
    try:
        qd_cfg = QDConfig(**qd_args)
        iter_cfg = IterConfig(**iter_args)
    except ValueError as exc:
        _fail_input(str(exc))
    _start(out, "factorize", input_file,
           {"method": method, "max_iter": max_iter, "tol": tol, "solvents": bool(solvents)})

    traces, iter_traces = [], []
    try:
        if method == "qd":
            chain, qd_trace = qd_run(p, qd_cfg)
            traces.append(("qd", io.qd_trace_rows(qd_trace)))
            report = verify(p, chain=chain)
        else:
            refine = "newton-horner" if method == "pipeline" else method
            chain, report, iter_traces = full_factorize(
                p, PipelineConfig(refine_method=refine, qd=qd_cfg, iter=iter_cfg))
        traces += [(f"refine[{i}]", io.iter_trace_rows(t))
                   for i, t in enumerate(iter_traces)]
        io.save_factors(os.path.join(out, "factors.json"), chain)
        if solvents:
            right, left = solvent_sets(p, chain, report)
            io.save_solvents(os.path.join(out, "solvents_right.json"), right)
            io.save_solvents(os.path.join(out, "solvents_left.json"), left)
        io.save_report(os.path.join(out, "report.json"), report)
        io.save_trace_csv(os.path.join(out, "trace.csv"), traces)
    except BlockPolyError as exc:
        # the trace of the failed run, or of the stage's cause, for diagnosis
        trace = getattr(getattr(exc, "cause", exc), "trace", None)
        if hasattr(trace, "sweeps"):
            traces.append(("qd", io.qd_trace_rows(trace)))
        elif trace is not None:
            traces.append(("failed", io.iter_trace_rows(trace)))
        io.save_trace_csv(os.path.join(out, "trace.csv"), traces)
        raise


@main.command()
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--direction", required=True, type=click.Choice(list(CONVERSIONS)))
@click.option("--factors", "factors_file", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="factors.json for chain-to-* directions.")
@click.option("--solvents", "solvents_file", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="solvents json for *-to-chain / right-to-left directions.")
@click.option("--out", required=True, type=click.Path(file_okay=False))
def convert(input_file, direction, factors_file, solvents_file, out):
    """Convert between factor chains and solvent sets of a polynomial."""
    p = io.load_polynomial(input_file)
    chain = io.load_factors(factors_file) if factors_file else None
    solv = io.load_solvents(solvents_file) if solvents_file else None
    _require(p.require_monic)
    from_chain = direction.startswith("chain")
    if from_chain and chain is None:
        _fail_input("--factors is required for chain-to-* conversions")
    if not from_chain and solv is None:
        _fail_input("--solvents is required for this conversion")
    if (solv if from_chain else chain) is not None:
        unused = "--solvents" if from_chain else "--factors"
        _fail_input(f"--direction={direction} does not read {unused}")
    if from_chain:
        _require(check_chain, p, chain)
    else:
        _require(check_order, p, solv.solvents, "solvents")
        side = direction.split("-")[0]    # the side of the solvents a conversion reads
        if solv.side != side:
            _fail_input(f"--direction={direction} needs {side} solvents, got {solv.side} solvents")
        if direction.endswith("chain"):
            _require(transforms.check_set, p, solv, side)
    _start(out, "convert", input_file, {"direction": direction})
    result = CONVERSIONS[direction](p, chain if from_chain else solv)
    if isinstance(result, SolventSet):
        io.save_solvents(os.path.join(out, f"solvents_{result.side}.json"), result)
        report = verify(p, solvents=result)
    else:
        io.save_factors(os.path.join(out, "factors.json"), result)
        report = verify(p, chain=result)
    io.save_report(os.path.join(out, "report.json"), report)


@main.command()
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--modes", required=True,
              help="Comma-separated desired diagonal entries, m per mode "
                   "block, e.g. '-1,-2' for one 2x2 block diag(-1,-2).")
@click.option("--eval", "eval_points", default=None,
              help="Comma-separated λ values at which to tabulate the closed loop.")
@click.option("--out", required=True, type=click.Path(file_okay=False))
def decouple(input_file, modes, eval_points, out):
    """Design block-decoupling state feedback for an MFD system."""
    sys_mfd = io.load_mfd(input_file)
    entries = _finite_numbers("--modes", modes, float,
                              [v for v in modes.split(",") if v.strip() != ""])
    m = sys_mfd.m
    needed = (sys_mfd.l - sys_mfd.k) * m
    if len(entries) != needed:
        _fail_input(
            f"--modes needs {needed} entries ({sys_mfd.l - sys_mfd.k} blocks "
            f"of {m}), got {len(entries)}"
        )
    mode_blocks = [np.diag(entries[i * m:(i + 1) * m])
                   for i in range(sys_mfd.l - sys_mfd.k)]
    tokens = eval_points.split(",") if eval_points else []
    points = zip(tokens, _finite_numbers("--eval", eval_points, complex, tokens))
    _start(out, "decouple", input_file, {"modes": modes, "eval": eval_points})
    result = design_decoupling(sys_mfd, mode_blocks)
    payload = {
        "F": result.F,
        "desired_chain": result.desired_chain.factors,
        "Dd_coefficients_descending": result.Dd.coeffs,
        "Kc_blocks_ascending": result.Kc_blocks,
        "zero_residuals": result.zero_residuals,
        "warnings": result.warnings,
    }
    if tokens:
        table = []
        for tok, lam in points:
            h, target = closed_loop_eval(sys_mfd, result, lam)
            table.append({
                "lambda": tok,
                "closed_loop_real": np.real(h),
                "closed_loop_imag": np.imag(h),
                "target_real": np.real(target),
                "target_imag": np.imag(target),
                "max_error": np.max(np.abs(h - target)),
            })
        payload["closed_loop_table"] = table
    io.write_json(os.path.join(out, "decoupling.json"), payload)


@main.command("verify")
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--against", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="factors.json to verify against the polynomial.")
@click.option("--tol", default=1e-6, type=float,
              help="Reconstruction tolerance; exceeding it exits 2.")
@click.option("--out", default=None, type=click.Path(file_okay=False))
def verify_cmd(input_file, against, tol, out):
    """Verify a factor chain against a polynomial file."""
    if not 0 < tol < np.inf:
        _fail_input(f"--tol must be a finite number > 0, got {tol}")
    p = io.load_polynomial(input_file)
    chain = io.load_factors(against)
    _require(p.require_monic)
    _require(check_chain, p, chain)
    report = verify(p, chain=chain)
    text = io.dumps_canonical(io.report_to_dict(report))
    if out:
        _start(out, "verify", input_file, {"against": against, "tol": tol})
        io.save_report(os.path.join(out, "report.json"), report)
    click.echo(text)
    if report.reconstruction_error > tol:
        _fail_numerical(
            f"reconstruction error {report.reconstruction_error:.3e} exceeds {tol:.1e}"
        )


if __name__ == "__main__":
    main()
