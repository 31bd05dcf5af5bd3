"""Command-line front end.

Exit codes: 0 success, 1 usage/input errors, 2 numerical failures.
"""

from __future__ import annotations

import os
import sys

import click
import numpy as np

from . import io, transforms
from .decoupler import closed_loop_eval, design_decoupling
from .errors import BlockPolyError, NoConvergence
from .horner import IterConfig
from .pipeline import PipelineConfig, full_factorize, refiner, verify
from .polynomial import SolventSet, SpectralFactorChain, is_complete_set
from .qd import QDConfig, qd_run

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2


def _fail_input(msg):
    click.echo(f"error: {msg}", err=True)
    sys.exit(EXIT_INPUT)


def _require_monic(p):
    """Exit as an input error unless the loaded polynomial has A_0 = I."""
    if not p.is_monic:
        _fail_input("the polynomial is not monic: its leading coefficient A_0 must be I")


def _fail_numerical(msg):
    click.echo(f"numerical failure: {msg}", err=True)
    sys.exit(EXIT_NUMERICAL)


def _ensure_out(out):
    os.makedirs(out, exist_ok=True)
    return out


@click.group()
def main():
    """Factorize monic matrix polynomials and design block-decoupling gains."""


@main.command()
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", default="pipeline",
              type=click.Choice(["qd", "horner", "newton-horner", "two-stage",
                                 "pipeline"]))
@click.option("--max-iter", default=None, type=int, help="Iteration/sweep budget.")
@click.option("--tol", default=None, type=float,
              help="Stopping tolerance (Q.D. e_tol or Horner eta percent).")
@click.option("--solvents", is_flag=True,
              help="Also derive right and left solvent sets.")
@click.option("--out", required=True, type=click.Path(file_okay=False))
def factorize(input_file, method, max_iter, tol, solvents, out):
    """Factorize a monic matrix polynomial into spectral factors."""
    try:
        p = io.load_polynomial(input_file)
    except io.FileFormatError as exc:
        _fail_input(str(exc))
    _require_monic(p)
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
    _ensure_out(out)
    overrides = {"method": method, "max_iter": max_iter, "tol": tol,
                 "solvents": bool(solvents)}
    io.save_manifest(out, "factorize", input_file, overrides)

    traces = []
    try:
        if method == "qd":
            chain, qd_trace = qd_run(p, qd_cfg)
            traces.append(("qd", io.qd_trace_rows(qd_trace)))
        elif method == "pipeline":
            cfg = PipelineConfig(qd=qd_cfg, iter=iter_cfg)
            chain, report, iter_traces = full_factorize(p, cfg)
            for i, t in enumerate(iter_traces):
                traces.append((f"refine[{i}]", io.iter_trace_rows(t)))
        else:
            # repeated extraction + deflation with the chosen local method
            solver = refiner(method)
            current = p
            factors = []
            for i in range(p.l):
                if current.l == 1:
                    factors.append(-current.coeffs[1])
                    break
                x, t = solver(current, iter_cfg)
                factors.append(x)
                traces.append((f"extract[{i}]", io.iter_trace_rows(t)))
                current = transforms.deflate_right(current, x)
            chain = SpectralFactorChain(factors)
        report = verify(p, chain=chain)
        io.save_factors(os.path.join(out, "factors.json"), chain)
        if solvents:
            right = transforms.chain_to_right_solvents(p, chain)
            left = transforms.chain_to_left_solvents(p, chain)
            io.save_solvents(os.path.join(out, "solvents_right.json"), right)
            io.save_solvents(os.path.join(out, "solvents_left.json"), left)
            report.completeness = is_complete_set(p, right)
        io.save_report(os.path.join(out, "report.json"), report)
        io.save_trace_csv(os.path.join(out, "trace.csv"), traces)
    except NoConvergence as exc:
        # partial outputs: the trace is still written for diagnosis
        if exc.trace is not None and hasattr(exc.trace, "sweeps"):
            traces.append(("qd", io.qd_trace_rows(exc.trace)))
        elif exc.trace is not None:
            traces.append(("failed", io.iter_trace_rows(exc.trace)))
        io.save_trace_csv(os.path.join(out, "trace.csv"), traces)
        _fail_numerical(str(exc))
    except BlockPolyError as exc:
        _fail_numerical(str(exc))
    sys.exit(EXIT_OK)


@main.command()
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--direction", required=True,
              type=click.Choice(["chain-to-right", "chain-to-left",
                                 "right-to-left", "right-to-chain",
                                 "left-to-chain"]))
@click.option("--factors", "factors_file", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="factors.json for chain-to-* directions.")
@click.option("--solvents", "solvents_file", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="solvents json for *-to-chain / right-to-left directions.")
@click.option("--out", required=True, type=click.Path(file_okay=False))
def convert(input_file, direction, factors_file, solvents_file, out):
    """Convert between factor chains and solvent sets of a polynomial."""
    try:
        p = io.load_polynomial(input_file)
        chain = io.load_factors(factors_file) if factors_file else None
        solv = io.load_solvents(solvents_file) if solvents_file else None
    except io.FileFormatError as exc:
        _fail_input(str(exc))
    _require_monic(p)
    if direction.startswith("chain") and chain is None:
        _fail_input("--factors is required for chain-to-* conversions")
    if not direction.startswith("chain") and solv is None:
        _fail_input("--solvents is required for this conversion")
    _ensure_out(out)
    io.save_manifest(out, "convert", input_file, {"direction": direction})
    try:
        if direction == "chain-to-right":
            result = transforms.chain_to_right_solvents(p, chain)
            io.save_solvents(os.path.join(out, "solvents_right.json"), result)
            report = verify(p, solvents=result)
        elif direction == "chain-to-left":
            result = transforms.chain_to_left_solvents(p, chain)
            io.save_solvents(os.path.join(out, "solvents_left.json"), result)
            report = verify(p, solvents=result)
        elif direction == "right-to-left":
            outs = [transforms.right_to_left_solvent(p, r).output
                    for r in solv.solvents]
            result = SolventSet("left", outs)
            io.save_solvents(os.path.join(out, "solvents_left.json"), result)
            report = verify(p, solvents=result)
        elif direction == "right-to-chain":
            result = transforms.right_solvents_to_chain(p, solv)
            io.save_factors(os.path.join(out, "factors.json"), result)
            report = verify(p, chain=result)
        else:
            result = transforms.left_solvents_to_chain(p, solv)
            io.save_factors(os.path.join(out, "factors.json"), result)
            report = verify(p, chain=result)
        io.save_report(os.path.join(out, "report.json"), report)
    except BlockPolyError as exc:
        _fail_numerical(str(exc))
    sys.exit(EXIT_OK)


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
    try:
        sys_mfd = io.load_mfd(input_file)
    except io.FileFormatError as exc:
        _fail_input(str(exc))
    try:
        entries = [float(v) for v in modes.split(",") if v.strip() != ""]
    except ValueError:
        _fail_input(f"cannot parse --modes '{modes}'")
    m = sys_mfd.m
    needed = (sys_mfd.l - sys_mfd.k) * m
    if len(entries) != needed:
        _fail_input(
            f"--modes needs {needed} entries ({sys_mfd.l - sys_mfd.k} blocks "
            f"of {m}), got {len(entries)}"
        )
    mode_blocks = [np.diag(entries[i * m:(i + 1) * m])
                   for i in range(sys_mfd.l - sys_mfd.k)]
    _ensure_out(out)
    io.save_manifest(out, "decouple", input_file,
                     {"modes": modes, "eval": eval_points})
    try:
        result = design_decoupling(sys_mfd, mode_blocks)
        payload = {
            "F": result.F.tolist(),
            "desired_chain": result.desired_chain.factors.tolist(),
            "Dd_coefficients_descending": result.Dd.coeffs.tolist(),
            "Kc_blocks_ascending": result.Kc_blocks.tolist(),
            "zero_residuals": result.zero_residuals,
            "warnings": result.warnings,
        }
        if eval_points:
            table = []
            for tok in eval_points.split(","):
                lam = complex(tok)
                h, target = closed_loop_eval(sys_mfd, result, lam)
                table.append({
                    "lambda": tok,
                    "closed_loop_real": np.real(h).tolist(),
                    "closed_loop_imag": np.imag(h).tolist(),
                    "target_real": np.real(target).tolist(),
                    "target_imag": np.imag(target).tolist(),
                    "max_error": float(np.max(np.abs(h - target))),
                })
            payload["closed_loop_table"] = table
        io.write_json(os.path.join(out, "decoupling.json"), payload)
    except BlockPolyError as exc:
        _fail_numerical(str(exc))
    sys.exit(EXIT_OK)


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
    try:
        p = io.load_polynomial(input_file)
        chain = io.load_factors(against)
    except io.FileFormatError as exc:
        _fail_input(str(exc))
    _require_monic(p)
    try:
        report = verify(p, chain=chain)
    except BlockPolyError as exc:
        _fail_numerical(str(exc))
    text = io.dumps_canonical(io.report_to_dict(report))
    if out:
        _ensure_out(out)
        io.save_manifest(out, "verify", input_file, {"against": against, "tol": tol})
        io.save_report(os.path.join(out, "report.json"), report)
    click.echo(text)
    if report.reconstruction_error > tol:
        _fail_numerical(
            f"reconstruction error {report.reconstruction_error:.3e} exceeds {tol:.1e}"
        )
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
