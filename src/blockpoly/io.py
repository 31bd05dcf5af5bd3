"""File formats: polynomial/MFD JSON input, factor/solvent/report output.

All numeric output is rendered with 17 significant digits through a single
formatter so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import time

import numpy as np

from . import __version__
from .decoupler import MFDSystem
from .errors import DimensionMismatch
from .polynomial import MatrixPolynomial, SolventSet, SpectralFactorChain

FORMAT_VERSION = "1"


class FileFormatError(ValueError):
    """Raised for malformed input files; mapped to CLI exit code 1."""


def _fmt_number(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        return json.dumps(str(x))
    return format(x, ".17g")


def dumps_canonical(obj, indent=0) -> str:
    """JSON text with floats fixed at 17 significant digits, sorted keys."""
    pad = "  " * indent
    pad2 = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return _fmt_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps_canonical(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad2 + dumps_canonical(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(pad2 + json.dumps(str(key)) + ": "
                            + dumps_canonical(obj[key], indent + 1) for key in sorted(obj))
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)}")


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj) + "\n")


def _matrix_from_json(data, m, what):
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{what}: {exc}") from exc
    if arr.shape != (m, m):
        raise FileFormatError(f"{what}: expected a {m}x{m} array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FileFormatError(f"{what}: non-finite entries")
    return arr


def _count(data, key, path) -> int:
    """``data[key]``, an order or a degree, as an integer >= 1."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise FileFormatError(f"{path}: '{key}' must be an integer >= 1, got {value!r}")
    return value


def _blocks_from_json(data, key, what, path):
    """The nonempty list ``data[key]`` of m x m matrices, with m the file's
    'order' if it gives one, else the row count of the first matrix."""
    items = data.get(key)
    if not isinstance(items, list) or not items:
        raise FileFormatError(f"{path}: '{key}' must be a nonempty list")
    if "order" not in data and not (isinstance(items[0], list) and items[0]):
        raise FileFormatError(
            f"{path}: {what} 0: expected a nonempty list of rows, got {items[0]!r}")
    m = _count(data, "order", path) if "order" in data else len(items[0])
    return [_matrix_from_json(x, m, f"{path}: {what} {i}") for i, x in enumerate(items)]


def _load_json(path, keys):
    """The JSON document at ``path``, which must hold each of ``keys``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: expected a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise FileFormatError(f"{path}: missing key '{key}'")
    return data


def load_polynomial(path) -> MatrixPolynomial:
    """Read a PolynomialFile: order, degree, coefficients A_0 first."""
    data = _load_json(path, ("order", "degree", "coefficients"))
    l = _count(data, "degree", path)
    mats = _blocks_from_json(data, "coefficients", "coefficient", path)
    if len(mats) != l + 1:
        raise FileFormatError(
            f"{path}: degree {l} needs {l + 1} coefficients, got {len(mats)}"
        )
    return MatrixPolynomial(mats)


def _save_blocks(path, key, blocks, **fields):
    """Write a (k, m, m) stack as ``key``, with its order, the format
    version and ``fields``."""
    write_json(path, {"format_version": FORMAT_VERSION, "order": blocks.shape[1],
                      key: blocks, **fields})


def save_polynomial(path, p: MatrixPolynomial):
    _save_blocks(path, "coefficients", p.coeffs, degree=p.l)


def load_mfd(path) -> MFDSystem:
    """Read an MFD file: ascending numerator/denominator coefficient lists."""
    data = _load_json(path, ("order", "numerator", "denominator"))
    num = _blocks_from_json(data, "numerator", "numerator", path)
    den = _blocks_from_json(data, "denominator", "denominator", path)
    try:
        return MFDSystem(num, den)
    except DimensionMismatch as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def load_factors(path) -> SpectralFactorChain:
    data = _load_json(path, ("factors",))
    return SpectralFactorChain(_blocks_from_json(data, "factors", "factor", path))


def load_solvents(path) -> SolventSet:
    data = _load_json(path, ("solvents", "side"))
    mats = _blocks_from_json(data, "solvents", "solvent", path)
    try:
        return SolventSet(data["side"], mats)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def save_factors(path, chain: SpectralFactorChain):
    _save_blocks(path, "factors", chain.factors, convention="rightmost-first")


def save_solvents(path, s: SolventSet):
    _save_blocks(path, "solvents", s.solvents, side=s.side)


def report_to_dict(report) -> dict:
    """Every field of a ``VerificationReport``; ``completeness`` is left out
    when it is None and otherwise also holds its ``complete`` property."""
    d = dataclasses.asdict(report)
    if report.completeness is None:
        del d["completeness"]
    else:
        d["completeness"]["complete"] = report.completeness.complete
    return d


def save_report(path, report):
    write_json(path, report_to_dict(report))


def save_trace_csv(path, traces):
    """trace.csv with standardized columns across all methods.

    ``traces`` is a list of (label, ConvergenceTrace-like) pairs; Q.D. traces
    are adapted by the caller into the same column layout.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "iteration", "delta_pct", "residual", "aux"])
        for label, rows in traces:
            for row in rows:
                writer.writerow([label] + [
                    format(v, ".17g") if isinstance(v, float) else v for v in row
                ])


def iter_trace_rows(trace):
    """Rows for a ConvergenceTrace: aux column carries δ_k / δ_{k-1}, NaN
    unless δ_{k-1} > 0."""
    rows, prev = [], float("nan")
    for i, (d, r) in enumerate(zip(trace.deltas, trace.residuals)):
        ratio = d / prev if prev > 0 else float("nan")
        rows.append([i, float(d), float(r), float(ratio)])
        prev = d
    return rows


def qd_trace_rows(trace):
    """Rows for a QDTrace: aux column carries the per-block E norms."""
    rows = []
    for sweep, rel, blocks in zip(trace.sweeps, trace.max_relative_e,
                                  trace.e_block_norms):
        rows.append([sweep, float("nan"), float(rel),
                     ";".join(format(b, ".17g") for b in blocks)])
    return rows


def save_manifest(out_dir, command, input_path, overrides):
    ts = os.environ.get("SOURCE_DATE_EPOCH")
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(int(ts) if ts else None))
    write_json(os.path.join(out_dir, "manifest.json"), {
        "command": command,
        "input": str(input_path),
        "overrides": overrides,
        "seed": 0,
        "tool_version": __version__,
        "timestamp": timestamp,
    })
