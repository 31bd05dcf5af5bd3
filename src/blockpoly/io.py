"""File formats: polynomial/MFD JSON input, factor/solvent/report output.

Every number is written in Python's shortest round-trip form (``repr``),
which reads back bit for bit, and a non-finite float as the string "inf",
"-inf" or "nan"; identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
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


def _plain(obj):
    """``obj`` with NumPy arrays and scalars as Python values and each
    non-finite float as the string "inf", "-inf" or "nan"."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(key): _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj)}")


def dumps_canonical(obj) -> str:
    """JSON text with sorted keys, one element per line, floats in their
    shortest round-trip form and non-finite floats as strings."""
    return json.dumps(_plain(obj), indent=2, sort_keys=True)


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

    ``traces`` is a list of (label, rows) pairs, the rows from
    :func:`iter_trace_rows` or :func:`qd_trace_rows`, which put both kinds of
    trace in the same column layout.  ``csv`` writes a float as ``str``,
    which is its shortest round-trip ``repr``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "iteration", "delta_pct", "residual", "aux"])
        writer.writerows([label, *row] for label, rows in traces for row in rows)


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
                     ";".join(repr(float(b)) for b in blocks)])
    return rows


def save_manifest(out_dir, command, input_path, overrides):
    """Create ``out_dir`` and write its manifest.json, stamped with the time
    SOURCE_DATE_EPOCH gives, if set, else now.  A SOURCE_DATE_EPOCH that is
    not an integer count of seconds the platform can date raises ValueError
    before ``out_dir`` is created."""
    ts = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(int(ts) if ts else None))
    except (ValueError, OverflowError, OSError) as exc:
        raise ValueError(f"SOURCE_DATE_EPOCH must be an integer count of seconds "
                         f"that the platform can date, got {ts!r}") from exc
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "manifest.json"), {
        "command": command,
        "input": str(input_path),
        "overrides": overrides,
        "seed": 0,
        "tool_version": __version__,
        "timestamp": timestamp,
    })
