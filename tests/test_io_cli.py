import csv
import json
import math
import os
import re

import numpy as np
import pytest
from click.testing import CliRunner

from blockpoly import io, pipeline
from blockpoly.cli import main
from blockpoly.pipeline import REFINE_METHODS
from blockpoly.polynomial import (
    MatrixPolynomial,
    SolventSet,
    SpectralFactorChain,
    reconstruct,
)
from blockpoly.transforms import SOLVENT_GATE

from conftest import singular_a1
from inputs import fixture_path, random_chain, scalar_polynomial


@pytest.fixture
def runner():
    return CliRunner()


def _read(path):
    with open(path) as fh:
        return fh.read()


def test_polynomial_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    p = MatrixPolynomial([np.eye(2)] + [rng.standard_normal((2, 2)) for _ in range(2)])
    path = str(tmp_path / "p.json")
    io.save_polynomial(path, p)
    q = io.load_polynomial(path)
    for a, b in zip(p.coeffs, q.coeffs):
        assert np.array_equal(a, b)  # shortest round-trip form: exact


def test_malformed_ragged_rows(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "format_version": "1",
                "order": 2,
                "degree": 1,
                "coefficients": [[[1.0, 0.0], [0.0, 1.0]], [[1.0], [2.0, 3.0]]],
            },
            fh,
        )
    with pytest.raises(io.FileFormatError) as exc:
        io.load_polynomial(path)
    assert "1" in str(exc.value)  # names the offending coefficient index


#: A document with NumPy scalars, integral, signed-zero and non-finite floats
#: and empty containers, beside the artifacts the CLI writes.
LITERAL = {"b": [1.0 / 3.0, 2, 0.0, -0.0, 1e16], "a": {"x": np.float64(1e-17)},
           "flag": True, "numpy": [np.bool_(False), np.int64(-3), np.float32(0.1)],
           "non-finite": [math.inf, -math.inf, math.nan], "empty": [[], {}], "none": None}


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    """Each file the CLI writes on example 4 and the gas turbine, by its
    path under the output root, as ``(path, the object written to it)``;
    ``literal.json`` holds ``LITERAL``."""
    root = tmp_path_factory.mktemp("artifacts")
    written = {}

    def spy(writer):
        def write(path, obj):
            written[os.path.relpath(path, root)] = (path, obj)
            writer(path, obj)
        return write

    example4 = fixture_path("example4.json")
    commands = [
        ["factorize", example4, "--solvents", f"--out={root / 'factorize'}"],
        ["factorize", example4, "--method=qd", f"--out={root / 'qd'}"],
        ["convert", example4, "--direction=chain-to-right",
         f"--factors={root / 'factorize' / 'factors.json'}", f"--out={root / 'convert'}"],
        ["decouple", fixture_path("gas_turbine.json"), "--modes=-1,-2", "--eval=0,1j",
         f"--out={root / 'decouple'}"],
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "write_json", spy(io.write_json))
        mp.setattr(io, "save_trace_csv", spy(io.save_trace_csv))
        io.write_json(str(root / "literal.json"), LITERAL)
        for command in commands:
            result = CliRunner().invoke(main, command)
            assert result.exit_code == 0, result.output
    return written


def _same(back, value):
    """Whether ``back``, read from an artifact, is ``value`` bit for bit: a
    NumPy value reads as its Python twin, a float stays a float and a
    non-finite float reads as its string."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return back.keys() == value.keys() and all(_same(back[k], value[k]) for k in value)
    if isinstance(value, (list, tuple)):
        return type(back) is list and len(back) == len(value) and all(map(_same, back, value))
    if isinstance(value, float) and not math.isfinite(value):
        return back == str(value)
    return type(back) is type(value) and repr(back) == repr(value)


def _cell(text):
    """A trace.csv cell as the number it spells, else as text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


@pytest.mark.parametrize("name", [
    "literal.json", "factorize/factors.json", "factorize/solvents_right.json",
    "factorize/solvents_left.json", "factorize/report.json", "factorize/manifest.json",
    "factorize/trace.csv", "qd/trace.csv", "convert/report.json",
    "decouple/decoupling.json",
])
def test_canonical_json_deterministic(cli_artifacts, name):
    path, obj = cli_artifacts[name]
    text = _read(path)
    if name.endswith(".csv"):
        back = [[_cell(c) for c in row] for row in csv.reader(text.splitlines()[1:])]
        obj = [[label, *row] for label, rows in obj for row in rows]
    else:
        back = json.loads(text)
        assert io.dumps_canonical(back) + "\n" == text
    assert back and _same(back, obj)


def test_factors_solvents_roundtrip(tmp_path):
    chain = random_chain(2, 3, np.random.default_rng(1))
    cpath = str(tmp_path / "factors.json")
    io.save_factors(cpath, chain)
    back = io.load_factors(cpath)
    for a, b in zip(chain.factors, back.factors):
        assert np.array_equal(a, b)
    s = SolventSet("right", list(chain.factors))
    spath = str(tmp_path / "solvents.json")
    io.save_solvents(spath, s)
    back_s = io.load_solvents(spath)
    assert back_s.side == "right"
    assert len(back_s) == 3


def test_cli_factorize_scalar(runner, tmp_path):
    out = str(tmp_path / "out")
    result = runner.invoke(
        main,
        ["factorize", fixture_path("scalar_quadratic.json"), "--method=pipeline",
         f"--out={out}"],
    )
    assert result.exit_code == 0, result.output
    chain = io.load_factors(os.path.join(out, "factors.json"))
    got = sorted(f[0][0] if isinstance(f, list) else f[0, 0] for f in chain.factors)
    assert np.allclose(got, [1.0, 2.0], atol=1e-8)
    for name in ("report.json", "trace.csv", "manifest.json"):
        assert os.path.exists(os.path.join(out, name))


def test_cli_factorize_example1_with_solvents(runner, tmp_path):
    out = str(tmp_path / "out")
    result = runner.invoke(
        main,
        ["factorize", fixture_path("example1.json"), "--method=pipeline",
         "--solvents", f"--out={out}"],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(_read(os.path.join(out, "report.json")))
    assert report["reconstruction_error"] <= 1e-8
    # three right and three left solvents, each a solvent to the gate
    assert len(report["per_solvent_residuals"]) == 6
    assert max(report["per_solvent_residuals"]) <= SOLVENT_GATE
    assert os.path.exists(os.path.join(out, "solvents_right.json"))
    assert os.path.exists(os.path.join(out, "solvents_left.json"))


def test_cli_report_json_keys(runner, tmp_path):
    # report.json holds every VerificationReport field; completeness only
    # where solvents were checked, with its ``complete`` property.
    ppath = fixture_path("example1.json")
    result = runner.invoke(main, ["factorize", ppath, "--solvents", f"--out={tmp_path}"])
    assert result.exit_code == 0, result.output
    report = json.loads(_read(os.path.join(tmp_path, "report.json")))
    assert sorted(report) == [
        "completeness", "leftmost_residual", "per_factor_residuals",
        "per_solvent_residuals", "reconstruction_error", "rightmost_residual", "warnings"]
    assert sorted(report["completeness"]) == [
        "complete", "pairwise_disjoint", "spectrum_union_matches", "vandermonde_cond"]
    out = tmp_path / "verify"
    result = runner.invoke(main, ["verify", ppath, f"--against={tmp_path / 'factors.json'}",
                                  f"--out={out}"])
    assert result.exit_code == 0, result.output
    report = json.loads(_read(os.path.join(out, "report.json")))
    assert "completeness" not in report and len(report) == 6


def test_cli_factorize_deterministic(runner, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        result = runner.invoke(
            main,
            ["factorize", fixture_path("example1.json"), f"--out={out}"],
            env={"SOURCE_DATE_EPOCH": "0"},
        )
        assert result.exit_code == 0, result.output
        outs.append(_read(os.path.join(out, "factors.json")))
    assert outs[0] == outs[1]


def test_cli_factorize_malformed_exit_1(runner, tmp_path):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(
            {
                "format_version": "1",
                "order": 2,
                "degree": 1,
                "coefficients": [[[1.0, 0.0], [0.0, 1.0]], [[1.0], [2.0, 3.0]]],
            },
            fh,
        )
    result = runner.invoke(main, ["factorize", bad, f"--out={tmp_path / 'o'}"])
    assert result.exit_code == 1


def test_cli_factorize_no_convergence_exit_2(runner, tmp_path):
    # close-modulus pair (2, 2.05) needs far more than 5 sweeps to separate
    p = scalar_polynomial([1.0, -4.05, 4.1])
    path = str(tmp_path / "p.json")
    io.save_polynomial(path, p)
    out = str(tmp_path / "out")
    result = runner.invoke(
        main, ["factorize", path, "--method=qd", "--max-iter=5", f"--out={out}"]
    )
    assert result.exit_code == 2
    assert os.path.exists(os.path.join(out, "trace.csv"))


@pytest.mark.parametrize("args", [
    ["factorize", fixture_path("example1.json"), "--method=bogus"],
    ["factorize", "no-such-file.json"],
    ["decouple", fixture_path("gas_turbine.json")],
], ids=["bad-choice", "missing-input-file", "missing-required-option"])
def test_cli_usage_error_exit_1(runner, tmp_path, args):
    out = tmp_path / "out"
    result = runner.invoke(main, [*args, f"--out={out}"])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert "Usage: " in result.output and "Error: " in result.output
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--method=qd", "--max-iter=0"],
    ["--method=pipeline", "--max-iter=0"],
    ["--method=newton-horner", "--tol=-1"],
    ["--method=pipeline", "--tol=nan"],
    ["--method=pipeline", "--tol=inf"],
    ["--method=qd", "--tol=nan"],
    ["--method=newton-horner", "--tol=inf"],
], ids=["qd-budget", "pipeline-budget", "newton-tol", "pipeline-tol-nan", "pipeline-tol-inf",
        "qd-tol-nan", "newton-tol-inf"])
def test_cli_factorize_invalid_option_exit_1(runner, tmp_path, args):
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["factorize", fixture_path("example1.json"), *args, f"--out={out}"]
    )
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert "error: " in result.output
    assert not out.exists()


def test_cli_convert_roundtrip(runner, tmp_path):
    chain = random_chain(2, 2, np.random.default_rng(2))
    p = reconstruct(chain)
    ppath = str(tmp_path / "p.json")
    io.save_polynomial(ppath, p)
    fpath = str(tmp_path / "factors.json")
    io.save_factors(fpath, chain)
    out1 = str(tmp_path / "o1")
    r1 = runner.invoke(
        main,
        ["convert", ppath, "--direction=chain-to-right", f"--factors={fpath}",
         f"--out={out1}"],
    )
    assert r1.exit_code == 0, r1.output
    out2 = str(tmp_path / "o2")
    r2 = runner.invoke(
        main,
        ["convert", ppath, "--direction=right-to-chain",
         f"--solvents={os.path.join(out1, 'solvents_right.json')}", f"--out={out2}"],
    )
    assert r2.exit_code == 0, r2.output
    report = json.loads(_read(os.path.join(out2, "report.json")))
    assert report["reconstruction_error"] < 1e-6


def test_cli_convert_missing_input_exit_1(runner, tmp_path):
    ppath = str(tmp_path / "p.json")
    io.save_polynomial(ppath, reconstruct(random_chain(2, 2, np.random.default_rng(3))))
    result = runner.invoke(
        main, ["convert", ppath, "--direction=chain-to-right", f"--out={tmp_path / 'o'}"]
    )
    assert result.exit_code == 1


def test_cli_decouple_gas_turbine(runner, tmp_path):
    out = str(tmp_path / "out")
    result = runner.invoke(
        main,
        ["decouple", fixture_path("gas_turbine.json"), "--modes=-1,-2",
         "--eval=0,1,2+1j", f"--out={out}"],
    )
    assert result.exit_code == 0, result.output
    data = json.loads(_read(os.path.join(out, "decoupling.json")))
    assert max(row["max_error"] for row in data["closed_loop_table"]) < 1e-6


def test_cli_decouple_wrong_mode_count_exit_1(runner, tmp_path):
    result = runner.invoke(
        main,
        ["decouple", fixture_path("gas_turbine.json"), "--modes=-1",
         f"--out={tmp_path / 'o'}"],
    )
    assert result.exit_code == 1


@pytest.mark.parametrize("option, value", [
    ("--eval", "1,abc"), ("--eval", "nan"), ("--modes", "-1,inf")])
def test_cli_decouple_option_that_is_not_a_finite_number_exit_1(runner, tmp_path, option,
                                                                 value):
    args = {"--modes": "-1,-2", option: value}
    out = tmp_path / "out"
    result = runner.invoke(main, ["decouple", fixture_path("gas_turbine.json"),
                                  *(f"{k}={v}" for k, v in args.items()), f"--out={out}"])
    _assert_exit_1(result, f"cannot parse {option} '{value}': entries must be finite numbers")
    assert not out.exists()


def _non_monic_files(tmp_path):
    """A 2x2 polynomial file with A_0 = 2I, and a factors file of its order."""
    ppath = str(tmp_path / "p.json")
    io.save_polynomial(ppath, MatrixPolynomial([2 * np.eye(2), np.eye(2), np.eye(2)]))
    fpath = str(tmp_path / "factors.json")
    io.save_factors(fpath, SpectralFactorChain([np.eye(2), np.eye(2)]))
    return ppath, fpath


def _assert_exit_1(result, message):
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert f"error: {message}" in result.output


@pytest.mark.parametrize("epoch", ["abc", "99999999999999999999"])
def test_cli_malformed_source_date_epoch_exit_1(runner, tmp_path, monkeypatch, epoch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    out = tmp_path / "out"
    result = runner.invoke(main, ["factorize", fixture_path("example1.json"), f"--out={out}"])
    _assert_exit_1(result, "SOURCE_DATE_EPOCH must be an integer count of seconds "
                           f"that the platform can date, got '{epoch}'")
    assert not out.exists()


def _assert_input_error(result):
    _assert_exit_1(result, "the polynomial is not monic")


def test_cli_verify_non_monic_exit_1(runner, tmp_path):
    ppath, fpath = _non_monic_files(tmp_path)
    _assert_input_error(runner.invoke(main, ["verify", ppath, f"--against={fpath}"]))


def test_cli_factorize_non_monic_exit_1(runner, tmp_path):
    ppath, _ = _non_monic_files(tmp_path)
    out = tmp_path / "out"
    _assert_input_error(runner.invoke(main, ["factorize", ppath, f"--out={out}"]))
    assert not out.exists()


def test_cli_convert_non_monic_exit_1(runner, tmp_path):
    ppath, fpath = _non_monic_files(tmp_path)
    out = tmp_path / "out"
    _assert_input_error(runner.invoke(
        main, ["convert", ppath, "--direction=chain-to-right", f"--factors={fpath}",
               f"--out={out}"]))
    assert not out.exists()


def test_cli_verify(runner, tmp_path):
    out = str(tmp_path / "out")
    r1 = runner.invoke(
        main, ["factorize", fixture_path("example1.json"), f"--out={out}"]
    )
    assert r1.exit_code == 0, r1.output
    r2 = runner.invoke(
        main,
        ["verify", fixture_path("example1.json"),
         f"--against={os.path.join(out, 'factors.json')}"],
    )
    assert r2.exit_code == 0, r2.output


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
def test_cli_verify_tol_must_be_finite_positive(runner, tmp_path, tol):
    # A NaN tolerance would pass any chain, since no error compares above it.
    fpath = str(tmp_path / "factors.json")
    io.save_factors(fpath, SpectralFactorChain([np.eye(2), np.eye(2)]))
    out = tmp_path / "out"
    result = runner.invoke(main, ["verify", fixture_path("example1.json"),
                                  f"--against={fpath}", f"--tol={tol}", f"--out={out}"])
    _assert_exit_1(result, "--tol must be a finite number > 0")
    assert not out.exists()


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def _polynomial_file(tmp_path, **changes):
    """A monic 2x2 degree-1 polynomial file, with ``changes`` to its keys."""
    data = {"format_version": "1", "order": 2, "degree": 1,
            "coefficients": [np.eye(2).tolist(), [[1.0, 0.0], [0.0, 2.0]]]}
    return _write_json(tmp_path / "p.json", {**data, **changes})


@pytest.mark.parametrize("changes, key", [
    ({"order": "x"}, "order"),
    ({"order": 0}, "order"),
    ({"degree": 0, "coefficients": [np.eye(2).tolist()]}, "degree"),
    ({"degree": -1, "coefficients": []}, "degree"),
    ({"degree": 1.5}, "degree"),
], ids=["order-not-integer", "order-0", "degree-0", "degree-negative", "degree-float"])
def test_cli_factorize_bad_order_or_degree_exit_1(runner, tmp_path, changes, key):
    path = _polynomial_file(tmp_path, **changes)
    result = runner.invoke(main, ["factorize", path, f"--out={tmp_path / 'o'}"])
    _assert_exit_1(result, f"{path}: '{key}' must be an integer >= 1")


@pytest.mark.parametrize("command", ["verify", "convert-factors", "convert-solvents"])
def test_cli_empty_block_list_exit_1(runner, tmp_path, command):
    ppath = _polynomial_file(tmp_path)
    fpath = _write_json(tmp_path / "f.json", {"order": 2, "factors": []})
    spath = _write_json(tmp_path / "s.json", {"side": "right", "solvents": []})
    out = f"--out={tmp_path / 'o'}"
    args = {
        "verify": ["verify", ppath, f"--against={fpath}"],
        "convert-factors": ["convert", ppath, "--direction=chain-to-right",
                            f"--factors={fpath}", out],
        "convert-solvents": ["convert", ppath, "--direction=right-to-chain",
                             f"--solvents={spath}", out],
    }[command]
    key, path = ("solvents", spath) if command == "convert-solvents" else ("factors", fpath)
    _assert_exit_1(runner.invoke(main, args), f"{path}: '{key}' must be a nonempty list")


@pytest.mark.parametrize("command, what", [
    (["verify", "{p}", "--against={f}"], "factors"),
    (["convert", "{p}", "--direction=chain-to-right", "--factors={f}", "--out={o}"],
     "factors"),
    (["convert", "{p}", "--direction=right-to-chain", "--solvents={s}", "--out={o}"],
     "solvents"),
], ids=["verify", "convert-factors", "convert-solvents"])
def test_cli_blocks_of_another_order_exit_1(runner, tmp_path, command, what):
    paths = {k: str(tmp_path / name) for k, name in
             (("p", "p.json"), ("f", "factors.json"), ("s", "solvents.json"), ("o", "out"))}
    io.save_polynomial(paths["p"], reconstruct(random_chain(2, 2, np.random.default_rng(7))))
    blocks = [np.eye(3), 2 * np.eye(3)]
    io.save_factors(paths["f"], SpectralFactorChain(blocks))
    io.save_solvents(paths["s"], SolventSet("right", blocks))
    result = runner.invoke(main, [arg.format(**paths) for arg in command])
    _assert_exit_1(result, f"{what} have order 3, the polynomial has order 2")


def _trace_stages(out):
    with open(os.path.join(out, "trace.csv")) as fh:
        return {line.split(",")[0] for line in fh.read().splitlines()[1:]}


@pytest.mark.parametrize("method, stages", [
    ("qd", {"qd"}),
    ("newton-horner", {"refine[0]", "refine[1]"}),
])
def test_cli_factorize_other_methods(runner, tmp_path, method, stages):
    out = str(tmp_path / "out")
    result = runner.invoke(
        main, ["factorize", fixture_path("example1.json"), f"--method={method}", f"--out={out}"])
    assert result.exit_code == 0, result.output
    report = json.loads(_read(os.path.join(out, "report.json")))
    assert report["reconstruction_error"] <= 1e-8
    assert _trace_stages(out) == stages


@pytest.mark.parametrize("method", REFINE_METHODS)
def test_cli_factorize_local_methods_factorize_the_fixtures(runner, tmp_path, method):
    # every local method refines Q.D.'s seeds, or the grouping search's
    for i in range(1, 5):
        out = str(tmp_path / f"out{i}")
        result = runner.invoke(main, ["factorize", fixture_path(f"example{i}.json"),
                                      f"--method={method}", f"--out={out}"])
        assert result.exit_code == 0, result.output
        report = json.loads(_read(os.path.join(out, "report.json")))
        assert report["reconstruction_error"] <= 1e-8


def test_cli_factorize_failed_local_method_saves_its_trace(runner, tmp_path):
    # λ³ - 3λ² - 3λ - 1 has one real root, so it has no real chain: from Q.D.
    # seeds a local method fails as the pipeline does, with the stalled Q.D. trace
    path = str(tmp_path / "p.json")
    io.save_polynomial(path, scalar_polynomial([1.0, -3.0, -3.0, -1.0]))
    out = str(tmp_path / "out")
    result = runner.invoke(main, ["factorize", path, "--method=horner", f"--out={out}"])
    assert result.exit_code == 2
    assert ("numerical failure: pipeline failed in stage 'refine' at factor 0: "
            "Q.D. stalled: ") in result.output
    assert _trace_stages(out) == {"qd"}


def test_cli_factorize_refine_error_saves_the_failed_trace(runner, tmp_path, monkeypatch):
    # 20 Horner steps do not refine example1's Q-row at e_tol 1e-3, and a
    # search with no groups to try finds no chain: the refine error is raised
    # as it is, and its trace is the one saved
    monkeypatch.setattr(pipeline, "GROUP_BUDGET", 0)
    out = str(tmp_path / "out")
    result = runner.invoke(main, ["factorize", fixture_path("example1.json"), "--method=horner",
                                  "--tol=1e-3", "--max-iter=20", f"--out={out}"])
    assert result.exit_code == 2
    assert ("numerical failure: pipeline failed in stage 'refine' at factor 0: "
            "no convergence in 20 iterations") in result.output
    assert _trace_stages(out) == {"failed"}


def test_cli_factorize_failed_pipeline_saves_its_trace(runner, tmp_path):
    # λ³ - 3λ² - 3λ - 1 has one real root, so it has no real chain; Q.D.
    # stalls, and its trace is the one saved
    path = str(tmp_path / "p.json")
    io.save_polynomial(path, scalar_polynomial([1.0, -3.0, -3.0, -1.0]))
    out = str(tmp_path / "out")
    result = runner.invoke(main, ["factorize", path, "--method=pipeline", f"--out={out}"])
    assert result.exit_code == 2
    assert ("numerical failure: pipeline failed in stage 'refine' at factor 0: "
            "Q.D. stalled: ") in result.output
    assert _trace_stages(out) == {"qd"}


def test_cli_factorize_starved_pipeline_is_finished_by_the_grouping_search(runner, tmp_path):
    # one Q.D. sweep does not converge on example1
    out = str(tmp_path / "out")
    result = runner.invoke(
        main, ["factorize", fixture_path("example1.json"), "--method=pipeline",
               "--max-iter=1", f"--out={out}"])
    assert result.exit_code == 0, result.output
    report = json.loads(_read(os.path.join(out, "report.json")))
    [warning] = report["warnings"]
    assert warning.startswith("Q.D. budget of 1 sweeps exhausted (max relative E-norm ")
    assert warning.endswith("; the grouping search over the latent roots factorized it instead")
    assert report["reconstruction_error"] <= 1e-8
    assert _trace_stages(out) == {"refine[0]", "refine[1]"}



def test_cli_factorize_qd_breakdown_names_the_stage(runner, tmp_path):
    # Q.D. breaks down on λ³ - 3λ² - 3λ - 3, which has one real root, so the
    # search finds no chain; a breakdown leaves no trace, and the file holds
    # its header only
    path = str(tmp_path / "p.json")
    io.save_polynomial(path, scalar_polynomial([1.0, -3.0, -3.0, -3.0]))
    out = str(tmp_path / "out")
    result = runner.invoke(main, ["factorize", path, f"--out={out}"])
    assert result.exit_code == 2
    assert ("pipeline failed in stage 'refine' at factor 0: Q-block 1 singular at sweep 1; "
            "the grouping search over the latent roots found no chain") in result.output
    assert _trace_stages(out) == set()


def test_cli_factorize_leading_coefficient_off_identity_exit_1(runner, tmp_path):
    path = str(tmp_path / "p.json")
    io.save_polynomial(path, scalar_polynomial([1.0 + 5e-6, -3.0, 2.0]))
    _assert_input_error(runner.invoke(main, ["factorize", path, f"--out={tmp_path / 'out'}"]))

def test_cli_factorize_report_keeps_pipeline_warnings(runner, tmp_path):
    path = str(tmp_path / "p.json")
    io.save_polynomial(path, singular_a1())
    out = str(tmp_path / "out")
    result = runner.invoke(main, ["factorize", path, f"--out={out}"])
    assert result.exit_code == 0, result.output
    report = json.loads(_read(os.path.join(out, "report.json")))
    assert report["warnings"] == [
        "coefficient A_1 is singular; the grouping search over the latent roots factorized "
        "it instead"]


@pytest.mark.parametrize("direction, source", [
    ("chain-to-right", "--factors=factors.json"),
    ("chain-to-left", "--factors=factors.json"),
    ("right-to-left", "--solvents=solvents_right.json"),
    ("right-to-chain", "--solvents=solvents_right.json"),
    ("left-to-chain", "--solvents=solvents_left.json"),
])
def test_cli_convert_directions(runner, tmp_path, direction, source):
    ppath = fixture_path("example1.json")
    result = runner.invoke(main, ["factorize", ppath, "--solvents", f"--out={tmp_path}"])
    assert result.exit_code == 0, result.output
    flag, name = source.split("=")
    out = str(tmp_path / "out")
    result = runner.invoke(main, ["convert", ppath, f"--direction={direction}",
                                  f"{flag}={tmp_path / name}", f"--out={out}"])
    assert result.exit_code == 0, result.output
    report = json.loads(_read(os.path.join(out, "report.json")))
    if direction.endswith("chain"):
        assert report["reconstruction_error"] <= 1e-6
    else:
        assert len(report["per_solvent_residuals"]) == 3
        assert max(report["per_solvent_residuals"]) <= SOLVENT_GATE


@pytest.mark.parametrize("direction, name, side, other", [
    ("right-to-left", "solvents_left.json", "right", "left"),
    ("right-to-chain", "solvents_left.json", "right", "left"),
    ("left-to-chain", "solvents_right.json", "left", "right"),
])
def test_cli_convert_solvents_of_the_other_side_exit_1(runner, tmp_path, direction, name,
                                                        side, other):
    ppath = fixture_path("example1.json")
    result = runner.invoke(main, ["factorize", ppath, "--solvents", f"--out={tmp_path}"])
    assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    result = runner.invoke(main, ["convert", ppath, f"--direction={direction}",
                                  f"--solvents={tmp_path / name}", f"--out={out}"])
    _assert_exit_1(result, f"--direction={direction} needs {side} solvents, got {other} solvents")
    assert not out.exists()


@pytest.mark.parametrize("direction, unused", [
    ("chain-to-right", "--solvents"),
    ("chain-to-left", "--solvents"),
    ("right-to-left", "--factors"),
    ("right-to-chain", "--factors"),
])
def test_cli_convert_unused_input_file_exit_1(runner, tmp_path, direction, unused):
    ppath = fixture_path("example1.json")
    result = runner.invoke(main, ["factorize", ppath, "--solvents", f"--out={tmp_path}"])
    assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    result = runner.invoke(main, ["convert", ppath, f"--direction={direction}",
                                  f"--factors={tmp_path / 'factors.json'}",
                                  f"--solvents={tmp_path / 'solvents_right.json'}",
                                  f"--out={out}"])
    _assert_exit_1(result, f"--direction={direction} does not read {unused}")
    assert not out.exists()


@pytest.mark.parametrize("length", [2, 4])
@pytest.mark.parametrize("command", [
    ["verify", "{p}", "--against={f}"],
    ["convert", "{p}", "--direction=chain-to-right", "--factors={f}", "--out={o}"],
], ids=["verify", "convert"])
def test_cli_chain_of_the_wrong_length_exit_1(runner, tmp_path, command, length):
    paths = {k: str(tmp_path / name) for k, name in
             (("p", "p.json"), ("f", "factors.json"), ("o", "out"))}
    io.save_polynomial(paths["p"], MatrixPolynomial(
        [np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.diag([1.0, 2.0])]))
    io.save_factors(paths["f"], SpectralFactorChain(np.zeros((length, 2, 2))))
    result = runner.invoke(main, [arg.format(**paths) for arg in command])
    _assert_exit_1(result, f"the chain has {length} factors, the polynomial has degree 3")


@pytest.mark.parametrize("direction, side", [("right-to-chain", "right"),
                                             ("left-to-chain", "left")])
def test_cli_solvents_of_the_wrong_count_exit_1(runner, tmp_path, direction, side):
    ppath = fixture_path("example1.json")
    result = runner.invoke(main, ["factorize", ppath, "--solvents", f"--out={tmp_path}"])
    assert result.exit_code == 0, result.output
    spath = str(tmp_path / "two.json")
    solvents = io.load_solvents(str(tmp_path / f"solvents_{side}.json"))
    io.save_solvents(spath, SolventSet(side, solvents.solvents[:2]))
    out = tmp_path / "out"
    result = runner.invoke(main, ["convert", ppath, f"--direction={direction}",
                                  f"--solvents={spath}", f"--out={out}"])
    _assert_exit_1(result, f"need a complete {side} set of 3 solvents, got 2 ({side})")
    assert not out.exists()


def test_canonical_json_empty_dict_and_unknown_type():
    assert io.dumps_canonical({"a": {}}) == '{\n  "a": {}\n}'
    with pytest.raises(TypeError, match="^cannot serialize <class 'object'>$"):
        io.dumps_canonical(object())


def _solvents_file(tmp_path, **changes):
    data = {"order": 2, "side": "right", "solvents": [np.eye(2).tolist()]}
    return _write_json(tmp_path / "s.json", {**data, **changes})


@pytest.mark.parametrize("write, loader, message", [
    (lambda t: _polynomial_file(t, coefficients=[np.eye(2).tolist(), np.eye(3).tolist()]),
     io.load_polynomial, r"coefficient 1: expected a 2x2 array, got shape \(3, 3\)$"),
    (lambda t: _polynomial_file(t, coefficients=[np.eye(2).tolist(), [[1.0, float("nan")],
                                                                     [0.0, 1.0]]]),
     io.load_polynomial, "coefficient 1: non-finite entries$"),
    (lambda t: _polynomial_file(t, degree=2), io.load_polynomial,
     "degree 2 needs 3 coefficients, got 2$"),
    (lambda t: _write_json(t / "p.json", {"order": 2, "coefficients": [np.eye(2).tolist()]}),
     io.load_polynomial, "missing key 'degree'$"),
    (lambda t: _write_json(t / "s.json", {"order": 2, "solvents": [np.eye(2).tolist()]}),
     io.load_solvents, "missing key 'side'$"),
    (lambda t: _solvents_file(t, side="up"), io.load_solvents,
     "side must be 'right' or 'left'$"),
    (lambda t: _write_json(t / "p.json", [1, 2]), io.load_polynomial,
     "expected a JSON object, got list$"),
    (lambda t: _write_json(t / "mfd.json", 5), io.load_mfd, "expected a JSON object, got int$"),
    (lambda t: _write_json(t / "f.json", "factors"), io.load_factors,
     "expected a JSON object, got str$"),
    (lambda t: _write_json(t / "s.json", None), io.load_solvents,
     "expected a JSON object, got NoneType$"),
    (lambda t: _write_json(t / "f.json", {"order": 2}), io.load_factors,
     "missing key 'factors'$"),
    (lambda t: _write_json(t / "f.json", {"factors": [5]}), io.load_factors,
     "factor 0: expected a nonempty list of rows, got 5$"),
    (lambda t: _write_json(t / "s.json", {"side": "right", "solvents": [None, [[1.0]]]}),
     io.load_solvents, "solvent 0: expected a nonempty list of rows, got None$"),
    (lambda t: _write_json(t / "f.json", {"factors": [[]]}), io.load_factors,
     r"factor 0: expected a nonempty list of rows, got \[\]$"),
    (lambda t: _write_json(t / "s.json", {"side": "left", "solvents": [[], [[1.0]]]}),
     io.load_solvents, r"solvent 0: expected a nonempty list of rows, got \[\]$"),
    (lambda t: _polynomial_file(t, coefficients=[5, np.eye(2).tolist()]), io.load_polynomial,
     r"coefficient 0: expected a 2x2 array, got shape \(\)$"),
    (lambda t: _write_json(t / "mfd.json", {"order": 2, "numerator": [True],
                                            "denominator": [np.eye(2).tolist()] * 2}),
     io.load_mfd, r"numerator 0: expected a 2x2 array, got shape \(\)$"),
], ids=["wrong-size-block", "nan-literal", "degree-count", "missing-key", "missing-side",
        "bad-side", "polynomial-not-object", "mfd-not-object", "factors-not-object",
        "solvents-not-object", "missing-factors", "factors-entry-not-list",
        "solvents-entry-not-list", "factors-entry-empty", "solvents-entry-empty",
        "coefficient-not-list", "numerator-not-list"])
def test_malformed_file_messages(tmp_path, write, loader, message):
    path = write(tmp_path)
    with pytest.raises(io.FileFormatError, match=f"^{re.escape(path)}: {message}"):
        loader(path)


@pytest.mark.parametrize("document, command", [
    ([1, 2], ["verify", fixture_path("example1.json"), "--against={path}", "--out={out}"]),
    (5, ["factorize", "{path}", "--out={out}"]),
    ({"factors": [5]}, ["convert", fixture_path("example1.json"),
                        "--direction=chain-to-right", "--factors={path}", "--out={out}"]),
], ids=["verify-list", "factorize-int", "convert-entry-not-list"])
def test_cli_malformed_document_exit_1(runner, tmp_path, document, command):
    path = _write_json(tmp_path / "in.json", document)
    out = tmp_path / "out"
    result = runner.invoke(main, [arg.format(path=path, out=out) for arg in command])
    _assert_exit_1(result, f"{path}: ")
    assert "Traceback" not in result.output
    assert not out.exists()


def test_unreadable_json_is_a_file_format_error(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("{")
    with pytest.raises(io.FileFormatError, match=f"^cannot read {re.escape(str(path))}: Expecting"):
        io.load_polynomial(str(path))


def test_cli_decouple_numerator_degree_not_below_denominator_exit_1(runner, tmp_path):
    eye = np.eye(2).tolist()
    path = _write_json(tmp_path / "mfd.json",
                       {"order": 2, "numerator": [eye, eye], "denominator": [eye, eye]})
    out = tmp_path / "out"
    result = runner.invoke(main, ["decouple", path, "--modes=-1,-2", f"--out={out}"])
    _assert_exit_1(result, f"{path}: need deg N < deg D")
    assert not out.exists()


def test_cli_convert_without_solvents_exit_1(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["convert", fixture_path("example1.json"),
                                  "--direction=right-to-chain", f"--out={out}"])
    _assert_exit_1(result, "--solvents is required for this conversion")
    assert not out.exists()


def test_cli_verify_chain_that_does_not_reconstruct_exit_2(runner, tmp_path):
    fpath = str(tmp_path / "factors.json")
    io.save_factors(fpath, SpectralFactorChain([np.eye(2)] * 3))
    out = tmp_path / "out"
    result = runner.invoke(main, ["verify", fixture_path("example1.json"),
                                  f"--against={fpath}", f"--out={out}"])
    assert result.exit_code == 2
    assert "numerical failure: reconstruction error " in result.output
    assert "exceeds 1.0e-06" in result.output
    report = json.loads(_read(os.path.join(out, "report.json")))
    assert report["reconstruction_error"] > 1e-6


def test_cli_convert_right_to_left_of_a_partial_set(runner, tmp_path):
    # two of example 1's three right solvents convert one by one, and the
    # report calls the left pair incomplete
    ppath = fixture_path("example1.json")
    result = runner.invoke(main, ["factorize", ppath, "--solvents", f"--out={tmp_path}"])
    assert result.exit_code == 0, result.output
    spath = str(tmp_path / "two.json")
    right = io.load_solvents(str(tmp_path / "solvents_right.json"))
    io.save_solvents(spath, SolventSet("right", right.solvents[:2]))
    out = tmp_path / "out"
    result = runner.invoke(main, ["convert", ppath, "--direction=right-to-left",
                                  f"--solvents={spath}", f"--out={out}"])
    assert result.exit_code == 0, result.output
    report = json.loads(_read(os.path.join(out, "report.json")))
    assert len(report["per_solvent_residuals"]) == 2
    assert report["completeness"]["complete"] is False
