import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from blockpoly import io
from blockpoly.cli import main
from blockpoly.polynomial import (
    MatrixPolynomial,
    SolventSet,
    SpectralFactorChain,
    reconstruct,
)

from conftest import fixture_path, random_chain, scalar_polynomial


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
        assert np.array_equal(a, b)  # 17 significant digits: exact


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


def test_canonical_json_deterministic(tmp_path):
    obj = {"b": [1.0 / 3.0, 2], "a": {"x": np.float64(1e-17)}, "flag": True}
    s1 = io.dumps_canonical(obj)
    s2 = io.dumps_canonical(json.loads(s1))
    assert s1 == s2


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
    assert all(r <= 1e-6 for r in report["per_solvent_residuals"])
    assert os.path.exists(os.path.join(out, "solvents_right.json"))
    assert os.path.exists(os.path.join(out, "solvents_left.json"))


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
    ["--method=qd", "--max-iter=0"],
    ["--method=pipeline", "--max-iter=0"],
    ["--method=newton-horner", "--tol=-1"],
], ids=["qd-budget", "pipeline-budget", "newton-tol"])
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


def test_cli_decouple_missing_modes_exit(runner, tmp_path):
    result = runner.invoke(
        main, ["decouple", fixture_path("gas_turbine.json"), f"--out={tmp_path / 'o'}"]
    )
    assert result.exit_code != 0


def test_cli_decouple_wrong_mode_count_exit_1(runner, tmp_path):
    result = runner.invoke(
        main,
        ["decouple", fixture_path("gas_turbine.json"), "--modes=-1",
         f"--out={tmp_path / 'o'}"],
    )
    assert result.exit_code == 1


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
