import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from multiphoton import cli, circuits, coincidence, fockspace, linalg, sources, verify
from multiphoton.cli import (
    UsageError,
    load_circuit_json,
    parse_grid_spec,
    parse_source_spec,
)
from multiphoton.visibility import visibility_of


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_rejected(capsys, *argv):
    """Run argv on which argparse exits; return its exit code, stdout and stderr."""
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# --- parsing helpers -----------------------------------------------------------

def test_parse_grid_inclusive_endpoints():
    grid = parse_grid_spec("0:2:5")
    np.testing.assert_allclose(grid, [0, 0.5, 1.0, 1.5, 2.0])


@pytest.mark.parametrize(
    "spec",
    [
        "0:6:301",
        "0:2:201",
        "0:6.283185307179586:401",
        f"{0.46 * math.pi!r}:{0.505 * math.pi!r}:91",  # crossover_window's phases
        "0:6.283185307179586:9",
    ],
)
def test_parse_grid_is_numpys_linspace(spec):
    lo, hi, count = spec.split(":")
    assert parse_grid_spec(spec) == np.linspace(float(lo), float(hi), int(count)).tolist()


@pytest.mark.parametrize("bad", ["0:2", "a:b:c", "0:2:1", "2:0:5"])
def test_parse_grid_rejects_malformed(bad):
    with pytest.raises(UsageError):
        parse_grid_spec(bad)


def test_parse_source_specs():
    assert parse_source_spec("fock:2")[1].g2 == pytest.approx(0.5)
    assert parse_source_spec("laser")[1].g2 == 1.0
    assert parse_source_spec("thermal")[1].g3 == 6.0
    assert parse_source_spec("diluted:0.5")[1].g2 == 2.0
    assert parse_source_spec("noise-opt")[1].g2 == pytest.approx(1.9067, abs=1e-4)
    assert parse_source_spec("vac12:0.3,0.7")[1].g3 == 0.0
    stats = parse_source_spec("custom:g2=1.5,g3=2.25")[1]
    assert (stats.g2, stats.g3) == (1.5, 2.25)


@pytest.mark.parametrize(
    "bad",
    [
        "fock:x",
        "nope",
        "diluted:2",
        "vac12:0.3",
        "custom:g4=1",
        "diluted:1e-200",
        "diluted:5e-324",
        "fock:1" + "0" * 400,
    ],
)
def test_parse_source_rejects_malformed(bad):
    with pytest.raises(UsageError):
        parse_source_spec(bad)


@pytest.mark.parametrize(
    "argv",
    [
        ["coinc", "--dft", "3", "--sources", "diluted:5e-324"],
        ["hom", "--source", "diluted:5e-324"],
        ["sym", "--sources", "diluted:1e-200", "--scan-phi", "0:1:3"],
        ["hom", "--source", "fock:1" + "0" * 400],
        ["coinc", "--dft", "3", "--sources", "custom:g2=1,g3=2e12"],
        ["hom", "--source", "custom:g2=1,g3=abc"],  # a 2-port sum drops g3, but parses it
    ],
)
def test_overflowing_source_spec_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad source spec")


def test_custom_spec_with_unknown_field_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "coinc", "--dft", "3", "--sources", "custom:g2=1,g4=2")
    assert code == 2
    assert out == ""
    assert "unknown fields ['g4']" in err


SPEC_FORMS = {"custom": "custom:g2=<x>[,g3=<y>], each field once", "vac12": "vac12:<p>,<q>"}


@pytest.mark.parametrize(
    "spec",
    [
        "custom:g2=1,g2=5", "custom:g2=1,g3=2,g3=3", "custom:g2", "custom:g2=1=2", "custom:g3=2", "custom:",
        "vac12:0.5", "vac12:0.5,0.5,0.2",
    ],
)
def test_malformed_custom_spec_is_a_usage_error(capsys, spec):
    """A spec of the wrong shape gets an error that names its form."""
    code, out, err = run_cli(capsys, "coinc", "--dft", "2", "--sources", spec)
    assert code == 2
    assert out == ""
    form = SPEC_FORMS[spec.split(":")[0]]
    assert err == f"error: bad source spec {spec!r}: expected {form}\n"


@pytest.mark.parametrize("command", ["sym", "mismatch"])
def test_source_without_g3_is_a_usage_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--sources", "custom:g2=2")
    assert code == 2
    assert out == ""
    assert "g(3) is required" in err


def test_source_list_keeps_commas_inside_specs(capsys):
    specs = cli.parse_source_list("vac12:0.2,0.5,laser,custom:g2=2, g3=6,fock:2")
    assert [label for label, _ in specs] == ["vac12:0.2,0.5", "laser", "custom:g2=2, g3=6", "fock:2"]
    assert specs[2][1].g3 == 6.0
    code, out, _ = run_cli(capsys, "sym", "--sources", "vac12:0.2,0.5,laser", "--scan-phi", "0:1:3")
    assert code == 0
    rows = read_csv(out)
    assert [row["label"] for row in rows] == ["vac12:0.2,0.5"] * 3 + ["laser"] * 3
    rows_self_consistent(rows)


def test_coinc_custom_source_with_g3(capsys):
    code, out, _ = run_cli(capsys, "coinc", "--dft", "3", "--sources", "custom:g2=2,g3=6")
    assert code == 0
    row = read_csv(out)[0]
    assert row["label"] == "custom:g2=2,g3=6"
    assert float(row["v"]) == pytest.approx(11 / 20, abs=1e-12)  # thermal statistics


def test_mismatch_grid_outside_the_path_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "mismatch", "--scan-xi", "0:2.5:11")
    assert code == 2
    assert out == ""
    assert err == "error: xi must be in [0, 2], got 2.25\n"


@pytest.mark.parametrize(
    "spec, shown",
    [("-1:6:10", "-1.0"), ("0:2e6:10", "1111111.111111111")],
    ids=["-1:6:10", "0:2e6:10"],
)
def test_dft_vis_grid_outside_the_g2_domain_is_a_usage_error(capsys, spec, shown):
    code, out, err = run_cli(capsys, "dft-vis", f"--scan-g2={spec}")
    assert code == 2
    assert out == ""
    assert err == f"error: g2 grid must be in [0, 1e+06], got {shown}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sym", "--sources", ""],
        ["mismatch", "--sources", ","],
        ["coinc", "--dft", "3", "--sources", ""],
    ],
)
def test_empty_source_list_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "no source spec" in err


@pytest.mark.parametrize(
    "command, own, foreign",
    [
        ("dft-vis", ["--scan-g2", "0:6:3"], ["--sources", "laser"]),
        ("mismatch", ["--sources", "laser", "--scan-xi", "0:2:3"], ["--scan-phi", "0:2:3"]),
        ("sym", ["--sources", "laser", "--scan-phi", "0:3:3"], ["--scan-xi", "0:2:3"]),
    ],
)
def test_each_scan_command_takes_only_its_own_flags(capsys, command, own, foreign):
    code, out, _ = run_cli(capsys, command, *own)
    assert code == 0
    param = own[-2].removeprefix("--scan-")
    assert out.splitlines()[0] == f"label,{param},p_id,p_dist,v"
    if "--sources" in own:
        assert [row["label"] for row in read_csv(out)] == ["laser"] * 3
    code, out, err = run_cli_rejected(capsys, command, *foreign)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(foreign)}" in err


# --- hom -------------------------------------------------------------------------

def test_hom_single_point(capsys):
    code, out, _ = run_cli(capsys, "hom", "--R", "0.5", "--g2", "1")
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["v"]) == pytest.approx(0.5)


def test_hom_no_interference(capsys):
    code, out, _ = run_cli(capsys, "hom", "--R", "0", "--g2", "0")
    rows = read_csv(out)
    assert code == 0
    assert float(rows[0]["v"]) == 0.0


def test_hom_scan_monotone(capsys):
    code, out, _ = run_cli(capsys, "hom", "--R", "0.5", "--scan-g2", "0:6:301")
    rows = read_csv(out)
    assert code == 0
    assert len(rows) == 301
    vs = [float(r["v"]) for r in rows]
    assert all(a > b for a, b in zip(vs, vs[1:]))


def test_hom_source_flag(capsys):
    code, out, _ = run_cli(capsys, "hom", "--R", "0.5", "--source", "thermal")
    rows = read_csv(out)
    assert float(rows[0]["g2"]) == 2.0
    assert float(rows[0]["v"]) == pytest.approx(1 / 3)


@pytest.mark.parametrize("spec", ["thermal", "fock:2", "diluted:1e-7", "noise-opt"])
def test_hom_source_matches_coinc_on_a_balanced_beamsplitter(capsys, spec):
    """hom --source builds its source to order 2, as coinc does on 2 ports,
    so a source whose g(3) is past the cap still gives hom a row."""
    vs = []
    for argv in (["hom", "--R", "0.5", "--source", spec], ["coinc", "--beamsplitter", "0.5", "--sources", spec]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        vs.append(float(read_csv(out)[0]["v"]))
    assert vs[0] == pytest.approx(vs[1], abs=1e-12)


@pytest.mark.parametrize(
    "argv", [["hom", "--R", "0.5", "--source"], ["coinc", "--beamsplitter", "0.5", "--sources"]]
)
def test_two_port_commands_read_no_custom_g3(capsys, argv):
    """A 2-port sum reads nothing past g2, so a custom g(3) past the cap is
    not built and the output is that of the same spec without it."""
    outs = []
    for spec in ("custom:g2=1,g3=2e12", "custom:g2=1"):
        code, out, _ = run_cli(capsys, *argv, spec)
        assert code == 0
        outs.append(out.replace(f'"{spec}"', spec).replace(spec, "<spec>"))  # coinc's label
    assert outs[0] == outs[1]


def test_hom_requires_some_input(capsys):
    code, out, err = run_cli_rejected(capsys, "hom", "--R", "0.5")
    assert code == 2
    assert out == ""
    assert all(flag in err for flag in ("--g2", "--source", "--scan-g2"))


def test_hom_rejects_bad_reflectance(capsys):
    code, out, err = run_cli(capsys, "hom", "--R", "1.5", "--g2", "1")
    assert code == 2
    assert out == ""
    assert err == "error: reflectance must be in [0, 1], got 1.5\n"


def test_hom_rejects_reflectance_that_is_not_a_number(capsys):
    code, out, err = run_cli_rejected(capsys, "hom", "--R", "abc", "--g2", "1")
    assert code == 2
    assert out == ""
    assert err.endswith("error: argument --R: invalid float value: 'abc'\n")


def test_hom_rejects_negative_g2(capsys):
    code, _, err = run_cli(capsys, "hom", "--R", "0.5", "--g2", "-1")
    assert code == 2
    assert "g2" in err


@pytest.mark.parametrize(
    "argv", [["--scan-g2", "0:1e308:3"], ["--g2", "1.7e308"], ["--g2", "1e13"]]
)
def test_hom_g2_above_the_source_cap_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "hom", "--R", "0.5", *argv)
    assert code == 2
    assert out == ""
    assert f"[0, {sources.G_CAP:g}]" in err


def test_hom_accepts_g2_at_the_source_cap(capsys):
    code, out, _ = run_cli(capsys, "hom", "--R", "0.5", "--g2", "1e12")
    assert code == 0
    assert float(read_csv(out)[0]["g2"]) == sources.G_CAP


# --- non-finite input and unwritable output ------------------------------------------

@pytest.mark.parametrize("spec", ["nan:1:3", "0:inf:3", "-inf:0:3", "0:1e400:3"])
def test_parse_grid_rejects_non_finite(spec):
    with pytest.raises(UsageError, match="finite"):
        parse_grid_spec(spec)


@pytest.mark.parametrize(
    "argv",
    [
        ["hom", "--scan-g2", "nan:1:3"],
        ["sym", "--scan-phi", "0:inf:3"],
        ["optimize", "--scan-phi", "0:nan:3"],
    ],
)
def test_non_finite_grid_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_overflowing_grid_span_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "sym", "--sources", "laser", "--scan-phi=-1.7e308:1.7e308:3")
    assert code == 2
    assert out == ""
    assert "overflows" in err


def test_parse_grid_accepts_the_largest_count():
    assert len(parse_grid_spec(f"0:1:{cli.MAX_GRID_POINTS}")) == cli.MAX_GRID_POINTS


@pytest.mark.parametrize(
    "argv",
    [
        ["sym", "--scan-phi", "0:1:100000000000"],
        ["hom", "--scan-g2", f"0:6:{cli.MAX_GRID_POINTS + 1}"],
    ],
)
def test_oversized_grid_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"at most {cli.MAX_GRID_POINTS} points" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hom", "--g2", "inf"], "g2 must be in [0, 1e+12], got inf"),
        (["hom", "--R", "nan", "--g2", "1"], "reflectance must be in [0, 1], got nan"),
        (["optimize", "--phi", "nan"], "phi must be finite"),
        (
            ["coinc", "--beamsplitter", "inf", "--sources", "laser"],
            "reflectance must be in [0, 1], got inf",
        ),
        (["coinc", "--symmetric=-inf", "--sources", "laser"], "phi must be finite"),
    ],
    ids=[f"argv{i}" for i in range(5)],
)
def test_non_finite_float_flag_is_a_usage_error(capsys, argv, message):
    """The library refuses each value; the CLI reads the flags as plain floats."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "seed, message",
    [("-1", "must be >= 0, got -1"), ("abc", "invalid int value: 'abc'")],
    ids=["negative", "non-integer"],
)
def test_invalid_seed_is_a_usage_error(capsys, seed, message):
    code, out, err = run_cli_rejected(capsys, "verify", "--seed", seed)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: ")
    assert err.endswith(f"error: argument --seed: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["hom", "--g2", "1", "--scan-g2", "0:1:3"],
        ["hom", "--source", "thermal", "--g2", "0"],
        ["optimize", "--phi", "1", "--crossover"],
        ["optimize", "--phi", "1", "--scan-phi", "0:1:3"],
        ["coinc", "--dft", "3", "--beamsplitter", "0.5", "--sources", "laser"],
    ],
)
def test_conflicting_flags_are_a_usage_error(capsys, argv):
    code, out, err = run_cli_rejected(capsys, *argv)
    assert code == 2
    assert out == ""
    assert all(flag in err for flag in argv if flag.startswith("--") and flag != "--sources")


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "hom", "--g2", "1", "-o", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write")
    assert not target.exists()


def test_json_emission_refuses_nan(monkeypatch):
    monkeypatch.setattr(cli, "_optimum_report", lambda phi: {"phi": math.nan})
    args = cli.build_parser().parse_args(["optimize", "--phi", "1"])
    with pytest.raises(ValueError):
        cli.cmd_optimize(args)


# --- csv invariants ---------------------------------------------------------------

def rows_self_consistent(rows):
    for row in rows:
        p_id, p_dist, v = (float(row[k]) for k in ("p_id", "p_dist", "v"))
        if p_dist > 1e-12:
            assert v == pytest.approx(1 - p_id / p_dist, abs=1e-12)


def test_dft_vis_output(capsys):
    code, out, _ = run_cli(capsys, "dft-vis", "--scan-g2", "0:6:61")
    assert code == 0
    rows = read_csv(out)
    rows_self_consistent(rows)
    labels = {row["label"] for row in rows}
    assert {"classical-bound", "gaussian-bound", "hom-reference",
            "fock1", "fock2", "fock4", "laser", "thermal", "thermal-sh"} <= labels
    fock1 = next(r for r in rows if r["label"] == "fock1")
    assert float(fock1["v"]) == pytest.approx(-0.5)
    laser = next(r for r in rows if r["label"] == "laser")
    assert float(laser["v"]) == pytest.approx(5 / 9)
    thermal = next(r for r in rows if r["label"] == "thermal")
    assert float(thermal["v"]) == pytest.approx(0.55)


def test_dft_vis_classical_bound_peak(capsys):
    _, out, _ = run_cli(capsys, "dft-vis", "--scan-g2", "0:6:301")
    curve = [r for r in read_csv(out) if r["label"] == "classical-bound"]
    best = max(curve, key=lambda r: float(r["v"]))
    assert float(best["v"]) == pytest.approx(0.6114, abs=1e-3)
    assert float(best["g2"]) == pytest.approx(1.9067, abs=0.05)


def test_dft_vis_deterministic(capsys):
    _, first, _ = run_cli(capsys, "dft-vis", "--scan-g2", "0:6:51")
    _, second, _ = run_cli(capsys, "dft-vis", "--scan-g2", "0:6:51")
    assert first == second


def test_dft_vis_floats_roundtrip(capsys):
    _, out, _ = run_cli(capsys, "dft-vis", "--scan-g2", "0:6:11")
    for row in read_csv(out):
        value = float(row["v"])
        assert format(value, ".17g") == row["v"]


def test_mismatch_output(capsys):
    code, out, _ = run_cli(capsys, "mismatch", "--scan-xi", "0:2:21")
    assert code == 0
    rows = read_csv(out)
    rows_self_consistent(rows)
    fock1 = [r for r in rows if r["label"] == "fock:1"]
    assert float(fock1[0]["v"]) == 0.0
    assert float(fock1[-1]["v"]) == pytest.approx(-0.5, abs=1e-12)
    joint = next(r for r in fock1 if float(r["xi"]) == 1.0)
    assert float(joint["p_id"]) == pytest.approx(1 / 9, abs=1e-12)


def test_sym_output(capsys):
    code, out, _ = run_cli(capsys, "sym", "--scan-phi", f"0:{2 * math.pi}:81")
    assert code == 0
    rows = read_csv(out)
    rows_self_consistent(rows)
    at_zero = [r for r in rows if float(r["phi"]) == 0.0]
    assert at_zero and all(float(r["v"]) == 0.0 for r in at_zero)
    thermal_p = [float(r["p_id"]) for r in rows if r["label"] == "thermal"]
    assert max(thermal_p) - min(thermal_p) < 1e-12


def test_output_file(tmp_path, capsys):
    target = tmp_path / "bs.csv"
    code, out, _ = run_cli(capsys, "hom", "--R", "0.5", "--g2", "2", "-o", str(target))
    assert code == 0
    assert out == ""
    rows = read_csv(target.read_text())
    assert float(rows[0]["v"]) == pytest.approx(1 / 3)


# --- coinc and circuit files ----------------------------------------------------

def circuit_file(tmp_path, u):
    path = tmp_path / "circuit.json"
    payload = {"n": u.shape[0], "re": u.real.tolist(), "im": u.imag.tolist()}
    path.write_text(json.dumps(payload))
    return str(path)


def test_coinc_with_custom_circuit_matches_builtin(tmp_path, capsys):
    path = circuit_file(tmp_path, circuits.dft(3).u)
    code, out, _ = run_cli(capsys, "coinc", "--circuit", path, "--sources", "thermal")
    assert code == 0
    row = read_csv(out)[0]
    assert float(row["p_id"]) == pytest.approx(1.0, abs=1e-9)
    assert float(row["p_dist"]) == pytest.approx(20 / 9, abs=1e-9)
    assert float(row["v"]) == pytest.approx(11 / 20, abs=1e-9)


@pytest.mark.parametrize(
    "text",
    [
        None,
        "{not json",
        json.dumps({"n": 3, "re": np.eye(2).tolist(), "im": np.zeros((2, 2)).tolist()}),
        '{"n": 1e400, "re": [[1]], "im": [[0]]}',
        '{"n": 2.9, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}',
        '{"n": 2.0, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}',
        '{"n": "2", "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}',
        '{"n": true, "re": [[1]], "im": [[0]]}',
        '{"n": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}',
        '{"n": 2, "re": [[1, 0], [0, 1]]}',
    ],
    ids=[
        "missing", "invalid-json", "n-mismatch", "n-infinite", "n-fraction", "n-float", "n-string", "n-bool",
        "re-ragged", "im-missing",
    ],
)
def test_coinc_unloadable_circuit_file_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "circuit.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(capsys, "coinc", "--circuit", str(path), "--sources", "laser")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    if text is not None and '"n": 3' not in text:  # a port count that is no JSON integer
        assert err.startswith(f"error: cannot load circuit from {path}: ")


@pytest.mark.parametrize("n", [0, coincidence.MAX_PORTS + 1, 171])
def test_coinc_circuit_port_count_is_refused_when_read(tmp_path, capsys, monkeypatch, n):
    path = circuit_file(tmp_path, np.eye(n))
    monkeypatch.setattr(circuits, "custom", lambda u: pytest.fail("the circuit was built"))
    monkeypatch.setattr(sources, "thermal_stats", lambda *a: pytest.fail("a source was built"))
    code, out, err = run_cli(capsys, "coinc", "--circuit", path, "--sources", "thermal")
    assert code == 2
    assert out == ""
    assert err == f"error: port count must be in 1..{coincidence.MAX_PORTS}, got {n}\n"


def test_coinc_circuit_roundtrip_loader(tmp_path):
    u = circuits.symmetric(1.0).u
    loaded = load_circuit_json(circuit_file(tmp_path, u))
    np.testing.assert_allclose(loaded.u, u, atol=1e-15)


def test_coinc_rejects_non_unitary_file(tmp_path, capsys):
    broken = np.eye(3, dtype=complex)
    broken[0, 0] = 0.5
    path = circuit_file(tmp_path, broken)
    code, _, err = run_cli(capsys, "coinc", "--circuit", path, "--sources", "laser")
    assert code == 2
    assert "unitary" in err


@pytest.mark.parametrize(
    "r, spec, g2",
    [
        (0.0, "thermal", 2.0),
        (0.3, "fock:1", 0.0),
        (1.0, "laser", 1.0),
        (0.5, "diluted:1e-7", 1e7),  # g(3) = 1e14 is past the cap, but no 2-port term reads it
    ],
)
def test_coinc_beamsplitter_matches_hom_closed_form(capsys, r, spec, g2):
    code, out, _ = run_cli(capsys, "coinc", "--beamsplitter", str(r), "--sources", spec)
    assert code == 0
    want = visibility_of(coincidence.coincidence_hom, r, g2).v
    assert float(read_csv(out)[0]["v"]) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("spec", ["fock:1", "laser", "thermal", "noise-opt", "vac12:0.2,0.5"])
def test_coinc_symmetric_at_two_thirds_pi_matches_dft3(capsys, spec):
    rows = []
    for flags in (["--symmetric", "2.0943951023931953"], ["--dft", "3"]):
        code, out, _ = run_cli(capsys, "coinc", *flags, "--sources", spec)
        assert code == 0
        rows.append(read_csv(out)[0])
    sym, dft = rows
    for key in ("p_id", "p_dist", "v"):
        assert float(sym[key]) == pytest.approx(float(dft[key]), abs=1e-12)


def test_coinc_per_port_sources(capsys):
    code, out, _ = run_cli(
        capsys, "coinc", "--dft", "3", "--sources", "fock:1,laser,thermal"
    )
    assert code == 0
    row = read_csv(out)[0]
    assert row["label"] == "fock:1+laser+thermal"
    rows_self_consistent([row])


def test_coinc_source_count_mismatch(capsys):
    code, _, err = run_cli(capsys, "coinc", "--dft", "3", "--sources", "laser,laser")
    assert code == 2
    assert "sources" in err


def test_coinc_requires_exactly_one_circuit(capsys):
    for circuit_flags in ([], ["--dft", "3", "--beamsplitter", "0.5"]):
        code, out, err = run_cli_rejected(capsys, "coinc", *circuit_flags, "--sources", "laser")
        assert code == 2
        assert out == ""
        assert all(
            flag in err for flag in ("--dft", "--beamsplitter", "--symmetric", "--circuit")
        )


@pytest.mark.parametrize("n", [1, coincidence.MAX_PORTS + 1, 3000])
def test_coinc_dft_outside_the_port_range_builds_nothing(capsys, monkeypatch, n):
    monkeypatch.setattr(circuits, "dft", lambda n: pytest.fail(f"dft({n}) was built"))
    code, out, err = run_cli_rejected(capsys, "coinc", "--dft", str(n), "--sources", "laser")
    assert code == 2
    assert out == ""
    assert "--dft" in err


def test_coinc_dft_port_range(capsys):
    code, out, _ = run_cli(
        capsys, "coinc", "--dft", str(coincidence.MAX_PORTS), "--sources", "thermal"
    )
    assert code == 0
    assert float(read_csv(out)[0]["p_id"]) == pytest.approx(1.0, abs=1e-12)
    code, out, _ = run_cli_rejected(capsys, "coinc", "--help")
    assert code == 0
    assert f"2..{coincidence.MAX_PORTS}" in out


# --- optimize ---------------------------------------------------------------------

def test_optimize_single_phase(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--phi", str(2 * math.pi / 3))
    assert code == 0
    payload = json.loads(out)
    assert payload["v_opt"] == pytest.approx((19 - math.sqrt(109)) / 14, abs=1e-6)
    assert payload["g2_opt"] == pytest.approx((1 + math.sqrt(109)) / 6, abs=1e-4)
    assert set(payload) >= {"phi", "g2_opt", "v_opt", "iterations", "bracket"}


def test_optimize_crossover(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--crossover")
    assert code == 0
    payload = json.loads(out)
    assert payload["window"] is not None
    assert payload["g2_fixed"] == pytest.approx(1.13, abs=0.01)


def test_optimize_requires_mode(capsys):
    code, out, err = run_cli_rejected(capsys, "optimize")
    assert code == 2
    assert out == ""
    assert all(flag in err for flag in ("--phi", "--scan-phi", "--crossover"))


# --- verify -----------------------------------------------------------------------

VERIFY_NAMES = [
    "permanent-ryser-vs-naive",
    "permanent-known-values",
    "hom-engine-vs-closed-form",
    "balanced3-anchors",
    "explicit3-vs-general",
    "mismatch-joint-endpoints",
    "symmetric-vs-balanced3",
    "oracle-vs-engines",
    "thermal-phase-invariance",
    "scan-self-consistency",
]


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "7")
    assert code == 0
    assert "10/10 checks passed" in out


def test_verify_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--seed", "7")
    _, second, _ = run_cli(capsys, "verify", "--seed", "7")
    assert first == second


def test_run_checks_yields_every_record_in_cli_order():
    records = list(verify.run_checks(7))
    assert [r.name for r in records] == VERIFY_NAMES
    assert all(r.ok and r.seconds >= 0 for r in records)


def test_verify_builds_one_table_per_circuit(monkeypatch):
    # ten distinct circuits; the balanced 3-port that three checks read is built once
    build, calls = coincidence._weights, []

    def counted(circuit):
        calls.append(circuit)
        return build(circuit)

    monkeypatch.setattr(coincidence, "_weights", counted)
    list(verify.run_checks(0))
    assert len(calls) == 10


def test_crashed_check_is_one_failed_record(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("oracle down")

    monkeypatch.setattr(fockspace, "oracle_coincidence", broken)
    records = list(verify.run_checks(7))
    assert [r.name for r in records] == VERIFY_NAMES
    assert [(r.name, r.detail) for r in records if not r.ok] == [
        ("oracle-vs-engines", "raised RuntimeError: oracle down")
    ]
    code, out, err = run_cli(capsys, "verify", "--seed", "7")
    assert code == 1
    assert "FAIL oracle-vs-engines: raised RuntimeError: oracle down" in out.splitlines()
    assert out.splitlines()[-1] == "9/10 checks passed (seed=7)"
    assert [line.split(":")[0] for line in err.splitlines()] == VERIFY_NAMES


def test_failed_shared_circuit_fails_only_the_checks_that_read_it(monkeypatch):
    def broken(n):
        raise RuntimeError(f"no dft({n})")

    monkeypatch.setattr(circuits, "dft", broken)
    failed = [(r.name, r.detail) for r in verify.run_checks(7) if not r.ok]
    assert failed == [
        (name, "raised RuntimeError: no dft(3)")
        for name in (
            "permanent-known-values",
            "balanced3-anchors",
            "oracle-vs-engines",
        )
    ]


def test_verify_detects_injected_sign_flip(capsys, monkeypatch):
    original = linalg.permanent

    def flipped(matrix):
        return -original(matrix)

    monkeypatch.setattr(linalg, "permanent", flipped)
    code, out, _ = run_cli(capsys, "verify", "--seed", "7")
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "7/10 checks passed (seed=7)"
    rows = [line.split(":")[0].split() for line in lines[:-1]]
    assert sorted(name for word, name in rows if word == "FAIL") == [
        "explicit3-vs-general",
        "permanent-known-values",
        "permanent-ryser-vs-naive",
    ]
    assert [word for word, _ in rows].count("ok") == 7


@pytest.mark.parametrize("n", range(1, 9))
def test_kernel_check_sees_every_size(monkeypatch, n):
    """A kernel off by 1e-6 at one size n fails the first check at every
    golden seed."""
    original = linalg.permanent

    def off_at_n(matrix):
        value = original(matrix)
        return value * (1 + 1e-6) if np.shape(matrix) == (n, n) else value

    monkeypatch.setattr(linalg, "permanent", off_at_n)
    for seed in (0, 7, 101):
        record = next(verify.run_checks(seed))
        assert record.name == "permanent-ryser-vs-naive"
        assert not record.ok, (seed, record.detail)


def test_verify_detects_a_corrupted_weight_table(capsys, monkeypatch):
    """Flip the sign of U's last first-row entry inside the table build:
    w_dist (from |U|^2) is unchanged and w_id is wrong."""
    build = coincidence._weights

    def corrupted(circuit):
        u = circuit.u.copy()
        u[0, -1] = -u[0, -1]
        return build(circuits.Circuit(u=u))

    monkeypatch.setattr(coincidence, "_weights", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--seed", "7")
    assert code == 1
    rows = [line.split(":")[0].split() for line in out.splitlines()[:-1]]
    assert sorted(name for word, name in rows if word == "FAIL") == [
        "balanced3-anchors",
        "explicit3-vs-general",
        "hom-engine-vs-closed-form",
        "oracle-vs-engines",
        "symmetric-vs-balanced3",
    ]
    assert out.splitlines()[-1] == "5/10 checks passed (seed=7)"


def test_importing_the_cli_loads_the_oracle():
    # Tools that wrap the layer modules look them up in sys.modules right
    # after this import, and the CLI reaches fockspace only through verify.
    code = "import sys, multiphoton.cli; print('multiphoton.fockspace' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.stdout == "True\n"


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "multiphoton.cli", "hom", "--R", "0.5", "--g2", "0"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "param,g2,p_id,p_dist,v"
    assert result.stdout.splitlines()[1].endswith(",1")  # v = 1 at g2 = 0


def test_closed_pipe_is_not_a_traceback():
    # -u writes each verify line as it is printed, so the lines after the
    # first meet a pipe whose read end is already closed
    with subprocess.Popen(
        [sys.executable, "-u", "-m", "multiphoton.cli", "verify", "--seed", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline().startswith(b"ok ")
        proc.stdout.close()
        err = proc.stderr.read()
    assert b"Traceback" not in err
    assert proc.returncode in (0, cli.BROKEN_PIPE_EXIT)  # 0 only if it finished first
