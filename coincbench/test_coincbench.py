"""Self-tests of the benchmark: ``python3 -m pytest coincbench -q``."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import spans
import workloads

sys.path.insert(0, str(workloads.SRC))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_same_seed_gives_identical_inputs():
    for make in (workloads.cold_inputs, workloads.warm_inputs):
        (u1, d1), (u2, d2), (u3, _) = make(5, 40), make(5, 40), make(6, 40)
        assert np.array_equal(u1, u2) and d1 == d2
        assert not np.array_equal(u1, u3)
    assert workloads.cli_inputs(5, 2) == workloads.cli_inputs(5, 2) != workloads.cli_inputs(6, 2)


def test_generated_unitaries_are_unitary():
    u, _ = workloads.cold_inputs(0, 50)
    eye = np.eye(workloads.N_COLD)
    assert max(np.abs(m.conj().T @ m - eye).max() for m in u) < 1e-12


def _perturbed(result, field="p_raw"):
    return dataclasses.replace(result, **{field: getattr(result, field) * (1 + 1e-6)})


def test_cold_check_rejects_perturbed_result():
    ws = workloads.ColdTables(0)
    ws.setup()
    circuit, r_id, r_dist, point = ws.op(0)  # op 0 gets the permutation check
    assert ws.check(0, (circuit, r_id, r_dist, point))
    assert not ws.check(0, (circuit, _perturbed(r_id), r_dist, point))
    assert not ws.check(0, (circuit, r_id, _perturbed(r_dist, "p_normalized"), point))


def test_warm_check_rejects_perturbed_result():
    ws = workloads.WarmEnsembles(0)
    ws.setup()
    ensemble, r_id, r_dist, point = ws.op(0)
    assert ws.check(0, (ensemble, r_id, r_dist, point))
    assert ws.finish(1) == set()
    ws.sampled = []
    assert ws.check(0, (ensemble, r_id, _perturbed(r_dist), point))
    assert ws.finish(1) == {0}


def _cli(mp, argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = workloads.module("cli").main(argv)
    return rc, buffer.getvalue()


def _nudge(text: str, number: str) -> str:
    """Replace the first occurrence of ``number`` by itself times 1 + 1e-6."""
    return text.replace(number, repr(float(number) * (1 + 1e-6)), 1)


@pytest.mark.parametrize("key", [k for k, _ in workloads.CLI_COMMANDS])
def test_cli_check_rejects_perturbed_output(key):
    mp = workloads.fresh_import()
    reference = checks.load_reference()
    seed = reference["seed"]
    argv = dict(workloads.cli_inputs(seed, 1))[key]
    rc, text = _cli(mp, argv)
    assert checks.cli_ok(mp, key, argv, rc, text, seed, reference)
    assert not checks.cli_ok(mp, key, argv, 1, text, seed, reference)
    if key == "verify":
        gap = re.search(r"all-ones 6x6 -> ([0-9.]+)", text).group(1)
        bad = text.replace(gap, f"{float(gap) * (1 + 1e-6):.6f}", 1)
    elif key in checks.CSV_ROWS:
        last = text.splitlines()[-1].split(",")
        bad = _nudge(text, last[-2])  # p_dist of the last row
    else:
        value = re.findall(r"-?\d+\.\d{6,}(?:e-?\d+)?", text)[-1]
        bad = _nudge(text, value)
    assert bad != text
    assert not checks.cli_ok(mp, key, argv, 0, bad, seed, reference)


def test_strict_json_rejects_nan():
    with pytest.raises(ValueError):
        checks.strict_json('{"v": NaN}')


def test_metric_catalogue_matches_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in spans.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name, (unit, *_rest) in {**run.END_TO_END, **spans.PER_LAYER}.items():
        assert NAME.match(name) and UNIT.match(unit), name


def test_traced_run_emits_every_per_layer_metric_with_unit():
    proc = subprocess.run(
        [sys.executable, "coincbench/run.py", "--workload", "cli-figures", "--seed", "0", "--trace", "1"],
        cwd=workloads.ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(spans.PER_LAYER)
    for name, entry in result["metrics"].items():
        assert NAME.match(name) and UNIT.match(entry["unit"]), name
        assert isinstance(entry["value"], float)
