"""Output checks of the coincidence benchmark.

Every op's output is checked outside the timed region; an op whose check
fails counts as failed.  The checks are pure functions of the output (plus,
for the invariants, calls into the public library API), so the self-tests
can feed them perturbed results.

CLI outputs are compared with ``reference.json``, recorded at the commit
that introduced the benchmark.  The comparison is numeric, never bytewise:
CSV columns are compared through three sums each (plain, row-weighted and
absolute) at a tolerance of 1e-12 times the column's absolute sum, JSON and
``verify`` numbers value by value at 1e-12 relative.  A deliberate last-bit
change therefore passes; a 1e-6 change to any single value does not.

Record the reference again (only when the CLI output is meant to change)::

    python3 coincbench/checks.py --record
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REL_TOL = 1e-12
PROB_TOL = 1e-10
# maximize_classical stops within 1e-10 of the optimum in g2; where the
# optimum is the laser boundary g2 = 1 its value may sit that far (times
# |dV/dg2| < 1) below the laser visibility.
OPT_TOL = 1e-10

# Rows each CSV command prints for the argv in workloads.CLI_COMMANDS.
CSV_ROWS = {
    "hom": 301,
    "dft-vis": 3 * 301 + 6,
    "mismatch": 4 * 201,
    "sym": 4 * 401,
    "coinc": 1,
}
# Commands whose output depends on the run's seed; the reference covers
# them only for the seed it was recorded with.
SEEDED = {"optimize-phi", "verify"}


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# --- library engines ---------------------------------------------------------


def probabilities_ok(r_id, r_dist, point) -> bool:
    """Finite, non-negative probabilities and V = 1 - P_id/P_dist."""
    values = (r_id.p_raw, r_id.p_normalized, r_dist.p_raw, r_dist.p_normalized)
    if not all(math.isfinite(x) and x >= 0 for x in values):
        return False
    return math.isfinite(point.v) and close(
        point.v, 1 - r_id.p_normalized / r_dist.p_normalized
    )


def uniform_invariants_ok(mp, circuit) -> bool:
    """For any unitary, uniform thermal input gives normalized P_id = 1 and
    uniform laser input gives normalized P_dist = 1."""
    n = circuit.n
    thermal = mp.uniform_ensemble(n, mp.thermal_stats(n))
    laser = mp.uniform_ensemble(n, mp.laser_stats(n))
    p_id = mp.coincidence_id_general(circuit, thermal).p_normalized
    p_dist = mp.coincidence_dist_general(circuit, laser).p_normalized
    return abs(p_id - 1) <= PROB_TOL and abs(p_dist - 1) <= PROB_TOL


def permuted(mp, u, ensemble, perm_in, perm_out):
    """The same experiment with input ports (columns, with their sources)
    and output ports (rows) relabelled."""
    circuit = mp.custom(u[perm_out][:, perm_in])
    stats = tuple(ensemble.stats[j] for j in perm_in)
    return circuit, mp.InputEnsemble(stats=stats)


def permutation_ok(mp, u, ensemble, p_raw, perm_in, perm_out) -> bool:
    """Relabelling ports leaves both raw coincidences unchanged (1e-10
    relative); ``p_raw`` is the (id, dist) pair of the unpermuted op."""
    circuit, ens = permuted(mp, u, ensemble, perm_in, perm_out)
    got = (
        mp.coincidence_id_general(circuit, ens).p_raw,
        mp.coincidence_dist_general(circuit, ens).p_raw,
    )
    return all(abs(g - p) <= PROB_TOL * max(abs(p), 1e-300) for g, p in zip(got, p_raw))


# --- CLI outputs -------------------------------------------------------------


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _floats(column: list[str]) -> list[float] | None:
    try:
        return [float(x) for x in column]
    except ValueError:
        return None


def csv_fingerprint(text: str) -> dict:
    """Header, label runs, and (sum, row-weighted sum, absolute sum) of every
    numeric column."""
    header, rows = parse_csv(text)
    columns = list(zip(*rows))
    labels, sums = [], []
    for column in columns:
        values = _floats(list(column))
        if values is None:
            runs: list[list] = []
            for value in column:
                if runs and runs[-1][0] == value:
                    runs[-1][1] += 1
                else:
                    runs.append([value, 1])
            labels.append(runs)
        else:
            sums.append(
                [
                    math.fsum(values),
                    math.fsum((k + 1) * x for k, x in enumerate(values)) / len(values),
                    math.fsum(abs(x) for x in values),
                ]
            )
    return {"header": header, "rows": len(rows), "labels": labels, "sums": sums}


def csv_matches(got: dict, ref: dict) -> bool:
    if (got["header"], got["rows"], got["labels"]) != (
        ref["header"],
        ref["rows"],
        ref["labels"],
    ):
        return False
    for g, r in zip(got["sums"], ref["sums"]):
        tol = REL_TOL * max(1.0, r[2])
        if any(abs(a - b) > tol for a, b in zip(g, r)):
            return False
    return len(got["sums"]) == len(ref["sums"])


def csv_ok(key: str, text: str) -> bool:
    """Expected row count, finite numbers, v == 1 - p_id/p_dist per row."""
    header, rows = parse_csv(text)
    if header[-3:] != ["p_id", "p_dist", "v"] or len(rows) != CSV_ROWS[key]:
        return False
    for row in rows:
        if len(row) != len(header):
            return False
        p_id, p_dist, v = (float(x) for x in row[-3:])
        if not all(map(math.isfinite, (p_id, p_dist, v))) or p_dist <= 0:
            return False
        if not close(v, 1 - p_id / p_dist):
            return False
    return True


def json_leaves(value, path: str = "") -> list[tuple[str, object]]:
    if isinstance(value, dict):
        return [leaf for k in sorted(value) for leaf in json_leaves(value[k], f"{path}/{k}")]
    if isinstance(value, list):
        return [leaf for i, v in enumerate(value) for leaf in json_leaves(v, f"{path}/{i}")]
    return [(path, value)]


def leaves_match(got: list, ref: list) -> bool:
    if len(got) != len(ref):
        return False
    for (gp, gv), (rp, rv) in zip(got, ref):
        if gp != rp:
            return False
        if isinstance(rv, float) and isinstance(gv, (int, float)):
            if not close(float(gv), rv):
                return False
        elif gv != rv:
            return False
    return True


VERIFY_LINE = re.compile(r"^(ok  |FAIL) ([\w-]+): (.*)$")
VERIFY_TAIL = re.compile(r"^(\d+)/(\d+) checks passed \(seed=(-?\d+)\)$")
NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def verify_leaves(text: str) -> list[tuple[str, object]] | None:
    """(check name, status) and every number of each detail; None unless
    every check passed."""
    lines = text.splitlines()
    tail = VERIFY_TAIL.match(lines[-1]) if lines else None
    if tail is None or tail.group(1) != tail.group(2):
        return None
    leaves: list[tuple[str, object]] = []
    for line in lines[:-1]:
        m = VERIFY_LINE.match(line)
        if m is None or m.group(1) != "ok  ":
            return None
        leaves.append((m.group(2), "ok"))
        leaves += [(m.group(2), float(x)) for x in NUMBER.findall(m.group(3))]
    return leaves if len(lines) - 1 == int(tail.group(2)) else None


def optimize_phi_ok(mp, phi: float, report: dict) -> bool:
    """Recompute the reported visibilities from the closed form and check
    the optimum is at least the laser value it competes with."""

    def vis(g2: float) -> float:
        return 1 - mp.coincidence_sym_phase(phi, g2, g2 * g2, True) / mp.coincidence_sym_phase(
            phi, g2, g2 * g2, False
        )

    fock = report["fock"]
    return (
        close(report["phi"], phi)
        and close(report["v_laser"], vis(1.0))
        and close(report["v_opt"], vis(report["g2_opt"]))
        and report["v_opt"] >= report["v_laser"] - OPT_TOL
        and fock["v_best"] >= fock["v_worst"]
        and min(fock["n_best"], fock["n_worst"]) >= 1
    )


def cli_fingerprint(key: str, text: str):
    if key in CSV_ROWS:
        return csv_fingerprint(text)
    if key == "verify":
        return verify_leaves(text)
    return json_leaves(strict_json(text))


def cli_ok(mp, key: str, argv: list[str], rc: int, text: str, seed: int, reference: dict) -> bool:
    """Exit 0, well-formed output, and a match with the reference where the
    reference covers this command and seed."""
    if rc != 0:
        return False
    try:
        if key in CSV_ROWS:
            if not csv_ok(key, text):
                return False
        elif key == "verify":
            if verify_leaves(text) is None:
                return False
        else:
            payload = strict_json(text)
            if key == "optimize-phi" and not optimize_phi_ok(mp, float(argv[-1]), payload):
                return False
        ref = reference["outputs"].get(key)
        if ref is None or (key in SEEDED and seed != reference["seed"]):
            return True
        got = cli_fingerprint(key, text)
        if key in CSV_ROWS:
            return csv_matches(got, ref)
        return leaves_match(got, [tuple(leaf) for leaf in ref])
    except (ValueError, IndexError, KeyError, TypeError):
        return False


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def record_reference(seed: int = 0) -> dict:
    """Run every CLI command of the benchmark once and fingerprint it."""
    import workloads

    outputs = {}
    for key, argv in workloads.cli_inputs(seed, rounds=1):
        rc, text = workloads.run_cli_subprocess(argv)
        if rc != 0:
            raise RuntimeError(f"{key} exited {rc}")
        outputs[key] = cli_fingerprint(key, text)
    return {"seed": seed, "outputs": outputs}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: python3 {sys.argv[0]} --record")
    REFERENCE_PATH.write_text(json.dumps(record_reference(), indent=1) + "\n", encoding="utf-8")
