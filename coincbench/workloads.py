"""The three workloads of the coincidence benchmark.

Each workload is a closed loop: one process, one op in flight.  Inputs are
generated from the seed by the benchmark; the library receives only them.

* ``cold-tables``: a new Haar-random 6-port circuit per op, so every op
  builds the per-circuit weight table (the permanent kernel and
  ``column_select``); the pattern sum is a small share.
* ``warm-ensembles``: one Haar-random 7-port circuit whose table is built
  during set-up; an op builds seven per-port sources and evaluates the
  pattern sum.  The kernel and the table build sit idle.
* ``cli-figures``: the eight documented CLI commands, round robin, each a
  ``python -m multiphoton.cli`` subprocess; the closed forms, scans,
  optimizers, emission and interpreter start-up.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

N_COLD = 6
N_WARM = 7
FAMILIES = ("fock", "laser", "thermal", "diluted", "vac12")


def fresh_import():
    """Import ``multiphoton`` (and its CLI) from scratch, so every set-up
    pays the import and no run inherits weight tables from an earlier one."""
    for name in [m for m in sys.modules if m == "multiphoton" or m.startswith("multiphoton.")]:
        del sys.modules[name]
    mp = importlib.import_module("multiphoton")
    importlib.import_module("multiphoton.cli")
    return mp


def module(name: str):
    return sys.modules[f"multiphoton.{name}"]


def haar_unitaries(rng, count: int, n: int) -> np.ndarray:
    """``count`` Haar-random n x n unitaries (QR of complex Ginibre
    matrices with the phases of R's diagonal divided out)."""
    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return np.ascontiguousarray(q * (d / np.abs(d))[:, None, :])


def source_draws(rng, count: int, n: int) -> list[tuple[tuple[str, float, float], ...]]:
    """``count`` ensembles of n per-port source draws (family, a, b)."""
    kinds = rng.integers(0, len(FAMILIES), size=(count, n)).tolist()
    params = rng.random((count, n, 2)).tolist()
    return [
        tuple((FAMILIES[k], a, b) for k, (a, b) in zip(row_k, row_p))
        for row_k, row_p in zip(kinds, params)
    ]


def build_source(mp, draw: tuple[str, float, float], n: int):
    """One SourceStats from a draw, defined to order n.  Parameters keep
    every mean photon number >= 0.1 and every g^(m) <= 1e6."""
    kind, a, b = draw
    if kind == "fock":
        return mp.fock_stats(1 + int(a * n), n)
    if kind == "laser":
        return mp.laser_stats(n, mean_n=0.2 + 1.8 * a)
    if kind == "thermal":
        return mp.thermal_stats(n, mean_n=0.2 + 1.8 * a)
    if kind == "diluted":
        return mp.diluted_laser_stats(0.1 + 0.9 * a, n)
    return mp.vac12_mixture_stats(0.9 * a, b, n)


def port_permutations(seed: int, i: int, n: int) -> tuple[list[int], list[int]]:
    rng = np.random.default_rng([seed, i, 1])
    return rng.permutation(n).tolist(), rng.permutation(n).tolist()


def cold_inputs(seed: int, count: int):
    rng = np.random.default_rng([seed, 0])
    return haar_unitaries(rng, count, N_COLD), source_draws(rng, count, N_COLD)


def warm_inputs(seed: int, count: int):
    rng = np.random.default_rng([seed, 1])
    return haar_unitaries(rng, 1, N_WARM)[0], source_draws(rng, count, N_WARM)


# --- cli-figures inputs --------------------------------------------------------

CLI_COMMANDS = (
    ("hom", ["hom", "--R", "0.5", "--scan-g2", "0:6:301"]),
    ("dft-vis", ["dft-vis", "--scan-g2", "0:6:301"]),
    ("mismatch", ["mismatch", "--scan-xi", "0:2:201"]),
    ("sym", ["sym", "--scan-phi", "0:6.283185307179586:401"]),
    ("coinc", ["coinc", "--dft", "3", "--sources", "fock:1,laser,thermal"]),
    ("optimize-phi", ["optimize", "--phi"]),
    ("optimize-crossover", ["optimize", "--crossover"]),
    ("verify", ["verify", "--seed"]),
)


def cli_inputs(seed: int, rounds: int) -> list[tuple[str, list[str]]]:
    """``rounds`` round-robin passes over the eight commands; the phase of
    ``optimize --phi`` is drawn once per run from the seed."""
    phi = float(np.random.default_rng([seed, 2]).uniform(0, 2 * math.pi))
    seeded = {"optimize-phi": [repr(phi)], "verify": [str(seed)]}
    one = [(key, argv + seeded.get(key, [])) for key, argv in CLI_COMMANDS]
    return one * rounds


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")


def run_cli_subprocess(argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "multiphoton.cli", *argv],
        cwd=ROOT,
        env=cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=120,
        check=False,
    )
    return proc.returncode, proc.stdout


# --- workloads -----------------------------------------------------------------


class Workload:
    """Set-up, ops and checks of one workload.

    ``setup`` is timed as a whole; ``prepare(i)`` runs untimed before op
    ``i``; ``op(i)`` is timed; ``check(i, out)`` runs untimed after it;
    ``finish(count)`` runs the checks that need the whole run and returns
    the indices of failed ops.
    """

    name = ""
    block = 1  # a timed run stops only at a multiple of this many ops
    pool = 0  # most ops one run can make
    trace_ops = 0  # ops in each pass of the traced run

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, i: int) -> None:
        pass

    def finish(self, count: int) -> set[int]:
        return set()

    def reset(self) -> None:
        """Undo what an op left in the library's caches, so that running
        the same op again costs what it cost the first time."""


class ColdTables(Workload):
    name = "cold-tables"
    pool = 2000
    trace_ops = 30
    permute_every = 10

    def setup(self):
        self.mp = fresh_import()
        module("coincidence").clear_permanent_cache()
        self.unitaries, draws = cold_inputs(self.seed, self.pool)
        self.ensembles = [
            self.mp.InputEnsemble(stats=tuple(build_source(self.mp, d, N_COLD) for d in row))
            for row in draws
        ]

    def reset(self):
        module("coincidence").clear_permanent_cache()

    def op(self, i):
        mp = self.mp
        circuit = mp.custom(self.unitaries[i])
        r_id = mp.coincidence_id_general(circuit, self.ensembles[i])
        r_dist = mp.coincidence_dist_general(circuit, self.ensembles[i])
        return circuit, r_id, r_dist, mp.visibility(r_id.p_normalized, r_dist.p_normalized)

    def check(self, i, out):
        circuit, r_id, r_dist, point = out
        if not (checks.probabilities_ok(r_id, r_dist, point) and checks.uniform_invariants_ok(self.mp, circuit)):
            return False
        if i % self.permute_every:
            return True
        return checks.permutation_ok(
            self.mp,
            self.unitaries[i],
            self.ensembles[i],
            (r_id.p_raw, r_dist.p_raw),
            *port_permutations(self.seed, i, N_COLD),
        )


class WarmEnsembles(Workload):
    name = "warm-ensembles"
    pool = 20000
    trace_ops = 600
    permute_every = 50

    def setup(self):
        self.mp = fresh_import()
        module("coincidence").clear_permanent_cache()
        self.u, self.draws = warm_inputs(self.seed, self.pool)
        self.circuit = self.mp.custom(self.u)
        thermal = self.mp.uniform_ensemble(N_WARM, self.mp.thermal_stats(N_WARM))
        self.mp.coincidence_id_general(self.circuit, thermal)  # builds the table
        self.sampled = []

    def op(self, i):
        mp = self.mp
        ensemble = mp.InputEnsemble(stats=tuple(build_source(mp, d, N_WARM) for d in self.draws[i]))
        r_id = mp.coincidence_id_general(self.circuit, ensemble)
        r_dist = mp.coincidence_dist_general(self.circuit, ensemble)
        return ensemble, r_id, r_dist, mp.visibility(r_id.p_normalized, r_dist.p_normalized)

    def check(self, i, out):
        ensemble, r_id, r_dist, point = out
        if i % self.permute_every == 0:
            self.sampled.append((i, ensemble, (r_id.p_raw, r_dist.p_raw)))
        return checks.probabilities_ok(r_id, r_dist, point)

    def finish(self, count):
        """Port-relabelling check on the sampled ops (one extra table for
        the permuted circuit), plus the uniform-input invariants."""
        failed = set()
        if not checks.uniform_invariants_ok(self.mp, self.circuit):
            failed = set(range(count))
        perm_in, perm_out = port_permutations(self.seed, self.pool, N_WARM)
        for i, ensemble, p_raw in self.sampled:
            if not checks.permutation_ok(self.mp, self.u, ensemble, p_raw, perm_in, perm_out):
                failed.add(i)
        return failed


class CliFigures(Workload):
    """In the timed run an op is a subprocess.  In the traced run it is an
    in-process ``cli.main(argv)`` call with stdout captured, after a fresh
    import so that no op inherits caches from another."""

    name = "cli-figures"
    block = len(CLI_COMMANDS)
    pool = 2000
    trace_ops = 3 * len(CLI_COMMANDS)
    in_process = False

    def setup(self):
        self.mp = fresh_import()
        self.inputs = cli_inputs(self.seed, self.pool // self.block)
        self.reference = checks.load_reference()
        # One untimed CLI call, so that bytecode compilation is paid in
        # set-up and not by the first timed op.
        run_cli_subprocess(self.inputs[0][1])
        self.stdout_bytes = {}

    def prepare(self, i):
        if self.in_process:
            self.mp = fresh_import()

    def op(self, i):
        argv = self.inputs[i][1]
        if not self.in_process:
            return run_cli_subprocess(argv)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            rc = module("cli").main(argv)
        return rc, buffer.getvalue()

    def check(self, i, out):
        rc, text = out
        self.stdout_bytes[i] = len(text.encode())
        key, argv = self.inputs[i]
        return checks.cli_ok(self.mp, key, argv, rc, text, self.seed, self.reference)


WORKLOADS = {w.name: w for w in (ColdTables, WarmEnsembles, CliFigures)}
