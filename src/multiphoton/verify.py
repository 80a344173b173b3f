"""Internal consistency checks behind ``multiphoton verify``, each comparing
two independent routes to the same numbers.  Every other layer is reached
through its module attribute at call time, so a function patched there is
the one that gets checked.  Five checks hold the engines to a reference
outside their weight table (``hom-engine-vs-closed-form``, ``balanced3-anchors``,
``explicit3-vs-general``, ``symmetric-vs-balanced3``, ``oracle-vs-engines``).
The kernel is held to exact identities, Per(x y^T) = n! prod(x) prod(y) at
n = 1..8 and Per(J_6) = 720; ``permanent-ryser-vs-naive`` keeps its name
because ``coincbench/reference.json`` and the golden files match checks by
name.  ``--seed`` seeds the ``random.Random`` that draws every input."""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from multiphoton import circuits, coincidence, fockspace, linalg, optimize, sources


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one check: whether it passed, what it measured, its wall time."""

    name: str
    ok: bool
    detail: str
    seconds: float


def run_checks(seed: int) -> Iterator[CheckRecord]:
    """Run every check in a fixed order, yielding each record as its check
    finishes.  ``seed`` seeds the ``random.Random`` of the random inputs; a
    check that raises gives a failed record and the rest still run."""
    for name, check in _checks(random.Random(seed)):
        start = time.perf_counter()
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        yield CheckRecord(name, ok, detail, time.perf_counter() - start)


def _engines(circuit, ens, field: str = "p_normalized") -> tuple[float, float]:
    """``field`` of the indistinguishable and distinguishable general engines."""
    return (
        getattr(coincidence.coincidence_id_general(circuit, ens), field),
        getattr(coincidence.coincidence_dist_general(circuit, ens), field),
    )


def _definition_table(circuit) -> list[tuple[tuple[int, ...], float, float]]:
    """(s, |c_U(s)|^2, Re c_V(s)) for every pattern s, c_M(s) = Per(M[:, d(s)])
    / prod_j s_j! for M = U and |U|^2: the engines' weights by their
    definition, sharing nothing with the table build."""
    n, u = circuit.n, circuit.u
    v = np.abs(u) ** 2
    table = []
    for s in itertools.product(range(n + 1), repeat=n):
        if sum(s) != n:
            continue
        d = [j for j, count in enumerate(s) for _ in range(count)]
        scale = math.prod(map(math.factorial, s))
        c_u = linalg.permanent(u[:, d]) / scale
        c_v = linalg.permanent(v[:, d]) / scale
        table.append((s, abs(c_u) ** 2, c_v.real))
    return table


def _checks(rng: random.Random):
    # One balanced 3-port, and so one weight table, for every check that reads
    # it; built inside the checks, so a raise fails only the checks that read it.
    dft3 = functools.cache(lambda: circuits.dft(3))

    def permanent_vs_naive():
        worst = 0.0
        for n in range(1, 9):
            for _ in range(2):  # Per(x y^T) = n! prod(x) prod(y)
                x, y = ([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(2))
                a = linalg.permanent(np.outer(x, y))
                b = math.factorial(n) * math.prod(x) * math.prod(y)
                worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
        return worst < 1e-10, f"max relative gap {worst:.2e}"

    def permanent_known():
        ones = linalg.permanent(np.ones((6, 6)))
        per_dft3 = abs(linalg.permanent(dft3().u)) ** 2
        ok = abs(ones - 720) < 1e-9 and abs(per_dft3 - 1 / 3) < 1e-12
        return ok, f"all-ones 6x6 -> {ones.real:.6f}, |Per(dft3)|^2 -> {per_dft3:.6f}"

    def hom_engine_vs_closed():
        worst = 0.0
        for r in np.linspace(0, 1, 5).tolist():
            circuit = circuits.beamsplitter(r)
            for g2 in np.linspace(0, 4, 5).tolist():
                ens = coincidence.uniform_ensemble(2, sources.custom_stats(g2))
                for flag, p in zip((True, False), _engines(circuit, ens)):
                    worst = max(worst, abs(p - coincidence.coincidence_hom(r, g2, flag)))
        return worst < 1e-12, f"max gap {worst:.2e}"

    def balanced3_anchors():
        oks = []
        for stats, expect in [
            (sources.fock_stats(1), (1 / 3, 2 / 9)),
            (sources.laser_stats(), (4 / 9, 1.0)),
            (sources.thermal_stats(), (1.0, 20 / 9)),
        ]:
            p_id, p_dist = _engines(dft3(), coincidence.uniform_ensemble(3, stats))
            oks.append(abs(p_id - expect[0]) < 1e-12 and abs(p_dist - expect[1]) < 1e-12)
        return all(oks), "single-photon/laser/thermal anchor probabilities"

    def explicit_vs_general():
        worst = 0.0
        circuit = circuits.symmetric(0.7)
        table = _definition_table(circuit)
        for _ in range(10):
            stats = tuple(
                sources.custom_stats(rng.uniform(0, 4), rng.uniform(0, 9), mean_n=rng.uniform(0.1, 3))
                for _ in range(3)
            )
            ens = coincidence.InputEnsemble(stats=stats)
            products = [
                math.prod(st.mean_n**k * st.g[k] for st, k in zip(stats, s)) for s, _, _ in table
            ]
            for column, b in zip((1, 2), _engines(circuit, ens, "p_raw")):
                a = sum(row[column] * p for row, p in zip(table, products))
                worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
        return worst < 1e-12, f"max relative gap {worst:.2e}"

    def mismatch_joint_and_endpoints():
        worst = 0.0
        for g2 in (0.0, 1.0, 2.0, 3.0, 4.0):
            for g3 in (0.0, 2.25, 4.5, 6.75, 9.0):
                mismatch = functools.partial(coincidence.coincidence_mismatch_n3, g2, g3)
                worst = max(
                    worst,
                    abs(mismatch(1.0) - mismatch(1.0 + 1e-15)),
                    abs(mismatch(0.0) - coincidence.coincidence_dft3(g2, g3, False)),
                    abs(mismatch(2.0) - coincidence.coincidence_dft3(g2, g3, True)),
                )
        return worst < 1e-12, f"max gap {worst:.2e}"

    def symmetric_matches_balanced():
        worst = 0.0
        sym = circuits.symmetric(2 * math.pi / 3)
        for _, stats in optimize.standard_sources():
            ens = coincidence.uniform_ensemble(3, stats)
            for flag, a in zip((True, False), _engines(sym, ens)):
                worst = max(worst, abs(a - coincidence.coincidence_dft3(stats.g2, stats.g3, flag)))
        return worst < 1e-12, f"max gap {worst:.2e}"

    def oracle_vs_engines():
        worst = 0.0
        cases = [  # every port fed the same Fock mixture of (weight, photon count)
            (dft3(), [(1.0, 1)]),
            (circuits.dft(2), [(1.0, 1)]),
            (circuits.beamsplitter(0.3), [(1.0, 2)]),
            (dft3(), [(0.3, 0), (0.49, 1), (0.21, 2)]),
        ]
        for circuit, components in cases:
            n, port_inputs = circuit.n, [components] * circuit.n
            mean = sum(w * c for w, c in components)
            mom2 = sum(w * c * (c - 1) for w, c in components)
            mom3 = sum(w * c * (c - 1) * (c - 2) for w, c in components)
            stats = sources.SourceStats(mean, (1.0, 1.0, mom2 / mean**2, mom3 / mean**3))
            p_id, p_dist = _engines(circuit, coincidence.uniform_ensemble(n, stats))
            _, same = fockspace.oracle_coincidence(circuit, port_inputs, [1] * n)
            _, dist = fockspace.oracle_coincidence(circuit, port_inputs, list(range(1, n + 1)))
            worst = max(worst, abs(same - p_id), abs(dist - p_dist))
        return worst < 1e-10, f"max gap {worst:.2e}"

    def thermal_phase_invariance():
        values = [
            coincidence.coincidence_sym_phase(phi, 2.0, 6.0, True)
            for phi in optimize.linear_grid(0, 2 * math.pi, 101)
        ]
        spread = max(values) - min(values)
        return spread < 1e-12, f"spread {spread:.2e}"

    def scan_self_consistency():
        worst = 0.0
        for result in optimize.scan_overlap(optimize.standard_sources(), optimize.linear_grid(0, 2, 51)):
            for _, p_id, p_dist, v in result.rows:
                worst = max(worst, abs(v - (1 - p_id / p_dist)))
        return worst < 1e-12, f"max gap {worst:.2e}"

    return [
        ("permanent-ryser-vs-naive", permanent_vs_naive),
        ("permanent-known-values", permanent_known),
        ("hom-engine-vs-closed-form", hom_engine_vs_closed),
        ("balanced3-anchors", balanced3_anchors),
        ("explicit3-vs-general", explicit_vs_general),
        ("mismatch-joint-endpoints", mismatch_joint_and_endpoints),
        ("symmetric-vs-balanced3", symmetric_matches_balanced),
        ("oracle-vs-engines", oracle_vs_engines),
        ("thermal-phase-invariance", thermal_phase_invariance),
        ("scan-self-consistency", scan_self_consistency),
    ]
