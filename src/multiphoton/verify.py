"""Internal consistency checks behind ``multiphoton verify``, each comparing
two independent routes to the same numbers.  Every other layer is reached
through its module attribute at call time, so a function patched there is
the one that gets checked."""

from __future__ import annotations

import functools
import math
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
    finishes.  ``seed`` fixes the random inputs; a check that raises gives a
    failed record and the rest still run."""
    for name, check in _checks(np.random.default_rng(seed)):
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


def _checks(rng: np.random.Generator):
    def permanent_vs_naive():
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(1, 8))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a, b = linalg.permanent(m), linalg.permanent_naive(m)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
        return worst < 1e-10, f"max relative gap {worst:.2e}"

    def permanent_known():
        ones = linalg.permanent(np.ones((6, 6)))
        dft3 = abs(linalg.permanent(circuits.dft(3).u)) ** 2
        ok = abs(ones - 720) < 1e-9 and abs(dft3 - 1 / 3) < 1e-12
        return ok, f"all-ones 6x6 -> {ones.real:.6f}, |Per(dft3)|^2 -> {dft3:.6f}"

    def hom_engine_vs_closed():
        worst = 0.0
        for r in np.linspace(0, 1, 5).tolist():
            for g2 in np.linspace(0, 4, 5).tolist():
                ens = coincidence.uniform_ensemble(2, sources.custom_stats(g2))
                for flag, p in zip((True, False), _engines(circuits.beamsplitter(r), ens)):
                    worst = max(worst, abs(p - coincidence.coincidence_hom(r, g2, flag)))
        return worst < 1e-12, f"max gap {worst:.2e}"

    def balanced3_anchors():
        oks = []
        circuit = circuits.dft(3)
        for stats, expect in [
            (sources.fock_stats(1), (1 / 3, 2 / 9)),
            (sources.laser_stats(), (4 / 9, 1.0)),
            (sources.thermal_stats(), (1.0, 20 / 9)),
        ]:
            p_id, p_dist = _engines(circuit, coincidence.uniform_ensemble(3, stats))
            oks.append(abs(p_id - expect[0]) < 1e-12 and abs(p_dist - expect[1]) < 1e-12)
        return all(oks), "single-photon/laser/thermal anchor probabilities"

    def explicit_vs_general():
        worst = 0.0
        circuit = circuits.symmetric(0.7)
        for _ in range(10):
            stats = tuple(
                sources.custom_stats(float(rng.uniform(0, 4)), float(rng.uniform(0, 9)),
                                     mean_n=float(rng.uniform(0.1, 3)))
                for _ in range(3)
            )
            ens = coincidence.InputEnsemble(stats=stats)
            for flag, b in zip((True, False), _engines(circuit, ens, "p_raw")):
                a = coincidence.coincidence_n3_explicit(circuit, ens, flag).p_raw
                worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
        return worst < 1e-12, f"max relative gap {worst:.2e}"

    def mismatch_joint_and_endpoints():
        g2, g3 = np.meshgrid(np.linspace(0, 4, 5), np.linspace(0, 9, 5))
        mismatch = functools.partial(coincidence.coincidence_mismatch_n3, g2, g3)
        gaps = [
            mismatch(1.0) - mismatch(1.0 + 1e-15),
            mismatch(0.0) - coincidence.coincidence_dft3(g2, g3, False),
            mismatch(2.0) - coincidence.coincidence_dft3(g2, g3, True),
        ]
        worst = float(np.abs(gaps).max())
        return worst < 1e-12, f"max gap {worst:.2e}"

    def symmetric_matches_balanced():
        worst = 0.0
        sym = circuits.symmetric(2 * math.pi / 3)
        bal = circuits.dft(3)
        for _, stats in optimize.standard_sources():
            ens = coincidence.uniform_ensemble(3, stats)
            for a, b in zip(_engines(sym, ens), _engines(bal, ens)):
                worst = max(worst, abs(a - b))
        return worst < 1e-12, f"max gap {worst:.2e}"

    def oracle_vs_engines():
        worst = 0.0
        cases = [  # every port fed the same Fock mixture of (weight, photon count)
            (circuits.dft(3), [(1.0, 1)]),
            (circuits.dft(2), [(1.0, 1)]),
            (circuits.beamsplitter(0.3), [(1.0, 2)]),
            (circuits.dft(3), [(0.3, 0), (0.49, 1), (0.21, 2)]),
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
            for phi in np.linspace(0, 2 * math.pi, 101)
        ]
        spread = max(values) - min(values)
        return spread < 1e-12, f"spread {spread:.2e}"

    def scan_self_consistency():
        worst = 0.0
        for result in optimize.scan_overlap(optimize.standard_sources(), np.linspace(0, 2, 51)):
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
