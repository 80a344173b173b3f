"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them) and
enforces its stated tolerance and runtime budget.
"""

import csv
import json
import math
import time

import numpy as np

from multiphoton import circuits, cli, coincidence, fockspace, linalg, sources
from multiphoton.optimize import (
    best_fock,
    crossover_window,
    golden_section_max,
    maximize_classical,
)
from multiphoton.visibility import visibility_of

import references


def report(criterion, ok, detail):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def vis_from_engines(circuit, stats):
    ens = coincidence.uniform_ensemble(circuit.n, stats)
    p_id = coincidence.coincidence_id_general(circuit, ens).p_normalized
    p_dist = coincidence.coincidence_dist_general(circuit, ens).p_normalized
    return p_id, p_dist, 1 - p_id / p_dist


def test_criterion_1_hom_closed_form():
    start = time.perf_counter()
    anchors = [
        abs(visibility_of(coincidence.coincidence_hom, 0.5, 0.0).v - 1.0),
        abs(visibility_of(coincidence.coincidence_hom, 0.5, 1.0).v - 0.5),
        abs(visibility_of(coincidence.coincidence_hom, 0.5, 2.0).v - 1 / 3),
    ]
    worst = 0.0
    for r in np.linspace(0.05, 0.95, 10):
        for g2 in np.linspace(0.0, 6.0, 10):
            _, _, v = vis_from_engines(
                circuits.beamsplitter(float(r)), sources.custom_stats(float(g2))
            )
            closed = visibility_of(coincidence.coincidence_hom, float(r), float(g2)).v
            worst = max(worst, abs(v - closed))
    elapsed = time.perf_counter() - start
    ok = max(anchors) < 1e-12 and worst <= 1e-12 and elapsed < 1.0
    report(
        "criterion-1 two-port closed form",
        ok,
        f"anchor gap {max(anchors):.2e}, engine gap {worst:.2e} over 100 points, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_balanced3_anchors():
    start = time.perf_counter()
    circuit = circuits.dft(3)
    expected = {
        "single photons": (sources.fock_stats(1), 1 / 3, 2 / 9, -0.5),
        "laser": (sources.laser_stats(), 4 / 9, 1.0, 5 / 9),
        "thermal": (sources.thermal_stats(), 1.0, 20 / 9, 11 / 20),
    }
    worst = 0.0
    for stats, p_id_ref, p_dist_ref, v_ref in expected.values():
        p_id, p_dist, v = vis_from_engines(circuit, stats)
        worst = max(worst, abs(p_id - p_id_ref), abs(p_dist - p_dist_ref), abs(v - v_ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(
        "criterion-2 balanced 3-port anchors",
        ok,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_classical_optimum():
    start = time.perf_counter()
    result = maximize_classical(2 * math.pi / 3)
    v_gap = abs(result.v_opt - (19 - math.sqrt(109)) / 14)
    g2_gap = abs(result.g2_opt - (1 + math.sqrt(109)) / 6)
    elapsed = time.perf_counter() - start
    ok = v_gap <= 1e-6 and g2_gap <= 1e-4 and elapsed < 1.0
    report(
        "criterion-3 classical-noise optimum",
        ok,
        f"V* gap {v_gap:.2e}, g2* gap {g2_gap:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_gaussian_bound_curve():
    def gaussian_bound(g2):
        return visibility_of(coincidence.coincidence_dft3, g2, (2 - 3 * math.sqrt(g2)) ** 2).v

    grid = np.linspace(0.5, 4.0, 400)
    values = [gaussian_bound(float(g)) for g in grid]
    i = int(np.argmax(values))
    g2_max, v_max, _ = golden_section_max(
        gaussian_bound, float(grid[max(i - 1, 0)]), float(grid[i + 1])
    )
    tail = gaussian_bound(1e8)
    ok = 0.575 <= v_max <= 0.585 and 1.6 <= g2_max <= 1.8 and abs(tail - 0.4) <= 1e-3
    report(
        "criterion-4 pure-Gaussian bound",
        ok,
        f"max {v_max:.4f} at g2 {g2_max:.3f}, tail {tail:.5f}",
    )


def test_criterion_5_overlap_path():
    rng = np.random.default_rng(0)
    worst_joint = 0.0
    for _ in range(50):
        g2 = float(rng.uniform(0, 6))
        g3 = float(rng.uniform(0, 36))
        low = coincidence.coincidence_mismatch_n3(g2, g3, 1.0)
        high = coincidence.coincidence_mismatch_n3(g2, g3, np.nextafter(1.0, 2.0))
        worst_joint = max(worst_joint, abs(low - high))

    worst_end = 0.0
    for stats, p_id_ref, p_dist_ref in [
        (sources.fock_stats(1), 1 / 3, 2 / 9),
        (sources.laser_stats(), 4 / 9, 1.0),
        (sources.thermal_stats(), 1.0, 20 / 9),
    ]:
        worst_end = max(
            worst_end,
            abs(coincidence.coincidence_mismatch_n3(stats.g2, stats.g3, 2.0) - p_id_ref),
            abs(coincidence.coincidence_mismatch_n3(stats.g2, stats.g3, 0.0) - p_dist_ref),
        )

    worst_oracle = 0.0
    circuit = circuits.dft(3)
    for xi in (0.0, 1.0, 2.0):
        oracle = references.oracle_mismatch_single_photons(circuit, xi)
        engine = coincidence.coincidence_mismatch_n3(0.0, 0.0, xi)
        worst_oracle = max(worst_oracle, abs(oracle - engine))

    ok = worst_joint <= 1e-12 and worst_end <= 1e-12 and worst_oracle <= 1e-10
    report(
        "criterion-5 sequential overlap path",
        ok,
        f"joint gap {worst_joint:.2e}, endpoint gap {worst_end:.2e}, "
        f"oracle gap {worst_oracle:.2e}",
    )


def test_criterion_6_symmetric_circuit():
    p_id = coincidence.coincidence_sym_phase(math.pi, 0, 0, True)
    p_dist = coincidence.coincidence_sym_phase(math.pi, 0, 0, False)
    peak_gap = abs((1 - p_id / p_dist) - 168 / 177)

    zero_gap = 0.0
    for g2, g3 in [(0, 0), (1, 1), (2, 6), (1.9067, 3.6356)]:
        a = coincidence.coincidence_sym_phase(0.0, g2, g3, True)
        b = coincidence.coincidence_sym_phase(0.0, g2, g3, False)
        zero_gap = max(zero_gap, abs(1 - a / b))

    thermal = [
        coincidence.coincidence_sym_phase(float(phi), 2.0, 6.0, True)
        for phi in np.linspace(0, 2 * math.pi, 401)
    ]
    thermal_spread = max(thermal) - min(thermal)

    sym = circuits.symmetric(2 * math.pi / 3)
    bal = circuits.dft(3)
    equiv_gap = 0.0
    for stats in (
        sources.fock_stats(1),
        sources.laser_stats(),
        sources.thermal_stats(),
        sources.diluted_laser_stats(0.52),
    ):
        pa_id, pa_dist, _ = vis_from_engines(sym, stats)
        pb_id, pb_dist, _ = vis_from_engines(bal, stats)
        equiv_gap = max(equiv_gap, abs(pa_id - pb_id), abs(pa_dist - pb_dist))

    ok = (
        peak_gap <= 1e-12
        and zero_gap <= 1e-12
        and thermal_spread <= 1e-12
        and equiv_gap <= 1e-12
    )
    report(
        "criterion-6 symmetric circuit",
        ok,
        f"peak gap {peak_gap:.2e}, zero-phase gap {zero_gap:.2e}, thermal spread "
        f"{thermal_spread:.2e}, balanced-equivalence gap {equiv_gap:.2e}",
    )


def test_criterion_7_crossover_regime():
    result = maximize_classical(math.pi / 2)
    opt_ok = 0.565 <= result.v_opt <= 0.569 and 1.35 <= result.g2_opt <= 1.43

    stats = sources.fock_stats(10**4)
    p_id = coincidence.coincidence_sym_phase(math.pi / 2, stats.g2, stats.g3, True)
    p_dist = coincidence.coincidence_sym_phase(math.pi / 2, stats.g2, stats.g3, False)
    fock_limit = 1 - p_id / p_dist
    limit_ok = abs(fock_limit - 0.560) <= 2e-3

    window = crossover_window()
    anchor = min(window.rows, key=lambda row: abs(row["phi"] - 0.471 * math.pi))
    _, fock_margin, noise_margin, n_best = anchor.values()
    window_ok = (
        window.window is not None
        and 0 < fock_margin < 5e-3
        and 0 < noise_margin < 5e-3
        and n_best >= 3
    )

    ok = opt_ok and limit_ok and window_ok
    report(
        "criterion-7 noise/Fock crossover",
        ok,
        f"V*={result.v_opt:.4f} at g2*={result.g2_opt:.3f}, fock limit "
        f"{fock_limit:.4f}, margins (fock {fock_margin:.1e}, noise {noise_margin:.1e})",
    )


def test_criterion_8_oracle_equivalence():
    start = time.perf_counter()
    circuit_set = [
        circuits.dft(2),
        circuits.dft(3),
        circuits.beamsplitter(0.3),
    ] + [circuits.symmetric(phi) for phi in (0.0, 0.8, math.pi / 2, 2 * math.pi / 3, 2.4, math.pi, 4.2, 5.5)]

    source_set = [("fock1", [(1.0, 1)]), ("fock2", [(1.0, 2)])]
    for p in (0.0, 0.3, 0.6):
        for q in (0.2, 0.5, 0.8):
            source_set.append(
                (
                    f"vac12({p},{q})",
                    [(p, 0), ((1 - p) * q, 1), ((1 - p) * (1 - q), 2)],
                )
            )

    def stats_of(components, order):
        mean = sum(w * c for w, c in components)
        gs = [
            sum(w * math.perm(c, m) for w, c in components) / mean**m
            for m in range(2, order + 1)
        ]
        return sources.SourceStats(mean, (1.0, 1.0, *gs))

    cases = 0
    worst = 0.0
    for circuit in circuit_set:
        n = circuit.n
        for _, components in source_set:
            ens = coincidence.uniform_ensemble(n, stats_of(components, max(3, n)))
            for labels, engine in [
                ([1] * n, coincidence.coincidence_id_general),
                (list(range(1, n + 1)), coincidence.coincidence_dist_general),
            ]:
                _, oracle = fockspace.oracle_coincidence(
                    circuit, [components] * n, labels
                )
                reference = engine(circuit, ens).p_normalized
                gap = abs(oracle - reference) / max(abs(reference), 1e-12)
                worst = max(worst, gap)
                cases += 1
    elapsed = time.perf_counter() - start
    ok = cases >= 200 and worst <= 1e-10 and elapsed < 30.0
    report(
        "criterion-8 oracle equivalence",
        ok,
        f"{cases} cases, worst relative gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_9_permanent_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(500):
        n = i % 8 + 1
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        fast = linalg.permanent(m)
        slow = references.permanent_naive(m)
        worst = max(worst, abs(fast - slow) / max(abs(slow), 1e-30))
    ones = linalg.permanent(np.ones((6, 6)))
    ones_gap = abs(ones - 720.0)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and ones_gap < 1e-9 and elapsed < 10.0
    report(
        "criterion-9 permanent correctness",
        ok,
        f"500 matrices, worst relative gap {worst:.2e}, all-ones gap {ones_gap:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_10_figure_data_emission(tmp_path):
    def rows_ok(path):
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        for row in rows:
            p_id, p_dist, v = (float(row[k]) for k in ("p_id", "p_dist", "v"))
            if p_dist > 1e-12:
                if abs(v - (1 - p_id / p_dist)) > 1e-12:
                    return False
        return True

    timings = {}
    consistent = True
    commands = {
        "dft-vis": ["dft-vis", "--scan-g2", "0:6:301"],
        "mismatch": ["mismatch", "--scan-xi", "0:2:201"],
        "sym": ["sym", "--scan-phi", f"0:{2 * math.pi}:401"],
    }
    for name, argv in commands.items():
        target = tmp_path / f"{name}.csv"
        begin = time.perf_counter()
        code = cli.main(argv + ["-o", str(target)])
        timings[name] = time.perf_counter() - begin
        assert code == 0
        consistent = consistent and rows_ok(target)

    target = tmp_path / "optimize.json"
    begin = time.perf_counter()
    code = cli.main(["optimize", "--scan-phi", f"0:{2 * math.pi}:41", "-o", str(target)])
    timings["optimize"] = time.perf_counter() - begin
    assert code == 0
    payload = json.loads(target.read_text())
    assert len(payload["reports"]) == 41

    begin = time.perf_counter()
    code = cli.main(["optimize", "--crossover", "-o", str(tmp_path / "win.json")])
    timings["crossover"] = time.perf_counter() - begin
    assert code == 0

    slowest = max(timings.values())
    ok = consistent and slowest < 10.0
    report(
        "criterion-10 figure data emission",
        ok,
        "timings "
        + ", ".join(f"{k} {v:.2f}s" for k, v in timings.items())
        + (", rows self-consistent" if consistent else ", rows INCONSISTENT"),
    )
