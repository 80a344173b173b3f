import math

import numpy as np
import pytest

from multiphoton import coincidence, optimize, sources
from multiphoton.optimize import (
    OPTIMAL_NOISE_P,
    best_fock,
    crossover_window,
    golden_section_max,
    maximize_classical,
    scan_g2_dft,
    scan_overlap,
    scan_phase,
    standard_sources,
)
from multiphoton.visibility import visibility_of


def rows_self_consistent(results, tol=1e-12):
    for result in results:
        for _, p_id, p_dist, v in result.rows:
            if p_dist > 1e-12:
                assert v == pytest.approx(1 - p_id / p_dist, abs=tol)


def test_golden_section_quadratic():
    x, fx, iterations = golden_section_max(lambda x: -(x - 2.7) ** 2, 0, 10)
    assert x == pytest.approx(2.7, abs=1e-8)
    assert fx == pytest.approx(0.0, abs=1e-15)
    assert iterations > 10


def test_maximize_classical_balanced_point():
    report = maximize_classical(2 * math.pi / 3)
    assert report.v_opt == pytest.approx((19 - math.sqrt(109)) / 14, abs=1e-6)
    assert report.g2_opt == pytest.approx((1 + math.sqrt(109)) / 6, abs=1e-4)
    assert report.bracket[0] <= report.g2_opt <= report.bracket[1]
    assert report.iterations > 0


def test_maximize_classical_quarter_turn():
    report = maximize_classical(math.pi / 2)
    assert 0.565 <= report.v_opt <= 0.569
    assert 1.35 <= report.g2_opt <= 1.43


def test_maximize_classical_flat_identity_reports_boundary():
    report = maximize_classical(0.0)
    assert report.v_opt == pytest.approx(0.0, abs=1e-14)
    assert report.g2_opt == 1.0
    assert report.iterations == 0


def test_maximize_classical_rejects_complex_phi():
    with pytest.raises(ValueError, match=r"^phi must be real, got \(1\+0\.5j\)$"):
        maximize_classical(1 + 0.5j)


def test_maximize_classical_refinement_stable(monkeypatch):
    coarse = maximize_classical(1.1)
    monkeypatch.setattr(optimize, "COARSE_GRID", tuple(np.logspace(0, 4, 128).tolist()))
    fine = maximize_classical(1.1)
    assert fine.v_opt == pytest.approx(coarse.v_opt, abs=1e-9)
    assert fine.g2_opt == pytest.approx(coarse.g2_opt, abs=1e-5)


def test_best_fock_at_pi():
    report = best_fock(math.pi)
    assert report.n_best == 1
    assert report.v_best == pytest.approx(168 / 177, abs=1e-12)


def test_best_fock_at_balanced_point():
    report = best_fock(2 * math.pi / 3)
    # the bump branch is strongest for single photons
    assert report.n_worst == 1
    assert report.v_worst == pytest.approx(-0.5, abs=1e-12)
    # the dip branch climbs toward the Poissonian value from below
    assert report.v_best < 5 / 9
    assert report.n_best == optimize.FOCK_N_MAX


def test_fock_approaches_poissonian_at_any_phase():
    for phi in (0.6, math.pi / 2, 2 * math.pi / 3, 2.8):
        stats = sources.fock_stats(10**5)
        p_id = coincidence.coincidence_sym_phase(phi, stats.g2, stats.g3, True)
        p_dist = coincidence.coincidence_sym_phase(phi, stats.g2, stats.g3, False)
        v_fock = 1 - p_id / p_dist
        v_laser = 1 - coincidence.coincidence_sym_phase(
            phi, 1, 1, True
        ) / coincidence.coincidence_sym_phase(phi, 1, 1, False)
        assert abs(v_fock - v_laser) < 1e-4


@pytest.mark.parametrize("phi", [0.6, math.pi / 2, 2 * math.pi / 3, 2.8])
def test_fock_curve_matches_fock_stats(phi):
    # the optimizers' float Fock curve against fock_stats' exact ratios,
    # which differ in the last bit of g2 or g3 at 291 of these n
    terms = coincidence._sym_phase_terms(phi)
    for n in range(1, optimize.FOCK_N_MAX + 1):
        v = fock_visibility(terms, n)
        stats = sources.fock_stats(n)
        exact = visibility_of(coincidence.coincidence_sym_phase, phi, stats.g2, stats.g3).v
        assert v == pytest.approx(exact, rel=0, abs=1e-14)


def fock_visibility(terms, n):
    """The optimizers' Fock visibility at one n: their extremes over n..n."""
    n_best, v_best, _, _ = optimize._fock_extremes(terms, n, n)
    assert n_best == n
    return v_best


def fock_curve(phi, ns):
    """The Fock curve over the float array ns in the float path's own
    operations: the closed form's A g3 + B g2 + C, then 1 - p_id / p_dist."""
    g2 = 1 - 1 / ns
    g3 = g2 * (1 - 2 / ns)
    p_id, p_dist = (a * g3 + b * g2 + c for a, b, c in coincidence._sym_phase_terms(phi))
    return 1 - p_id / p_dist


# The phases of the golden optimize files, the crossover phases, the sym grid
# and 400 random ones.
FOCK_PHASES = sorted(
    {0.5078324153998789, math.pi / 2, 2 * math.pi / 3, math.pi, 0.6, 2.8}
    | set(np.linspace(0, 2 * math.pi, 9).tolist())
    | set(np.linspace(0.46 * math.pi, 0.505 * math.pi, 91).tolist())
    | set(np.linspace(0, 2 * math.pi, 401).tolist())
    | set(np.random.default_rng(32).uniform(0, 2 * math.pi, 400).tolist())
)


def test_fock_curve_of_the_exhaustive_scan_is_the_float_path():
    ns = np.arange(1, optimize.FOCK_N_MAX + 1, dtype=float)
    for phi in np.linspace(0, 2 * math.pi, 9).tolist():
        terms = coincidence._sym_phase_terms(phi)
        expected = [fock_visibility(terms, n) for n in range(1, optimize.FOCK_N_MAX + 1)]
        assert fock_curve(phi, ns).tolist() == expected


def test_fock_extremes_match_an_exhaustive_scan():
    """best_fock and crossover_window's search pick the n, and the V, that
    a scan of every n picks.  Within about 0.004 rad of phi = 0 (mod 2 pi),
    V ~ 1e-6 changes with n at large n by less than its rounding error, so
    a scan's pick there is rounding noise (35 of 20,000 random phases); none
    of FOCK_PHASES lies there but 0 and 2 pi, where every n ties."""
    assert len(FOCK_PHASES) >= 800
    ns = np.arange(1, optimize.FOCK_N_MAX + 1, dtype=float)
    for phi in FOCK_PHASES:
        vs = fock_curve(phi, ns)
        best, worst = int(np.argmax(vs)), int(np.argmin(vs))
        report = best_fock(phi)
        assert (report.n_best, report.n_worst) == (best + 1, worst + 1), phi
        assert (report.v_best, report.v_worst) == (vs[best], vs[worst]), phi
        window = vs[2:200]  # n = 3..200, crossover_window's range
        n_best, v_best, _, _ = optimize._fock_extremes(coincidence._sym_phase_terms(phi), 3, 200)
        assert (n_best, v_best) == (int(np.argmax(window)) + 3, window.max()), phi


def test_coarse_grid_is_numpys_logspace():
    assert optimize.COARSE_GRID == tuple(np.logspace(0, 4, 64).tolist())


# --- scans -------------------------------------------------------------------

def test_scan_g2_dft_curves_and_points():
    results = scan_g2_dft(np.linspace(0.0, 6.0, 61))
    rows_self_consistent(results)
    by_label = {r.label: r for r in results}

    classical = by_label["classical-bound"].rows
    assert classical[0][0] == 0.0
    assert classical[0][3] == pytest.approx(-0.5, abs=1e-12)
    params = [row[0] for row in classical]
    assert params == sorted(params)

    thermal = by_label["thermal"].rows[0]
    assert thermal[3] == pytest.approx(11 / 20, abs=1e-12)
    second_harmonic = by_label["thermal-sh"].rows[0]
    assert second_harmonic[0] == 6.0
    assert second_harmonic[3] == pytest.approx(35 / 128, abs=1e-12)
    fock1 = by_label["fock1"].rows[0]
    assert fock1[3] == pytest.approx(-0.5, abs=1e-12)
    laser = by_label["laser"].rows[0]
    assert laser[3] == pytest.approx(5 / 9, abs=1e-12)

    hom = by_label["hom-reference"].rows
    vs = [row[3] for row in hom]
    assert all(a >= b for a, b in zip(vs, vs[1:]))
    assert vs[0] == pytest.approx(1.0, abs=1e-12)


def test_scan_g2_dft_gaussian_curve_tail():
    results = scan_g2_dft(np.linspace(9000.0, 10000.0, 11))
    gaussian = next(r for r in results if r.label == "gaussian-bound")
    assert gaussian.rows[-1][3] == pytest.approx(0.4, abs=5e-3)


def test_scan_g2_dft_validates_range():
    for grid, shown in [
        (np.linspace(-1.0, 1.0, 11), "-1.0"),
        (np.linspace(0.0, 2e6, 11), "1200000.0"),
        ([0.0, math.nan], "nan"),
    ]:
        with pytest.raises(ValueError) as info:
            scan_g2_dft(grid)
        assert str(info.value) == f"g2 grid must be in [0, 1e+06], got {shown}"


def test_scan_overlap_endpoints():
    results = scan_overlap(standard_sources(), np.linspace(0, 2, 101))
    rows_self_consistent(results)
    by_label = {r.label: r for r in results}
    for label, result in by_label.items():
        assert result.rows[0][3] == pytest.approx(0.0, abs=1e-12), label
    assert by_label["fock1"].rows[-1][3] == pytest.approx(-0.5, abs=1e-12)
    assert by_label["noise-opt"].rows[-1][3] == pytest.approx(0.6114, abs=1e-4)
    assert by_label["laser"].rows[-1][3] == pytest.approx(5 / 9, abs=1e-12)
    assert by_label["thermal"].rows[-1][3] == pytest.approx(11 / 20, abs=1e-12)


def test_scan_overlap_bounds():
    whole = scan_overlap(standard_sources(), np.linspace(0, 2, 201))
    part = scan_overlap(standard_sources(), np.linspace(0.5, 1.0, 51))
    for full, sub in zip(whole, part):
        assert [row[0] for row in sub.rows] == pytest.approx(np.linspace(0.5, 1.0, 51).tolist())
        assert sub.rows[0] == full.rows[50]
        assert sub.rows[-1] == full.rows[100]
    for lo, hi, shown in [(-0.1, 1.0, "-0.1"), (0.5, 2.5, "2.1"), (0.0, math.nan, "nan")]:
        with pytest.raises(ValueError) as info:
            scan_overlap(standard_sources(), np.linspace(lo, hi, 11))
        assert str(info.value) == f"xi must be in [0, 2], got {shown}"


def test_scan_overlap_crossover_near_full_matching():
    # noise beats the single-photon magnitude only in the genuine
    # three-photon regime near full overlap
    results = scan_overlap(standard_sources(), np.linspace(0, 2, 201))
    by_label = {r.label: r for r in results}
    noise = np.array([row[3] for row in by_label["noise-opt"].rows])
    fock = np.array([row[3] for row in by_label["fock1"].rows])
    assert noise[-1] > abs(fock[-1])
    mid = len(noise) // 2  # xi = 1, pairwise regime boundary
    assert noise[mid] < fock[mid]


def test_scan_phase_zero_phase_zero_visibility():
    results = scan_phase(standard_sources(), np.linspace(0, 2 * math.pi, 81))
    rows_self_consistent(results)
    for result in results:
        assert result.rows[0][3] == pytest.approx(0.0, abs=1e-12)
        assert result.rows[-1][3] == pytest.approx(0.0, abs=1e-12)


def test_scan_phase_thermal_raw_probability_constant():
    results = scan_phase(standard_sources(), np.linspace(0, 2 * math.pi, 401))
    thermal = next(r for r in results if r.label == "thermal")
    p_ids = [row[1] for row in thermal.rows]
    assert max(p_ids) - min(p_ids) < 1e-12


def test_scan_phase_single_photon_peak_at_pi():
    results = scan_phase(standard_sources(), np.linspace(0, 2 * math.pi, 401))
    fock1 = next(r for r in results if r.label == "fock1")
    mid = fock1.rows[200]  # phi = pi on the 401-point grid over [0, 2*pi]
    assert mid[0] == pytest.approx(math.pi)
    assert mid[3] == pytest.approx(168 / 177, abs=1e-12)


def test_standard_sources_labels():
    labels = [label for label, _ in standard_sources()]
    assert labels == ["fock1", "laser", "thermal", "noise-opt"]
    noise = dict(standard_sources())["noise-opt"]
    assert noise.g2 == pytest.approx(1 / OPTIMAL_NOISE_P)


# --- crossover window -----------------------------------------------------------

def test_crossover_window_exists():
    report = crossover_window()
    assert report.g2_fixed == pytest.approx(1.13, abs=0.01)
    assert report.window is not None
    lo, hi = report.window
    assert lo < 0.471 * math.pi < hi


def test_crossover_margins_small_and_positive():
    report = crossover_window()
    at_anchor = min(report.rows, key=lambda row: abs(row["phi"] - report.anchor_phi))
    _, fock_margin, noise_margin, n_best = at_anchor.values()
    assert 0 < fock_margin < 5e-3
    assert 0 < noise_margin < 5e-3
    assert n_best >= 3
