"""Parameter scans and one-dimensional maximizations.

Produces the figure-level data sets: visibility versus statistical noise
on the balanced 3-port with its bound curves, visibility along the
sequential mode-overlap path, visibility versus the symmetric-circuit
phase, and the noise-versus-Fock optimization including the narrow phase
window where both beat the Poissonian benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from multiphoton.coincidence import (
    _sym_phase_terms,
    coincidence_dft3,
    coincidence_hom,
    coincidence_mismatch_n3,
)
from multiphoton.sources import (
    G_CAP,
    SourceStats,
    custom_stats,
    diluted_laser_stats,
    fock_stats,
    laser_stats,
    thermal_stats,
)
from multiphoton.visibility import VisibilityPoint, visibility, visibility_of

# Dilution that maximizes the classical-noise visibility on the balanced
# 3-port: g2 = 1/p = (1 + sqrt(109))/6.
OPTIMAL_NOISE_P = 6 / (1 + math.sqrt(109))

GOLDEN = (math.sqrt(5) - 1) / 2

# maximize_classical scans g2 on COARSE_GRID, np.logspace(0, 4, 64) as numpy
# rounds it (Python's 10.0 ** y differs at 4 of the 64 points);
# golden_section_max then stops at a bracket of TOL, or after MAX_ITERATIONS
# steps.  best_fock searches n = 1..FOCK_N_MAX.
COARSE_GRID = (
    1.0, 1.1574228805920572, 1.3396277245180155, 1.5505157798326246, 1.7946024402973164,
    2.0771139259664553, 2.4040991835099716, 2.7825594022071245, 3.220597918721083,
    3.72759372031494, 4.314402261443781, 4.993587893473147, 5.779692884153313,
    6.689548786914143, 7.742636826811269, 8.961505019466045, 10.37225095407057,
    12.005080577484073, 13.894954943731374, 16.082338776670415, 18.614066873551213,
    21.544346900318832, 24.935920049841585, 28.861404414300882, 33.404849835132445,
    38.6635375219241, 44.75006297250448, 51.7947467923121, 59.94842503189409,
    69.38567878737184, 80.30857221391513, 92.95097898806489, 107.58358985421785,
    124.51970847350319, 144.12195967188532, 166.81005372000593, 193.06977288832496,
    223.46337269165923, 258.64162052759684, 299.357729472049, 346.4834855730366,
    401.0279139495203, 464.15888336127773, 537.2281118324031, 621.8001087320915,
    719.6856730011514, 832.9806647658264, 964.1108804907501, 1115.883992507748,
    1291.5496650148827, 1494.8691337092328, 1730.1957388458943, 2002.568136043117,
    2317.8181806008897, 2682.6957952797247, 3105.01349512486, 3593.813663804626,
    4159.562163071842, 4814.372420784343, 5572.264795507173, 6449.466771037621,
    7464.760408417113, 8639.884494839682, 10000.0,
)
TOL = 1e-10
MAX_ITERATIONS = 200
FOCK_N_MAX = 1000


def linear_grid(lo: float, hi: float, count: int) -> list[float]:
    """``count`` >= 2 evenly spaced floats from lo to hi inclusive, the same
    bits as np.linspace(lo, hi, count): lo + i * step, and hi last."""
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count - 1)] + [hi]


@dataclass
class ScanResult:
    """One labelled curve: ordered rows of (param, p_id, p_dist, v)."""

    label: str
    rows: list[tuple[float, float, float, float]]


@dataclass
class OptimumReport:
    """The classical-noise optimum: g2_opt maximizes V, at V = v_opt."""

    g2_opt: float
    v_opt: float
    bracket: tuple[float, float]
    iterations: int


@dataclass
class FockOptimumReport:
    """Best Fock photon numbers for both visibility sign branches."""

    n_best: int
    v_best: float
    n_worst: int
    v_worst: float


@dataclass
class CrossoverReport:
    """Phase window where Fock (n >= 3) and engineered-noise inputs both
    exceed the Poissonian visibility."""

    anchor_phi: float
    g2_fixed: float
    rows: list[dict]  # keyed phi, fock_margin, noise_margin, n_best
    window: tuple[float, float] | None


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float, int]:
    """Maximize a unimodal function on [lo, hi]; returns (x, f(x), iters)."""
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    iterations = 0
    while abs(b - a) > TOL and iterations < MAX_ITERATIONS:
        iterations += 1
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = (a + b) / 2
    return x, f(x), iterations


def _row(x: float, point: VisibilityPoint) -> tuple[float, float, float, float]:
    return x, point.p_id, point.p_dist, point.v


def maximize_classical(phi: float) -> OptimumReport:
    """Maximize the symmetric-circuit visibility over classical noise.

    The search runs along the bound-saturating manifold g3 = g2^2 (the
    diluted laser), on the log-spaced COARSE_GRID of g2 followed by
    golden-section refinement of the best bracket.  A flat objective
    (e.g. the identity circuit) reports the lower boundary.
    """
    terms = _sym_phase_terms(phi)

    def noise(g2: float) -> float:  # the classical boundary g3 = g2^2
        return _sym_point(terms, g2, g2 * g2).v

    vals = [noise(g2) for g2 in COARSE_GRID]
    best = max(vals)
    if best - min(vals) < 1e-14:
        lo = COARSE_GRID[0]
        return OptimumReport(g2_opt=lo, v_opt=vals[0], bracket=(lo, lo), iterations=0)
    i = vals.index(best)  # the first maximum, as np.argmax picks
    lo = COARSE_GRID[max(i - 1, 0)]
    hi = COARSE_GRID[min(i + 1, len(COARSE_GRID) - 1)]
    x, fx, iterations = golden_section_max(noise, lo, hi)
    return OptimumReport(g2_opt=x, v_opt=fx, bracket=(lo, hi), iterations=iterations)


def _sym_point(terms, g2: float, g3: float) -> VisibilityPoint:
    """visibility_of(coincidence_sym_phase, phi, g2, g3) from that phi's
    _sym_phase_terms, in the closed form's own operations."""
    (a1, b1, c1), (a2, b2, c2) = terms
    return visibility(a1 * g3 + b1 * g2 + c1, a2 * g3 + b2 * g2 + c2)


def _fock_extremes(terms, lo: int, hi: int) -> tuple[int, float, int, float]:
    """(n, V) at the largest and at the smallest Fock visibility over
    n = lo..hi at the phase of ``terms`` (its _sym_phase_terms), the
    smallest such n on a tie, as a scan of every n finds.

    P = A g3 + B g2 + C, and along the Fock family x = 1/n gives g2 = 1 - x
    and g3 = 1 - 3x + 2x^2, so P_id and P_dist are quadratics in x.  Their
    x^3 terms cancel in P_id' P_dist - P_id P_dist', so dV/dx = 0 is a
    quadratic: V is monotone in n between its roots, and its extremes lie
    at lo, at hi or next to a root n = 1/x (floor and ceil, one more each
    way for rounding).
    """
    (a1, b1, c1), (a2, b2, c2) = ((2 * a, -(3 * a + b), a + b + c) for a, b, c in terms)
    qa, qb, qc = a1 * b2 - a2 * b1, 2 * (a1 * c2 - a2 * c1), b1 * c2 - b2 * c1
    if qa == 0:
        roots = [-qc / qb] if qb else []
    elif (disc := qb * qb - 4 * qa * qc) < 0:
        roots = []
    else:  # both roots without cancellation; q = 0 only at a double root x = 0
        q = -(qb + math.copysign(math.sqrt(disc), qb)) / 2
        roots = [q / qa, qc / q] if q else []
    candidates = {lo, hi}
    for x in roots:
        if x > 0 and lo - 2 < 1 / x < hi + 2:
            n = math.floor(1 / x)
            candidates.update(k for k in range(n - 1, n + 3) if lo <= k <= hi)
    vs = {n: _sym_point(terms, 1 - 1 / n, (1 - 1 / n) * (1 - 2 / n)).v for n in sorted(candidates)}
    n_best = max(vs, key=vs.__getitem__)
    n_worst = min(vs, key=vs.__getitem__)
    return n_best, vs[n_best], n_worst, vs[n_worst]


def best_fock(phi: float) -> FockOptimumReport:
    """The best and worst Fock photon numbers in 1..FOCK_N_MAX at a fixed
    circuit phase.

    Exact, from the Fock curve's critical points (see _fock_extremes).
    Both sign branches are reported because the best dip and the best bump
    generally occur at different n (single photons dominate the bump
    branch).
    """
    return FockOptimumReport(*_fock_extremes(_sym_phase_terms(phi), 1, FOCK_N_MAX))


# --- figure-level scans ----------------------------------------------------

def standard_sources() -> list[tuple[str, SourceStats]]:
    """The four sources used across the phase and overlap scans."""
    return [
        ("fock1", fock_stats(1)),
        ("laser", laser_stats()),
        ("thermal", thermal_stats()),
        ("noise-opt", diluted_laser_stats(OPTIMAL_NOISE_P)),
    ]


def dft_point_sources() -> list[tuple[str, SourceStats]]:
    """Marked sources of the noise-scan figure: Fock 1/2/4, laser, thermal
    and its second harmonic (g2 = 6, g3 = 90)."""
    return [
        ("fock1", fock_stats(1)),
        ("fock2", fock_stats(2)),
        ("fock4", fock_stats(4)),
        ("laser", laser_stats()),
        ("thermal", thermal_stats()),
        ("thermal-sh", custom_stats(6.0, 90.0)),
    ]


def scan_g2_dft(grid: Sequence[float]) -> list[ScanResult]:
    """Visibility versus g2 on the balanced 3-port, g2 in [0, 1e6]: the
    classical curve sets g3 = g2^2, so g2 stops at sqrt(G_CAP).

    Emits the classical-noise ceiling (g3 = g2^2), the pure-Gaussian
    limit (g3 = (2 - 3 sqrt(g2))^2), the two-port reference at R = 1/2,
    and one single-row result per marked source.
    """
    g2_max = math.sqrt(G_CAP)
    for g2 in grid:
        if not 0 <= g2 <= g2_max:  # NaN is outside
            raise ValueError(f"g2 grid must be in [0, {g2_max:g}], got {g2}")

    def curve(label: str, point_at: Callable[[float], VisibilityPoint]) -> ScanResult:
        return ScanResult(label, [_row(g2, point_at(g2)) for g2 in grid])

    results = [
        curve("classical-bound", lambda g2: visibility_of(coincidence_dft3, g2, g2 * g2)),
        curve("gaussian-bound", lambda g2: visibility_of(coincidence_dft3, g2, _gaussian_g3(g2))),
        curve("hom-reference", lambda g2: visibility_of(coincidence_hom, 0.5, g2)),
    ]
    for label, stats in dft_point_sources():
        point = visibility_of(coincidence_dft3, stats.g2, stats.g3)
        results.append(ScanResult(label, [_row(stats.g2, point)]))
    return results


def _gaussian_g3(g2: float) -> float:
    """g3 of the pure-Gaussian limit, (2 - 3 sqrt(g2))^2."""
    root = 2 - 3 * math.sqrt(g2)
    return root * root


def scan_overlap(
    sources: Sequence[tuple[str, SourceStats]], grid: Sequence[float]
) -> list[ScanResult]:
    """Visibility along the sequential mode-overlap path, xi in [0, 2].

    The visibility uses the xi-dependent coincidence against the fixed
    fully-distinguishable denominator, so every curve starts at 0 and
    ends at the full-interference value.
    """
    results = []
    for label, stats in sources:
        g2, g3 = stats.g2, stats.g3
        p_dist = coincidence_dft3(g2, g3, indistinguishable=False)
        rows = [_row(xi, visibility(coincidence_mismatch_n3(g2, g3, xi), p_dist)) for xi in grid]
        results.append(ScanResult(label, rows))
    return results


def scan_phase(
    sources: Sequence[tuple[str, SourceStats]], grid: Sequence[float]
) -> list[ScanResult]:
    """Visibility and raw coincidence probabilities versus the
    symmetric-circuit phase."""
    terms = [(phi, _sym_phase_terms(phi)) for phi in grid]
    results = []
    for label, stats in sources:
        g2, g3 = stats.g2, stats.g3
        results.append(ScanResult(label, [_row(phi, _sym_point(t, g2, g3)) for phi, t in terms]))
    return results


def crossover_window() -> CrossoverReport:
    """Locate the phase window where noise and Fock inputs both beat the
    Poissonian benchmark.

    The noise source keeps its statistics fixed at the optimum for the
    anchor phase 0.471 pi; the Fock margin takes the best n in 3..200 at
    each phase.  Margins in the window are of order 1e-3, hence the
    5e-4 pi phase step over [0.46 pi, 0.505 pi].
    """
    anchor_phi = 0.471 * math.pi
    g2_fixed = maximize_classical(anchor_phi).g2_opt
    rows = []
    for phi in linear_grid(0.46 * math.pi, 0.505 * math.pi, 91):
        terms = _sym_phase_terms(phi)
        v_laser = _sym_point(terms, 1.0, 1.0).v
        n_best, v_fock, _, _ = _fock_extremes(terms, 3, 200)
        rows.append({
            "phi": phi,
            "fock_margin": v_fock - v_laser,
            "noise_margin": _sym_point(terms, g2_fixed, g2_fixed * g2_fixed).v - v_laser,
            "n_best": n_best,
        })
    in_window = [row["phi"] for row in rows if row["fock_margin"] > 0 and row["noise_margin"] > 0]
    window = (min(in_window), max(in_window)) if in_window else None
    return CrossoverReport(anchor_phi=anchor_phi, g2_fixed=g2_fixed, rows=rows, window=window)
