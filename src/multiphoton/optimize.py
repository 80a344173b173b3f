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

import numpy as np

from multiphoton.coincidence import (
    coincidence_dft3,
    coincidence_hom,
    coincidence_mismatch_n3,
    coincidence_sym_phase,
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

# maximize_classical scans g2 in [G2_LO, G2_HI] on COARSE_POINTS log-spaced
# values; golden_section_max then stops at a bracket of TOL, or after
# MAX_ITERATIONS steps.  best_fock scans n = 1..FOCK_N_MAX.
G2_LO, G2_HI = 1.0, 1e4
COARSE_POINTS = 64
TOL = 1e-10
MAX_ITERATIONS = 200
FOCK_N_MAX = 1000


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


def _curve(label: str, grid, point: VisibilityPoint) -> ScanResult:
    """One row per grid value; a scalar grid gives a single row."""
    columns = (grid, point.p_id, point.p_dist, point.v)
    return ScanResult(label, list(zip(*(np.atleast_1d(c).tolist() for c in columns))))


def maximize_classical(phi: float) -> OptimumReport:
    """Maximize the symmetric-circuit visibility over classical noise.

    The search runs along the bound-saturating manifold g3 = g2^2 (the
    diluted laser), on a coarse log-spaced g2 grid followed by
    golden-section refinement of the best bracket.  A flat objective
    (e.g. the identity circuit) reports the lower boundary.
    """
    xs = np.logspace(math.log10(G2_LO), math.log10(G2_HI), COARSE_POINTS)
    vals = _noise_visibility(phi, xs)
    if vals.max() - vals.min() < 1e-14:
        return OptimumReport(
            g2_opt=G2_LO, v_opt=float(vals[0]), bracket=(G2_LO, G2_LO), iterations=0
        )
    i = int(np.argmax(vals))
    lo = float(xs[max(i - 1, 0)])
    hi = float(xs[min(i + 1, COARSE_POINTS - 1)])
    x, fx, iterations = golden_section_max(lambda g2: _noise_visibility(phi, g2), lo, hi)
    return OptimumReport(g2_opt=x, v_opt=fx, bracket=(lo, hi), iterations=iterations)


def _noise_visibility(phi, g2):
    """Symmetric-circuit visibility on the classical boundary g3 = g2^2;
    phi broadcasts against g2."""
    return visibility_of(coincidence_sym_phase, phi, g2, g2 * g2).v


def _fock_visibility(phi, ns: np.ndarray) -> np.ndarray:
    """Symmetric-circuit visibility of n-photon inputs; phi broadcasts against ns."""
    g2 = 1 - 1 / ns
    return visibility_of(coincidence_sym_phase, phi, g2, g2 * (1 - 2 / ns)).v


def best_fock(phi: float) -> FockOptimumReport:
    """Scan Fock photon numbers 1..FOCK_N_MAX at a fixed circuit phase.

    Closed-form and cheap, so the scan is exhaustive.  Both sign branches
    are reported because the best dip and the best bump generally occur
    at different n (single photons dominate the bump branch).
    """
    ns = np.arange(1, FOCK_N_MAX + 1, dtype=float)
    vs = _fock_visibility(phi, ns)
    i_best = int(np.argmax(vs))
    i_worst = int(np.argmin(vs))
    return FockOptimumReport(
        n_best=i_best + 1,
        v_best=float(vs[i_best]),
        n_worst=i_worst + 1,
        v_worst=float(vs[i_worst]),
    )


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


def scan_g2_dft(grid) -> list[ScanResult]:
    """Visibility versus g2 on the balanced 3-port, g2 in [0, 1e6]: the
    classical curve sets g3 = g2^2, so g2 stops at sqrt(G_CAP).

    Emits the classical-noise ceiling (g3 = g2^2), the pure-Gaussian
    limit (g3 = (2 - 3 sqrt(g2))^2), the two-port reference at R = 1/2,
    and one single-row result per marked source.
    """
    grid = np.asarray(grid, dtype=float)
    if (outside := grid[~((grid >= 0) & (grid <= math.sqrt(G_CAP)))]).size:  # NaN is outside
        raise ValueError(f"g2 grid must be in [0, {math.sqrt(G_CAP):g}], got {outside[0]}")
    gaussian_g3 = (2 - 3 * np.sqrt(grid)) ** 2
    results = [
        _curve("classical-bound", grid, visibility_of(coincidence_dft3, grid, grid * grid)),
        _curve("gaussian-bound", grid, visibility_of(coincidence_dft3, grid, gaussian_g3)),
        _curve("hom-reference", grid, visibility_of(coincidence_hom, 0.5, grid)),
    ]
    for label, stats in dft_point_sources():
        results.append(_curve(label, stats.g2, visibility_of(coincidence_dft3, stats.g2, stats.g3)))
    return results


def scan_overlap(sources: Sequence[tuple[str, SourceStats]], grid) -> list[ScanResult]:
    """Visibility along the sequential mode-overlap path, xi in [0, 2].

    The visibility uses the xi-dependent coincidence against the fixed
    fully-distinguishable denominator, so every curve starts at 0 and
    ends at the full-interference value.
    """
    results = []
    for label, stats in sources:
        p_dist = coincidence_dft3(stats.g2, stats.g3, indistinguishable=False)
        point = visibility(coincidence_mismatch_n3(stats.g2, stats.g3, grid), p_dist)
        results.append(_curve(label, grid, point))
    return results


def scan_phase(sources: Sequence[tuple[str, SourceStats]], grid) -> list[ScanResult]:
    """Visibility and raw coincidence probabilities versus the
    symmetric-circuit phase."""
    return [
        _curve(label, grid, visibility_of(coincidence_sym_phase, grid, stats.g2, stats.g3))
        for label, stats in sources
    ]


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
    ns = np.arange(3, 201, dtype=float)
    phis = np.linspace(0.46 * math.pi, 0.505 * math.pi, 91)
    v_laser = visibility_of(coincidence_sym_phase, phis, 1.0, 1.0).v
    fock_vs = _fock_visibility(phis[:, None], ns)  # one row per phase
    fock_margin = fock_vs.max(axis=1) - v_laser
    noise_margin = _noise_visibility(phis, g2_fixed) - v_laser
    n_best = ns[fock_vs.argmax(axis=1)].astype(int)
    rows = [
        {"phi": phi, "fock_margin": fm, "noise_margin": nm, "n_best": n}
        for phi, fm, nm, n in zip(*(x.tolist() for x in (phis, fock_margin, noise_margin, n_best)))
    ]
    in_window = phis[(fock_margin > 0) & (noise_margin > 0)].tolist()
    window = (min(in_window), max(in_window)) if in_window else None
    return CrossoverReport(
        anchor_phi=anchor_phi, g2_fixed=float(g2_fixed), rows=rows, window=window
    )
