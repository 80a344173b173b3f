"""Interference visibilities and statistical bound curves.

Visibility is the coincidence contrast normalized against the
distinguishable limit of the same source, V = 1 - P_id / P_dist.
Positive V is a coincidence dip (destructive interference), negative V a
bump; the normalization cancels the trivial bunching background so that
sources with very different photon statistics can be compared.
The bound and family curves are visibility() of the closed forms at each
family's g; the ratio in each docstring is what that evaluates to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from multiphoton.coincidence import coincidence_dft3, coincidence_hom
from multiphoton.sources import G_CAP, fock_stats, vac12_mixture_stats

EPS_DENOMINATOR = 1e-12


@dataclass(frozen=True)
class VisibilityPoint:
    """A visibility together with the probabilities it was formed from:
    floats, or arrays of one broadcast shape."""

    v: float | np.ndarray
    p_id: float | np.ndarray
    p_dist: float | np.ndarray


def visibility(p_id, p_dist) -> VisibilityPoint:
    """V = 1 - p_id / p_dist: floats for floats, else arrays of the
    broadcast shape.  Raises when a denominator is NaN, infinite or
    <= EPS_DENOMINATOR (every valid configuration here has p_dist of order
    1), or when a numerator is NaN or infinite."""
    if isinstance(p_id, (float, int)) and isinstance(p_dist, (float, int)):
        worst_id, worst = p_id, p_dist
    else:
        p_id, p_dist = np.broadcast_arrays(np.asarray(p_id, float), np.asarray(p_dist, float))
        # Each check reads the smallest entry if it fails (NaN does), else the largest.
        low = float(p_id.min())
        worst_id = low if not math.isfinite(low) else float(p_id.max())
        low = float(p_dist.min())
        worst = low if not low > EPS_DENOMINATOR else float(p_dist.max())
    if not EPS_DENOMINATOR < worst < math.inf:
        raise ValueError(
            f"degenerate distinguishable probability {worst!r}; cannot form a visibility"
        )
    if not math.isfinite(worst_id):
        raise ValueError(f"p_id must be finite, got {worst_id!r}; cannot form a visibility")
    return VisibilityPoint(v=1 - p_id / p_dist, p_id=p_id, p_dist=p_dist)


def visibility_of(closed_form: Callable, *args) -> VisibilityPoint:
    """visibility() of a closed form (one that takes ``indistinguishable``)
    at the same arguments; broadcasts like the closed form."""
    p_id = closed_form(*args, indistinguishable=True)
    return visibility(p_id, closed_form(*args, indistinguishable=False))


def v2_closed(r: float, g2: float) -> float:
    """Two-port visibility 2RT / (2RT g2 + 1 - 2RT).

    Strictly decreasing in g2 (dV/dg2 = -V^2): for two ports, statistical
    noise can only wash out the dip.
    """
    return visibility_of(coincidence_hom, r, g2).v


def v3_dft(g2: float, g3: float) -> float:
    """Balanced 3-port visibility (6 g2 - 1) / (g3 + 6 g2 + 2).

    Negative below g2 = 1/6 (coincidence bump), down to -0.5 for single
    photons; positive and non-monotonic in the noisy regime.
    """
    return visibility_of(coincidence_dft3, g2, g3).v


def v3_classical_bound(g2: float) -> float:
    """Ceiling on the balanced 3-port visibility for classical light:
    v3_dft evaluated on the Cauchy-Schwarz boundary g3 = g2^2."""
    return v3_dft(g2, g2 * g2)


def v3_gaussian_bound(g2: float) -> float:
    """Bound for pure Gaussian states: v3_dft on g3 = (2 - 3 sqrt(g2))^2.

    Tends to 6/15 = 0.4 as g2 grows; in the regime g2 <= 4/9 a measured
    visibility outside this curve witnesses non-Gaussianity.
    """
    if g2 < 0:
        raise ValueError(f"g2 must be in [0, {G_CAP:g}], got {g2}")
    return v3_dft(g2, (2 - 3 * math.sqrt(g2)) ** 2)


def v3_fock(n: int) -> float:
    """Balanced 3-port visibility of n-photon inputs: v3_dft at
    g2 = 1 - 1/n, g3 = (1 - 1/n)(1 - 2/n); approaches the Poissonian 5/9
    from below as n grows."""
    stats = fock_stats(n)
    return v3_dft(stats.g2, stats.g3)


def v3_mixture(p: float, q: float) -> float:
    """Balanced 3-port visibility of the vacuum/1/2-photon mixture.

    With x = 12(1-q) / ((1-p)(2-q)^2) this is (x - 1)/(x + 2); sweeping p
    along q = 1 - p covers the whole range (-0.5, 1).
    """
    stats = vac12_mixture_stats(p, q)
    return v3_dft(stats.g2, stats.g3)
