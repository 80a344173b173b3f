"""Interference visibilities.

Visibility is the coincidence contrast normalized against the
distinguishable limit of the same source, V = 1 - P_id / P_dist.
Positive V is a coincidence dip (destructive interference), negative V a
bump; the normalization cancels the trivial bunching background so that
sources with very different photon statistics can be compared.
The bound and source-family curves are visibility_of() of a closed form
at each family's g (see multiphoton.optimize).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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

