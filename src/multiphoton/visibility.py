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
import numbers
from dataclasses import dataclass
from typing import Callable

EPS_DENOMINATOR = 1e-12


@dataclass(frozen=True)
class VisibilityPoint:
    """A visibility together with the probabilities it was formed from."""

    v: float
    p_id: float
    p_dist: float


def visibility(p_id: float, p_dist: float) -> VisibilityPoint:
    """V = 1 - p_id / p_dist of two real numbers.  Raises when the
    denominator is NaN, infinite or <= EPS_DENOMINATOR (every valid
    configuration here has p_dist of order 1), when the numerator is NaN or
    infinite, and when either is no number (an array or a bool included)."""
    if type(p_id) is not float or type(p_dist) is not float:
        for name, p in (("p_id", p_id), ("p_dist", p_dist)):
            if not isinstance(p, numbers.Real) or isinstance(p, bool):
                raise ValueError(f"{name} must be a number, got {type(p).__name__}")
    if not EPS_DENOMINATOR < p_dist < math.inf:
        raise ValueError(
            f"degenerate distinguishable probability {p_dist!r}; cannot form a visibility"
        )
    if not math.isfinite(p_id):
        raise ValueError(f"p_id must be finite, got {p_id!r}; cannot form a visibility")
    return VisibilityPoint(v=1 - p_id / p_dist, p_id=p_id, p_dist=p_dist)


def visibility_of(closed_form: Callable[..., float], *args) -> VisibilityPoint:
    """visibility() of a closed form (one that takes ``indistinguishable``)
    at the same arguments."""
    p_id = closed_form(*args, indistinguishable=True)
    return visibility(p_id, closed_form(*args, indistinguishable=False))
