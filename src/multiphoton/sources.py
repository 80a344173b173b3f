"""Photon-statistics models.

A light source enters every calculation here only through its mean photon
number and its normalized intensity autocorrelations
g^(m) = <:n^m:>/<n>^m, so sources are plain records of that data plus
constructors for the standard families (Fock, laser, thermal, diluted
laser, vacuum/1/2-photon mixtures).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache

G_CAP = 1e12  # guard against silent overflow in g2 -> infinity scans


@dataclass(frozen=True)
class SourceStats:
    """Mean photon number and autocorrelation sequence of one source.

    ``g[m]`` is g^(m) for m = 0..max_order.  g[0] = g[1] = 1 by
    convention, so products over occupation patterns that include empty or
    singly-occupied slots pick up a factor of exactly 1.
    """

    mean_n: float
    g: tuple[float, ...]

    def __post_init__(self):
        if type(self.g) is not tuple:  # a list or an array sums as its tuple
            object.__setattr__(self, "g", tuple(self.g))
        if type(self.mean_n) is bool or not (math.isfinite(self.mean_n) and self.mean_n >= 0):
            raise ValueError(f"mean photon number must be >= 0, got {self.mean_n}")
        if len(self.g) < 2:
            raise ValueError("g sequence must cover at least orders 0 and 1")
        if self.g[0] != 1.0 or self.g[1] != 1.0:
            raise ValueError("g[0] and g[1] must both equal 1")
        for m, value in enumerate(self.g):
            if not 0 <= value <= G_CAP:
                raise ValueError(f"g({m}) = {value} outside [0, {G_CAP:g}]")

    @property
    def max_order(self) -> int:
        return len(self.g) - 1

    @property
    def g2(self) -> float:
        return self._order(2)

    @property
    def g3(self) -> float:
        return self._order(3)

    def _order(self, m: int) -> float:
        if m > self.max_order:
            raise ValueError(f"source statistics defined only to order "
                             f"{self.max_order}, but g({m}) is required")
        return self.g[m]


def _orders(max_order: int) -> range:
    """The orders m >= 2 of a source defined to exactly 0..max_order."""
    if max_order < 1 or type(max_order) is bool:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    return range(2, max_order + 1)


def _with_prefix(values: list[float], mean_n: float) -> SourceStats:
    return SourceStats(mean_n, (1.0, 1.0, *values))


def fock_stats(n: int, max_order: int = 3) -> SourceStats:
    """n-photon number state: g^(m) = n!/((n-m)! n^m) for m <= n, else 0.

    g^(2) = 1 - 1/n and g^(3) = (1 - 1/n)(1 - 2/n).
    """
    if type(n) is not int:  # the common case skips the slow ABC check
        if not isinstance(n, numbers.Integral) or isinstance(n, bool):
            raise ValueError(f"photon number must be an integer, got {n!r}")
        n = int(n)
    if n < 1:
        raise ValueError(f"photon number must be >= 1, got {n}")
    if n > sys.float_info.max:  # the mean is a float
        raise ValueError(f"photon number must be <= {sys.float_info.max:g}")
    gs = [math.perm(n, m) / n**m if m <= n else 0.0 for m in _orders(max_order)]
    return _with_prefix(gs, float(n))


def laser_stats(max_order: int = 3, mean_n: float = 1.0) -> SourceStats:
    """Poissonian (coherent) light: g^(m) = 1 for all m."""
    return _with_prefix([1.0] * len(_orders(max_order)), mean_n)


def thermal_stats(max_order: int = 3, mean_n: float = 1.0) -> SourceStats:
    """Thermal light: g^(m) = m!  (g2 = 2, g3 = 6, ...)."""
    return SourceStats(mean_n, _thermal_g(max_order))


# The factorials are constants, so each order's tuple is built once.  typed,
# so that thermal_stats(3.0) still fails in _orders after a call with 3; no
# bound is needed, since every order past 170 overflows and is not stored.
@lru_cache(maxsize=None, typed=True)
def _thermal_g(max_order: int) -> tuple[float, ...]:
    try:
        return (1.0, 1.0, *[float(math.factorial(m)) for m in _orders(max_order)])
    except OverflowError:  # beyond the largest float, so far beyond G_CAP
        raise ValueError(f"g({max_order}) = {max_order}! outside [0, {G_CAP:g}]") from None


def diluted_laser_stats(p: float, max_order: int = 3) -> SourceStats:
    """Laser light at fixed intensity with probability p, vacuum otherwise.

    g^(m) = p^(1-m), so g3 = g2^2 exactly: this family saturates the
    classical Cauchy-Schwarz bound, which is what makes it the optimal
    engineered-noise source.
    """
    if type(p) is bool or not 0 < p <= 1:
        raise ValueError(f"dilution probability must be in (0, 1], got {p}")
    try:
        gs = [p ** (1 - m) for m in _orders(max_order)]
    except OverflowError:  # beyond the largest float, so far beyond G_CAP
        raise ValueError(f"g({max_order}) = {p:g}^{1 - max_order} outside [0, {G_CAP:g}]") from None
    return _with_prefix(gs, p)


def vac12_mixture_stats(p: float, q: float, max_order: int = 3) -> SourceStats:
    """Mixture of vacuum, one photon, and two photons.

    Weights are p, (1-p)q and (1-p)(1-q).  Mean is (1-p)(2-q);
    g^(2) = 2(1-q) / ((1-p)(2-q)^2) and g^(m) = 0 for m >= 3, which lets
    the mixture reach any g2 in [0, inf) with no third-order penalty.
    On the balanced 3-port its visibility is (x - 1)/(x + 2) with
    x = 6 g^(2) = 12(1-q) / ((1-p)(2-q)^2).
    """
    if type(p) is bool or not 0 <= p < 1:
        raise ValueError(f"vacuum probability must be in [0, 1), got {p}")
    if type(q) is bool or not 0 <= q <= 1:
        raise ValueError(f"single-photon branching must be in [0, 1], got {q}")
    mean = (1 - p) * (2 - q)
    g2 = 2 * (1 - q) / ((1 - p) * (2 - q) ** 2)
    gs = [g2 if m == 2 else 0.0 for m in _orders(max_order)]
    return _with_prefix(gs, mean)


def custom_stats(g2: float, g3: float | None = None, mean_n: float = 1.0) -> SourceStats:
    """Source given directly by its low-order autocorrelations, defined to the highest one given."""
    for m, value in ((2, g2), (3, g3)):
        if type(value) is bool:  # float() would take it as 0 or 1
            raise ValueError(f"g({m}) = {value} outside [0, {G_CAP:g}]")
    values = [float(g2)] if g3 is None else [float(g2), float(g3)]
    return _with_prefix(values, mean_n)
