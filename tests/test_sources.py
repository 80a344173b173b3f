import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiphoton import sources


def test_fock_single_photon():
    stats = sources.fock_stats(1)
    assert stats.g2 == 0.0
    assert stats.g3 == 0.0
    assert stats.mean_n == 1.0


def test_fock_two_photons():
    stats = sources.fock_stats(2)
    assert stats.g2 == pytest.approx(0.5)
    assert stats.g3 == 0.0


def test_fock_four_photons():
    stats = sources.fock_stats(4)
    assert stats.g2 == pytest.approx(3 / 4)
    assert stats.g3 == pytest.approx(3 / 8)


def test_fock_orders_above_n_vanish():
    stats = sources.fock_stats(3, max_order=6)
    assert stats.g[4] == stats.g[5] == stats.g[6] == 0.0
    assert stats.g[3] > 0


def test_fock_rejects_nonpositive():
    with pytest.raises(ValueError):
        sources.fock_stats(0)


@pytest.mark.parametrize("n", [2.5, 2.0, "2", None])
def test_fock_rejects_non_integral_photon_number(n):
    with pytest.raises(ValueError, match="photon number must be an integer"):
        sources.fock_stats(n)


def test_fock_accepts_numpy_integers():
    assert sources.fock_stats(np.int64(4)) == sources.fock_stats(4)
    with pytest.raises(ValueError, match="photon number must be >= 1"):
        sources.fock_stats(np.int32(0))


def test_laser_all_orders_poissonian():
    stats = sources.laser_stats(max_order=5)
    assert stats.g2 == stats.g3 == stats.g[4] == stats.g[5] == 1.0


def test_thermal_low_orders():
    stats = sources.thermal_stats(max_order=4)
    assert stats.g2 == 2.0
    assert stats.g3 == 6.0
    assert stats.g[4] == 24.0


@pytest.mark.parametrize("mean", [0.1, 1.0, 5.0])
def test_thermal_matches_geometric_distribution(mean):
    # factorial moments of the Bose-Einstein photon-number distribution,
    # summed by brute force, reproduce g^(m) = m!
    probs = [(mean / (1 + mean)) ** k / (1 + mean) for k in range(200)]
    for order in (2, 3, 4):
        moment = sum(p * math.perm(k, order) for k, p in enumerate(probs))
        g = moment / mean**order
        assert g == pytest.approx(math.factorial(order), abs=1e-9)


def test_diluted_laser_no_dilution_is_laser():
    stats = sources.diluted_laser_stats(1.0)
    assert stats.g2 == 1.0 and stats.g3 == 1.0


def test_diluted_laser_optimal_point():
    p = 6 / (1 + math.sqrt(109))
    stats = sources.diluted_laser_stats(p)
    assert stats.g2 == pytest.approx(1.9067, abs=1e-4)
    assert stats.g3 == pytest.approx(3.6356, abs=1e-4)


def test_diluted_laser_half():
    stats = sources.diluted_laser_stats(0.5)
    assert stats.g2 == 2.0 and stats.g3 == 4.0


@given(st.floats(0.01, 1.0))
@settings(max_examples=50)
def test_diluted_laser_saturates_classical_bound(p):
    stats = sources.diluted_laser_stats(p)
    assert stats.g3 == pytest.approx(stats.g2**2, rel=1e-12)


def test_diluted_laser_rejects_bad_probability():
    with pytest.raises(ValueError):
        sources.diluted_laser_stats(0.0)
    with pytest.raises(ValueError):
        sources.diluted_laser_stats(1.2)


@pytest.mark.parametrize("p", [1e-8, 1e-200, 5e-324])
def test_diluted_laser_overflow_guard(p):
    with pytest.raises(ValueError, match="outside"):
        sources.diluted_laser_stats(p, max_order=3)


def test_thermal_overflow_guard():
    with pytest.raises(ValueError, match=r"g\(171\) = 171! outside"):
        sources.thermal_stats(171)


FAMILIES = {
    "fock": lambda k: sources.fock_stats(2, k),
    "laser": lambda k: sources.laser_stats(k),
    "thermal": lambda k: sources.thermal_stats(k),
    "diluted": lambda k: sources.diluted_laser_stats(0.5, k),
    "vac12": lambda k: sources.vac12_mixture_stats(0.3, 0.7, k),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_defines_exactly_the_orders_asked(family):
    build = FAMILIES[family]
    full = build(4).g
    for k in range(1, 5):
        assert build(k).g == full[: k + 1]
    for k in (0, -3):
        with pytest.raises(ValueError, match=f"max_order must be >= 1, got {k}"):
            build(k)


def test_vac12_pure_single_photon():
    stats = sources.vac12_mixture_stats(0.0, 1.0)
    assert stats.g2 == 0.0
    assert stats.mean_n == 1.0


def test_vac12_pure_two_photon_matches_fock():
    stats = sources.vac12_mixture_stats(0.0, 0.0)
    fock2 = sources.fock_stats(2)
    assert stats.g2 == pytest.approx(fock2.g2)
    assert stats.g3 == fock2.g3 == 0.0
    assert stats.mean_n == 2.0


def test_vac12_high_vacuum_drives_g2_up():
    values = [
        sources.vac12_mixture_stats(p, 1 - p).g2 for p in (0.9, 0.99, 0.999)
    ]
    assert values[0] < values[1] < values[2]
    assert values[2] > 100


def test_vac12_rejects_degenerate():
    with pytest.raises(ValueError):
        sources.vac12_mixture_stats(1.0, 0.5)


def test_custom_stats_orders():
    stats = sources.custom_stats(1.5, 2.5)
    assert stats.g2 == 1.5 and stats.g3 == 2.5
    assert sources.custom_stats(1.5).max_order == 2


def test_missing_order_names_it():
    stats = sources.custom_stats(2.0)
    assert stats.g2 == 2.0
    with pytest.raises(ValueError, match=r"only to order 2, but g\(3\) is required"):
        stats.g3


def test_source_stats_validates_convention():
    with pytest.raises(ValueError, match=r"g\[0\] and g\[1\]"):
        sources.SourceStats(1.0, (1.0, 0.9, 1.0))
    with pytest.raises(ValueError):
        sources.SourceStats(-1.0, (1.0, 1.0, 1.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, 1.0001e12])
def test_source_stats_rejects_g_outside_the_cap(value):
    with pytest.raises(ValueError, match=r"g\(2\) = .* outside \[0, 1e\+12\]"):
        sources.SourceStats(1.0, (1.0, 1.0, value))
