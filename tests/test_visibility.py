import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiphoton import circuits, coincidence, sources
from multiphoton.visibility import (
    v2_closed,
    v3_classical_bound,
    v3_dft,
    v3_fock,
    v3_gaussian_bound,
    v3_mixture,
    visibility,
    visibility_of,
)


def test_visibility_bump_case():
    point = visibility(1 / 3, 2 / 9)
    assert point.v == pytest.approx(-0.5, abs=1e-15)


def test_visibility_dip_case():
    assert visibility(4 / 9, 1.0).v == pytest.approx(5 / 9, abs=1e-15)


def test_visibility_equal_probabilities():
    assert visibility(0.123, 0.123).v == 0.0


def test_visibility_degenerate_denominator():
    for bad in (1e-13, 0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="degenerate"):
            visibility(0.1, bad)
        with pytest.raises(ValueError, match="degenerate"):
            visibility(np.array([0.1, 0.2, 0.3]), np.array([1.0, bad, 2.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_visibility_rejects_a_non_finite_numerator(bad):
    message = f"^p_id must be finite, got {bad!r}; cannot form a visibility$"
    with pytest.raises(ValueError, match=message):
        visibility(bad, 1.0)
    with pytest.raises(ValueError, match=message):
        visibility(np.array([0.1, bad, 0.3]), np.array([1.0, 1.0, 2.0]))


def test_visibility_of_arrays_matches_scalar_calls():
    p_id = np.array([[1 / 3, 4 / 9, 0.123], [1.0, 0.0, 2.5]])
    p_dist = np.array([[2 / 9, 1.0, 0.123], [20 / 9, 0.5, 3.0]])
    point = visibility(p_id, p_dist)
    for index in np.ndindex(p_id.shape):
        scalar = visibility(float(p_id[index]), float(p_dist[index]))
        assert (point.v[index], point.p_id[index], point.p_dist[index]) == (
            scalar.v,
            scalar.p_id,
            scalar.p_dist,
        )


def test_visibility_broadcasts_a_scalar_denominator():
    point = visibility(np.array([0.0, 0.5, 1.0]), 2.0)
    assert point.p_dist.shape == (3,)
    np.testing.assert_array_equal(point.p_dist, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(point.v, [1.0, 0.75, 0.5])
    assert type(visibility(0.5, 2.0).v) is float


def test_visibility_of_pairs_a_closed_form():
    g2, g3 = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 6.0])
    point = visibility_of(coincidence.coincidence_dft3, g2, g3)
    expected = visibility(
        coincidence.coincidence_dft3(g2, g3, True), coincidence.coincidence_dft3(g2, g3, False)
    )
    np.testing.assert_array_equal(point.v, expected.v)
    np.testing.assert_allclose(point.v, [-0.5, 5 / 9, 11 / 20], atol=1e-15)


def test_v2_anchors():
    assert v2_closed(0.5, 0.0) == pytest.approx(1.0)
    assert v2_closed(0.5, 1.0) == pytest.approx(0.5)
    assert v2_closed(0.5, 2.0) == pytest.approx(1 / 3)


def test_v2_monotone_decreasing_with_derivative_identity():
    # dV/dg2 = -V^2, checked by central finite differences
    h = 1e-6
    for r in (0.2, 0.5, 0.8):
        for g2 in (0.0, 0.5, 1.0, 3.0):
            v = v2_closed(r, g2)
            slope = (v2_closed(r, g2 + h) - v2_closed(r, max(g2 - h, 0))) / (
                h + min(h, g2)
            )
            assert slope <= 0
            assert slope == pytest.approx(-(v**2), abs=1e-5)


def test_v3_anchors():
    assert v3_dft(0, 0) == pytest.approx(-0.5)
    assert v3_dft(2, 6) == pytest.approx(11 / 20)
    assert v3_dft(1, 1) == pytest.approx(5 / 9)


def test_v3_sign_flip_at_one_sixth():
    assert v3_dft(1 / 6 - 1e-9, 0) < 0
    assert v3_dft(1 / 6 + 1e-9, 0) > 0


def test_classical_bound_equals_dft_on_manifold():
    for g2 in np.linspace(0, 10, 23):
        assert v3_classical_bound(float(g2)) == v3_dft(float(g2), float(g2) ** 2)


def test_classical_bound_maximum():
    g2_star = (1 + math.sqrt(109)) / 6
    v_star = (19 - math.sqrt(109)) / 14
    assert v3_classical_bound(g2_star) == pytest.approx(v_star, abs=1e-14)
    assert v3_classical_bound(g2_star) == pytest.approx(0.6114, abs=1e-4)


def test_classical_bound_vanishes_at_large_noise():
    assert abs(v3_classical_bound(1e6)) < 1e-5


def test_classical_bound_laser_point():
    assert v3_classical_bound(1.0) == pytest.approx(5 / 9)


@given(st.floats(1, 50), st.floats(0, 1000))
@settings(max_examples=150)
def test_classical_bound_dominates_classical_states(g2, extra):
    # classical fields satisfy g2 >= 1 and g3 >= g2^2; on that domain the
    # bound curve is a true ceiling (below g2 = 1/6 the visibility is
    # negative and extra g3 pushes it toward zero, flipping the inequality)
    g3 = g2 * g2 + extra
    assert v3_dft(g2, g3) <= v3_classical_bound(g2) + 1e-12


def test_gaussian_bound_asymptote():
    assert v3_gaussian_bound(1e8) == pytest.approx(0.4, abs=1e-3)


def test_gaussian_bound_maximum_location():
    grid = np.linspace(1.0, 2.5, 3001)
    values = [v3_gaussian_bound(float(g)) for g in grid]
    i = int(np.argmax(values))
    assert values[i] == pytest.approx(0.58, abs=0.005)
    assert grid[i] == pytest.approx(1.7, abs=0.1)


def test_gaussian_bound_rejects_negative_g2():
    with pytest.raises(ValueError, match=r"^g2 must be in \[0, 1e\+12\], got -0\.1$"):
        v3_gaussian_bound(-0.1)


def test_gaussian_bound_witness_regime_boundary():
    # below g2 = 4/9 the pure-Gaussian curve is a non-Gaussianity witness
    assert v3_gaussian_bound(4 / 9) == pytest.approx(
        (6 * 4 / 9 - 1) / ((2 - 3 * math.sqrt(4 / 9)) ** 2 + 6 * 4 / 9 + 2)
    )


def test_fock_visibilities():
    assert v3_fock(1) == pytest.approx(-0.5)
    assert v3_fock(2) == pytest.approx(0.4)
    assert v3_fock(4) == pytest.approx(3.5 / 6.875, abs=1e-14)
    assert v3_fock(4) == pytest.approx(0.509, abs=1e-3)


def test_fock_matches_stats_pipeline():
    for n in (1, 2, 3, 4, 7, 19):
        stats = sources.fock_stats(n)
        assert v3_fock(n) == pytest.approx(v3_dft(stats.g2, stats.g3), abs=1e-14)


def test_fock_rejects_nonpositive():
    with pytest.raises(ValueError):
        v3_fock(0)


def test_mixture_extremes():
    assert v3_mixture(0.0, 1.0) == pytest.approx(-0.5)
    values = [v3_mixture(p, 1 - p) for p in (0.9, 0.99, 0.999)]
    assert values[0] < values[1] < values[2]
    assert values[2] > 0.99


def test_mixture_two_photon_case():
    assert v3_mixture(0.0, 0.0) == pytest.approx(2 / 5)
    assert v3_mixture(0.0, 0.0) == pytest.approx(v3_fock(2))


def test_mixture_matches_stats_pipeline():
    for p, q in [(0.1, 0.3), (0.5, 0.5), (0.8, 0.2)]:
        stats = sources.vac12_mixture_stats(p, q)
        assert v3_mixture(p, q) == pytest.approx(v3_dft(stats.g2, 0.0), abs=1e-14)


def test_closed_forms_match_engine_visibilities():
    bal = circuits.dft(3)
    for g2, g3 in [(0, 0), (1, 1), (2, 6), (0.4, 0.1)]:
        ens = coincidence.uniform_ensemble(3, sources.custom_stats(g2, g3))
        p_id = coincidence.coincidence_id_general(bal, ens).p_normalized
        p_dist = coincidence.coincidence_dist_general(bal, ens).p_normalized
        assert visibility(p_id, p_dist).v == pytest.approx(
            v3_dft(g2, g3), abs=1e-12
        )
    for r in (0.2, 0.5, 0.9):
        for g2 in (0.0, 1.0, 2.5):
            ens = coincidence.uniform_ensemble(2, sources.custom_stats(g2))
            bs = circuits.beamsplitter(r)
            p_id = coincidence.coincidence_id_general(bs, ens).p_normalized
            p_dist = coincidence.coincidence_dist_general(bs, ens).p_normalized
            assert visibility(p_id, p_dist).v == pytest.approx(
                v2_closed(r, g2), abs=1e-12
            )


def test_helpers_match_their_ratio_forms():
    # The helpers form V through visibility() of the closed forms; the
    # hand-derived ratios below are a second, independent derivation.
    for r in np.linspace(0, 1, 21):
        rt2 = 2 * r * (1 - r)
        for g2 in (0.0, 1e-3, 0.5, 1.0, 1.9, 10.0, 1e6, 1e12):
            assert v2_closed(r, g2) == pytest.approx(
                rt2 / (rt2 * g2 + 1 - rt2), rel=0, abs=1e-15
            )
    g2_grid = np.concatenate([np.linspace(0, 5, 51), np.geomspace(1e-6, 1e9, 31)])
    for g2 in g2_grid:
        for g3 in (0.0, 0.1, g2 * g2, 6.0, 1e4):
            if g3 > 1e12:  # past G_CAP: the closed form rejects it
                continue
            assert v3_dft(g2, g3) == pytest.approx(
                (6 * g2 - 1) / (g3 + 6 * g2 + 2), rel=0, abs=1e-15
            )
        assert v3_gaussian_bound(g2) == pytest.approx(
            (6 * g2 - 1) / ((2 - 3 * math.sqrt(g2)) ** 2 + 6 * g2 + 2), rel=0, abs=1e-15
        )
    for n in range(1, 2001):
        g2 = 1 - 1 / n
        g3 = g2 * (1 - 2 / n)
        assert v3_fock(n) == pytest.approx(
            (6 * g2 - 1) / (g3 + 6 * g2 + 2), rel=0, abs=1e-15
        )
    for p in (0.0, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9):
        for q in np.linspace(0, 1, 11):
            x = 12 * (1 - q) / ((1 - p) * (2 - q) ** 2)
            assert v3_mixture(p, q) == pytest.approx((x - 1) / (x + 2), rel=0, abs=1e-15)


@pytest.mark.parametrize(
    "helper, args",
    [
        (v2_closed, (0.5, math.nan)),
        (v3_dft, (math.nan, 1.0)),
        (v3_dft, (1.0, math.nan)),
        (v3_classical_bound, (math.nan,)),
        (v3_gaussian_bound, (math.nan,)),
    ],
)
def test_helpers_reject_nan(helper, args):
    with pytest.raises(ValueError):
        helper(*args)


def test_helpers_reject_what_their_closed_forms_and_sources_reject():
    with pytest.raises(ValueError, match=r"^g2 must be in \[0, 1e\+12\], got 2000000000000\.0$"):
        v2_closed(0.5, 2e12)
    with pytest.raises(ValueError, match="photon number must be an integer"):
        v3_fock(2.5)
    with pytest.raises(ValueError, match=r"g\(2\) = .* outside"):
        v3_mixture(1 - 1e-13, 0.0)
