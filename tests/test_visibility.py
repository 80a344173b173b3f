import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiphoton import circuits, coincidence, optimize, sources
from multiphoton.coincidence import coincidence_dft3, coincidence_hom
from multiphoton.visibility import visibility, visibility_of


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_visibility_rejects_a_non_finite_numerator(bad):
    message = f"^p_id must be finite, got {bad!r}; cannot form a visibility$"
    with pytest.raises(ValueError, match=message):
        visibility(bad, 1.0)


def test_visibility_refuses_arrays():
    # an array is no number, so it never meets numpy's ambiguous truth value
    for p_id, p_dist, name in [
        (np.array([0.1, 0.2]), 1.0, "p_id"),
        (0.1, np.array([1.0, 2.0]), "p_dist"),
        (0.1, np.array(1.0), "p_dist"),
        ([0.1], 1.0, "p_id"),
        (True, 2.0, "p_id"),
        (0.1, True, "p_dist"),
    ]:
        kind = type(p_id if name == "p_id" else p_dist).__name__
        with pytest.raises(ValueError, match=f"^{name} must be a number, got {kind}$"):
            visibility(p_id, p_dist)


def test_visibility_of_floats_is_floats():
    for p_id, v in [(0.0, 1.0), (0.5, 0.75), (1.0, 0.5)]:
        point = visibility(p_id, 2.0)
        assert (point.v, point.p_id, point.p_dist) == (v, p_id, 2.0)
        assert type(point.v) is float
    assert visibility(np.float64(0.5), 2).v == 0.75


def test_visibility_of_pairs_a_closed_form():
    for g2, g3, v in [(0.0, 0.0, -0.5), (1.0, 1.0, 5 / 9), (2.0, 6.0, 11 / 20)]:
        point = visibility_of(coincidence.coincidence_dft3, g2, g3)
        expected = visibility(
            coincidence.coincidence_dft3(g2, g3, True), coincidence.coincidence_dft3(g2, g3, False)
        )
        assert point == expected
        assert point.v == pytest.approx(v, abs=1e-15)


def test_v2_anchors():
    assert visibility_of(coincidence_hom, 0.5, 0.0).v == pytest.approx(1.0)
    assert visibility_of(coincidence_hom, 0.5, 1.0).v == pytest.approx(0.5)
    assert visibility_of(coincidence_hom, 0.5, 2.0).v == pytest.approx(1 / 3)


def test_v2_monotone_decreasing_with_derivative_identity():
    # dV/dg2 = -V^2, checked by central finite differences
    h = 1e-6
    for r in (0.2, 0.5, 0.8):
        for g2 in (0.0, 0.5, 1.0, 3.0):
            v = visibility_of(coincidence_hom, r, g2).v
            upper = visibility_of(coincidence_hom, r, g2 + h).v
            lower = visibility_of(coincidence_hom, r, max(g2 - h, 0)).v
            slope = (upper - lower) / (h + min(h, g2))
            assert slope <= 0
            assert slope == pytest.approx(-(v**2), abs=1e-5)


def test_v3_anchors():
    assert visibility_of(coincidence_dft3, 0, 0).v == pytest.approx(-0.5)
    assert visibility_of(coincidence_dft3, 2, 6).v == pytest.approx(11 / 20)
    assert visibility_of(coincidence_dft3, 1, 1).v == pytest.approx(5 / 9)


def test_v3_sign_flip_at_one_sixth():
    assert visibility_of(coincidence_dft3, 1 / 6 - 1e-9, 0).v < 0
    assert visibility_of(coincidence_dft3, 1 / 6 + 1e-9, 0).v > 0


def test_classical_bound_equals_dft_on_manifold():
    # the noise scan's classical-bound curve against one float call per point
    curves = optimize.scan_g2_dft(np.linspace(0, 10, 23))
    (bound,) = [curve for curve in curves if curve.label == "classical-bound"]
    for g2, _, _, v in bound.rows:
        assert v == visibility_of(coincidence_dft3, g2, g2**2).v


def test_classical_bound_maximum():
    g2_star = (1 + math.sqrt(109)) / 6
    v_star = (19 - math.sqrt(109)) / 14
    v = visibility_of(coincidence_dft3, g2_star, g2_star * g2_star).v
    assert v == pytest.approx(v_star, abs=1e-14)
    assert v == pytest.approx(0.6114, abs=1e-4)


def test_classical_bound_vanishes_at_large_noise():
    assert abs(visibility_of(coincidence_dft3, 1e6, 1e6 * 1e6).v) < 1e-5


def test_classical_bound_laser_point():
    assert visibility_of(coincidence_dft3, 1.0, 1.0).v == pytest.approx(5 / 9)


@given(st.floats(1, 50), st.floats(0, 1000))
@settings(max_examples=150)
def test_classical_bound_dominates_classical_states(g2, extra):
    # classical fields satisfy g2 >= 1 and g3 >= g2^2; on that domain the
    # bound curve is a true ceiling (below g2 = 1/6 the visibility is
    # negative and extra g3 pushes it toward zero, flipping the inequality)
    bound = visibility_of(coincidence_dft3, g2, g2 * g2).v
    assert visibility_of(coincidence_dft3, g2, g2 * g2 + extra).v <= bound + 1e-12


def test_gaussian_bound_asymptote():
    g2 = 1e8
    v = visibility_of(coincidence_dft3, g2, (2 - 3 * math.sqrt(g2)) ** 2).v
    assert v == pytest.approx(0.4, abs=1e-3)


def test_gaussian_bound_maximum_location():
    grid = np.linspace(1.0, 2.5, 3001)
    values = [visibility_of(coincidence_dft3, g, (2 - 3 * math.sqrt(g)) ** 2).v for g in grid]
    i = int(np.argmax(values))
    assert values[i] == pytest.approx(0.58, abs=0.005)
    assert grid[i] == pytest.approx(1.7, abs=0.1)


def test_gaussian_bound_witness_regime_boundary():
    # below g2 = 4/9 the pure-Gaussian curve is a non-Gaussianity witness
    g2 = 4 / 9
    assert visibility_of(coincidence_dft3, g2, (2 - 3 * math.sqrt(g2)) ** 2).v == pytest.approx(
        (6 * 4 / 9 - 1) / ((2 - 3 * math.sqrt(4 / 9)) ** 2 + 6 * 4 / 9 + 2)
    )


def fock_v3(n):
    stats = sources.fock_stats(n)
    return visibility_of(coincidence_dft3, stats.g2, stats.g3).v


def test_fock_visibilities():
    assert fock_v3(1) == pytest.approx(-0.5)
    assert fock_v3(2) == pytest.approx(0.4)
    assert fock_v3(4) == pytest.approx(3.5 / 6.875, abs=1e-14)
    assert fock_v3(4) == pytest.approx(0.509, abs=1e-3)


def test_fock_matches_stats_pipeline():
    # fock_stats' exact ratios against its docstring's g2 = 1 - 1/n,
    # g3 = (1 - 1/n)(1 - 2/n)
    for n in (1, 2, 3, 4, 7, 19):
        g2 = 1 - 1 / n
        expected = visibility_of(coincidence_dft3, g2, g2 * (1 - 2 / n)).v
        assert fock_v3(n) == pytest.approx(expected, abs=1e-14)


def test_fock_rejects_nonpositive():
    with pytest.raises(ValueError):
        sources.fock_stats(0)


def mixture_v3(p, q):
    stats = sources.vac12_mixture_stats(p, q)
    return visibility_of(coincidence_dft3, stats.g2, stats.g3).v


def test_mixture_extremes():
    assert mixture_v3(0.0, 1.0) == pytest.approx(-0.5)
    values = [mixture_v3(p, 1 - p) for p in (0.9, 0.99, 0.999)]
    assert values[0] < values[1] < values[2]
    assert values[2] > 0.99


def test_mixture_two_photon_case():
    assert mixture_v3(0.0, 0.0) == pytest.approx(2 / 5)
    assert mixture_v3(0.0, 0.0) == pytest.approx(fock_v3(2))


def test_mixture_matches_stats_pipeline():
    # the mixture defines no third order: its g3 enters as 0
    for p, q in [(0.1, 0.3), (0.5, 0.5), (0.8, 0.2)]:
        stats = sources.vac12_mixture_stats(p, q)
        expected = visibility_of(coincidence_dft3, stats.g2, 0.0).v
        assert mixture_v3(p, q) == pytest.approx(expected, abs=1e-14)


def test_closed_forms_match_engine_visibilities():
    bal = circuits.dft(3)
    for g2, g3 in [(0, 0), (1, 1), (2, 6), (0.4, 0.1)]:
        ens = coincidence.uniform_ensemble(3, sources.custom_stats(g2, g3))
        p_id = coincidence.coincidence_id_general(bal, ens).p_normalized
        p_dist = coincidence.coincidence_dist_general(bal, ens).p_normalized
        assert visibility(p_id, p_dist).v == pytest.approx(
            visibility_of(coincidence_dft3, g2, g3).v, abs=1e-12
        )
    for r in (0.2, 0.5, 0.9):
        for g2 in (0.0, 1.0, 2.5):
            ens = coincidence.uniform_ensemble(2, sources.custom_stats(g2))
            bs = circuits.beamsplitter(r)
            p_id = coincidence.coincidence_id_general(bs, ens).p_normalized
            p_dist = coincidence.coincidence_dist_general(bs, ens).p_normalized
            assert visibility(p_id, p_dist).v == pytest.approx(
                visibility_of(coincidence_hom, r, g2).v, abs=1e-12
            )


def test_closed_form_visibilities_match_their_ratio_forms():
    # visibility() of the closed forms against hand-derived ratios, a
    # second, independent derivation.
    for r in np.linspace(0, 1, 21):
        rt2 = 2 * r * (1 - r)
        for g2 in (0.0, 1e-3, 0.5, 1.0, 1.9, 10.0, 1e6, 1e12):
            assert visibility_of(coincidence_hom, r, g2).v == pytest.approx(
                rt2 / (rt2 * g2 + 1 - rt2), rel=0, abs=1e-15
            )
    g2_grid = np.concatenate([np.linspace(0, 5, 51), np.geomspace(1e-6, 1e9, 31)])
    for g2 in g2_grid:
        for g3 in (0.0, 0.1, g2 * g2, 6.0, 1e4):
            if g3 > 1e12:  # past G_CAP: the closed form rejects it
                continue
            assert visibility_of(coincidence_dft3, g2, g3).v == pytest.approx(
                (6 * g2 - 1) / (g3 + 6 * g2 + 2), rel=0, abs=1e-15
            )
        gaussian_g3 = (2 - 3 * math.sqrt(g2)) ** 2
        assert visibility_of(coincidence_dft3, g2, gaussian_g3).v == pytest.approx(
            (6 * g2 - 1) / (gaussian_g3 + 6 * g2 + 2), rel=0, abs=1e-15
        )
    for n in range(1, 2001):
        g2 = 1 - 1 / n
        g3 = g2 * (1 - 2 / n)
        assert fock_v3(n) == pytest.approx((6 * g2 - 1) / (g3 + 6 * g2 + 2), rel=0, abs=1e-15)
    for p in (0.0, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9):
        for q in np.linspace(0, 1, 11):
            x = 12 * (1 - q) / ((1 - p) * (2 - q) ** 2)
            assert mixture_v3(p, q) == pytest.approx((x - 1) / (x + 2), rel=0, abs=1e-15)


@pytest.mark.parametrize(
    "closed_form, args",
    [
        pytest.param(coincidence_hom, (0.5, math.nan), id="hom-g2"),
        pytest.param(coincidence_dft3, (math.nan, 1.0), id="dft3-g2"),
        pytest.param(coincidence_dft3, (1.0, math.nan), id="dft3-g3"),
        pytest.param(coincidence_dft3, (math.nan, math.nan * math.nan), id="classical-bound"),
        pytest.param(
            coincidence_dft3, (math.nan, (2 - 3 * math.sqrt(math.nan)) ** 2), id="gaussian-bound"
        ),
    ],
)
def test_visibility_of_rejects_nan(closed_form, args):
    with pytest.raises(ValueError):
        visibility_of(closed_form, *args)


def test_helpers_reject_what_their_closed_forms_and_sources_reject():
    with pytest.raises(ValueError, match=r"^g2 must be in \[0, 1e\+12\], got 2000000000000\.0$"):
        visibility_of(coincidence_hom, 0.5, 2e12)
    with pytest.raises(ValueError, match="photon number must be an integer"):
        fock_v3(2.5)
    with pytest.raises(ValueError, match=r"g\(2\) = .* outside"):
        mixture_v3(1 - 1e-13, 0.0)
