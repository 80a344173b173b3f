import itertools
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiphoton import circuits, coincidence, sources
from multiphoton.coincidence import (
    MAX_PORTS,
    InputEnsemble,
    coincidence_dft3,
    coincidence_dist_general,
    coincidence_hom,
    coincidence_id_general,
    coincidence_mismatch_n3,
    coincidence_n3_explicit,
    coincidence_sym_phase,
    enumerate_exponent_tuples,
    uniform_ensemble,
)


def test_exponent_tuples_two_ports():
    assert enumerate_exponent_tuples(2).tolist() == [[0, 2], [1, 1], [2, 0]]


def test_exponent_tuples_counts():
    assert enumerate_exponent_tuples(3).shape == (10, 3)
    assert enumerate_exponent_tuples(4).shape == (35, 4)


def test_exponent_tuples_sorted_and_sum_correct():
    tuples = enumerate_exponent_tuples(4)
    assert tuples.tolist() == sorted(tuples.tolist())
    assert (tuples.sum(axis=1) == 4).all()


@pytest.mark.parametrize("n", range(1, 7))
def test_exponent_tuples_match_product_reference(n):
    reference = [p for p in itertools.product(range(n + 1), repeat=n) if sum(p) == n]
    assert list(map(tuple, enumerate_exponent_tuples(n).tolist())) == reference


def ranked_compositions(n, k):
    """{composition of k into n parts: its rank in lexicographic order},
    each composition counted from a multiset of k ports."""
    patterns = sorted(
        tuple(ports.count(j) for j in range(n))
        for ports in itertools.combinations_with_replacement(range(n), k)
    )
    return {p: rank for rank, p in enumerate(patterns)}


@pytest.mark.parametrize("n", range(1, MAX_PORTS + 1))
def test_plan_matches_ranked_compositions(n):
    _, _, shifts = coincidence._expansion_plan(n)
    ranks = [ranked_compositions(n, k) for k in range(n + 1)]
    assert list(map(tuple, enumerate_exponent_tuples(n).tolist())) == list(ranks[n])
    assert len(shifts) == n
    for k in range(n):
        lower, upper = ranks[k], ranks[k + 1]
        assert shifts[k].shape == (n, 2 * len(lower))
        for j in range(n):
            to = [upper[p[:j] + (p[j] + 1,) + p[j + 1:]] for p in lower]
            assert shifts[k][j, : len(lower)].tolist() == to
            assert shifts[k][j, len(lower):].tolist() == [rank + len(upper) for rank in to]


def test_exponent_tuples_are_read_only():
    with pytest.raises(ValueError):
        enumerate_exponent_tuples(3)[0, 0] = 1


def test_plan_index_maps_are_read_only():
    # every table build and pattern sum at this N shares these arrays
    _, take, shifts = coincidence._expansion_plan(3)
    with pytest.raises(ValueError):
        take[0, 0] = 0
    for k in range(3):
        with pytest.raises(ValueError):
            shifts[k][0, 0] = 0


def test_exponent_tuples_range():
    with pytest.raises(ValueError):
        enumerate_exponent_tuples(0)
    with pytest.raises(ValueError):
        enumerate_exponent_tuples(MAX_PORTS + 1)


# --- balanced 3-port anchors ---------------------------------------------------

def test_balanced3_single_photons():
    ens = uniform_ensemble(3, sources.fock_stats(1))
    circuit = circuits.dft(3)
    assert coincidence_id_general(circuit, ens).p_normalized == pytest.approx(
        1 / 3, abs=1e-12
    )
    assert coincidence_dist_general(circuit, ens).p_normalized == pytest.approx(
        2 / 9, abs=1e-12
    )


def test_balanced3_laser():
    ens = uniform_ensemble(3, sources.laser_stats())
    circuit = circuits.dft(3)
    assert coincidence_id_general(circuit, ens).p_normalized == pytest.approx(
        4 / 9, abs=1e-12
    )
    assert coincidence_dist_general(circuit, ens).p_normalized == pytest.approx(
        1.0, abs=1e-12
    )


def test_balanced3_thermal():
    ens = uniform_ensemble(3, sources.thermal_stats())
    circuit = circuits.dft(3)
    assert coincidence_id_general(circuit, ens).p_normalized == pytest.approx(
        1.0, abs=1e-12
    )
    assert coincidence_dist_general(circuit, ens).p_normalized == pytest.approx(
        20 / 9, abs=1e-12
    )


def test_closed_dft3_matches_engines():
    for g2, g3 in [(0, 0), (1, 1), (2, 6), (0.5, 0.1), (3.3, 12.0)]:
        ens = uniform_ensemble(3, sources.custom_stats(g2, g3))
        circuit = circuits.dft(3)
        assert coincidence_dft3(g2, g3, True) == pytest.approx(
            coincidence_id_general(circuit, ens).p_normalized, abs=1e-12
        )
        assert coincidence_dft3(g2, g3, False) == pytest.approx(
            coincidence_dist_general(circuit, ens).p_normalized, abs=1e-12
        )


# --- two-port case -------------------------------------------------------------

def test_hom_closed_form_matches_engines():
    for r in np.linspace(0, 1, 11):
        for g2 in (0.0, 0.5, 1.0, 2.0, 6.0):
            ens = uniform_ensemble(2, sources.custom_stats(g2))
            bs = circuits.beamsplitter(float(r))
            p_id = coincidence_id_general(bs, ens).p_normalized
            p_dist = coincidence_dist_general(bs, ens).p_normalized
            assert p_id == pytest.approx(coincidence_hom(float(r), g2, True), abs=1e-12)
            assert p_dist == pytest.approx(
                coincidence_hom(float(r), g2, False), abs=1e-12
            )


def test_hom_perfect_suppression():
    assert coincidence_hom(0.5, 0.0, True) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize(
    "g2", [1e13, math.nan, np.array([1.0, 1e13]), np.array([0.5, math.nan])]
)
def test_hom_rejects_g2_above_the_source_cap_or_nan(g2):
    with pytest.raises(ValueError, match=re.escape("g2 must stay within [0, 1e+12]")):
        coincidence_hom(0.5, g2)


def test_hom_names_the_most_negative_g2():
    with pytest.raises(ValueError, match=r"^g2 must be >= 0, got -0\.5$"):
        coincidence_hom(0.5, np.array([1.0, -0.5, math.nan, -0.25, 2.0]))


# --- explicit 3-port expansion ---------------------------------------------------

@given(
    st.integers(0, 2**32 - 1),
    st.floats(0, 2 * math.pi),
)
@settings(max_examples=40)
def test_explicit_matches_general_asymmetric(seed, phi):
    rng = np.random.default_rng(seed)
    circuit = circuits.symmetric(phi)
    stats = tuple(
        sources.custom_stats(
            float(rng.uniform(0, 5)),
            float(rng.uniform(0, 20)),
            mean_n=float(rng.uniform(0.05, 4.0)),
        )
        for _ in range(3)
    )
    ens = InputEnsemble(stats=stats)
    for flag, engine in [(True, coincidence_id_general), (False, coincidence_dist_general)]:
        explicit = coincidence_n3_explicit(circuit, ens, flag).p_raw
        general = engine(circuit, ens).p_raw
        assert explicit == pytest.approx(general, rel=1e-12, abs=1e-14)


def test_explicit_asymmetric_means_laser():
    circuit = circuits.dft(3)
    stats = tuple(
        sources.laser_stats(mean_n=scale) for scale in (1.0, 2.0, 3.0)
    )
    ens = InputEnsemble(stats=stats)
    assert coincidence_n3_explicit(circuit, ens, True).p_raw == pytest.approx(
        coincidence_id_general(circuit, ens).p_raw, rel=1e-12
    )


def test_vacuum_port_contributes_only_its_tuples():
    # with port 3 dark, only patterns with s_3 = 0 survive
    circuit = circuits.dft(3)
    vacuum = sources.SourceStats(0.0, (1.0, 1.0, 0.0, 0.0))
    ens = InputEnsemble(stats=(sources.fock_stats(2), sources.fock_stats(2), vacuum))
    result = coincidence_id_general(circuit, ens)
    expected = coincidence_n3_explicit(circuit, ens, True)
    assert result.p_raw == pytest.approx(expected.p_raw, rel=1e-12)
    assert result.p_raw > 0
    assert math.isnan(result.p_normalized)


def test_explicit_rejects_other_sizes():
    ens = uniform_ensemble(2, sources.laser_stats())
    with pytest.raises(ValueError):
        coincidence_n3_explicit(circuits.beamsplitter(0.5), ens)


def test_missing_order_is_reported():
    ens = uniform_ensemble(3, sources.custom_stats(1.0))  # defined to order 2 only
    for engine in (coincidence_id_general, coincidence_dist_general, coincidence_n3_explicit):
        with pytest.raises(ValueError, match=r"g\(3\)") as info:
            engine(circuits.dft(3), ens)
        assert str(info.value) == (
            "source statistics defined only to order 2, but g(3) is required"
        )


# --- invariances ------------------------------------------------------------------

@given(st.floats(0.01, 100.0))
@settings(max_examples=40)
def test_normalized_probability_scale_invariant(scale):
    circuit = circuits.dft(3)
    base = uniform_ensemble(3, sources.thermal_stats(mean_n=1.0))
    scaled = uniform_ensemble(3, sources.thermal_stats(mean_n=scale))
    a = coincidence_id_general(circuit, base).p_normalized
    b = coincidence_id_general(circuit, scaled).p_normalized
    assert b == pytest.approx(a, rel=1e-12)


def test_permutation_covariance():
    rng = np.random.default_rng(123)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(z)
    circuit = circuits.custom(q)
    stats = (
        sources.custom_stats(0.4, 0.1, mean_n=0.7),
        sources.custom_stats(1.0, 1.0, mean_n=1.3),
        sources.custom_stats(2.0, 6.0, mean_n=2.1),
    )
    perm = [2, 0, 1]
    permuted_circuit = circuits.custom(q[:, perm])
    permuted_stats = tuple(stats[i] for i in perm)
    for engine in (coincidence_id_general, coincidence_dist_general):
        a = engine(circuit, InputEnsemble(stats=stats)).p_raw
        b = engine(permuted_circuit, InputEnsemble(stats=permuted_stats)).p_raw
        assert b == pytest.approx(a, rel=1e-12)


def test_probabilities_nonnegative_on_random_stats():
    rng = np.random.default_rng(7)
    circuit = circuits.symmetric(1.3)
    for _ in range(50):
        stats = sources.custom_stats(
            float(rng.uniform(0, 8)), float(rng.uniform(0, 60))
        )
        ens = uniform_ensemble(3, stats)
        assert coincidence_id_general(circuit, ens).p_raw >= 0
        assert coincidence_dist_general(circuit, ens).p_raw >= 0


def test_port_count_mismatch_rejected():
    ens = uniform_ensemble(2, sources.laser_stats())
    with pytest.raises(ValueError, match="ports"):
        coincidence_id_general(circuits.dft(3), ens)


# --- sequential mode overlap -------------------------------------------------------

def test_mismatch_endpoints_reduce_to_full_cases():
    for g2, g3 in [(0, 0), (1, 1), (2, 6), (1.9, 3.6)]:
        assert coincidence_mismatch_n3(g2, g3, 0.0) == pytest.approx(
            coincidence_dft3(g2, g3, False), abs=1e-15
        )
        assert coincidence_mismatch_n3(g2, g3, 2.0) == pytest.approx(
            coincidence_dft3(g2, g3, True), abs=1e-15
        )


def test_mismatch_continuous_at_branch_joint():
    for g2 in np.linspace(0, 4, 9):
        for g3 in np.linspace(0, 16, 9):
            left = coincidence_mismatch_n3(float(g2), float(g3), 1.0)
            right = coincidence_mismatch_n3(float(g2), float(g3), np.nextafter(1.0, 2.0))
            assert left == pytest.approx(right, abs=1e-12)
            assert left == pytest.approx(g3 / 9 + 4 * g2 / 9 + 1 / 9, abs=1e-12)


def test_mismatch_thermal_joint_value():
    assert coincidence_mismatch_n3(2.0, 6.0, 1.0) == pytest.approx(15 / 9, abs=1e-15)


def test_mismatch_rejects_out_of_range():
    for xi in (2.5, np.array([0.5, 2.5]), np.array([0.5, np.nan])):
        with pytest.raises(ValueError):
            coincidence_mismatch_n3(1.0, 1.0, xi)


# --- symmetric-circuit closed form ---------------------------------------------------

def test_sym_phase_identity_point():
    assert coincidence_sym_phase(0.0, 2.0, 6.0, True) == pytest.approx(1.0, abs=1e-15)
    assert coincidence_sym_phase(0.0, 2.0, 6.0, False) == pytest.approx(1.0, abs=1e-15)


def test_sym_phase_balanced_point_single_photons():
    phi = 2 * math.pi / 3
    assert coincidence_sym_phase(phi, 0, 0, True) == pytest.approx(1 / 3, abs=1e-14)
    assert coincidence_sym_phase(phi, 0, 0, False) == pytest.approx(2 / 9, abs=1e-14)


def test_sym_phase_pi_single_photons():
    assert coincidence_sym_phase(math.pi, 0, 0, True) == pytest.approx(
        1 / 81, abs=1e-15
    )
    assert coincidence_sym_phase(math.pi, 0, 0, False) == pytest.approx(
        177 / 729, abs=1e-15
    )


def test_sym_phase_matches_general_engines():
    for phi in np.linspace(0, 2 * math.pi, 13):
        circuit = circuits.symmetric(float(phi))
        for g2, g3 in [(0, 0), (1, 1), (2, 6), (1.9067, 3.6356)]:
            ens = uniform_ensemble(3, sources.custom_stats(g2, g3))
            assert coincidence_sym_phase(float(phi), g2, g3, True) == pytest.approx(
                coincidence_id_general(circuit, ens).p_normalized, abs=1e-12
            )
            assert coincidence_sym_phase(float(phi), g2, g3, False) == pytest.approx(
                coincidence_dist_general(circuit, ens).p_normalized, abs=1e-12
            )


def test_sym_phase_thermal_interference_cancels():
    values = [
        coincidence_sym_phase(float(phi), 2.0, 6.0, True)
        for phi in np.linspace(0, 2 * math.pi, 401)
    ]
    assert max(values) - min(values) < 1e-12


# --- closed forms over arrays --------------------------------------------------------

G2S = np.array([0.0, 0.5, 1.0, 2.0, 6.0])
G3S = np.array([0.0, 0.25, 1.0, 6.0, 90.0])
XIS = np.linspace(0.0, 2.0, 9)[:, None]
PHIS = np.linspace(0.0, 2 * math.pi, 7)[:, None]


def elementwise(closed_form, *args):
    """The closed form called once per element, with float arguments."""
    args = np.broadcast_arrays(*args)
    out = np.empty(args[0].shape)
    for index in np.ndindex(out.shape):
        out[index] = closed_form(*(float(a[index]) for a in args))
    return out


# (closed form, array arguments, whether phi is an array)
BROADCAST_CASES = {
    "hom-id": (partial(coincidence_hom, 0.3, indistinguishable=True), (G2S,), False),
    "hom-dist": (partial(coincidence_hom, 0.3, indistinguishable=False), (G2S,), False),
    "dft3-id": (partial(coincidence_dft3, indistinguishable=True), (G2S, G3S), False),
    "dft3-dist": (partial(coincidence_dft3, indistinguishable=False), (G2S, G3S), False),
    "mismatch-xi": (coincidence_mismatch_n3, (G2S, G3S, XIS), False),
    "mismatch-scalar-xi": (partial(coincidence_mismatch_n3, xi=1.5), (G2S, G3S), False),
    "sym-scalar-phi-id": (partial(coincidence_sym_phase, 0.7), (G2S, G3S), False),
    "sym-scalar-phi-dist": (
        partial(coincidence_sym_phase, 0.7, indistinguishable=False), (G2S, G3S), False
    ),
    "sym-phi-id": (coincidence_sym_phase, (PHIS, G2S, G3S), True),
    "sym-phi-dist": (
        partial(coincidence_sym_phase, indistinguishable=False), (PHIS, G2S, G3S), True
    ),
}


@pytest.mark.parametrize("case", sorted(BROADCAST_CASES))
def test_closed_forms_broadcast_like_elementwise_calls(case):
    closed_form, args, phi_is_array = BROADCAST_CASES[case]
    result = closed_form(*args)
    expected = elementwise(closed_form, *args)
    assert np.shape(result) == expected.shape
    if phi_is_array:  # numpy's cos and complex powers may round differently
        np.testing.assert_allclose(result, expected, rtol=1e-14, atol=1e-14)
    else:  # a scalar phi keeps Python's float arithmetic: the same bits
        np.testing.assert_array_equal(result, expected)


def test_closed_forms_of_floats_are_floats():
    assert type(coincidence_sym_phase(0.7, 1.3, 1.69)) is float
    assert type(coincidence_mismatch_n3(1.3, 1.69, 0.5)) is float
    assert type(coincidence_dft3(1.3, 1.69, False)) is float


@pytest.mark.parametrize(
    "call",
    [
        lambda: coincidence_hom(0.5, np.array([1.0, -0.1])),
        lambda: coincidence_dft3(G2S, np.array([1.0, 1.0, -1.0, 1.0, 1.0])),
        lambda: coincidence_sym_phase(PHIS, -G2S - 1, G3S),
        lambda: coincidence_mismatch_n3(-G2S, G3S, 1.0),
    ],
)
def test_closed_forms_reject_any_negative_array_entry(call):
    with pytest.raises(ValueError, match="must be >= 0"):
        call()


def domain_cases():
    """Each g argument of each closed form set to NaN or 2e12, as a float
    and inside an array, then the (g2, g3 = g2^2) pairs with g3 past the
    cap that test_helpers_match_their_ratio_forms skips."""
    valid = [
        (coincidence_hom, {"r": 0.5, "g2": 1.0}),
        (coincidence_dft3, {"g2": 1.0, "g3": 1.0}),
        (coincidence_sym_phase, {"phi": 0.7, "g2": 1.0, "g3": 1.0}),
        (coincidence_mismatch_n3, {"g2": 1.0, "g3": 1.0, "xi": 1.5}),
    ]
    for form, args in valid:
        for name in (key for key in args if key[0] == "g"):
            for bad in (math.nan, 2e12):
                for kind, value in (("float", bad), ("array", np.array([1.0, bad]))):
                    case = (form, {**args, name: value}, name)
                    yield pytest.param(*case, id=f"{form.__name__}-{name}-{bad:g}-{kind}")
    for g2 in np.geomspace(1e-6, 1e9, 31):
        if g2 * g2 > 1e12:
            case = (coincidence_dft3, {"g2": g2, "g3": g2 * g2}, "g3")
            yield pytest.param(*case, id=f"coincidence_dft3-g2={g2:.3g}-g3=g2^2")


@pytest.mark.parametrize("closed_form, args, name", list(domain_cases()))
def test_closed_forms_reject_nan_or_g_past_the_cap(closed_form, args, name):
    with pytest.raises(ValueError, match=rf"^{name} must stay within \[0, 1e\+12\]$"):
        closed_form(**args)


def test_permanent_cache_can_be_cleared():
    coincidence.clear_permanent_cache()
    ens = uniform_ensemble(3, sources.laser_stats())
    value = coincidence_id_general(circuits.dft(3), ens).p_normalized
    coincidence.clear_permanent_cache()
    assert coincidence_id_general(circuits.dft(3), ens).p_normalized == value
