import dataclasses
import itertools
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiphoton import circuits, coincidence, sources, verify
from multiphoton.coincidence import (
    MAX_PORTS,
    InputEnsemble,
    coincidence_dft3,
    coincidence_dist_general,
    coincidence_hom,
    coincidence_id_general,
    coincidence_mismatch_n3,
    coincidence_sym_phase,
    enumerate_exponent_tuples,
    uniform_ensemble,
)

from references import coincidence_n3_explicit


def test_exponent_tuples_two_ports():
    assert enumerate_exponent_tuples(2).tolist() == [[0, 2], [1, 1], [2, 0]]


def test_exponent_tuples_counts():
    assert enumerate_exponent_tuples(3).shape == (10, 3)
    assert enumerate_exponent_tuples(4).shape == (35, 4)


def test_exponent_tuples_sorted_and_sum_correct():
    tuples = enumerate_exponent_tuples(4)
    assert tuples.tolist() == sorted(tuples.tolist())
    assert (tuples.sum(axis=1) == 4).all()


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
    """The table's patterns are every composition of n in lexicographic
    order, and each shift map sends p to the rank of p + e_j."""
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
    # an array holding such a g2 is refused whole, as no number
    with pytest.raises(ValueError) as info:
        coincidence_hom(0.5, g2)
    shown = "a number, got ndarray" if isinstance(g2, np.ndarray) else f"in [0, 1e+12], got {g2}"
    assert str(info.value) == f"g2 must be {shown}"


def test_hom_names_the_most_negative_g2():
    with pytest.raises(ValueError, match=r"^g2 must be in \[0, 1e\+12\], got -0\.5$"):
        coincidence_hom(0.5, -0.5)


@pytest.mark.parametrize(
    "r, shown",
    [
        (1.5, "1.5"),
        (math.nan, "nan"),
        (-0.25, "-0.25"),
        (math.inf, "inf"),
        (0.5 + 0.5j, "(0.5+0.5j)"),
        (1 + 2**-52, "1.0000000000000002"),
    ],
)
def test_hom_names_a_reflectance_outside_the_unit_interval(r, shown):
    with pytest.raises(ValueError) as info:
        coincidence_hom(r, 1.0)
    assert str(info.value) == f"reflectance must be in [0, 1], got {shown}"


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
    by_definition = _definition_p_raw(verify._definition_table(circuit), stats)
    for flag, engine, reference in zip(
        (True, False), (coincidence_id_general, coincidence_dist_general), by_definition
    ):
        explicit = coincidence_n3_explicit(circuit, ens, flag).p_raw
        general = engine(circuit, ens).p_raw
        assert explicit == pytest.approx(general, rel=1e-12, abs=1e-14)
        assert reference == pytest.approx(explicit, rel=1e-12, abs=1e-14)


def _definition_p_raw(table, stats):
    """(P_id, P_dist): sum_s w(s) prod_i n_i^{s_i} g_i^(s_i) over a table of
    verify._definition_table."""
    products = [math.prod(st.mean_n**k * st.g[k] for st, k in zip(stats, s)) for s, _, _ in table]
    return tuple(sum(row[column] * p for row, p in zip(table, products)) for column in (1, 2))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_definition_table_matches_the_engines_past_the_oracle(n):
    """The engines' permanent definition, summed over verify's table, against
    both engines on a Haar circuit past the Fock-space oracle's 4 ports: one
    port per family at unequal means, each defined to order N, and one port
    of mean 0, in seeded order."""
    rng = np.random.default_rng(300 + n)
    circuit = _haar_circuit(rng, n)
    families = [
        lambda: sources.fock_stats(int(rng.integers(1, 5)), max_order=n),
        lambda: sources.laser_stats(n, mean_n=float(rng.uniform(0.1, 3))),
        lambda: sources.thermal_stats(n, mean_n=float(rng.uniform(0.1, 3))),
        lambda: sources.diluted_laser_stats(float(rng.uniform(0.2, 1)), n),
        lambda: sources.vac12_mixture_stats(float(rng.uniform(0, 0.8)), float(rng.uniform(0, 1)), n),
    ]
    ports = [families[i]() for i in range(n - 1)] + [sources.laser_stats(n, mean_n=0.0)]
    stats = tuple(ports[i] for i in rng.permutation(n))
    ens = InputEnsemble(stats=stats)
    by_definition = _definition_p_raw(verify._definition_table(circuit), stats)
    engines = (coincidence_id_general(circuit, ens).p_raw, coincidence_dist_general(circuit, ens).p_raw)
    assert min(engines) > 0
    assert by_definition == pytest.approx(engines, rel=1e-12)


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
    for xi in (2.5, -0.5, math.nan, np.array([0.5, 2.5]), np.array([0.5, 1.0])):
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


# --- closed forms against their array formulas --------------------------------------

G2S = np.array([0.0, 0.5, 1.0, 2.0, 6.0])
G3S = np.array([0.0, 0.25, 1.0, 6.0, 90.0])
XIS = np.linspace(0.0, 2.0, 9)[:, None]
PHIS = np.linspace(0.0, 2 * math.pi, 7)[:, None]


def hom_array(r, g2, indistinguishable=True):
    rt2 = 2 * r * (1 - r)
    return 1 - rt2 * (2 - g2) if indistinguishable else 1 - rt2 * (1 - g2)


def dft3_array(g2, g3, indistinguishable=True):
    return g3 / 9 + 1 / 3 if indistinguishable else g3 / 9 + 2 * g2 / 3 + 2 / 9


def mismatch_array(g2, g3, xi):
    xi = np.asarray(xi, dtype=float)
    m = np.where(xi <= 1, xi, xi - 1)
    return np.where(
        xi <= 1,
        g3 / 9 + 2 * (3 - m) * g2 / 9 + (2 - m) / 9,
        g3 / 9 + 4 * (1 - m) * g2 / 9 + (1 + 2 * m) / 9,
    )


def sym_phase_array(phi, g2, g3, indistinguishable=True):
    e = np.cos(phi) + 1j * np.sin(phi)
    a, b = (2 + e) / 3, (-1 + e) / 3
    aa, bb = np.abs(a) ** 2, np.abs(b) ** 2
    third = 3 * aa * bb**2 * g3
    if indistinguishable:
        second = 6 * bb * np.abs(a**2 + a * b + b**2) ** 2 * g2
        return third + second + np.abs(a**3 + 3 * a * b**2 + 2 * b**3) ** 2
    second = 6 * bb * (aa**2 + aa * bb + bb**2) * g2
    return third + second + aa**3 + 3 * aa * bb**2 + 2 * bb**3


# The closed forms broadcast over numpy arrays until they took real numbers
# only; these are the formulas they evaluated, written for arrays.
ARRAY_FORMULAS = {
    coincidence_hom: hom_array,
    coincidence_dft3: dft3_array,
    coincidence_mismatch_n3: mismatch_array,
    coincidence_sym_phase: sym_phase_array,
}

# (closed form, arguments, keyword arguments)
BROADCAST_CASES = {
    "hom-id": (coincidence_hom, (0.3, G2S), {"indistinguishable": True}),
    "hom-dist": (coincidence_hom, (0.3, G2S), {"indistinguishable": False}),
    "hom-r": (coincidence_hom, (np.linspace(0.0, 1.0, 7)[:, None], 1.5), {}),
    "dft3-id": (coincidence_dft3, (G2S, G3S), {"indistinguishable": True}),
    "dft3-dist": (coincidence_dft3, (G2S, G3S), {"indistinguishable": False}),
    "mismatch-xi": (coincidence_mismatch_n3, (G2S, G3S, XIS), {}),
    "mismatch-scalar-xi": (coincidence_mismatch_n3, (G2S, G3S, 1.5), {}),
    "sym-scalar-phi-id": (coincidence_sym_phase, (0.7, G2S, G3S), {}),
    "sym-scalar-phi-dist": (coincidence_sym_phase, (0.7, G2S, G3S), {"indistinguishable": False}),
    "sym-phi-id": (coincidence_sym_phase, (PHIS, G2S, G3S), {}),
    "sym-phi-dist": (coincidence_sym_phase, (PHIS, G2S, G3S), {"indistinguishable": False}),
}


@pytest.mark.parametrize("case", sorted(BROADCAST_CASES))
def test_closed_forms_broadcast_like_elementwise_calls(case):
    """A scan calls a closed form once per grid point, with floats.  Over
    each case's broadcast grid that gives the bits of the array formula,
    except with an array phi: numpy's complex division multiplies by 1/3,
    so the symmetric form may move in the last bits there."""
    closed_form, args, kwargs = BROADCAST_CASES[case]
    expected = ARRAY_FORMULAS[closed_form](*args, **kwargs)
    args = np.broadcast_arrays(*args)
    assert expected.shape == args[0].shape
    for index in np.ndindex(expected.shape):
        got = closed_form(*(a[index].item() for a in args), **kwargs)
        assert type(got) is float
        if args[0].ndim and closed_form is coincidence_sym_phase:  # an array phi
            assert got == pytest.approx(expected[index], rel=1e-14, abs=1e-14)
        else:
            assert got == expected[index]


def test_float_or_int_arguments_skip_numpy(fresh_python):
    """In a fresh interpreter, closed forms and visibilities of floats and
    ints run without importing numpy."""
    fresh_python(
        "import sys\n"
        "from multiphoton.coincidence import coincidence_dft3, coincidence_hom, "
        "coincidence_mismatch_n3, coincidence_sym_phase\n"
        "from multiphoton.visibility import visibility, visibility_of\n"
        "for form, args in [(coincidence_hom, (0.5, 1)), (coincidence_dft3, (2, 6)),\n"
        "                   (coincidence_sym_phase, (0.5, 1, 1))]:\n"
        "    assert form(*args) == form(*map(float, args))\n"
        "    visibility_of(form, *args)\n"
        "visibility(coincidence_mismatch_n3(2, 6, 1), 1.0)\n"
        "assert 'numpy' not in sys.modules\n"
    )


def test_closed_forms_of_floats_are_floats():
    assert type(coincidence_sym_phase(0.7, 1.3, 1.69)) is float
    assert type(coincidence_mismatch_n3(1.3, 1.69, 0.5)) is float
    assert type(coincidence_dft3(1.3, 1.69, False)) is float


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: coincidence_hom(0.5, np.array([1.0, -0.1])),
            "g2 must be a number, got ndarray",
        ),
        (
            lambda: coincidence_dft3(1.0, np.array([1.0, 1.0, -1.0, 1.0, 1.0])),
            "g3 must be a number, got ndarray",
        ),
        (lambda: coincidence_sym_phase(0.7, -G2S - 1, 1.0), "g2 must be a number, got ndarray"),
        (lambda: coincidence_mismatch_n3(1.0, 1.0, -XIS), "xi must be a number, got ndarray"),
    ],
    ids=[f"<lambda>{i}" for i in range(4)],
)
def test_closed_forms_reject_any_negative_array_entry(call, message):
    # an array is no number: it is refused whole, not entry by entry
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: coincidence_hom(True, 1.0), "reflectance must be in [0, 1]"),
        (lambda: coincidence_dft3(True, True), "g2 must be in [0, 1e+12]"),
        (lambda: coincidence_sym_phase(True, 1.0, 1.0), "phi must be real"),
    ],
    ids=["hom", "dft3", "sym_phase"],
)
def test_closed_forms_refuse_a_bool(call, name):
    with pytest.raises(ValueError, match=f"^{re.escape(name)}, got True$"):
        call()


def domain_cases():
    """Each g argument of each closed form set to NaN, 2e12 or 1+1j, as a
    float and inside an array (refused whole, as no number), then the
    (g2, g3 = g2^2) pairs with g3 past the cap that
    test_closed_form_visibilities_match_their_ratio_forms skips.  Each case
    ends with the message's tail after the argument's name."""
    valid = [
        (coincidence_hom, {"r": 0.5, "g2": 1.0}),
        (coincidence_dft3, {"g2": 1.0, "g3": 1.0}),
        (coincidence_sym_phase, {"phi": 0.7, "g2": 1.0, "g3": 1.0}),
        (coincidence_mismatch_n3, {"g2": 1.0, "g3": 1.0, "xi": 1.5}),
    ]
    for form, args in valid:
        for name in (key for key in args if key[0] == "g"):
            for bad in (math.nan, 2e12, 1 + 1j):
                for kind, value, tail in (
                    ("float", bad, f"in [0, 1e+12], got {bad}"),
                    ("array", np.array([1.0, bad]), "a number, got ndarray"),
                ):
                    case = (form, {**args, name: value}, name, tail)
                    yield pytest.param(*case, id=f"{form.__name__}-{name}-{bad:g}-{kind}")
    for g2 in np.geomspace(1e-6, 1e9, 31):
        if g2 * g2 > 1e12:
            case = (coincidence_dft3, {"g2": g2, "g3": g2 * g2}, "g3", f"in [0, 1e+12], got {g2 * g2}")
            yield pytest.param(*case, id=f"coincidence_dft3-g2={g2:.3g}-g3=g2^2")


@pytest.mark.parametrize("closed_form, args, name, tail", list(domain_cases()))
def test_closed_forms_reject_nan_or_g_past_the_cap(closed_form, args, name, tail):
    with pytest.raises(ValueError) as info:
        closed_form(**args)
    assert str(info.value) == f"{name} must be {tail}"


@pytest.mark.parametrize(
    "xi, shown",
    [(2.5, "2.5"), (math.nan, "nan"), (1 + 1j, "(1+1j)"), (-0.5, "-0.5")],
)
def test_mismatch_names_an_xi_outside_the_path(xi, shown):
    with pytest.raises(ValueError) as info:
        coincidence_mismatch_n3(1.0, 1.0, xi)
    assert str(info.value) == f"xi must be in [0, 2], got {shown}"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["float", "array"])
def test_sym_phase_rejects_non_finite_phi(bad, kind):
    # an array is refused whole, as no number
    phi, message = (bad, "finite") if kind == "float" else (np.array([0.7, bad]), "a number, got ndarray")
    for indistinguishable in (True, False):
        with pytest.raises(ValueError, match=f"^phi must be {message}$"):
            coincidence_sym_phase(phi, 1.0, 1.0, indistinguishable)


@pytest.mark.parametrize(
    "phi, message",
    [
        (1 + 1j, "real, got (1+1j)"),
        (np.complex128(0.5), "real, got (0.5+0j)"),
        ([0.7, 1 + 1j], "a number, got list"),  # refused whole, as no number
    ],
    ids=["complex", "complex128", "array"],
)
def test_sym_phase_rejects_complex_phi(phi, message):
    for indistinguishable in (True, False):
        with pytest.raises(ValueError) as info:
            coincidence_sym_phase(phi, 1.0, 1.0, indistinguishable)
        assert str(info.value) == f"phi must be {message}"


def test_permanent_cache_can_be_cleared():
    coincidence.clear_permanent_cache()
    ens = uniform_ensemble(3, sources.laser_stats())
    value = coincidence_id_general(circuits.dft(3), ens).p_normalized
    coincidence.clear_permanent_cache()
    assert coincidence_id_general(circuits.dft(3), ens).p_normalized == value


# --- the latest ensemble's record, the pattern sum's only memo -------------------

def _haar_circuit(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return circuits.custom(np.linalg.qr(z)[0])


def _random_stats(rng, n):
    return [
        sources.SourceStats(float(rng.uniform(0.1, 3.0)), (1.0, 1.0, *rng.uniform(0, 5, n - 1).tolist()))
        for _ in range(n)
    ]


def _count_product_builds(monkeypatch):
    """Route _port_products through a recorder; returns the list of the
    stats tuples it builds products for."""
    builds = []
    build = coincidence._port_products

    def counted(key):
        builds.append(key)
        return build(key)

    monkeypatch.setattr(coincidence, "_port_products", counted)
    return builds


def test_cleared_memo_builds_the_products_again(monkeypatch):
    """A sum handed the stats tuple it just summed builds no products; an
    equal but distinct tuple builds its own, since the record matches by
    identity only; clear_permanent_cache makes the next sum build them once."""
    builds = _count_product_builds(monkeypatch)
    rng = np.random.default_rng(18)
    circuit = _haar_circuit(rng, 4)
    ens = InputEnsemble(stats=tuple(_random_stats(rng, 4)))
    coincidence.clear_permanent_cache()
    coincidence_id_general(circuit, ens)
    assert builds == [ens.stats]
    coincidence_dist_general(circuit, ens)
    twin = InputEnsemble(stats=tuple(list(ens.stats)))
    assert twin.stats is not ens.stats
    coincidence_id_general(circuit, twin)
    assert len(builds) == 2
    coincidence.clear_permanent_cache()
    coincidence_dist_general(circuit, ens)
    coincidence_id_general(circuit, ens)
    assert len(builds) == 3


def test_one_ensemble_shares_its_products_across_circuits(monkeypatch):
    """An ensemble summed on two different 4-port circuits builds its
    products once, and every sum gives the bits of a cold sum."""
    rng = np.random.default_rng(21)
    pair = [_haar_circuit(rng, 4), _haar_circuit(rng, 4)]
    ens = InputEnsemble(stats=tuple(_random_stats(rng, 4)))
    engines = (coincidence_id_general, coincidence_dist_general)
    cold = []
    for circuit in pair:
        for engine in engines:
            coincidence.clear_permanent_cache()
            cold.append(engine(circuit, ens).p_raw.hex())
    builds = _count_product_builds(monkeypatch)
    coincidence.clear_permanent_cache()
    warm = [engine(circuit, ens).p_raw.hex() for circuit in pair for engine in engines]
    assert builds == [ens.stats]
    assert warm == cold


def test_pattern_sum_never_hashes_source_stats(monkeypatch):
    """The record matches an ensemble by identity only, so no sum hashes or
    compares a SourceStats, whether the ensemble holds a tuple or a list.
    The last ensemble holds equal copies and finds the list's stats in the
    record, so a match by value would call SourceStats.__eq__."""
    rng = np.random.default_rng(20)
    circuit = _haar_circuit(rng, 5)
    stats = _random_stats(rng, 5)
    copies = [dataclasses.replace(stat) for stat in stats]
    expected = [engine(circuit, InputEnsemble(stats=tuple(stats))).p_raw
                for engine in (coincidence_id_general, coincidence_dist_general)]

    def refuse(self, *other):
        raise AssertionError("SourceStats hashed or compared")

    monkeypatch.setattr(sources.SourceStats, "__hash__", refuse)
    monkeypatch.setattr(sources.SourceStats, "__eq__", refuse)
    coincidence.clear_permanent_cache()
    for held in (tuple(stats), list(stats), tuple(copies)):
        ens = InputEnsemble(stats=held)
        got = [engine(circuit, ens).p_raw
               for engine in (coincidence_id_general, coincidence_dist_general)]
        assert got == expected


def test_memo_follows_a_mutated_stats_list():
    """An ensemble built on a list that changes between its two sums gets
    the cold result of the list's new contents: the memo is keyed by a
    tuple of the stats, not by the container handed in."""
    rng = np.random.default_rng(19)
    circuit = _haar_circuit(rng, 5)
    stats = _random_stats(rng, 5)
    ens = InputEnsemble(stats=stats)
    coincidence.clear_permanent_cache()
    coincidence_id_general(circuit, ens)
    stats[2] = _random_stats(rng, 5)[0]
    warm = coincidence_dist_general(circuit, ens).p_raw
    coincidence.clear_permanent_cache()
    cold = coincidence_dist_general(circuit, InputEnsemble(stats=tuple(stats))).p_raw
    assert warm.hex() == cold.hex()


@pytest.mark.parametrize("mean", [3, 2**40])
def test_integer_means_sum_like_float_means(mean):
    """A port mean given as a Python int gives the bits of the same mean as
    a float, also where its N-th power would overflow an int64."""
    circuit = circuits.dft(MAX_PORTS)
    results = []
    for value in (mean, float(mean)):
        coincidence.clear_permanent_cache()
        ens = uniform_ensemble(MAX_PORTS, sources.SourceStats(value, (1,) * (MAX_PORTS + 1)))
        results.append(coincidence_dist_general(circuit, ens))
    assert results[0].p_raw.hex() == results[1].p_raw.hex()
    assert results[0].p_normalized == pytest.approx(1.0, rel=1e-12)  # uniform laser


def test_concurrent_sums_never_mix_ensembles():
    """Four threads summing the same three ensembles, id then dist, get the
    single-threaded bits: the record never pairs one ensemble's stats with
    another's products."""
    rng = np.random.default_rng(20)
    circuit = _haar_circuit(rng, 3)
    ensembles = [InputEnsemble(stats=tuple(_random_stats(rng, 3))) for _ in range(3)]
    want = [(coincidence_id_general(circuit, e).p_raw, coincidence_dist_general(circuit, e).p_raw) for e in ensembles]
    wrong, finished = [], []

    def work(offset):
        for step in range(3000):
            k = (offset + step) % len(ensembles)
            got = (coincidence_id_general(circuit, ensembles[k]).p_raw,
                   coincidence_dist_general(circuit, ensembles[k]).p_raw)
            if got != want[k]:
                wrong.append(k)
        finished.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == [0, 1, 2, 3]
    assert wrong == []
