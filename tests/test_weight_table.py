"""The per-circuit weight table and the pattern sum of the general engines.

The table comes from one polynomial expansion; these tests hold it to the
per-pattern permanent construction it replaced, to the same expansion run
in exact integer arithmetic and, bit for bit, to the same expansion run
one column at a time; they check exact invariants that hold at any port
count up to MAX_PORTS, and pin when a missing g^(m) order is an error,
whatever the port labels.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiphoton import circuits, coincidence, linalg, sources
from multiphoton.coincidence import (
    MAX_PORTS,
    InputEnsemble,
    coincidence_dist_general,
    coincidence_id_general,
    enumerate_exponent_tuples,
    uniform_ensemble,
)

TABLE_TOL = 1e-12  # absolute, on |Per/prod s!|^2 and Per(V)/prod s!
EXACT_TOL = 1e-15  # absolute, the table against its exact expansion
ENGINES = (coincidence_id_general, coincidence_dist_general)


def haar(seed, n):
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def permanent_table(u):
    """The table as built before the expansion: one column selection and
    two permanents per occupation pattern.

    A pattern whose columns have no perfect matching on the nonzero entries
    of U has weight exactly 0, as in the expansion.  The permanents of U and
    |U|^2 can leave round-off there (5e-36 for a blocked 4-port circuit),
    which the missing-order rule would count as a nonzero weight, so such
    patterns are set to 0.  The matchings are counted exactly, as the
    permanent of the 0/1 support."""
    n = u.shape[0]
    v = linalg.mod_squared(u)
    support = (v != 0).astype(float)
    w_id, w_dist = [], []
    for s in enumerate_exponent_tuples(n):
        d = np.repeat(np.arange(n), s)
        if linalg.permanent(support[:, d]) == 0:
            w_id.append(0.0)
            w_dist.append(0.0)
            continue
        norm = math.prod(math.factorial(si) for si in s)
        w_id.append(abs(linalg.permanent(u[:, d]) / norm) ** 2)
        w_dist.append(linalg.permanent(v[:, d]).real / norm)
    return np.array(w_id), np.array(w_dist)


def loop_table(u):
    """(w_id, w_dist) from the same expansion with one fancy-index += per
    (row, column) pair: for a fixed j the map p -> p + e_j is injective, so
    each += is exact and every entry takes its terms in j order."""
    n = u.shape[0]
    m = np.stack((u, np.abs(u) ** 2), axis=-1)[..., None]
    coeffs = np.ones((2, 1), dtype=np.complex128)
    for i, shifts in enumerate(coincidence._expansion_plan(n)[2]):
        grown = np.zeros(2 * math.comb(n + i, n - 1), dtype=np.complex128)
        for j, to in enumerate(shifts):
            grown[to] += (m[i, j] * coeffs).ravel()
        coeffs = grown.reshape(2, -1)
    return np.abs(coeffs[0]) ** 2, coeffs[1].real


def exact_table(u):
    """(w_id, w_dist) from prod_i (sum_j m_ij x_j) expanded in Python ints,
    on the very float matrices the engine expands: U and V = |U|^2.

    Every float is an integer over a power of 2, so scaling all entries by
    the largest denominator among them makes each one an integer; the
    coefficients are then exact Gaussian integers (for U) and integers
    (for V), and only the final division rounds, correctly, to a float.
    A pattern is keyed by its base-(N+1) code, so adding a photon to
    port j adds (N+1)^(N-1-j)."""
    n = u.shape[0]
    v = np.abs(u) ** 2
    scale = max(x.as_integer_ratio()[1] for x in (*u.real.flat, *u.imag.flat, *v.flat))

    def fixed(x):
        p, q = x.as_integer_ratio()
        return p * (scale // q)

    mu = [[(fixed(z.real), fixed(z.imag)) for z in row] for row in u.tolist()]
    mv = [[fixed(x) for x in row] for row in v.tolist()]
    radix = [(n + 1) ** (n - 1 - j) for j in range(n)]
    cu, cv = {0: (1, 0)}, {0: 1}
    for i in range(n):
        gu, gv = {}, {}
        for code, (a, b) in cu.items():
            for step, (c, d) in zip(radix, mu[i]):
                re, im = gu.get(code + step, (0, 0))
                gu[code + step] = (re + a * c - b * d, im + a * d + b * c)
        for code, a in cv.items():
            for step, c in zip(radix, mv[i]):
                gv[code + step] = gv.get(code + step, 0) + a * c
        cu, cv = gu, gv
    codes = (enumerate_exponent_tuples(n) @ np.array(radix)).tolist()
    denom = scale**n
    w_id = [(cu[k][0] ** 2 + cu[k][1] ** 2) / denom**2 for k in codes]
    w_dist = [cv[k] / denom for k in codes]
    return np.array(w_id), np.array(w_dist)


def stats_factor(stats, s):
    """The per-pattern source factor, whatever the port labels: 0 if the
    pattern lights a zero-mean port, else prod_i n_i^s_i g_i^(s_i), which
    needs every g it multiplies."""
    if any(si and stat.mean_n == 0.0 for stat, si in zip(stats, s)):
        return 0.0
    factor = 1.0
    for stat, si in zip(stats, s):
        if si > stat.max_order:
            raise ValueError(
                f"source statistics defined only to order {stat.max_order}, "
                f"but g({si}) is required"
            )
        factor *= stat.mean_n**si * stat.g[si]
    return factor


def loop_sum(stats, weights, patterns):
    total = 0.0
    for s, w in zip(patterns, weights):
        if w:
            total += w * stats_factor(stats, s)
    return total


def outcome(fn, *args):
    """('ok', value) or ('error', message)."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


# --- the table against the permanent reference --------------------------------

REFERENCE_CIRCUITS = [
    *[pytest.param(haar(100 + n, n), id=f"haar{n}") for n in range(1, 7)],
    pytest.param(circuits.dft(7).u, id="dft7"),
    *[pytest.param(circuits.symmetric(phi).u, id=f"sym{phi:.2f}")
      for phi in (0.0, 0.7, 2 * math.pi / 3, math.pi)],
]


@pytest.mark.parametrize("u", REFERENCE_CIRCUITS)
def test_table_matches_ryser_reference(u):
    w_id, w_dist = coincidence._weights(circuits.custom(u))
    ref_id, ref_dist = permanent_table(np.asarray(u))
    assert w_id.shape == w_dist.shape == (len(enumerate_exponent_tuples(u.shape[0])),)
    assert np.abs(w_id - ref_id).max() <= TABLE_TOL
    assert np.abs(w_dist - ref_dist).max() <= TABLE_TOL


@pytest.mark.parametrize(
    "u",
    [
        pytest.param(haar(100 + MAX_PORTS, MAX_PORTS), id=f"haar{MAX_PORTS}"),
        *[pytest.param(circuits.dft(n).u, id=f"dft{n}") for n in range(2, MAX_PORTS + 1)],
    ],
)
def test_table_matches_exact_expansion(u):
    w_id, w_dist = coincidence._weights(circuits.custom(u))
    exact_id, exact_dist = exact_table(np.asarray(u))
    assert np.abs(w_id - exact_id).max() <= EXACT_TOL
    assert np.abs(w_dist - exact_dist).max() <= EXACT_TOL


@pytest.mark.parametrize(
    "u",
    [
        *[pytest.param(circuits.dft(n).u, id=f"dft{n}") for n in range(2, MAX_PORTS + 1)],
        *[pytest.param(haar(700 + 10 * n + k, n), id=f"haar{n}-{k}")
          for n in range(1, MAX_PORTS + 1) for k in range(5)],
    ],
)
def test_table_matches_loop_build_bit_for_bit(u):
    """The one scatter-add per row factor sums each entry in the loop's
    order, so the tables are the same bits."""
    for got, want in zip(coincidence._weights(circuits.custom(u)), loop_table(np.asarray(u))):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_port_count_above_max_rejected():
    n = MAX_PORTS + 1
    ens = uniform_ensemble(n, sources.laser_stats(n))
    for engine in ENGINES:
        with pytest.raises(ValueError, match="port count"):
            engine(circuits.dft(n), ens)


def test_table_is_read_only():
    w_id, w_dist = coincidence._weights(circuits.dft(3))
    with pytest.raises(ValueError):
        w_id[0] = 1.0
    with pytest.raises(ValueError):
        w_dist[0] = 1.0


# --- exact invariants at any N --------------------------------------------------

@given(st.integers(2, MAX_PORTS), st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_uniform_thermal_and_laser_invariants(n, seed):
    circuit = circuits.custom(haar(seed, n))
    thermal = uniform_ensemble(n, sources.thermal_stats(n))
    laser = uniform_ensemble(n, sources.laser_stats(n))
    assert abs(coincidence_id_general(circuit, thermal).p_normalized - 1) <= 1e-10
    assert abs(coincidence_dist_general(circuit, laser).p_normalized - 1) <= 1e-10


@given(st.integers(2, MAX_PORTS), st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_heterogeneous_thermal_and_laser_references(n, seed):
    """Two references that enumerate no patterns, for any port means:
    thermal P_id = Per(U diag(n) U^dagger) and laser P_dist = prod_i (V n)_i,
    with V = |U|^2.  One port is dark; both still hold there."""
    rng = np.random.default_rng(seed)
    u = haar(seed, n)
    means = rng.uniform(0.05, 5, n)
    means[rng.integers(n)] = 0.0
    circuit = circuits.custom(u)
    thermal = InputEnsemble(tuple(sources.thermal_stats(n, mean_n=m) for m in means))
    laser = InputEnsemble(tuple(sources.laser_stats(n, mean_n=m) for m in means))
    want_thermal = linalg.permanent(u @ np.diag(means) @ u.conj().T).real
    want_laser = np.prod(linalg.mod_squared(u) @ means)
    assert coincidence_id_general(circuit, thermal).p_raw == pytest.approx(want_thermal, rel=1e-12)
    assert coincidence_dist_general(circuit, laser).p_raw == pytest.approx(want_laser, rel=1e-12)


@pytest.mark.parametrize("n", range(2, MAX_PORTS + 1))
def test_zero_transmission_law_dft(n):
    """Tichy et al., PRL 104, 220405 (2010): on DFT(N), w_id vanishes at
    every pattern with sum_j (j - 1) s_j != 0 (mod N).  For even N that
    includes one photon per port, Per(DFT_N) = 0."""
    s = enumerate_exponent_tuples(n)
    suppressed = s @ np.arange(n) % n != 0
    if n % 2 == 0:
        assert suppressed[(s == 1).all(axis=1)].all()
    w_id, _ = coincidence._weights(circuits.dft(n))
    assert w_id[suppressed].max() < 1e-24


@pytest.mark.parametrize("n", range(2, MAX_PORTS + 1))
def test_distinguishable_single_photons_on_dft(n):
    # Per(J/N) = N!/N^N
    ens = uniform_ensemble(n, sources.fock_stats(1, n))
    p_dist = coincidence_dist_general(circuits.dft(n), ens).p_normalized
    assert p_dist == pytest.approx(math.factorial(n) / n**n, rel=1e-12)


# --- missing g^(m) orders -----------------------------------------------------------

def _blocked(first_port_always_lit):
    """A 3-port circuit in which one input port is lit in every pattern of
    nonzero weight: the polynomial is (a x1 + b x2)(c x1 + d x2) x0, or the
    same with the roles of x0 and x2 exchanged."""
    bs = circuits.beamsplitter(0.3).u
    u = np.zeros((3, 3), dtype=complex)
    if first_port_always_lit:
        u[:2, 1:] = bs
        u[2, 0] = 1
    else:
        u[:2, :2] = bs
        u[2, 2] = 1
    return circuits.custom(u)


VACUUM = sources.SourceStats(0.0, (1.0, 1.0, 0.0, 0.0))
SHORT = sources.SourceStats(1.0, (1.0, 1.0))  # defined to order 1 only


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("first_port_always_lit", [True, False])
def test_dark_port_lit_in_every_term_gives_zero(engine, first_port_always_lit):
    # the short port would need g(2), but every term lights the dark port,
    # in either labelling of the same experiment
    stats = (VACUUM, SHORT, sources.laser_stats())
    if not first_port_always_lit:
        stats = stats[::-1]
    result = engine(_blocked(first_port_always_lit), InputEnsemble(stats=stats))
    assert result.p_raw == 0.0
    assert math.isnan(result.p_normalized)


def test_zero_mean_port_with_missing_order_gives_zero():
    dark_short = sources.SourceStats(0.0, (1.0, 1.0))
    ens = uniform_ensemble(3, dark_short)
    for engine in ENGINES:
        assert engine(circuits.dft(3), ens).p_raw == 0.0


def _random_stats(rng, n):
    mean = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.1, 3.0))
    order = int(rng.integers(1, n + 2))
    return sources.SourceStats(mean, (1.0, 1.0, *rng.uniform(0, 5, order - 1).tolist()))


def _reference_case(n, seed, blocked):
    """A seeded generator, an n-port circuit and an ensemble with dark ports
    and short g sequences."""
    rng = np.random.default_rng(seed)
    u = haar(seed, n)
    if blocked:  # exact zeros: port n-1 passes straight through, permuted
        u = np.zeros((n, n), dtype=complex)
        u[: n - 1, : n - 1] = haar(seed, n - 1)
        u[n - 1, n - 1] = 1
        u = u[rng.permutation(n)][:, rng.permutation(n)]
    return rng, u, InputEnsemble(stats=tuple(_random_stats(rng, n) for _ in range(n)))


@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60)
def test_engines_match_loop_reference(n, seed, blocked):
    """Same value (or the same error) as the per-pattern loop over the
    permanent table, for ensembles with dark ports and short g sequences."""
    _, u, ens = _reference_case(n, seed, blocked)
    circuit = circuits.custom(u)
    patterns = enumerate_exponent_tuples(n)
    for engine, ref_weights in zip(ENGINES, permanent_table(u)):
        got = outcome(lambda: engine(circuit, ens).p_raw)
        want = outcome(loop_sum, ens.stats, ref_weights, patterns)
        assert got[0] == want[0]
        if got[0] == "error":
            assert got[1] == want[1]
        else:
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-14)


@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60)
def test_relabelling_ports_keeps_the_outcome(n, seed, blocked):
    """Every permutation of the input ports, each port with its source, and
    a random one of the output ports give the same outcome, and the same
    p_raw when there is one."""
    rng, u, ens = _reference_case(n, seed, blocked)
    want = [outcome(lambda: engine(circuits.custom(u), ens).p_raw) for engine in ENGINES]
    for inputs in map(list, itertools.permutations(range(n))):
        relabelled = circuits.custom(u[rng.permutation(n)][:, inputs])
        permuted = InputEnsemble(stats=tuple(ens.stats[j] for j in inputs))
        for engine, (kind, p_raw) in zip(ENGINES, want):
            got = outcome(lambda: engine(relabelled, permuted).p_raw)
            assert got[0] == kind
            if kind == "ok":
                assert got[1] == pytest.approx(p_raw, rel=1e-12)


@pytest.mark.parametrize("n", range(2, MAX_PORTS + 1))
def test_lit_port_short_of_order_n_raises_on_dft(n):
    """On dft(N) a lit port j defined below order N meets the pattern N e_j,
    of weight N^-N in both tables, so the round-off left in the suppressed
    w_id entries never decides whether a sum raises."""
    circuit = circuits.dft(n)
    top = np.flatnonzero(enumerate_exponent_tuples(n).max(axis=1) == n)
    for weights in coincidence._weights(circuit):
        np.testing.assert_allclose(weights[top], float(n) ** -n, rtol=1e-12)
    for j in range(n):
        stats = [sources.laser_stats(n)] * n
        stats[j] = sources.laser_stats(n - 1)
        for engine in ENGINES:
            with pytest.raises(ValueError, match=rf"order {n - 1}, but g\({n}\) is required$"):
                engine(circuit, InputEnsemble(stats=tuple(stats)))


@pytest.mark.parametrize("n", range(2, MAX_PORTS + 1))
def test_dark_port_short_of_order_n_changes_nothing_on_dft(n):
    """A dark port zeroes every term it lights, so one defined to order 1
    gives the bits of the same port defined to order N."""
    circuit = circuits.dft(n)
    lit = sources.thermal_stats(n, mean_n=0.7)
    for j in range(n):
        short, full = [lit] * n, [lit] * n
        short[j] = sources.SourceStats(0.0, (1.0, 1.0))
        full[j] = sources.laser_stats(n, mean_n=0.0)
        for engine in ENGINES:
            got = engine(circuit, InputEnsemble(stats=tuple(short))).p_raw
            want = engine(circuit, InputEnsemble(stats=tuple(full))).p_raw
            assert want > 0
            assert got.hex() == want.hex()


def _lit_stats(rng, order):
    """A lit port with random g^(2)..g^(order)."""
    return sources.SourceStats(
        float(rng.uniform(0.1, 3.0)), (1.0, 1.0, *rng.uniform(0, 5, order - 1).tolist())
    )


@pytest.mark.parametrize("n", range(5, MAX_PORTS + 1))
def test_engines_match_loop_reference_at_benchmark_sizes(n):
    """The array sum against the per-pattern loop over the engine's own
    table at N = 5..MAX_PORTS, where the benchmark runs it; no permanents."""
    rng = np.random.default_rng(300 + n)
    circuit = circuits.custom(haar(300 + n, n))
    patterns = enumerate_exponent_tuples(n)
    physical = [
        sources.thermal_stats(n, mean_n=0.7),
        sources.laser_stats(n, mean_n=1.3),
        sources.fock_stats(2, n),
        sources.diluted_laser_stats(0.4, n),
    ]
    dark = sources.SourceStats(0.0, (1.0, 1.0))
    short = sources.SourceStats(1.5, (1.0, 1.0, *rng.uniform(0, 5, n - 2).tolist()))
    ensembles = [
        [_lit_stats(rng, n) for _ in range(n)],
        [dark if i == 1 else _lit_stats(rng, n + 1) for i in range(n)],
        [physical[i % len(physical)] for i in range(n)],
        [short if i == n // 2 else _lit_stats(rng, n) for i in range(n)],
    ]
    for stats in ensembles:
        ens = InputEnsemble(stats=tuple(stats))
        for engine, weights in zip(ENGINES, coincidence._weights(circuit)):
            got = outcome(lambda: engine(circuit, ens).p_raw)
            want = outcome(loop_sum, ens.stats, weights, patterns)
            assert got[0] == want[0] == ("error" if short in stats else "ok")
            if got[0] == "error":
                assert got[1] == want[1]
            else:
                assert got[1] == pytest.approx(want[1], rel=1e-12)


@pytest.mark.parametrize("n", range(1, MAX_PORTS + 1))
def test_take_is_port_major(n):
    """The pattern sum's gather lays the ports along the outer axis."""
    s, take, _ = coincidence._expansion_plan(n)
    table = np.random.default_rng(n).random((n, n + 1))
    assert take.shape == (n, len(s))
    assert take.flags.c_contiguous
    assert np.array_equal(table.take(take), table[np.arange(n)[:, None], s.T])


# --- the memoised pattern products -----------------------------------------------

def test_memoised_products_match_cold_sums_bit_for_bit():
    """The id and dist sums share one product vector per ensemble; every
    result equals the same call made with every cache cleared."""
    rng = np.random.default_rng(17)
    circuit = circuits.custom(haar(17, 7))
    a = InputEnsemble(stats=tuple(_lit_stats(rng, 7) for _ in range(7)))
    b = InputEnsemble(stats=tuple(_lit_stats(rng, 7) for _ in range(7)))
    calls = [(a, 0), (b, 0), (a, 1), (b, 1), (b, 0)]
    warm = [ENGINES[which](circuit, ens).p_raw.hex() for ens, which in calls]
    cold = []
    for ens, which in calls:
        coincidence.clear_permanent_cache()
        cold.append(ENGINES[which](circuit, ens).p_raw.hex())
    assert warm == cold


def test_memoised_products_still_check_missing_orders():
    """Products memoised by a sum that needed no missing order must not let
    a later sum of the same ensemble skip the check."""
    ens = InputEnsemble(stats=(sources.laser_stats(), SHORT, sources.laser_stats()))
    identity = circuits.custom(np.eye(3))  # only (1, 1, 1) has weight
    haar3 = circuits.custom(haar(3, 3))
    message = r"^source statistics defined only to order 1, but g\(2\) is required$"
    coincidence.clear_permanent_cache()
    for engine in ENGINES:
        with pytest.raises(ValueError, match=message):
            engine(haar3, ens)
        assert engine(identity, ens).p_raw == 1.0
        assert coincidence._port_products.cache_info().currsize == 1
        with pytest.raises(ValueError, match=message):
            engine(haar3, ens)


def test_memoised_products_are_read_only():
    stats = uniform_ensemble(3, sources.thermal_stats()).stats
    products = coincidence._port_products(stats)
    assert products.shape == (len(enumerate_exponent_tuples(3)),)
    with pytest.raises(ValueError):
        products[0] = 1.0
    assert coincidence._port_products(stats) is products
