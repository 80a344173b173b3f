"""Coincidence-probability engines.

The central quantity is the N-fold coincidence P = <:n_1 ... n_N:> at the
outputs of an N-port circuit.  For phase-independent, statistically
independent single-mode inputs it reduces to a finite sum over occupation
patterns s (compositions of N into N parts):

    indistinguishable:  sum_s |Per(U_d(s)) / prod_i s_i!|^2
                              * prod_i  n_i^{s_i} g_i^(s_i)
    distinguishable:    the same sum with Per(V_d(s)) / prod_i s_i!
                              (first power), where v_ij = |u_ij|^2

with U_d(s) = U[:, d(s)], where d(s) lists each column index j exactly
s_j times in non-decreasing order (s = (2, 0, 1) gives d = (1, 1, 3)).
The distinguishable sum divides by prod s_i! exactly once: the permanent
of a matrix with a repeated column already counts every ordering of the
identical photons, and squaring the factor would double-count it.

Every weight comes from one polynomial expansion per circuit (Aaronson &
Arkhipov, "The computational complexity of linear optics", 2011):

    Per(M_d(s)) / prod_j s_j! = [x^s] prod_i (sum_j m_ij x_j)

run over M = U and M = V at once.  A circuit's table holds the two float
arrays w_id = |c_U(s)|^2 and w_dist = Re c_V(s), in the order of
``enumerate_exponent_tuples(N)``; a pattern sum is then one gather of a
per-port table T[i, m] = n_i^m g_i^(m), a product over ports and a dot
product with the weights.  The products do not depend on the weights, so
the id and dist sums of one ensemble share one product vector: the latest
ensemble's is memoised, and the second sum costs one dot product.

Against the same expansion run exactly in Python ints on the same float
matrices, the table entries differ by at most 5.6e-17 (absolute) on
dft(N), N = 2..8, and by at most 2.2e-16 over 20 Haar circuits at each
N = 2..8; ``tests/test_weight_table.py`` asserts <= 1e-15.

Besides the general engines this module carries independent closed forms
used for cross-checking: the explicit 3-port expansion with per-port
statistics, the two-port beamsplitter case, the balanced 3-port (DFT)
case, the phase-controlled symmetric 3-port, and the sequential
mode-mismatch path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from multiphoton import linalg
from multiphoton.circuits import Circuit
from multiphoton.sources import G_CAP, SourceStats

MAX_PORTS = 8


@dataclass(frozen=True)
class InputEnsemble:
    """Per-port source statistics feeding an N-port circuit."""

    stats: tuple[SourceStats, ...]

    @property
    def n(self) -> int:
        return len(self.stats)


def uniform_ensemble(n: int, stats: SourceStats) -> InputEnsemble:
    """All N ports fed identically (the symmetric-input configuration)."""
    return InputEnsemble(stats=(stats,) * n)


@dataclass(frozen=True)
class CoincidenceResult:
    """Raw correlation (units of photons^N) and the intensity-normalized
    probability p_raw / prod_i <n_i> (NaN when some port mean is zero)."""

    p_raw: float
    p_normalized: float


def enumerate_exponent_tuples(n: int) -> np.ndarray:
    """All occupation patterns (s_1..s_N) with sum s_i = N, one per row of
    a read-only (K, N) integer array in lexicographic order; there are
    K = C(2N-1, N-1) of them.  This is the array the engines index."""
    return _expansion_plan(n)[0]


# --- general engines -------------------------------------------------------

@lru_cache(maxsize=None)  # one entry per port count, so at most MAX_PORTS
def _expansion_plan(n: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Index arrays shared by every N-port table and pattern sum.

    * ``s``: the exponent matrix (K x N, one pattern per row, table order);
    * ``take``: flat indices into an N x (N+1) per-port table T, stored
      port-major (N x K), so that ``T.ravel()[take][i, k] == T[i, s[k, i]]``
      and the product over ports runs along the outer axis;
    * ``shifts[k]`` (N x 2K_k): the shift maps of degree k on a (2, K_k)
      stack of coefficient vectors, flattened.  Row j sends each degree-k
      pattern p of either half to p + e_j in the same half of the flattened
      (2, K_{k+1}) stack, so one scatter-add serves every j, U and V at once.

    Every composition of k + 1 is a composition of k plus some e_j, and the
    base-(N+1) code of a pattern sorts like its row does.  So ``np.unique``
    over the codes of every p + e_j yields the degree-(k+1) codes in table
    order, and its inverse, one entry per (j, p), is the rank of p + e_j:
    the shift map, already port-major.  ``s`` is read back from the
    degree-N codes.
    """
    if not 1 <= n <= MAX_PORTS:
        raise ValueError(f"port count must be in 1..{MAX_PORTS}, got {n}")
    radix = (n + 1) ** np.arange(n - 1, -1, -1)
    codes = np.zeros(1, dtype=np.int64)
    shifts = []
    for _ in range(n):
        # numpy 1.x returns the inverse flat, 2.x in the input's shape.
        codes, to = np.unique(radix[:, None] + codes, return_inverse=True)
        to = to.reshape(n, -1)
        shifts.append(np.concatenate((to, to + len(codes)), axis=1))
    s = codes[:, None] // radix % (n + 1)
    take = np.ascontiguousarray((np.arange(n) * (n + 1) + s).T)
    # Every caller shares these arrays, so none of them may be written to.
    for array in (s, take, *shifts):
        array.flags.writeable = False
    return s, take, tuple(shifts)


# The weights depend only on the circuit, so each circuit gets one table
# that scans then reuse across thousands of source configurations: the pair
# (w_id, w_dist) of read-only float arrays, entry k belonging to pattern
# enumerate_exponent_tuples(N)[k].  Keyed by the matrix bytes; lru_cache
# makes concurrent readers safe.

@lru_cache(maxsize=256)
def _weights_cached(n: int, key: bytes) -> tuple[np.ndarray, np.ndarray]:
    u = np.frombuffer(key, dtype=np.complex128).reshape(n, n)
    m = np.stack((u, np.abs(u) ** 2), axis=-1)[..., None]  # m[i, j] = [[u_ij], [v_ij]]
    # Multiply in one row factor sum_j m_ij x_j at a time.  np.add.at adds
    # unbuffered in input order, j-major, so colliding terms sum in j order.
    coeffs = np.ones((2, 1), dtype=np.complex128)
    for i, shifts in enumerate(_expansion_plan(n)[2]):
        grown = np.zeros(2 * math.comb(n + i, n - 1), dtype=np.complex128)
        np.add.at(grown, shifts.ravel(), (m[i] * coeffs).ravel())
        coeffs = grown.reshape(2, -1)
    w_id = np.abs(coeffs[0]) ** 2
    w_dist = np.ascontiguousarray(coeffs[1].real)
    w_id.flags.writeable = w_dist.flags.writeable = False
    return w_id, w_dist


def _weights(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    u = np.ascontiguousarray(circuit.u, dtype=np.complex128)
    return _weights_cached(u.shape[0], u.tobytes())


def clear_permanent_cache() -> None:
    """Drop every circuit's weight table and the memoised pattern products
    (the id and dist sums of one ensemble share one product vector; the
    per-N index plans stay)."""
    _weights_cached.cache_clear()
    _port_products.cache_clear()


# Callers sum one ensemble with w_id and then with w_dist, so one entry,
# keyed by the stats tuple (SourceStats compare by value), serves the second
# sum and holds a single K-vector.

@lru_cache(maxsize=1)
def _port_products(stats: tuple[SourceStats, ...]) -> np.ndarray:
    """prod_i n_i^{s_ki} g_i^(s_ki) for every pattern s_k, as a read-only
    K-vector in table order; orders a port does not define count as 0."""
    n = len(stats)
    take = _expansion_plan(n)[1]
    table = np.array([stat.g[: n + 1] + (0.0,) * (n - stat.max_order) for stat in stats], dtype=float)
    means = np.array([stat.mean_n for stat in stats])
    table *= means[:, None] ** np.arange(n + 1)
    # Indexing reads the read-only take in place; ndarray.take would copy it.
    products = table.ravel()[take].prod(axis=0)
    products.flags.writeable = False
    return products


def _pattern_sum(stats: Sequence[SourceStats], weights: np.ndarray) -> float:
    """sum_k weights[k] prod_i n_i^{s_ki} g_i^(s_ki) over the patterns s.

    A term that lights a zero-mean port is 0, whatever its g's.  Any other
    term of nonzero weight that needs an order some port does not define
    is an error, so relabelling the ports never changes the outcome.  The
    rule depends on the weights, so it is applied on every call, also when
    the products come from the memo.
    """
    n = len(stats)
    if min(stat.max_order for stat in stats) < n:
        s = _expansion_plan(n)[0]
        means = np.array([stat.mean_n for stat in stats])
        orders = np.array([stat.max_order for stat in stats])
        live = (weights != 0) & ~((s > 0) & (means == 0)).any(axis=1)
        short = np.argwhere((s > orders) & live[:, None])
        if short.size:
            k, i = short[0]
            stats[i]._order(s[k, i])  # raises: s[k, i] is past that port's max_order
    return float(weights @ _port_products(tuple(stats)))


def _check_ports(circuit: Circuit, ensemble: InputEnsemble) -> None:
    if circuit.n != ensemble.n:
        raise ValueError(
            f"circuit has {circuit.n} ports but ensemble supplies {ensemble.n}"
        )


def _as_result(p_raw: float, ensemble: InputEnsemble) -> CoincidenceResult:
    mean_product = math.prod(s.mean_n for s in ensemble.stats)
    normalized = p_raw / mean_product if mean_product > 0 else math.nan
    return CoincidenceResult(p_raw=p_raw, p_normalized=normalized)


def coincidence_id_general(circuit: Circuit, ensemble: InputEnsemble) -> CoincidenceResult:
    """N-fold coincidence for perfectly indistinguishable inputs."""
    return _general(circuit, ensemble, 0)


def coincidence_dist_general(circuit: Circuit, ensemble: InputEnsemble) -> CoincidenceResult:
    """N-fold coincidence for completely distinguishable inputs (all
    interferometric cross terms vanish)."""
    return _general(circuit, ensemble, 1)


def _general(circuit: Circuit, ensemble: InputEnsemble, which: int) -> CoincidenceResult:
    _check_ports(circuit, ensemble)
    weights = _weights(circuit)[which]
    return _as_result(_pattern_sum(ensemble.stats, weights), ensemble)


# --- explicit 3-port expansion ---------------------------------------------

def coincidence_n3_explicit(
    circuit: Circuit, ensemble: InputEnsemble, indistinguishable: bool = True
) -> CoincidenceResult:
    """Three-fold coincidence written out term by term.

    Independent transcription of the 3-port sum with per-port means and
    statistics: three third-order terms (all photons from one port), nine
    second-order terms (two from one port, one from another), and the
    full-permanent term.  Deliberately avoids the generic permanent
    machinery so the two code paths can cross-check each other.
    """
    if circuit.n != 3:
        raise ValueError(f"explicit expansion is 3-port only, got {circuit.n}")
    _check_ports(circuit, ensemble)

    st = ensemble.stats
    n1, n2, n3 = (s.mean_n for s in st)

    if indistinguishable:
        w = circuit.u

        def weight(amplitude):
            return abs(amplitude) ** 2
    else:
        w = linalg.mod_squared(circuit.u)

        def weight(value):
            return float(value)

    def col3(a):
        # all three detections fed from column a
        return w[0, a - 1] * w[1, a - 1] * w[2, a - 1]

    def pair(a, b):
        # two photons from column a, one from column b
        return (
            w[0, a - 1] * w[1, a - 1] * w[2, b - 1]
            + w[0, a - 1] * w[1, b - 1] * w[2, a - 1]
            + w[0, b - 1] * w[1, a - 1] * w[2, a - 1]
        )

    def full():
        # one photon from each column, all 6 routings
        return (
            w[0, 0] * w[1, 1] * w[2, 2]
            + w[0, 0] * w[1, 2] * w[2, 1]
            + w[0, 1] * w[1, 0] * w[2, 2]
            + w[0, 1] * w[1, 2] * w[2, 0]
            + w[0, 2] * w[1, 0] * w[2, 1]
            + w[0, 2] * w[1, 1] * w[2, 0]
        )

    g2_1, g2_2, g2_3 = (s.g2 for s in st)
    g3_1, g3_2, g3_3 = (s.g3 for s in st)

    total = (
        weight(col3(1)) * n1**3 * g3_1
        + weight(col3(2)) * n2**3 * g3_2
        + weight(col3(3)) * n3**3 * g3_3
        + weight(pair(1, 2)) * n1**2 * n2 * g2_1
        + weight(pair(1, 3)) * n1**2 * n3 * g2_1
        + weight(pair(2, 1)) * n1 * n2**2 * g2_2
        + weight(pair(2, 3)) * n2**2 * n3 * g2_2
        + weight(pair(3, 1)) * n1 * n3**2 * g2_3
        + weight(pair(3, 2)) * n2 * n3**2 * g2_3
        + weight(full()) * n1 * n2 * n3
    )
    return _as_result(total, ensemble)


# --- closed forms ----------------------------------------------------------
# Each closed form broadcasts over numpy arrays of its parameters and gives
# a float for floats.  Only an array phi goes through numpy's cos and
# complex powers; any other call makes the same IEEE operations per element.
# Each rejects a g outside [0, G_CAP], NaN included, as SourceStats does.

def _check_autocorrelations(**named) -> None:
    """Reject a named g, float or array, with any entry outside [0, G_CAP];
    NaN counts as outside.  A float in range takes the quick path."""
    for name, g in named.items():
        if type(g) is float and 0 <= g <= G_CAP:
            continue
        if np.any(np.less(g, 0)):
            raise ValueError(f"{name} must be >= 0, got {np.nanmin(g)}")
        if not np.all(np.less_equal(g, G_CAP)):  # also false for NaN
            raise ValueError(f"{name} must stay within [0, {G_CAP:g}]")


def coincidence_hom(r: float, g2, indistinguishable: bool = True):
    """Normalized two-fold coincidence on a beamsplitter of reflectance R:
    1 - 2RT(2 - g2) for indistinguishable inputs, 1 - 2RT(1 - g2) for
    distinguishable ones.  g2 must lie in [0, G_CAP], the cap on source
    autocorrelations."""
    if not 0 <= r <= 1:
        raise ValueError(f"reflectance must be in [0, 1], got {r}")
    _check_autocorrelations(g2=g2)
    rt2 = 2 * r * (1 - r)
    return 1 - rt2 * (2 - g2) if indistinguishable else 1 - rt2 * (1 - g2)


def coincidence_dft3(g2, g3, indistinguishable: bool = True):
    """Normalized three-fold coincidence on the balanced 3-port for
    symmetric inputs: g3/9 + 1/3, or g3/9 + 2*g2/3 + 2/9 when the inputs
    are distinguishable (the g2 interference terms vanish only in the
    indistinguishable case, so that result does not take g2's shape)."""
    _check_autocorrelations(g2=g2, g3=g3)
    if indistinguishable:
        return g3 / 9 + 1 / 3
    return g3 / 9 + 2 * g2 / 3 + 2 / 9


def coincidence_mismatch_n3(g2, g3, xi):
    """Normalized three-fold coincidence on the balanced 3-port along the
    sequential-alignment path of the pairwise mode overlaps.

    xi in [0, 1] sweeps M23 from 0 to 1 with M12 = M31 = 0 (ports 1 and 2
    stay mutually distinguishable); xi in (1, 2] then sweeps M12 = M31
    from 0 to 1 with M23 pinned at 1.  With M the active overlap, the two
    branches are
    g3/9 + 2(3-M) g2/9 + (2-M)/9 (xi <= 1) and
    g3/9 + 4(1-M) g2/9 + (1+2M)/9 (xi > 1); they agree at the joint and
    reduce to the fully distinguishable / fully indistinguishable values
    at xi = 0 and xi = 2.
    """
    _check_autocorrelations(g2=g2, g3=g3)
    xi = np.asarray(xi, dtype=float)
    if not np.all((0 <= xi) & (xi <= 2)):
        raise ValueError("xi must stay within [0, 2]")
    first_leg = xi <= 1
    m = np.where(first_leg, xi, xi - 1)  # M23 on the first leg, M12 = M31 on the second
    p = np.where(
        first_leg,
        g3 / 9 + 2 * (3 - m) * g2 / 9 + (2 - m) / 9,
        g3 / 9 + 4 * (1 - m) * g2 / 9 + (1 + 2 * m) / 9,
    )
    return p if p.ndim else float(p)


def coincidence_sym_phase(phi, g2, g3, indistinguishable: bool = True):
    """Normalized three-fold coincidence on the symmetric 3-port.

    Closed form in alpha = (2 + e^{i phi})/3, beta = (-1 + e^{i phi})/3:

        id:   3|a|^2|b|^4 g3 + 6|b|^2 |a^2 + ab + b^2|^2 g2
                 + |a^3 + 3ab^2 + 2b^3|^2
        dist: 3|a|^2|b|^4 g3 + 6|b|^2 (|a|^4 + |a|^2|b|^2 + |b|^4) g2
                 + |a|^6 + 3|a|^2|b|^4 + 2|b|^6

    Must agree with the general engines applied to the same circuit.
    """
    _check_autocorrelations(g2=g2, g3=g3)
    if isinstance(phi, (float, int)):
        e = complex(math.cos(phi), math.sin(phi))
    else:
        e = np.cos(phi) + 1j * np.sin(phi)
    a = (2 + e) / 3
    b = (-1 + e) / 3
    aa = abs(a) ** 2
    bb = abs(b) ** 2
    third = 3 * aa * bb**2 * g3
    if indistinguishable:
        second = 6 * bb * abs(a**2 + a * b + b**2) ** 2 * g2
        single = abs(a**3 + 3 * a * b**2 + 2 * b**3) ** 2
    else:
        second = 6 * bb * (aa**2 + aa * bb + bb**2) * g2
        single = aa**3 + 3 * aa * bb**2 + 2 * bb**3
    return third + second + single
