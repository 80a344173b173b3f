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
the id and dist sums of one ensemble share one product vector.  Both caches
follow one rule: a weight table is reused for the same ``Circuit`` object,
the products for the same stats tuple object, and no lookup hashes or
compares a ``SourceStats``.

Against the same expansion run exactly in Python ints on the same float
matrices, the table entries differ by at most 5.6e-17 (absolute) on
dft(N), N = 2..8, and by at most 2.2e-16 over 20 Haar circuits at each
N = 2..8; ``tests/test_weight_table.py`` asserts <= 1e-15.

Besides the general engines this module carries independent closed forms.
The two-port beamsplitter case, the balanced 3-port (DFT) case, the
phase-controlled symmetric 3-port and the sequential mode-mismatch path
drive every figure scan and optimizer in ``optimize`` and are checked
against the engines; the explicit 3-port expansion with per-port
statistics serves only to cross-check the engines.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from multiphoton.sources import G_CAP, SourceStats

if TYPE_CHECKING:
    import numpy as np

    from multiphoton.circuits import Circuit

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
    import numpy as np

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
# enumerate_exponent_tuples(N)[k].  Keyed by the Circuit object, whose
# matrix is frozen; lru_cache makes concurrent readers safe.

@lru_cache(maxsize=256)
def _weights(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    n, u = circuit.n, circuit.u
    m = np.stack((u, np.abs(u) ** 2), axis=-1)[..., None]  # m[i, j] = [[u_ij], [v_ij]]
    # Multiply in one row factor sum_j m_ij x_j at a time.  np.add.at adds
    # unbuffered in input order, j-major, so colliding terms sum in j order.
    coeffs = np.ones((2, 1), dtype=np.complex128)
    for i, shifts in enumerate(_expansion_plan(n)[2]):
        grown = np.zeros(2 * math.comb(n + i, n - 1), dtype=np.complex128)
        np.add.at(grown, shifts.ravel(), (m[i] * coeffs).ravel())
        coeffs = grown.reshape(2, -1)
    w_id = np.abs(coeffs[0]) ** 2
    w_dist = coeffs[1].real.copy()
    w_id.flags.writeable = w_dist.flags.writeable = False
    return w_id, w_dist


def clear_permanent_cache() -> None:
    """Drop the weight table of every cached Circuit object and the latest
    ensemble's pattern products (the id and dist sums of one ensemble share
    one product vector; the per-N index plans stay)."""
    global _latest
    _weights.cache_clear()
    _latest = _NO_ENSEMBLE


# Callers sum one ensemble with w_id and then with w_dist, so the pattern
# sum's only memo, _latest, holds the last summed ensemble's (stats tuple,
# products, whether some port stops below order N), reused by a sum handed
# that same tuple object.  The key is tuple(stats), never the container
# handed in, so an ensemble built on a list gets fresh products on every
# sum.  The record is one tuple, read once and replaced whole, so a
# concurrent sum never pairs one ensemble's key with another's products.

_NO_ENSEMBLE = (None, None, False)
_latest = _NO_ENSEMBLE


def _port_products(stats: tuple[SourceStats, ...]) -> np.ndarray:
    """prod_i n_i^{s_ki} g_i^(s_ki) for every pattern s_k, as a read-only
    K-vector in table order; orders a port does not define count as 0."""
    import numpy as np

    n = len(stats)
    take = _expansion_plan(n)[1]
    # The means, then T's rows of g's, in one flat float array: one
    # conversion, and integer means never take numpy's wrapping int64 powers.
    pad = (0.0,) * n
    flat = [stat.mean_n for stat in stats]
    for stat in stats:
        flat += (stat.g + pad)[: n + 1]
    flat = np.array(flat, dtype=float)
    table = flat[n:].reshape(n, n + 1)
    table *= flat[:n, None] ** np.arange(n + 1)
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
    the products come from the record.
    """
    global _latest
    key = tuple(stats)
    n = len(key)
    latest = _latest
    if latest[0] is not key:
        short = min([len(stat.g) for stat in key]) <= n  # some max_order < n
        latest = _latest = (key, _port_products(key), short)
    _, products, short = latest
    if short:
        import numpy as np

        s = _expansion_plan(n)[0]
        means = np.array([stat.mean_n for stat in key])
        orders = np.array([stat.max_order for stat in key])
        live = (weights != 0) & ~((s > 0) & (means == 0)).any(axis=1)
        missing = np.argwhere((s > orders) & live[:, None])
        if missing.size:
            k, i = missing[0]
            key[i]._order(s[k, i])  # raises: s[k, i] is past that port's max_order
    return float(weights @ products)


def _check_ports(circuit: Circuit, ensemble: InputEnsemble) -> None:
    if circuit.n != ensemble.n:
        raise ValueError(
            f"circuit has {circuit.n} ports but ensemble supplies {ensemble.n}"
        )


def _as_result(p_raw: float, ensemble: InputEnsemble) -> CoincidenceResult:
    mean_product = math.prod([s.mean_n for s in ensemble.stats])
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
        import numpy as np

        w = np.abs(circuit.u) ** 2

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
# Each closed form takes real numbers and gives a float for floats; it makes
# the same IEEE operations whichever caller it serves, so a scan is a loop of
# calls.  Each checks its g, R and xi with _check_interval, and so rejects a
# g outside [0, G_CAP] as SourceStats does, and its phi with _check_phase;
# circuits.beamsplitter and circuits.symmetric check R and phi the same way.

def _real(name: str, x) -> bool:
    """Whether x is a real number (np.float64 is a float; a bool counts as
    no real number).  Raises for what is no number at all, an array too."""
    if isinstance(x, numbers.Real):
        return not isinstance(x, bool)
    if isinstance(x, numbers.Complex):
        return False
    raise ValueError(f"{name} must be a number, got {type(x).__name__}")


def _check_interval(name: str, x, hi: float) -> None:
    """Reject x unless it is a real number in [0, hi]; NaN, a bool and a
    complex number count as outside.  A float or an int skips _real."""
    if (type(x) is float or type(x) is int or _real(name, x)) and 0 <= x <= hi:
        return
    raise ValueError(f"{name} must be in [0, {hi:g}], got {x}")


def _check_phase(phi) -> None:
    """Reject phi unless it is a finite real number (a bool counts as none)."""
    if not (type(phi) is float or type(phi) is int or _real("phi", phi)):
        raise ValueError(f"phi must be real, got {phi}")
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")


def coincidence_hom(r: float, g2: float, indistinguishable: bool = True) -> float:
    """Normalized two-fold coincidence on a beamsplitter of reflectance R:
    1 - 2RT(2 - g2) for indistinguishable inputs, 1 - 2RT(1 - g2) for
    distinguishable ones.  R must lie in [0, 1] and g2 in [0, G_CAP], the
    cap on source autocorrelations.  The visibility, 2RT/(2RT g2 + 1 - 2RT),
    never rises with g2."""
    _check_interval("reflectance", r, 1)
    _check_interval("g2", g2, G_CAP)
    rt2 = 2 * r * (1 - r)
    return 1 - rt2 * (2 - g2) if indistinguishable else 1 - rt2 * (1 - g2)


def coincidence_dft3(g2: float, g3: float, indistinguishable: bool = True) -> float:
    """Normalized three-fold coincidence on the balanced 3-port for
    symmetric inputs: g3/9 + 1/3, or g3/9 + 2*g2/3 + 2/9 when the inputs
    are distinguishable (the g2 interference terms vanish only in the
    indistinguishable case, so that result does not take g2's shape).  The
    visibility is (6 g2 - 1)/(g3 + 6 g2 + 2)."""
    _check_interval("g2", g2, G_CAP)
    _check_interval("g3", g3, G_CAP)
    if indistinguishable:
        return g3 / 9 + 1 / 3
    return g3 / 9 + 2 * g2 / 3 + 2 / 9


def coincidence_mismatch_n3(g2: float, g3: float, xi: float) -> float:
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
    _check_interval("g2", g2, G_CAP)
    _check_interval("g3", g3, G_CAP)
    _check_interval("xi", xi, 2)
    if xi <= 1:  # M = M23
        return g3 / 9 + 2 * (3 - xi) * g2 / 9 + (2 - xi) / 9
    m = xi - 1  # M = M12 = M31
    return g3 / 9 + 4 * (1 - m) * g2 / 9 + (1 + 2 * m) / 9


def coincidence_sym_phase(
    phi: float, g2: float, g3: float, indistinguishable: bool = True
) -> float:
    """Normalized three-fold coincidence on the symmetric 3-port.

    Closed form in alpha = (2 + e^{i phi})/3, beta = (-1 + e^{i phi})/3:

        id:   3|a|^2|b|^4 g3 + 6|b|^2 |a^2 + ab + b^2|^2 g2
                 + |a^3 + 3ab^2 + 2b^3|^2
        dist: 3|a|^2|b|^4 g3 + 6|b|^2 (|a|^4 + |a|^2|b|^2 + |b|^4) g2
                 + |a|^6 + 3|a|^2|b|^4 + 2|b|^6

    Must agree with the general engines applied to the same circuit.  phi
    must be real and finite, as circuits.symmetric requires.
    """
    _check_interval("g2", g2, G_CAP)
    _check_interval("g3", g3, G_CAP)
    _check_phase(phi)
    a, b, c = _sym_phase_terms(phi, indistinguishable)
    return a * g3 + b * g2 + c


def _sym_phase_terms(phi: float, indistinguishable: bool) -> tuple[float, float, float]:
    """(A, B, C) with coincidence_sym_phase = A g3 + B g2 + C at this phi."""
    e = complex(math.cos(phi), math.sin(phi))
    a = (2 + e) / 3
    b = (-1 + e) / 3
    aa = abs(a) ** 2
    bb = abs(b) ** 2
    third = 3 * aa * bb**2
    if indistinguishable:
        second = 6 * bb * abs(a**2 + a * b + b**2) ** 2
        return third, second, abs(a**3 + 3 * a * b**2 + 2 * b**3) ** 2
    second = 6 * bb * (aa**2 + aa * bb + bb**2)
    return third, second, aa**3 + 3 * aa * bb**2 + 2 * bb**3
