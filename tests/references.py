"""Test-only references: independent transcriptions that the tests hold
the library's engines and closed forms to.

* ``coincidence_n3_explicit`` writes the 3-port coincidence sum out term by
  term, with per-port means and statistics;
* ``oracle_mismatch_single_photons`` runs single photons along the
  sequential mode-overlap path through the Fock-space simulator;
* ``permanent_naive`` sums a permanent over all n! permutations, the
  reference of the Glynn kernel's precision contract.
"""

import itertools
import math

import numpy as np

from multiphoton.circuits import Circuit
from multiphoton.coincidence import CoincidenceResult, InputEnsemble, _as_result, _check_ports
from multiphoton.fockspace import _apply_photons, _coincidence_expectation
from multiphoton.linalg import _require_square, as_complex_matrix

NAIVE_MAX_DIM = 9


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


def oracle_mismatch_single_photons(circuit: Circuit, xi: float) -> float:
    """Normalized three-fold coincidence for single photons aligned
    sequentially: the partially overlapping photon is split across two
    orthogonal labels with amplitudes sqrt(M) and sqrt(1-M).

    Covers the whole path xi in [0, 2] (single photons only; mixtures at
    partial overlap are outside oracle scope).
    """
    if circuit.n != 3:
        raise ValueError("sequential-overlap oracle is 3-port only")
    if not 0 <= xi <= 2:
        raise ValueError(f"overlap parameter must be in [0, 2], got {xi}")
    if xi <= 1:
        m = xi
        photons = [
            {(1, 1): 1.0 + 0j},
            {(2, 2): 1.0 + 0j},
            {(3, 2): complex(math.sqrt(m)), (3, 3): complex(math.sqrt(1 - m))},
        ]
    else:
        m = xi - 1
        photons = [
            {(1, 1): 1.0 + 0j},
            {(2, 1): 1.0 + 0j},
            {(3, 1): complex(math.sqrt(m)), (3, 2): complex(math.sqrt(1 - m))},
        ]
    state = _apply_photons(circuit, photons)
    return _coincidence_expectation(state)  # means are all 1


def permanent_naive(matrix) -> complex:
    """Reference permanent: explicit sum over all n! permutations.

    Exponentially slower than :func:`permanent`; kept as an independent
    oracle for cross-checking, hence the tighter size limit.
    """
    m = as_complex_matrix(matrix)
    _require_square(m)
    n = m.shape[0]
    if n > NAIVE_MAX_DIM:
        raise ValueError(
            f"permanent_naive supports n <= {NAIVE_MAX_DIM}, got n = {n}"
        )
    rows = m.tolist()
    total = 0j
    for sigma in itertools.permutations(range(n)):
        term = 1.0 + 0j
        for i, j in enumerate(sigma):
            term *= rows[i][j]
        total += term
    return total
