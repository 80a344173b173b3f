"""Complex matrix utilities: permanents, column selection, unitarity checks.

The permanent is served by a compiled Gray-code Ryser kernel when the
extension built; a pure-Python kernel with identical semantics is selected
at import otherwise (``HAVE_COMPILED_KERNEL`` records which one is
active).  The coincidence engines do not call it: their weight tables come
from a polynomial expansion, so it serves the cross-checks and direct use.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

import numpy as np

try:
    from multiphoton._ryser import ryser_permanent as _ryser_kernel

    HAVE_COMPILED_KERNEL = True
except ImportError:  # extension not built; use the pure-Python kernel
    from multiphoton._ryser_py import ryser_permanent as _ryser_kernel

    HAVE_COMPILED_KERNEL = False

PERMANENT_MAX_DIM = 24
NAIVE_MAX_DIM = 9
UNITARY_TOL = 1e-12


class UnitarityCheck(NamedTuple):
    ok: bool
    max_deviation: float


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a C-contiguous complex128 matrix, rejecting non-finite
    entries and anything that is not a 2-D array with positive shape."""
    m = np.ascontiguousarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def _require_square(m: np.ndarray, what: str = "matrix") -> None:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got {m.shape[0]}x{m.shape[1]}")


def permanent(matrix) -> complex:
    """Permanent of a square complex matrix.

    Sum over all permutations sigma of prod_i M[i, sigma(i)], evaluated by
    Ryser's formula with Gray-code subset iteration.  Deterministic: the
    same matrix always yields the bit-identical result.
    """
    m = as_complex_matrix(matrix)
    _require_square(m)
    n = m.shape[0]
    if n > PERMANENT_MAX_DIM:
        raise ValueError(
            f"permanent supports n <= {PERMANENT_MAX_DIM}, got n = {n}"
        )
    return complex(_ryser_kernel(m))


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


def mode_assignment(s: Sequence[int]) -> tuple[int, ...]:
    """Column-assignment tuple for an occupation pattern.

    Lists the 1-based index j exactly s[j-1] times, in non-decreasing
    order, e.g. (2, 0, 1) -> (1, 1, 3).
    """
    d: list[int] = []
    for j, count in enumerate(s, start=1):
        if count < 0:
            raise ValueError("occupation counts must be non-negative")
        d.extend([j] * count)
    return tuple(d)


def column_select(matrix, assignment: Sequence[int]) -> np.ndarray:
    """Square matrix built by picking columns (with repetition).

    ``assignment`` holds 1-based column indices; its length must equal the
    row count so the result is square, e.g. the identity selection for an
    N x N matrix is (1, 2, ..., N).
    """
    m = as_complex_matrix(matrix)
    d = tuple(int(j) for j in assignment)
    if len(d) != m.shape[0]:
        raise ValueError(
            f"assignment length {len(d)} must equal the row count {m.shape[0]}"
        )
    for j in d:
        if not 1 <= j <= m.shape[1]:
            raise ValueError(f"column index {j} out of range 1..{m.shape[1]}")
    return np.ascontiguousarray(m[:, [j - 1 for j in d]])


def mod_squared(matrix) -> np.ndarray:
    """Entrywise squared modulus |m_ij|^2 (doubly stochastic for unitary
    input)."""
    m = as_complex_matrix(matrix)
    return np.abs(m) ** 2


def check_unitary(matrix, tol: float = UNITARY_TOL) -> UnitarityCheck:
    """Test max |U†U - I| <= tol; the deviation is reported either way."""
    m = as_complex_matrix(matrix)
    _require_square(m)
    dev = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
    return UnitarityCheck(bool(dev <= tol), float(dev))
