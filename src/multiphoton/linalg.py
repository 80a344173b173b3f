"""Complex matrix utilities: permanents and unitarity checks.

The permanent is evaluated by Glynn's formula in plain numpy, one kernel
on every install.  The coincidence engines build their weights by a
polynomial expansion; ``verify`` computes them from their definition
through this kernel, a check from outside that build.  The tests hold it
to the naive sum over all n! permutations in ``tests/references.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

PERMANENT_MAX_DIM = 24
UNITARY_TOL = 1e-12
# Columns whose 2^k signed row sums form the permanent kernel's inner array.
_INNER_COLUMNS = 10


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a C-contiguous complex128 matrix, rejecting non-finite
    entries and anything that is not a 2-D array with positive shape."""
    import numpy as np

    m = np.ascontiguousarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _require_square(m: np.ndarray) -> None:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape[0]}x{m.shape[1]}")


def _signed_column_sums(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_j delta_j cols[:, j] for every delta in {+1, -1}^k, as the
    columns of an (n, 2^k) array, and prod_j delta_j for each column."""
    import numpy as np

    sums = np.zeros((cols.shape[0], 1), dtype=np.complex128)
    signs = np.ones(1)
    for col in cols.T:
        sums = np.concatenate((sums + col[:, None], sums - col[:, None]), axis=1)
        signs = np.concatenate((signs, -signs))
    return sums, signs


def permanent(matrix) -> complex:
    """Permanent of a square complex matrix.

    Sum over all permutations sigma of prod_i M[i, sigma(i)], evaluated by
    Glynn's formula (Eur. J. Combin. 31, 1887 (2010))::

        Per(M) = 2^-(n-1) sum_{delta, delta_1 = 1} (prod_k delta_k)
                 prod_i sum_j delta_j M[i, j]

    over delta in {+1, -1}^n.  Columns 2..n are split into an outer and
    an inner set (at most ``_INNER_COLUMNS``); the inner set's signed row
    sums form one array, and each outer sign pattern takes the product
    over rows of that array as one numpy operation, O(2^(n-1) n) work.
    Sums use ``np.sum`` rather than a BLAS product, so the same matrix
    always yields the bit-identical result whatever the thread count.

    Precision contract, each bound asserted by the tests:

    * against the tests' naive sum over all n! permutations, complex
      Gaussian matrices with n = 1..8: worst relative gap measured 1.9e-13
      over 1,500 matrices; asserted at 1e-10;
    * against Per(x y^T) = n! prod(x) prod(y), unit-modulus x and y with
      n = 10..20: worst relative gap measured 1.1e-15 over 110 pairs;
      asserted at 1e-12;
    * against Glynn's formula run exactly in Python ints on the same float
      matrices, complex Gaussian matrices: worst relative gap measured
      2.5e-14 over 180 matrices with n = 9..14 and 4.2e-15 over 10 with
      n = 15..16; asserted at 1e-13 for three matrices at each n = 9..14;
    * Per(J_n) = n! exactly for the all-ones J_n up to n = 12.
    """
    import numpy as np

    m = as_complex_matrix(matrix)
    _require_square(m)
    n = m.shape[0]
    if n > PERMANENT_MAX_DIM:
        raise ValueError(
            f"permanent supports n <= {PERMANENT_MAX_DIM}, got n = {n}"
        )
    split = max(1, n - _INNER_COLUMNS)
    outer, outer_signs = _signed_column_sums(m[:, 1:split])
    inner, inner_signs = _signed_column_sums(m[:, split:])
    inner += m[:, :1]  # delta_1 = +1
    terms = np.array(
        [np.sum(inner_signs * np.prod(inner + o[:, None], axis=0)) for o in outer.T]
    )
    return complex(np.sum(outer_signs * terms) / 2 ** (n - 1))


def check_unitary(matrix, tol: float = UNITARY_TOL) -> tuple[bool, float]:
    """(max |U†U - I| <= tol, max |U†U - I|): the deviation either way."""
    import numpy as np

    m = as_complex_matrix(matrix)
    _require_square(m)
    dev = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
    return bool(dev <= tol), float(dev)
