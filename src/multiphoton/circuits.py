"""Constructors for the linear-optical circuits used throughout.

Every constructor returns a :class:`Circuit` whose matrix has been
verified unitary (tolerance 1e-12 for the analytic families, 1e-9 for
user-supplied numeric data).  The arrays are frozen so circuits can be
shared safely, and so a circuit can own the tables derived from its matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from multiphoton import coincidence, linalg

if TYPE_CHECKING:
    import numpy as np

CUSTOM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Circuit:
    """N x N unitary, read-only."""

    u: np.ndarray

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The weight table (w_id, w_dist): built on first use, kept while the circuit lives."""
        return coincidence._weights(self)


def _finish(u: np.ndarray, kind: str, tol: float) -> Circuit:
    ok, dev = linalg.check_unitary(u, tol)
    if not ok:
        raise ValueError(
            f"{kind} circuit is not unitary: max |U†U - I| = {dev:.3e} > {tol:g}"
        )
    u.flags.writeable = False
    return Circuit(u=u)


def dft(n: int) -> Circuit:
    """Discrete-Fourier-transform multiport.

    u_jk = exp(2*pi*i*(j-1)(k-1)/N) / sqrt(N): every splitting ratio is
    1/N, the fully balanced N-port.
    """
    if type(n) is not int:  # the common case skips the slow ABC check
        if not isinstance(n, numbers.Integral):
            raise ValueError(f"DFT port count must be an integer, got {n!r}")
        n = int(n)
    if n < 2:
        raise ValueError(f"DFT needs at least 2 ports, got {n}")
    import numpy as np

    idx = np.arange(n)
    u = np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)
    return _finish(u, "dft", linalg.UNITARY_TOL)


def symmetric(phi: float) -> Circuit:
    """Phase-controlled symmetric 3-port.

    Diagonal alpha = (2 + e^{i phi})/3 and off-diagonal
    beta = (-1 + e^{i phi})/3.  phi = 0 is the identity; phi = 2*pi/3 and
    4*pi/3 are balanced (|alpha| = |beta| = 1/sqrt(3)).  phi is wrapped to
    [0, 2*pi) before the matrix is built, so it must be real and finite,
    as coincidence_sym_phase requires.
    """
    coincidence._check_phase(phi)
    import numpy as np

    phi = float(phi) % (2 * math.pi)
    e = complex(math.cos(phi), math.sin(phi))
    alpha = (2 + e) / 3
    beta = (-1 + e) / 3
    u = np.full((3, 3), beta, dtype=np.complex128)
    np.fill_diagonal(u, alpha)
    return _finish(u, "symmetric", linalg.UNITARY_TOL)


def beamsplitter(r: float) -> Circuit:
    """Two-port beamsplitter with reflectance R and transmittance T = 1-R.

    Realized as [[sqrt(T), i sqrt(R)], [i sqrt(R), sqrt(T)]]; the i on the
    cross terms is a phase convention and no observable here depends on it.
    """
    coincidence._check_interval("reflectance", r, 1)
    import numpy as np

    t = 1.0 - r
    u = np.array(
        [[math.sqrt(t), 1j * math.sqrt(r)], [1j * math.sqrt(r), math.sqrt(t)]],
        dtype=np.complex128,
    )
    return _finish(u, "beamsplitter", linalg.UNITARY_TOL)


def custom(matrix) -> Circuit:
    """Wrap a user-supplied unitary (checked at the looser 1e-9 tolerance
    appropriate for matrices that went through decimal serialization)."""
    # One C-ordered complex128 copy, which check_unitary's conversion passes
    # through unchanged; _finish freezes the copy, never the caller's array.
    import numpy as np

    return _finish(np.array(matrix, dtype=np.complex128, order="C"), "custom", CUSTOM_TOL)
