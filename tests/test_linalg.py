import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiphoton import circuits, linalg

from references import permanent_naive


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# --- permanent ---------------------------------------------------------------

def test_permanent_identity():
    assert linalg.permanent(np.eye(3)) == pytest.approx(1.0)


def test_permanent_all_ones_is_factorial():
    # every Glynn term is an integer below 2^53 up to n = 12; the sum is exact
    for n in range(1, 13):
        assert linalg.permanent(np.ones((n, n))) == math.factorial(n)


@pytest.mark.parametrize("n", [1, 5, 12, 20])
def test_permanent_diagonal_is_product(n):
    rng = np.random.default_rng(n)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    expected = np.prod(d)
    assert abs(linalg.permanent(np.diag(d)) - expected) <= 1e-14 * abs(expected)


@pytest.mark.parametrize("n", [10, 14, 18, 20])
def test_permanent_rank_one_unit_modulus(n):
    # Per(x y^T) = n! prod(x) prod(y): exact invariant beyond the naive limit
    rng = np.random.default_rng(n)
    x = np.exp(2j * np.pi * rng.random(n))
    y = np.exp(2j * np.pi * rng.random(n))
    expected = math.factorial(n) * np.prod(x) * np.prod(y)
    assert abs(linalg.permanent(np.outer(x, y)) - expected) <= 1e-12 * abs(expected)


def test_permanent_dft3_modulus():
    per = linalg.permanent(circuits.dft(3).u)
    assert abs(per) ** 2 == pytest.approx(1 / 3, abs=1e-14)


def test_permanent_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        linalg.permanent(np.ones((2, 3)))


def test_permanent_rejects_oversized():
    with pytest.raises(ValueError, match="n <= 24"):
        linalg.permanent(np.eye(25))


def test_permanent_rejects_non_finite():
    m = np.eye(3, dtype=complex)
    m[1, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        linalg.permanent(m)


@pytest.mark.parametrize(
    "entry",
    [complex(0, math.inf), complex(math.nan, 0), complex(math.inf, math.nan)],
    ids=["inf-imag", "nan-real", "inf-nan"],
)
@pytest.mark.parametrize("check", [circuits.custom, linalg.check_unitary, linalg.permanent])
def test_non_finite_part_rejected(check, entry):
    """One non-finite part, real or imaginary, is enough."""
    m = np.eye(3, dtype=complex)
    m[1, 2] = entry
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        check(m)


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2), (0, 0)])
@pytest.mark.parametrize("check", [circuits.custom, linalg.check_unitary, linalg.permanent])
def test_not_a_matrix_rejected(check, shape):
    with pytest.raises(ValueError, match=re.escape(f"expected a 2-D matrix, got shape {shape}")):
        check(np.ones(shape))


def test_finite_matrix_passes_finiteness_check():
    m = np.eye(3, dtype=complex)
    assert circuits.custom(m).n == 3
    ok, _ = linalg.check_unitary(m)
    assert ok
    assert linalg.permanent(m) == 1


def test_permanent_deterministic():
    rng = np.random.default_rng(3)
    m = random_complex(rng, 7)
    assert linalg.permanent(m) == linalg.permanent(m)


def test_permanent_zero_row_vanishes():
    rng = np.random.default_rng(4)
    m = random_complex(rng, 5)
    m[2, :] = 0
    assert abs(linalg.permanent(m)) == 0.0


# --- exact Glynn reference -------------------------------------------------------

GLYNN_EXACT_TOL = 1e-13  # relative, the kernel against its exact evaluation


def exact_permanent(m):
    """Per(m) of a complex float matrix, exactly, as Fractions (re, im).

    Every float is an integer over a power of 2, so scaling all entries by
    the largest denominator q makes m = a / q with a Gaussian-integer
    matrix, and Per(m) = Per(a) / q^n.  Per(a) is Glynn's formula run in
    Python ints.  The sign vectors (delta_1 = +1) are visited in Gray-code
    order: step k flips delta_j, j the lowest set bit of k, so every row sum
    moves by 2 a_ij and the sign of the term alternates."""
    n = m.shape[0]
    q = max(x.as_integer_ratio()[1] for x in (*m.real.flat, *m.imag.flat))

    def fixed(x):
        p, d = x.as_integer_ratio()
        return p * (q // d)

    re = [[fixed(x) for x in row] for row in m.real.tolist()]
    im = [[fixed(x) for x in row] for row in m.imag.tolist()]
    sum_re, sum_im = [sum(row) for row in re], [sum(row) for row in im]
    signs = [1] * n
    total_re = total_im = 0
    for k in range(2 ** (n - 1)):
        if k:
            j = (k & -k).bit_length()
            signs[j] = s = -signs[j]
            for i in range(n):
                sum_re[i] += 2 * s * re[i][j]
                sum_im[i] += 2 * s * im[i][j]
        pr, pi = 1, 0
        for x, y in zip(sum_re, sum_im):
            pr, pi = pr * x - pi * y, pr * y + pi * x
        sign = -1 if k & 1 else 1
        total_re += sign * pr
        total_im += sign * pi
    scale = 2 ** (n - 1) * q**n
    return Fraction(total_re, scale), Fraction(total_im, scale)


@pytest.mark.parametrize("n", range(1, 7))
def test_exact_permanent_matches_naive_on_integer_matrices(n):
    # small Gaussian integers keep every naive product and sum exact in floats
    rng = np.random.default_rng(n)
    m = (rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n))).astype(complex)
    naive = permanent_naive(m)
    assert exact_permanent(m) == (Fraction(naive.real), Fraction(naive.imag))


@pytest.mark.parametrize("n", range(9, 15))
def test_permanent_matches_exact_glynn(n):
    for seed in range(3):
        m = random_complex(np.random.default_rng([n, seed]), n)
        exact_re, exact_im = exact_permanent(m)
        per = linalg.permanent(m)
        gap = math.hypot(Fraction(per.real) - exact_re, Fraction(per.imag) - exact_im)
        assert gap <= GLYNN_EXACT_TOL * math.hypot(exact_re, exact_im)


# --- permanent_naive ---------------------------------------------------------

def test_naive_1x1():
    z = 0.3 - 0.8j
    assert permanent_naive([[z]]) == pytest.approx(z)


def test_naive_2x2():
    a, b, c, d = 1 + 2j, -0.5j, 3.0, 2 - 1j
    assert permanent_naive([[a, b], [c, d]]) == pytest.approx(a * d + b * c)


def test_naive_matches_glynn_random_5x5():
    rng = np.random.default_rng(42)
    m = rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))
    a = linalg.permanent(m)
    b = permanent_naive(m)
    assert abs(a - b) <= 1e-10 * abs(b)


def test_naive_rejects_oversized():
    with pytest.raises(ValueError, match="n <= 9"):
        permanent_naive(np.eye(10))


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
@settings(max_examples=60)
def test_glynn_equals_naive(seed, n):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, n)
    a = linalg.permanent(m)
    b = permanent_naive(m)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=40)
def test_permanent_invariant_under_row_column_permutations(seed, n):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, n)
    reference = linalg.permanent(m)
    shuffled = m[rng.permutation(n), :][:, rng.permutation(n)]
    assert linalg.permanent(shuffled) == pytest.approx(reference, rel=1e-10)


# --- repeated columns -------------------------------------------------------------

def test_repeated_basis_column_kills_permanent():
    selected = np.eye(3)[:, [0, 0, 2]]
    assert linalg.permanent(selected) == 0


def test_dft3_doubled_column_permanent_vanishes():
    u = circuits.dft(3).u
    d = np.repeat(np.arange(3), (2, 0, 1))  # columns 1, 1, 3
    value = abs(permanent_naive(u[:, d]) / math.factorial(2)) ** 2
    # destructive interference: doubled-column contribution vanishes
    assert value == pytest.approx(0.0, abs=1e-15)


# --- check_unitary ---------------------------------------------------------------

def test_check_unitary_symmetric_circuit():
    ok, dev = linalg.check_unitary(circuits.symmetric(1.0).u, tol=1e-12)
    assert ok and dev <= 1e-12


def test_check_unitary_dft5():
    ok, dev = linalg.check_unitary(circuits.dft(5).u, tol=1e-12)
    assert ok and dev <= 1e-12


def test_check_unitary_perturbed_identity_fails():
    m = np.eye(4, dtype=complex)
    m[0, 1] += 1e-3
    ok, dev = linalg.check_unitary(m, tol=1e-6)
    assert not ok
    assert dev > 1e-6


def test_check_unitary_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        linalg.check_unitary(np.ones((2, 3)))
