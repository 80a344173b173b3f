import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiphoton import circuits, linalg


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


def test_permanent_deterministic():
    rng = np.random.default_rng(3)
    m = random_complex(rng, 7)
    assert linalg.permanent(m) == linalg.permanent(m)


def test_permanent_zero_row_vanishes():
    rng = np.random.default_rng(4)
    m = random_complex(rng, 5)
    m[2, :] = 0
    assert abs(linalg.permanent(m)) == 0.0


# --- permanent_naive ---------------------------------------------------------

def test_naive_1x1():
    z = 0.3 - 0.8j
    assert linalg.permanent_naive([[z]]) == pytest.approx(z)


def test_naive_2x2():
    a, b, c, d = 1 + 2j, -0.5j, 3.0, 2 - 1j
    assert linalg.permanent_naive([[a, b], [c, d]]) == pytest.approx(a * d + b * c)


def test_naive_matches_ryser_random_5x5():
    rng = np.random.default_rng(42)
    m = rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))
    a = linalg.permanent(m)
    b = linalg.permanent_naive(m)
    assert abs(a - b) <= 1e-10 * abs(b)


def test_naive_rejects_oversized():
    with pytest.raises(ValueError, match="n <= 9"):
        linalg.permanent_naive(np.eye(10))


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
@settings(max_examples=60)
def test_ryser_equals_naive(seed, n):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, n)
    a = linalg.permanent(m)
    b = linalg.permanent_naive(m)
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

def test_column_select_repeated_basis_column_kills_permanent():
    selected = np.eye(3)[:, [0, 0, 2]]
    assert linalg.permanent(selected) == 0


def test_column_select_dft3_doubled_column():
    u = circuits.dft(3).u
    d = np.repeat(np.arange(3), (2, 0, 1))  # columns 1, 1, 3
    value = abs(linalg.permanent_naive(u[:, d]) / math.factorial(2)) ** 2
    # destructive interference: doubled-column contribution vanishes
    assert value == pytest.approx(0.0, abs=1e-15)


# --- mod_squared ---------------------------------------------------------------

def test_mod_squared_dft3_uniform():
    np.testing.assert_allclose(linalg.mod_squared(circuits.dft(3).u), np.full((3, 3), 1 / 3))


def test_mod_squared_identity():
    np.testing.assert_array_equal(linalg.mod_squared(np.eye(3)), np.eye(3))


def test_mod_squared_beamsplitter():
    expected = [[0.7, 0.3], [0.3, 0.7]]
    np.testing.assert_allclose(
        linalg.mod_squared(circuits.beamsplitter(0.3).u), expected, atol=1e-15
    )


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=25)
def test_mod_squared_rows_of_unitary_sum_to_one(seed, n):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(random_complex(rng, n))
    np.testing.assert_allclose(linalg.mod_squared(q).sum(axis=1), np.ones(n), atol=1e-12)


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
