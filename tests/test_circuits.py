import math

import numpy as np
import pytest

from multiphoton import circuits, coincidence, linalg
from multiphoton.optimize import standard_sources


def test_dft3_matches_explicit_matrix():
    omega = np.exp(2j * np.pi / 3)
    expected = np.array(
        [[1, 1, 1], [1, omega, omega**2], [1, omega**2, omega]]
    ) / np.sqrt(3)
    np.testing.assert_allclose(circuits.dft(3).u, expected, atol=1e-14)


def test_dft2_is_balanced():
    u = circuits.dft(2).u
    np.testing.assert_allclose(np.abs(u) ** 2, np.full((2, 2), 0.5), atol=1e-14)


def test_dft4_rows_orthogonal():
    u = circuits.dft(4).u
    assert np.vdot(u[3], u[1]) == pytest.approx(0, abs=1e-14)


def test_dft_rejects_single_port():
    with pytest.raises(ValueError):
        circuits.dft(1)


def test_symmetric_zero_phase_is_identity():
    np.testing.assert_allclose(circuits.symmetric(0.0).u, np.eye(3), atol=1e-15)


def test_symmetric_balanced_at_two_thirds_pi():
    u = circuits.symmetric(2 * math.pi / 3).u
    np.testing.assert_allclose(np.abs(u), np.full((3, 3), 1 / math.sqrt(3)), atol=1e-14)


def test_symmetric_pi_values():
    u = circuits.symmetric(math.pi).u
    assert u[0, 0] == pytest.approx(1 / 3, abs=1e-15)
    assert u[0, 1] == pytest.approx(-2 / 3, abs=1e-15)


def test_symmetric_wraps_phase():
    wrapped = circuits.symmetric(2 * math.pi + 0.5)
    np.testing.assert_array_equal(wrapped.u, circuits.symmetric(0.5).u)


def test_symmetric_row_sum_has_unit_modulus():
    for phi in np.linspace(0, 2 * math.pi, 17):
        row_sum = circuits.symmetric(float(phi)).u[0].sum()
        assert abs(row_sum) == pytest.approx(1.0, abs=1e-14)
        assert row_sum == pytest.approx(np.exp(1j * (phi % (2 * math.pi))), abs=1e-13)


def test_symmetric_balanced_matches_dft_observables():
    # different matrices (phases differ), identical coincidence statistics
    sym = circuits.symmetric(2 * math.pi / 3)
    bal = circuits.dft(3)
    assert not np.allclose(sym.u, bal.u)
    for _, stats in standard_sources():
        ens = coincidence.uniform_ensemble(3, stats)
        for engine in (
            coincidence.coincidence_id_general,
            coincidence.coincidence_dist_general,
        ):
            assert engine(sym, ens).p_normalized == pytest.approx(
                engine(bal, ens).p_normalized, abs=1e-12
            )


def test_beamsplitter_balanced():
    u = circuits.beamsplitter(0.5).u
    np.testing.assert_allclose(np.abs(u) ** 2, np.full((2, 2), 0.5), atol=1e-15)


def test_beamsplitter_fully_transmissive():
    u = circuits.beamsplitter(0.0).u
    np.testing.assert_allclose(np.abs(u), np.eye(2), atol=1e-15)


def test_beamsplitter_interference_gap_bounded():
    for r in np.linspace(0, 1, 21):
        assert 0 <= 2 * r * (1 - r) <= 0.5


def test_beamsplitter_rejects_bad_reflectance():
    with pytest.raises(ValueError):
        circuits.beamsplitter(-0.1)
    with pytest.raises(ValueError):
        circuits.beamsplitter(1.1)


# The constructor and the closed form that take the same R or phi.
R_OR_PHI = {
    "R": (circuits.beamsplitter, lambda r: coincidence.coincidence_hom(r, 1.0)),
    "phi": (circuits.symmetric, lambda phi: coincidence.coincidence_sym_phase(phi, 1.0, 1.0)),
}


@pytest.mark.parametrize(
    "kind, arg, message",
    [
        ("R", True, "reflectance must be in [0, 1], got True"),
        ("R", 0.5 + 0j, "reflectance must be in [0, 1], got (0.5+0j)"),
        ("R", math.inf, "reflectance must be in [0, 1], got inf"),
        ("R", "0.5", "reflectance must be a number, got str"),
        ("phi", True, "phi must be real, got True"),
        ("phi", 1j, "phi must be real, got 1j"),
        ("phi", "1.0", "phi must be a number, got str"),
        ("phi", -math.inf, "phi must be finite"),
    ],
)
def test_constructors_check_r_and_phi_as_the_closed_forms_do(kind, arg, message):
    for call in R_OR_PHI[kind]:
        with pytest.raises(ValueError) as info:
            call(arg)
        assert str(info.value) == message


@pytest.mark.parametrize("n", [2.5, 3.0, "3"])
def test_dft_refuses_a_non_integral_port_count(n):
    with pytest.raises(ValueError, match=f"^DFT port count must be an integer, got {n!r}$"):
        circuits.dft(n)


def test_dft_accepts_a_numpy_integer():
    np.testing.assert_array_equal(circuits.dft(np.int64(3)).u, circuits.dft(3).u)


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
def test_symmetric_refuses_a_non_finite_phase(phi):
    with pytest.raises(ValueError, match="^phi must be finite$"):
        circuits.symmetric(phi)


def test_custom_accepts_numeric_dft():
    u = circuits.dft(3).u.copy()
    c = circuits.custom(u)
    assert c.n == 3


def test_custom_rejects_broken_identity():
    m = np.eye(3, dtype=complex)
    m[2, 2] = 0
    with pytest.raises(ValueError, match="not unitary"):
        circuits.custom(m)


@pytest.mark.parametrize("order", ["C", "F"])
def test_custom_copies_the_callers_matrix(order):
    m = np.array(circuits.dft(3).u, order=order)
    c = circuits.custom(m)
    assert m.flags.writeable and not np.shares_memory(c.u, m)
    assert c.u.flags.c_contiguous and not c.u.flags.writeable
    m[0, 0] = 0
    np.testing.assert_array_equal(c.u, circuits.dft(3).u)


def test_custom_rejects_non_square():
    with pytest.raises(ValueError, match="^matrix must be square, got 2x3$"):
        circuits.custom(np.ones((2, 3)))


def test_custom_accepts_haar_like():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(z)
    c = circuits.custom(q)
    ok, _ = linalg.check_unitary(c.u, tol=1e-12)
    assert ok


def test_circuit_matrix_is_frozen():
    c = circuits.dft(3)
    with pytest.raises(ValueError):
        c.u[0, 0] = 0
