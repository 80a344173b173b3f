import math

import numpy as np
import pytest

from multiphoton import circuits, coincidence, fockspace, sources
from multiphoton.fockspace import evolve, oracle_coincidence

from references import oracle_mismatch_single_photons


def test_evolve_preserves_norm():
    for circuit in (circuits.dft(3), circuits.beamsplitter(0.3), circuits.symmetric(1.1)):
        n = circuit.n
        state = evolve(circuit, {(port, 1): 1 for port in range(1, n + 1)})
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-10)
    state = evolve(circuits.dft(3), {(1, 1): 2, (2, 1): 2, (3, 2): 2})
    assert state.norm_squared() == pytest.approx(1.0, abs=1e-10)


def test_evolve_identity_circuit_keeps_input():
    circuit = circuits.custom(np.eye(3))
    state = evolve(circuit, {(1, 1): 2, (3, 1): 1})
    nonzero = {occ: amp for occ, amp in state.amplitudes.items() if abs(amp) > 1e-12}
    assert len(nonzero) == 1
    (occ, amp), = nonzero.items()
    assert abs(amp) == pytest.approx(1.0, abs=1e-12)
    assert state.port_counts(occ) == {1: 2, 2: 0, 3: 1}


def test_evolve_balanced3_all_singles_amplitude():
    state = evolve(circuits.dft(3), {(1, 1): 1, (2, 1): 1, (3, 1): 1})
    target = (1, 1, 1)  # one photon per output port, single label
    amp = state.amplitudes[target]
    assert abs(amp) ** 2 == pytest.approx(1 / 3, abs=1e-12)


def test_evolve_hom_suppression():
    state = evolve(circuits.beamsplitter(0.5), {(1, 1): 1, (2, 1): 1})
    assert abs(state.amplitudes.get((1, 1), 0j)) < 1e-12


def test_evolve_capacity_limits():
    with pytest.raises(ValueError, match="photons"):
        evolve(circuits.dft(2), {(1, 1): 7})
    with pytest.raises(ValueError, match="ports"):
        evolve(circuits.dft(5), {(1, 1): 1})


def test_oracle_single_photons_same_vs_distinct_labels():
    circuit = circuits.dft(3)
    singles = [[(1.0, 1)]] * 3
    _, same = oracle_coincidence(circuit, singles, labels=[1, 1, 1])
    _, distinct = oracle_coincidence(circuit, singles, labels=[1, 2, 3])
    assert same == pytest.approx(1 / 3, abs=1e-12)
    assert distinct == pytest.approx(2 / 9, abs=1e-12)


def test_oracle_matches_engines_for_vac12_mixture():
    p, q = 0.3, 0.7
    circuit = circuits.dft(3)
    components = [(p, 0), ((1 - p) * q, 1), ((1 - p) * (1 - q), 2)]
    stats = sources.vac12_mixture_stats(p, q)
    ens = coincidence.uniform_ensemble(3, stats)
    _, oracle_id = oracle_coincidence(circuit, [components] * 3, labels=[1, 1, 1])
    _, oracle_dist = oracle_coincidence(circuit, [components] * 3, labels=[1, 2, 3])
    assert oracle_id == pytest.approx(
        coincidence.coincidence_id_general(circuit, ens).p_normalized, rel=1e-10
    )
    assert oracle_dist == pytest.approx(
        coincidence.coincidence_dist_general(circuit, ens).p_normalized, rel=1e-10
    )


def test_oracle_asymmetric_ports():
    circuit = circuits.symmetric(0.9)
    port_inputs = [
        [(1.0, 1)],
        [(0.5, 0), (0.5, 2)],
        [(0.2, 0), (0.8, 1)],
    ]
    stats = (
        sources.fock_stats(1),
        sources.SourceStats(1.0, (1.0, 1.0, 1.0, 0.0)),  # 0/2 mixture: mean 1, g2 = 1
        sources.SourceStats(0.8, (1.0, 1.0, 0.0, 0.0)),
    )
    ens = coincidence.InputEnsemble(stats=stats)
    _, oracle_id = oracle_coincidence(circuit, port_inputs, labels=[1, 1, 1])
    _, oracle_dist = oracle_coincidence(circuit, port_inputs, labels=[1, 2, 3])
    assert oracle_id == pytest.approx(
        coincidence.coincidence_id_general(circuit, ens).p_normalized, rel=1e-10
    )
    assert oracle_dist == pytest.approx(
        coincidence.coincidence_dist_general(circuit, ens).p_normalized, rel=1e-10
    )


def test_oracle_label_patterns_reproduce_overlap_anchors():
    circuit = circuits.dft(3)
    singles = [[(1.0, 1)]] * 3
    for xi, labels in [(0.0, [1, 2, 3]), (1.0, [1, 2, 2]), (2.0, [1, 1, 1])]:
        _, value = oracle_coincidence(circuit, singles, labels=labels)
        assert value == pytest.approx(
            coincidence.coincidence_mismatch_n3(0.0, 0.0, xi), abs=1e-10
        )


@pytest.mark.parametrize("xi", [0.0, 0.25, 0.5, 1.0, 1.3, 1.75, 2.0])
def test_oracle_partial_overlap_single_photons(xi):
    value = oracle_mismatch_single_photons(circuits.dft(3), xi)
    assert value == pytest.approx(
        coincidence.coincidence_mismatch_n3(0.0, 0.0, xi), abs=1e-10
    )


def test_oracle_mixture_weights_validated():
    with pytest.raises(ValueError, match="sum to 1"):
        oracle_coincidence(circuits.dft(2), [[(0.5, 1)], [(1.0, 1)]])


def test_oracle_port_count_validated():
    with pytest.raises(ValueError, match="port inputs"):
        oracle_coincidence(circuits.dft(3), [[(1.0, 1)]] * 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: evolve(circuits.dft(3), {(4, 1): 1}), "input port 4 out of range 1..3"),
        (lambda: evolve(circuits.dft(2), {(1, 1): -1, (2, 1): 2}), "occupations must be non-negative"),
        (lambda: oracle_coincidence(circuits.dft(2), [[(1.0, 1)]] * 2, labels=[1]), "need 2 labels, got 1"),
        (lambda: oracle_mismatch_single_photons(circuits.dft(2), 0.5), "sequential-overlap oracle is 3-port only"),
        (lambda: oracle_mismatch_single_photons(circuits.dft(3), 2.5), r"overlap parameter must be in \[0, 2\], got 2.5"),
        (lambda: oracle_mismatch_single_photons(circuits.dft(3), -0.1), r"overlap parameter must be in \[0, 2\], got -0.1"),
    ],
    ids=["input-port", "negative-occupation", "label-count", "mismatch-not-3-port", "xi-above-2", "xi-below-0"],
)
def test_oracle_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_oracle_vacuum_port_still_counts_routed_photons():
    # a dark input port does not force zero coincidence: photons from the
    # bright ports can still fan out across all outputs
    circuit = circuits.dft(3)
    port_inputs = [[(1.0, 2)], [(1.0, 1)], [(1.0, 0)]]
    raw, normalized = oracle_coincidence(circuit, port_inputs, labels=[1, 1, 1])
    assert raw > 0
    assert math.isnan(normalized)
    stats = (
        sources.fock_stats(2),
        sources.fock_stats(1),
        sources.SourceStats(0.0, (1.0, 1.0, 0.0, 0.0)),
    )
    engine = coincidence.coincidence_id_general(
        circuit, coincidence.InputEnsemble(stats=stats)
    )
    assert raw == pytest.approx(engine.p_raw, rel=1e-10)


def test_fockstate_port_counts():
    state = fockspace.FockState(
        modes=((1, 1), (1, 2), (2, 1), (2, 2)),
        amplitudes={(1, 2, 0, 3): 1.0},
    )
    assert state.port_counts((1, 2, 0, 3)) == {1: 3, 2: 3}
