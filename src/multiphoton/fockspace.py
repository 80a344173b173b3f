"""Brute-force Fock-space simulator.

Independent oracle for the permanent-sum engines on small instances: the
input state is evolved exactly through the circuit by expanding the
transformed creation operators, and the coincidence is read off the
output photon-number distribution.  Distinguishable photons are modelled
as occupying orthogonal internal modes labelled 1, 2, ...; the circuit
acts identically on every label, and a detector at port i counts the
total across labels.

Everything is deliberately slow and literal: dictionaries of amplitudes
keyed by occupation tuples, no permanents anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from multiphoton.circuits import Circuit

MAX_PHOTONS = 6
MAX_PORTS = 4

Mode = tuple[int, int]  # (port, label), both 1-based


@dataclass(frozen=True)
class FockState:
    """Amplitude map over occupation tuples of a fixed mode list."""

    modes: tuple[Mode, ...]
    amplitudes: dict[tuple[int, ...], complex]

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    def port_counts(self, occ: tuple[int, ...]) -> dict[int, int]:
        counts: dict[int, int] = {}
        for (port, _), n in zip(self.modes, occ):
            counts[port] = counts.get(port, 0) + n
        return counts


def _check_capacity(circuit: Circuit, total_photons: int) -> None:
    if circuit.n > MAX_PORTS:
        raise ValueError(f"oracle supports at most {MAX_PORTS} ports, got {circuit.n}")
    if total_photons > MAX_PHOTONS:
        raise ValueError(
            f"oracle supports at most {MAX_PHOTONS} photons, got {total_photons}"
        )


def _apply_photons(
    circuit: Circuit,
    photons: Sequence[Mapping[Mode, complex]],
) -> FockState:
    """Apply a product of single-photon creation operators to the vacuum
    and route each through the circuit.

    Each photon is a map {(input port, label): amplitude}.  Input port k
    feeds the outputs through column k of the unitary, so the input
    creation operator turns into sum_i conj(u[i, k]) applied to output
    (i, label).  The returned amplitudes are unnormalized.
    """
    n = circuit.n
    u = circuit.u
    labels = sorted({label for photon in photons for (_, label) in photon}) or [1]
    modes = tuple((port, label) for port in range(1, n + 1) for label in labels)
    index = {mode: i for i, mode in enumerate(modes)}

    state: dict[tuple[int, ...], complex] = {(0,) * len(modes): 1.0 + 0j}
    for photon in photons:
        new_state: dict[tuple[int, ...], complex] = {}
        for (port, label), coeff in photon.items():
            if coeff == 0:
                continue
            if not 1 <= port <= n:
                raise ValueError(f"input port {port} out of range 1..{n}")
            for i in range(n):
                amp_route = coeff * u[i, port - 1].conjugate()
                idx = index[(i + 1, label)]
                for occ, amp in state.items():
                    raised = list(occ)
                    raised[idx] += 1
                    key = tuple(raised)
                    new_state[key] = new_state.get(key, 0j) + (
                        amp * amp_route * math.sqrt(raised[idx])
                    )
        state = new_state
    return FockState(modes=modes, amplitudes=state)


def evolve(circuit: Circuit, occupations: Mapping[Mode, int]) -> FockState:
    """Evolve a Fock product input through the circuit.

    ``occupations`` maps (input port, label) to a photon count.  Returns
    the normalized output state; its squared amplitudes are the output
    photon-number distribution.
    """
    total = sum(occupations.values())
    _check_capacity(circuit, total)
    photons: list[dict[Mode, complex]] = []
    norm = 1.0
    for mode, count in sorted(occupations.items()):
        if count < 0:
            raise ValueError("occupations must be non-negative")
        photons.extend([{mode: 1.0 + 0j}] * count)
        norm *= math.factorial(count)
    state = _apply_photons(circuit, photons)
    scale = 1 / math.sqrt(norm)
    return FockState(
        modes=state.modes,
        amplitudes={occ: amp * scale for occ, amp in state.amplitudes.items()},
    )


def _coincidence_expectation(state: FockState) -> float:
    """E[prod_i m_i] with m_i the total photon count in output port i;
    equals the normally ordered correlation because every factor touches
    a distinct port."""
    ports = sorted({port for port, _ in state.modes})
    total = 0.0
    for occ, amp in state.amplitudes.items():
        counts = state.port_counts(occ)
        product = 1
        for port in ports:
            product *= counts.get(port, 0)
            if product == 0:
                break
        if product:
            total += product * abs(amp) ** 2
    return total


def oracle_coincidence(
    circuit: Circuit,
    port_inputs: Sequence[Sequence[tuple[float, int]]],
    labels: Sequence[int] | None = None,
) -> tuple[float, float]:
    """Exact N-fold coincidence for per-port Fock mixtures.

    ``port_inputs[i]`` lists the mixture fed into port i+1 as
    (weight, photon count) pairs; weights must sum to 1 per port.
    ``labels[i]`` assigns port i+1 an internal mode label (default: all
    ports share label 1, i.e. fully indistinguishable inputs; all-distinct
    labels give the fully distinguishable configuration).

    Returns (raw correlation, correlation normalized by the product of
    the port means); the normalized value is NaN when some port carries
    only vacuum.
    """
    n = circuit.n
    if len(port_inputs) != n:
        raise ValueError(f"need {n} port inputs, got {len(port_inputs)}")
    if labels is None:
        labels = [1] * n
    if len(labels) != n:
        raise ValueError(f"need {n} labels, got {len(labels)}")
    for components in port_inputs:
        weight_sum = sum(w for w, _ in components)
        if abs(weight_sum - 1) > 1e-9:
            raise ValueError(f"mixture weights must sum to 1, got {weight_sum}")

    p_raw = 0.0
    for combo in itertools.product(*port_inputs):
        weight = math.prod(w for w, _ in combo)
        if weight == 0:
            continue
        counts = [c for _, c in combo]
        if sum(counts) < n:
            continue  # some output port must stay empty
        occupations = {
            (port, labels[port - 1]): count
            for port, count in enumerate(counts, start=1)
            if count > 0
        }
        p_raw += weight * _coincidence_expectation(evolve(circuit, occupations))

    means = [sum(w * c for w, c in components) for components in port_inputs]
    mean_product = math.prod(means)
    p_norm = p_raw / mean_product if mean_product > 0 else math.nan
    return p_raw, p_norm


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
