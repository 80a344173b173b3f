"""Multi-photon interference with noisy light sources.

Computes N-fold coincidence probabilities and interference visibilities
for linear-optical circuits whose inputs are specified only through their
mean photon number and normalized intensity autocorrelations g^(m).

Importing the package loads ``sources``, ``coincidence``, ``visibility``,
``linalg``, ``circuits`` and ``fockspace``, none of which imports numpy at
module level: ``linalg``, ``circuits`` and ``coincidence`` import it inside
the functions that build arrays, so the closed forms and the CLI commands
built on them start without it.  Only the cross-checks use ``fockspace``;
it is imported here because the benchmark's tracer reads every layer module
from ``sys.modules`` right after ``import multiphoton, multiphoton.cli``.
"""

from multiphoton import circuits, fockspace, linalg
from multiphoton.circuits import Circuit, beamsplitter, custom, dft, symmetric
from multiphoton.coincidence import (
    CoincidenceResult,
    InputEnsemble,
    coincidence_dft3,
    coincidence_dist_general,
    coincidence_hom,
    coincidence_id_general,
    coincidence_mismatch_n3,
    coincidence_sym_phase,
    enumerate_exponent_tuples,
    uniform_ensemble,
)
from multiphoton.linalg import check_unitary, permanent
from multiphoton.sources import (
    SourceStats,
    custom_stats,
    diluted_laser_stats,
    fock_stats,
    laser_stats,
    thermal_stats,
    vac12_mixture_stats,
)
from multiphoton.visibility import VisibilityPoint, visibility, visibility_of

__version__ = "0.1.0"

HAVE_COMPILED_KERNEL = False  # no compiled kernel; the benchmark records this

__all__ = [
    "Circuit",
    "CoincidenceResult",
    "InputEnsemble",
    "SourceStats",
    "VisibilityPoint",
    "beamsplitter",
    "check_unitary",
    "coincidence_dft3",
    "coincidence_dist_general",
    "coincidence_hom",
    "coincidence_id_general",
    "coincidence_mismatch_n3",
    "coincidence_sym_phase",
    "custom",
    "custom_stats",
    "dft",
    "diluted_laser_stats",
    "enumerate_exponent_tuples",
    "fock_stats",
    "laser_stats",
    "permanent",
    "symmetric",
    "thermal_stats",
    "uniform_ensemble",
    "vac12_mixture_stats",
    "visibility",
    "visibility_of",
]
