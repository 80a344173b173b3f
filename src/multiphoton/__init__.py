"""Multi-photon interference with noisy light sources.

Computes N-fold coincidence probabilities and interference visibilities
for linear-optical circuits whose inputs are specified only through their
mean photon number and normalized intensity autocorrelations g^(m).

Importing the package loads ``sources``, ``coincidence`` and
``visibility``, none of which imports numpy, so the closed forms and the
CLI commands built on them start without it.  ``linalg``, ``circuits`` and
``fockspace`` are registered in ``sys.modules`` at once but run on their
first attribute access (``importlib.util.LazyLoader``), and the general
engines import numpy when first called.  The package serves the public
names of the lazy modules (``Circuit``, ``dft``, ``permanent``, ...) from
a module ``__getattr__`` that reads them from their module on every
access, so a function replaced there is the one the package hands out.
Older CPythons' ``LazyLoader`` (3.11 among them) loads a module on its
first touch without a lock, so two threads must not make the first touch
of one lazy module at once.
"""

import importlib.util
import sys


def _lazy(name: str):
    """The submodule ``name``, registered in ``sys.modules`` but executed on
    first attribute access."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


linalg = _lazy("linalg")
circuits = _lazy("circuits")
fockspace = _lazy("fockspace")

from multiphoton.coincidence import (  # noqa: E402
    CoincidenceResult,
    InputEnsemble,
    coincidence_dft3,
    coincidence_dist_general,
    coincidence_hom,
    coincidence_id_general,
    coincidence_mismatch_n3,
    coincidence_n3_explicit,
    coincidence_sym_phase,
    enumerate_exponent_tuples,
    uniform_ensemble,
)
from multiphoton.sources import (  # noqa: E402
    SourceStats,
    custom_stats,
    diluted_laser_stats,
    fock_stats,
    laser_stats,
    thermal_stats,
    vac12_mixture_stats,
)
from multiphoton.visibility import VisibilityPoint, visibility, visibility_of  # noqa: E402

__version__ = "0.1.0"

HAVE_COMPILED_KERNEL = False  # no compiled kernel; the benchmark records this

_LAZY_NAMES = {
    **dict.fromkeys(("Circuit", "beamsplitter", "custom", "dft", "symmetric"), circuits),
    **dict.fromkeys(("check_unitary", "permanent", "permanent_naive"), linalg),
}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


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
    "coincidence_n3_explicit",
    "coincidence_sym_phase",
    "custom",
    "custom_stats",
    "dft",
    "diluted_laser_stats",
    "enumerate_exponent_tuples",
    "fock_stats",
    "laser_stats",
    "permanent",
    "permanent_naive",
    "symmetric",
    "thermal_stats",
    "uniform_ensemble",
    "vac12_mixture_stats",
    "visibility",
    "visibility_of",
]
