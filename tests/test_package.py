"""The package's public surface: ``__all__`` and the README quick start."""

import re
from pathlib import Path

import pytest

import multiphoton

README = Path(__file__).parents[1] / "README.md"


def test_all_names_resolve_once():
    assert len(set(multiphoton.__all__)) == len(multiphoton.__all__)
    for name in multiphoton.__all__:
        assert hasattr(multiphoton, name), name


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})
    v_noise, v_fock, ceiling = map(float, capsys.readouterr().out.split())
    assert v_noise == pytest.approx(0.611, abs=5e-4)
    assert v_fock == -0.5
    assert ceiling == pytest.approx(0.6114, abs=5e-5)


# The six closed-form commands, in every input form the benchmark and the
# golden files use.
CLOSED_FORM_COMMANDS = [
    ["hom", "--R", "0.5", "--scan-g2", "0:6:301"],
    ["hom", "--source", "thermal"],
    ["dft-vis"],
    ["mismatch"],
    ["sym"],
    ["optimize", "--phi", "0.5078324153998789"],
    ["optimize", "--scan-phi", "0:6.283185307179586:9"],
    ["optimize", "--crossover"],
]


def test_closed_form_commands_never_import_numpy(fresh_python):
    fresh_python(
        "import contextlib, io, sys\n"
        "from multiphoton import cli\n"
        f"for argv in {CLOSED_FORM_COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )


def test_verify_imports_no_numpy_random(fresh_python):
    # numpy 2.x loads numpy.random on first use; older numpy loads it on import
    fresh_python(
        "import sys\n"
        "import numpy\n"
        "before = {name for name in sys.modules if name.startswith('numpy.random')}\n"
        "from multiphoton import verify\n"
        "list(verify.run_checks(0))\n"
        "loaded = {name for name in sys.modules if name.startswith('numpy.random')} - before\n"
        "assert not loaded, sorted(loaded)\n"
    )


def test_import_registers_every_layer_module(fresh_python):
    """The benchmark's tracer reads its layers from sys.modules right after
    ``import multiphoton, multiphoton.cli``, and wraps the public functions
    that ``vars()`` of each lists: ``import multiphoton`` must import every
    one of them that ``cli`` does not."""
    bench = Path(__file__).parents[1] / "coincbench"
    out = fresh_python(
        "import inspect, sys\n"
        "import multiphoton, multiphoton.cli\n"
        f"sys.path.insert(0, {str(bench)!r})\n"
        "from spans import LAYERS\n"
        "for layer in LAYERS:\n"
        "    module = sys.modules[f'multiphoton.{layer}']\n"
        "    public = sorted(name for name, fn in vars(module).items() if not name.startswith('_')\n"
        "                    and inspect.isfunction(fn) and fn.__module__ == module.__name__)\n"
        "    print(layer, *public)\n"
    )
    public = {line.split()[0]: set(line.split()[1:]) for line in out.splitlines()}
    assert {"custom", "dft", "symmetric", "beamsplitter"} <= public["circuits"]
    assert {"permanent", "check_unitary"} <= public["linalg"]
    assert "oracle_coincidence" in public["fockspace"]
    assert "coincidence_sym_phase" in public["coincidence"]
    assert all(public.values()), public


def test_concurrent_first_use_of_the_engine_modules(fresh_python):
    """Eight threads make the first calls into ``circuits``, ``linalg`` and
    ``fockspace`` at once, right after ``import multiphoton``."""
    fresh_python(
        "import sys, threading\n"
        "import multiphoton\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier = threading.Barrier(8, timeout=60)\n"
        "errors = []\n"
        "def first_use():\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        multiphoton.dft(3)\n"
        "        multiphoton.permanent([[1.0]])\n"
        "        multiphoton.fockspace.oracle_coincidence\n"
        "    except Exception as exc:\n"
        "        errors.append(repr(exc))\n"
        "threads = [threading.Thread(target=first_use) for _ in range(8)]\n"
        "for thread in threads:\n"
        "    thread.start()\n"
        "for thread in threads:\n"
        "    thread.join(timeout=60)\n"
        "    assert not thread.is_alive()\n"
        "assert not errors, errors\n"
    )


def test_tracer_restores_every_package_binding(fresh_python):
    """The benchmark's tracer wraps the package's re-exports and the names
    ``cli`` and ``optimize`` import, and puts the originals back."""
    bench = Path(__file__).parents[1] / "coincbench"
    fresh_python(
        "import inspect, sys\n"
        "import multiphoton, multiphoton.cli\n"
        f"sys.path.insert(0, {str(bench)!r})\n"
        "from spans import Tracer\n"
        "mp = multiphoton\n"
        "assert mp.custom is mp.circuits.custom\n"
        "bound = {(module.__name__, name): value for module in (mp, mp.cli, mp.optimize)\n"
        "         for name, value in vars(module).items()\n"
        "         if (module is mp and name in mp.__all__)\n"
        "         or (inspect.isfunction(value) and value.__module__ != module.__name__)}\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "assert mp.custom.__wrapped__ is bound['multiphoton', 'custom']\n"
        "mp.coincidence_id_general(mp.dft(3), mp.uniform_ensemble(3, mp.thermal_stats()))\n"
        "tracer.uninstall()\n"
        "assert 'coincidence.coincidence_id_general' in {span[0] for span in tracer.spans}\n"
        "changed = [key for key, value in bound.items() if getattr(sys.modules[key[0]], key[1]) is not value]\n"
        "assert not changed, changed\n"
    )
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        multiphoton.no_such_name
