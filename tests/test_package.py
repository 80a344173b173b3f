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


def test_import_registers_every_layer_module(fresh_python):
    """The benchmark's tracer reads its layers from sys.modules right after
    ``import multiphoton, multiphoton.cli``, and wraps the public functions
    that ``vars()`` of each lists: the lazy modules must be there, and load
    when read."""
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
    assert {"permanent", "permanent_naive", "check_unitary"} <= public["linalg"]
    assert "oracle_coincidence" in public["fockspace"]
    assert "coincidence_sym_phase" in public["coincidence"]
    assert all(public.values()), public


def test_package_reads_lazy_names_from_their_module_each_time(monkeypatch):
    assert multiphoton.custom is multiphoton.circuits.custom
    assert multiphoton.permanent is multiphoton.linalg.permanent
    original = multiphoton.circuits.custom
    monkeypatch.setattr(multiphoton.circuits, "custom", print)
    assert multiphoton.custom is print
    monkeypatch.undo()
    assert multiphoton.custom is original
    assert "custom" not in vars(multiphoton)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        multiphoton.no_such_name
