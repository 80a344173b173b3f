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
