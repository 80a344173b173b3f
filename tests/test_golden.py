"""CLI stdout against golden files.

Each file under ``tests/golden/`` holds the stdout of one command.  The
text between numbers (headers, labels, JSON keys, check names) and the
count of numbers must match exactly; each number must agree within
1e-14 * max(1, |x|).  A deliberate change of output replaces a file with
the new stdout, ``python -m multiphoton.cli <argv> > tests/golden/<name>.txt``,
and is recorded in CHANGES.md with the numbers that moved.

``dft-vis``, ``mismatch``, ``sym`` and ``verify`` run at their default
flags; with ``hom``, ``coinc``, ``optimize-phi`` (the seed-0 phase) and
``optimize-crossover`` they are the eight commands of the benchmark's
``cli-figures`` workload.
"""

import re
from pathlib import Path

import pytest

from multiphoton import cli

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-14

COMMANDS = {
    "hom": ["hom", "--R", "0.5", "--scan-g2", "0:6:301"],
    "hom-source": ["hom", "--source", "thermal"],
    "dft-vis": ["dft-vis"],
    "mismatch": ["mismatch"],
    "sym": ["sym"],
    "coinc": ["coinc", "--dft", "3", "--sources", "fock:1,laser,thermal"],
    "optimize-phi": ["optimize", "--phi", "0.5078324153998789"],
    "optimize-scan-phi": ["optimize", "--scan-phi", "0:6.283185307179586:9"],
    "optimize-crossover": ["optimize", "--crossover"],
    "verify": ["verify"],
    "verify-seed-7": ["verify", "--seed", "7"],
    "verify-seed-101": ["verify", "--seed", "101"],
}

# A number not glued to a word: "fock:1" and "0.25," hold one, "dft3" none.
NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?![\w.])")


def split_numbers(text: str) -> tuple[list[str], list[float]]:
    """The text around the numbers, and the numbers."""
    parts = NUMBER.split(text)
    return parts[0::2], [float(x) for x in parts[1::2]]


def number_gaps(got: str, want: str) -> list[tuple[int, float]]:
    """(index, |got - want|) of every number that differs; raises
    AssertionError when the text around the numbers differs."""
    got_text, got_numbers = split_numbers(got)
    want_text, want_numbers = split_numbers(want)
    assert got_text == want_text, "text between numbers differs"
    return [(k, abs(a - b)) for k, (a, b) in enumerate(zip(got_numbers, want_numbers)) if a != b]


def test_number_split_keeps_labels_and_numbers_apart():
    text, numbers = split_numbers("fock:1,dft3,-0.5,1e-05\n6x6 -> 720.0")
    assert numbers == [1.0, -0.5, 1e-05, 720.0]
    assert text == ["fock:", ",dft3,", ",", "\n6x6 -> ", ""]


def test_number_gaps_flag_text_changes():
    assert number_gaps("a,1.5\n", "a,1.5\n") == []
    assert number_gaps("a,1.5\n", "a,1.25\n") == [(0, 0.25)]
    with pytest.raises(AssertionError):
        number_gaps("b,1.5\n", "a,1.5\n")
    with pytest.raises(AssertionError):
        number_gaps("a,1.5,2\n", "a,1.5\n")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(capsys, name):
    assert cli.main(COMMANDS[name]) == 0
    got = capsys.readouterr().out
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    _, numbers = split_numbers(want)
    for k, gap in number_gaps(got, want):
        assert gap <= REL_TOL * max(1.0, abs(numbers[k])), (k, numbers[k], gap)
