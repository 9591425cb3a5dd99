"""Every planted route bug of tools/mutants.py still applies to the source.

Each mutant is a text substitution that must occur exactly once in its
file, so a change to the source that moves one fails here, and the kill
matrix cannot silently lose a mutant.  No mutant runs in this test.
"""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
try:
    import mutants
finally:
    sys.path.remove(str(TOOLS))


@pytest.mark.parametrize("name", list(mutants.MUTANTS))
def test_the_substitution_applies_exactly_once(name):
    filename, source = mutants.mutated(name)
    _, text, replacement = mutants.MUTANTS[name]
    assert text != replacement
    assert source.count(replacement) >= 1
    assert source != (mutants.PACKAGE / filename).read_text()


def test_there_are_twelve_mutants():
    assert len(mutants.MUTANTS) == 12
