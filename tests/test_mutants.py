"""The mutation catalogue (`tests/mutants.py`) still applies to the source.

Running the catalogue takes about half a minute, so tier-1 checks only that
each mutation could be applied and names tests that exist; ``python
tests/mutants.py`` runs them.
"""

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def test_mutation_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS) >= 20


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_snippet_occurs_once_and_its_tests_exist(mutant):
    source = (ROOT / "src" / "digitstats" / mutant.file).read_text(encoding="utf-8")
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert f"\ndef {name.partition('[')[0]}(" in (ROOT / path).read_text(encoding="utf-8"), test
