"""``tools/mutants.run_mutant`` on a one-function tree, and the catalogue against the source."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def mutants(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import mutants

    return mutants


@pytest.fixture
def tiny(tmp_path):
    """A tree whose one test pins ``double(2) == 4``."""
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "tiny.py").write_text("def double(x):\n    return 2 * x\n")
    (tmp_path / "tests" / "test_tiny.py").write_text("from tiny import double\n\n\n"
                                                     "def test_double():\n    assert double(2) == 4\n")
    return tmp_path


@pytest.mark.parametrize(
    "old, new, verdict",
    [
        ("2 * x", "3 * x", "killed"),
        ("2 * x", "x + x", "survived"),  # an equivalent mutant
        ("4 * x", "3 * x", "not applied: its text to replace occurs 0 times in src/tiny.py"),
        ("x", "y", "not applied: its text to replace occurs 2 times in src/tiny.py"),
    ],
)
def test_a_mutant_is_judged_by_its_tests_and_the_source_is_restored(mutants, tiny, old, new, verdict):
    mutant = mutants.Mutant("tiny", "doubling", "src/tiny.py", old, new, ("tests/test_tiny.py",))
    before = (tiny / "src" / "tiny.py").read_text()
    assert mutants.run_mutant(mutant, tiny) == verdict
    assert (tiny / "src" / "tiny.py").read_text() == before


def test_every_catalogued_mutant_applies_once_to_this_source(mutants):
    for mutant in mutants.CATALOGUE:
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant.name
        assert all((ROOT / test).is_file() for test in mutant.tests), mutant.name
