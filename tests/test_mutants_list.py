from mutants import MUTANTS, ROOT


def test_each_mutant_changes_text_that_occurs_once_in_its_file():
    # the sweep itself runs the whole suite once per mutant (python tests/mutants.py);
    # this only keeps the list applicable as the code it mutates changes
    assert len(MUTANTS) >= 14
    assert len({name for name, _, _, _ in MUTANTS}) == len(MUTANTS)
    for name, file, old, new in MUTANTS:
        assert old != new, name
        assert (ROOT / file).read_text().count(old) == 1, name
