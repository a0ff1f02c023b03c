from fractions import Fraction

import pytest

from solvsph import build_algebra, build_realization, build_root_system, representation_property_check
from solvsph.oracle import SparseMatrix


def test_representation_property_check_rejects_one_corrupted_entry():
    real = build_realization(build_algebra(build_root_system([("C", 2)])))
    mod = real.fundamentals[1]
    actions = dict(mod.actions)
    key = ("e", (0, 1))
    actions[key] = actions[key] + SparseMatrix.from_entries(mod.dim, {(0, 0): Fraction(1)})
    # the failing pair is named the way the command line prints roots
    with pytest.raises(AssertionError, match=r"fails on e\(-2a1-a2\), e\(a2\)$"):
        representation_property_check(real.algebra, actions)
