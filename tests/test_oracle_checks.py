from fractions import Fraction

import pytest

from solvsph import (
    Weight,
    build_algebra,
    build_irrep,
    build_realization,
    build_root_system,
    representation_property_check,
)
from solvsph.oracle import HighestWeightModule, SparseMatrix


def test_representation_property_check_rejects_one_corrupted_entry():
    real = build_realization(build_algebra(build_root_system([("C", 2)])))
    mod = real.fundamentals[1]
    actions = dict(mod.actions)
    key = ("e", (0, 1))
    actions[key] = actions[key] + SparseMatrix.from_entries(mod.dim, {(0, 0): Fraction(1)})
    # the failing pair is named the way the command line prints roots
    with pytest.raises(AssertionError, match=r"fails on e\(-2a1-a2\), e\(a2\)$"):
        representation_property_check(real.algebra, actions)


def test_module_relation_check_rejects_one_corrupted_entry():
    real = build_realization(build_algebra(build_root_system([("C", 2)])))
    mod = build_irrep(real, Weight((0, 1)))
    actions = dict(mod.actions)
    key = ("e", (1, 0))
    j = next(j for j, col in enumerate(actions[key].cols) if col)
    r, x = next(iter(actions[key].cols[j].items()))
    # doubles one entry; weights still shift correctly, so only [e1, f1] = h1 can fail
    actions[key] = actions[key] + SparseMatrix.from_entries(mod.dim, {(r, j): x})
    with pytest.raises(AssertionError, match=r"delta_ij h_i fails on a1, a1$"):
        HighestWeightModule(mod.algebra, mod.lam, mod.weights, actions)
    HighestWeightModule(mod.algebra, mod.lam, mod.weights, dict(mod.actions))
