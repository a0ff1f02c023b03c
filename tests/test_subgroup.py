import random
from fractions import Fraction

import pytest

from solvsph import (
    DuplicateRoot,
    MixedWeightConstraint,
    NilradicalSpec,
    NonIntegralWeight,
    NonSurjectiveTau,
    NotSubalgebra,
    Root,
    TorusRestriction,
    Weight,
    ZeroCoefficient,
    build_algebra,
    build_root_system,
    restrict,
    validate,
    weight_table,
)
from solvsph import linalg
from solvsph.chevalley import AlgebraElement
from solvsph.config import build_subgroup
from solvsph.fuzzing import POOL_RANK3, random_mixed_config


def _sl4():
    rs = build_root_system([("A", 3)])
    return rs, build_algebra(rs)


def test_torus_restriction_refuses_a_non_integral_rank():
    with pytest.raises(ValueError, match="non-integral"):
        TorusRestriction([[1, 0]], 2.7)
    assert TorusRestriction([[1, 0]], 2.0).n == 2


def _example_sp4_data():
    rs, alg = _sl4()
    tau = TorusRestriction([[1, 1, 1], [0, 1, 0]], 3)
    nil = NilradicalSpec(
        [
            [(Root((1, 0, 0)), 1), (Root((0, 0, 1)), 1)],
            [(Root((1, 1, 0)), 1), (Root((0, 1, 1)), -1)],
        ]
    )
    return alg, tau, nil


def test_restrict_identity_and_empty():
    tau_id = TorusRestriction([[1, 0], [0, 1]], 2)
    assert restrict(tau_id, Weight((3, -1))) == (3, -1)
    tau0 = TorusRestriction([], 2)
    assert restrict(tau0, Weight((3, -1))) == ()


def test_restrict_is_additive():
    rng = random.Random(2)
    tau = TorusRestriction([[1, 1, 1], [0, 1, 0]], 3)
    for _ in range(30):
        a = Weight(tuple(rng.randint(-5, 5) for _ in range(3)))
        b = Weight(tuple(rng.randint(-5, 5) for _ in range(3)))
        assert restrict(tau, a + b) == tuple(
            x + y for x, y in zip(restrict(tau, a), restrict(tau, b))
        )


def test_restrict_rejects_non_integral():
    tau = TorusRestriction([[1]], 1)
    # restrict keeps the images it has computed; a non-integral weight is never kept
    assert restrict(tau, Weight((2,))) == restrict(tau, (Fraction(2),)) == (2,)
    with pytest.raises(NonIntegralWeight):
        restrict(tau, Weight((Fraction(1, 2),)))
    with pytest.raises(NonIntegralWeight):
        restrict(tau, Weight((Fraction(1, 2),)))


def test_torus_rows_refuse_non_integral_entries():
    for rows, n in (([[Fraction(3, 2)]], 1), ([[1.9, 0], [0, 1]], 2)):
        with pytest.raises(ValueError, match="non-integral"):
            TorusRestriction(rows, n)
    tau = TorusRestriction([[Fraction(4, 2), 1.0]], 2)
    assert tau.rows == ((2, 1),) and all(type(x) is int for x in tau.rows[0])


def test_example_torus_identifies_outer_simple_roots():
    alg, tau, _ = _example_sp4_data()
    rs = alg.root_system
    img = lambda r: tau.restrict(rs.root_to_weight(r))
    assert img(Root((1, 0, 0))) == img(Root((0, 0, 1))) == (1, -1)
    assert img(Root((1, 1, 0))) == img(Root((0, 1, 1))) == (1, 1)
    assert img(Root((0, 1, 0))) == (0, 2)
    assert img(Root((1, 1, 1))) == (2, 0)


def test_validate_full_unipotent_part():
    rs, alg = _sl4()
    sub = validate(alg, TorusRestriction([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3), NilradicalSpec([]))
    assert sub.dim_n == sub.dim_u == 6
    assert all(c == 0 for _, _, c in weight_table(sub))
    # with the identity torus every class is a single root
    assert len(sub.classes) == 6


def test_validate_example_weight_table():
    alg, tau, nil = _example_sp4_data()
    sub = validate(alg, tau, nil)
    table = {phi: (tuple(r.coords for r in roots), c) for phi, roots, c in weight_table(sub)}
    assert table[(1, -1)] == (((1, 0, 0), (0, 0, 1)), 1)
    assert table[(1, 1)] == (((1, 1, 0), (0, 1, 1)), 1)
    assert table[(0, 2)] == (((0, 1, 0),), 0)
    # the long root sits alone in a codimension-zero class
    assert table[(2, 0)] == (((1, 1, 1),), 0)
    assert sub.dim_u - sub.dim_n == 2
    # deterministic ordering of classes
    assert [phi for phi, _, _ in weight_table(sub)] == sorted(table)


def test_validate_rejects_mixed_weights():
    rs = build_root_system([("A", 2)])
    alg = build_algebra(rs)
    tau = TorusRestriction([[1, 0], [0, 1]], 2)
    with pytest.raises(MixedWeightConstraint):
        validate(alg, tau, NilradicalSpec([[(Root((1, 0)), 1), (Root((0, 1)), 1)]]))


def test_validate_rejects_duplicates_and_zero_coeffs():
    alg, tau, _ = _example_sp4_data()
    with pytest.raises(DuplicateRoot):
        validate(alg, tau, NilradicalSpec([[(Root((1, 0, 0)), 1), (Root((1, 0, 0)), 2)]]))
    with pytest.raises(ZeroCoefficient):
        validate(alg, tau, NilradicalSpec([[(Root((1, 0, 0)), 0)]]))


def test_validate_rejects_non_surjective_torus():
    rs = build_root_system([("A", 1)])
    alg = build_algebra(rs)
    with pytest.raises(NonSurjectiveTau):
        validate(alg, TorusRestriction([[2]], 1), NilradicalSpec([]))
    rs2 = build_root_system([("A", 2)])
    alg2 = build_algebra(rs2)
    with pytest.raises(NonSurjectiveTau):
        validate(alg2, [[2, 0], [0, 1]], NilradicalSpec([]))


def test_validate_refuses_a_torus_of_another_rank():
    alg = build_algebra(build_root_system([("A", 2)]))
    tau = TorusRestriction([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    with pytest.raises(ValueError, match="torus matrix has 3 columns, expected 2"):
        validate(alg, tau, NilradicalSpec([]))
    with pytest.raises(ValueError, match="torus matrix has 3 columns, expected 2"):
        tau.root_classes(alg.root_system)
    assert not tau._images  # nothing restricted before the refusal


def test_validate_rejects_non_subalgebra():
    # cutting only the highest root out of the nilradical is not closed:
    # the bracket of the two simple root vectors escapes
    rs = build_root_system([("A", 2)])
    alg = build_algebra(rs)
    tau = TorusRestriction([[1, 0], [0, 1]], 2)
    with pytest.raises(NotSubalgebra) as err:
        validate(alg, tau, NilradicalSpec([[(Root((1, 1)), 1)]]))
    assert err.value.witness is not None


def test_validate_accepts_codim_two_class():
    # two independent functionals on one class validate fine (the
    # sphericity check is what rejects them later)
    rs = build_root_system([("A", 2)])
    alg = build_algebra(rs)
    tau = TorusRestriction([[1, 1]], 2)
    nil = NilradicalSpec([[(Root((1, 0)), 1)], [(Root((0, 1)), 1)]])
    sub = validate(alg, tau, nil)
    cls = sub.class_by_phi[(1,)]
    assert cls.codim == 2


def test_trivial_torus_allowed():
    rs = build_root_system([("A", 2)])
    alg = build_algebra(rs)
    sub = validate(alg, TorusRestriction([], 2), NilradicalSpec([]))
    assert sub.dim_s == 0
    assert len(sub.classes) == 1
    assert sub.classes[0].phi == ()


def test_rescaled_functional_gives_identical_table():
    alg, tau, nil = _example_sp4_data()
    sub = validate(alg, tau, nil)
    scaled = NilradicalSpec(
        [[(root, coeff * Fraction(-7, 3)) for root, coeff in group] for group in nil.groups]
    )
    sub2 = validate(alg, tau, scaled)
    assert [
        (phi, tuple(r.coords for r in roots), c) for phi, roots, c in weight_table(sub)
    ] == [(phi, tuple(r.coords for r in roots), c) for phi, roots, c in weight_table(sub2)]


def test_contains_in_nil_agrees_with_the_rank_of_the_nil_basis():
    outside_seen = 0
    for seed in range(12):
        rng = random.Random(seed)
        sub = build_subgroup(random_mixed_config(rng, POOL_RANK3))
        alg = sub.algebra
        keys = alg.basis_keys()

        def dense(element):
            return [element.terms.get(key, 0) for key in keys]

        rows = [dense(x) for x in sub.nil_basis]
        base = linalg.rank(rows)

        def in_span(element):
            return linalg.rank(rows + [dense(element)]) == base

        combo = AlgebraElement(alg)
        for x in sub.nil_basis:
            combo = combo + x * rng.randint(-3, 3)
        assert sub.contains_in_nil(combo) and in_span(combo)
        for x in sub.nil_basis:
            assert sub.contains_in_nil(x)

        positive = sub.root_system.positive_roots
        outside = [r for r in positive if not in_span(alg.e(r))]
        outside_seen += len(outside)
        escapes = [combo + alg.e(r) for r in outside]
        escapes += [combo + alg.h(i) for i in range(sub.root_system.n)]
        escapes += [combo + alg.e(-r) for r in positive]
        for y in escapes:
            assert not in_span(y)
            assert not sub.contains_in_nil(y), y
        for r in positive:
            assert sub.contains_in_nil(alg.e(r)) == in_span(alg.e(r))
    assert outside_seen > 0
