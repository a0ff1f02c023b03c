import copy
import pickle
import random
from fractions import Fraction

import pytest

from solvsph import (
    InvalidType,
    NonIntegralWeight,
    NotDominant,
    Root,
    TorusRestriction,
    Weight,
    ZeroRoot,
    build_root_system,
)
from solvsph import rootsys


def test_positive_root_counts():
    cases = [
        ([("A", 2)], 3),
        ([("C", 2)], 4),
        ([("A", 3)], 6),
        ([("B", 2)], 4),
        ([("B", 3)], 9),
        ([("C", 3)], 9),
        ([("D", 3)], 6),
        ([("D", 4)], 12),
        ([("G", 2)], 6),
        ([("F", 4)], 24),
        ([("E", 6)], 36),
        ([("A", 1), ("A", 1)], 2),
        ([("A", 1), ("C", 2)], 5),
    ]
    for spec, count in cases:
        rs = build_root_system(spec)
        assert len(rs.positive_roots) == count, spec


def test_cartan_matrix_shape():
    for spec in [[("A", 3)], [("B", 3)], [("G", 2)], [("A", 1), ("B", 2)]]:
        rs = build_root_system(spec)
        for i in range(rs.n):
            assert rs.cartan[i][i] == 2
            for j in range(rs.n):
                if i != j:
                    assert rs.cartan[i][j] <= 0


def test_roots_are_nonnegative_combinations():
    rs = build_root_system([("C", 3)])
    for r in rs.positive_roots:
        assert all(k >= 0 for k in r.coords)
        assert any(k > 0 for k in r.coords)


def test_ordering_and_simple_roots():
    rs = build_root_system([("A", 3)])
    assert [r.coords for r in rs.simple_roots] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    heights = [r.height for r in rs.positive_roots]
    assert heights == sorted(heights)
    # construction is deterministic
    rs2 = build_root_system([("A", 3)])
    assert [r.coords for r in rs2.positive_roots] == [r.coords for r in rs.positive_roots]


def test_pairing_fundamental_vs_simple():
    for spec in [[("A", 2)], [("B", 2)], [("C", 2)], [("G", 2)], [("F", 4)]]:
        rs = build_root_system(spec)
        for i in range(rs.n):
            for j, a in enumerate(rs.simple_roots):
                assert rs.pairing(rs.fundamental_weight(i), a) == (1 if i == j else 0)


def test_pairing_of_root_with_itself_is_two():
    for spec in [[("A", 3)], [("B", 3)], [("C", 2)], [("G", 2)]]:
        rs = build_root_system(spec)
        for r in rs.positive_roots:
            assert rs.pairing(r, r) == 2


def test_pairing_a2_adjacent():
    rs = build_root_system([("A", 2)])
    a1, a2 = rs.simple_roots
    assert rs.pairing(a1, a2) == -1
    assert rs.pairing(a2, a1) == -1


def test_pairing_linear_in_first_argument():
    rs = build_root_system([("C", 2)])
    rng = random.Random(11)
    mu = rs.positive_roots[3]
    for _ in range(25):
        lam = Weight(tuple(rng.randint(-4, 4) for _ in range(2)))
        nu = Weight(tuple(rng.randint(-4, 4) for _ in range(2)))
        assert rs.pairing(lam + nu, mu) == rs.pairing(lam, mu) + rs.pairing(nu, mu)


def test_pairing_zero_root_rejected():
    rs = build_root_system([("A", 2)])
    with pytest.raises(ZeroRoot):
        rs.pairing(rs.fundamental_weight(0), Root((0, 0)))


def test_pairings_are_ints():
    for spec in ["A3", "B3", "C3", "D4", "G2", "F4", "E6", "A1 C2"]:
        rs = build_root_system([(c[0], int(c[1:])) for c in spec.split()])
        roots = list(rs.positive_roots) + [-r for r in rs.positive_roots]
        pairs = [(rs.fundamental_weight(i), a) for i in range(rs.n) for a in rs.positive_roots]
        for lam, mu in pairs + [(a, b) for a in roots for b in roots]:
            assert type(rs.pairing(lam, mu)) is int, (spec, lam, mu)


def test_weights_are_integral():
    with pytest.raises(NonIntegralWeight):
        Weight((Fraction(1, 2),))
    with pytest.raises(NonIntegralWeight):
        Weight((1, 2.5))
    w = Weight((Fraction(4, 2), 1))
    assert w == Weight((2, 1)) and all(type(c) is int for c in w.coords)


def test_roots_and_weights_are_values_of_their_own_class():
    root, weight = Root((1, 0)), Weight((1, 0))
    assert root != weight and weight != root
    assert root != (1, 0) and weight != (1, 0) and (1, 0) != root
    assert Root((1, 0)) == root and hash(Root((1, 0))) == hash(root)
    assert Weight((1, 0)) == weight and hash(Weight((1, 0))) == hash(weight)
    assert len({root, weight, Root((1, 0)), Weight((1, 0))}) == 2
    for value in (root, weight):
        with pytest.raises(AttributeError):
            value.coords = (0, 1)
        with pytest.raises(AttributeError):
            value.extra = 1
        with pytest.raises(AttributeError):
            del value.coords
        assert value.coords == (1, 0)
    assert (repr(root), repr(weight), repr(-Root((0, 1)))) == ("Root(1, 0)", "Weight(1, 0)", "Root(0, -1)")


def test_roots_and_weights_survive_deepcopy_and_pickle():
    for value in (Root((1, -1, 0)), Weight((2, 0, -1))):
        for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value)


def test_root_refuses_non_integral_coordinates():
    rs = build_root_system([("A", 2)])
    with pytest.raises(ValueError, match="non-integral"):
        rs.root((1.5, 0))
    with pytest.raises(ValueError, match="non-integral"):
        rs.root((Fraction(3, 2), 0))
    assert rs.root((Fraction(2, 2), 1.0)).coords == (1, 1)
    assert all(type(c) is int for c in rs.root((Fraction(2, 2), 1.0)).coords)


def test_support():
    rs = build_root_system([("A", 3)])
    assert rs.simple_roots[0].support() == {0}
    assert Root((1, 1, 0)).support() == {0, 1}
    assert Root((1, 1)).support() == {0, 1}


def test_dual_weight_values():
    rs = build_root_system([("A", 1)])
    assert rs.dual_weight(Weight((5,))).coords == (5,)
    rs = build_root_system([("A", 3)])
    assert rs.dual_weight(Weight((1, 0, 0))).coords == (0, 0, 1)
    assert rs.dual_weight(Weight((0, 1, 0))).coords == (0, 1, 0)
    rs = build_root_system([("C", 2)])
    assert rs.dual_weight(Weight((1, 0))).coords == (1, 0)
    assert rs.dual_weight(Weight((0, 1))).coords == (0, 1)


def test_dual_weight_is_dominance_preserving_involution():
    rng = random.Random(5)
    for spec in [[("A", 3)], [("D", 4)], [("A", 2), ("A", 1)]]:
        rs = build_root_system(spec)
        for _ in range(30):
            lam = Weight(tuple(rng.randint(0, 4) for _ in range(rs.n)))
            dual = rs.dual_weight(lam)
            assert dual.is_dominant
            assert rs.dual_weight(dual) == lam


def test_dual_weight_requires_dominant():
    rs = build_root_system([("A", 2)])
    with pytest.raises(NotDominant):
        rs.dual_weight(Weight((1, -1)))


def test_reflections_permute_roots():
    for spec in [[("A", 3)], [("B", 3)], [("C", 3)], [("G", 2)], [("D", 4)]]:
        rs = build_root_system(spec)
        for alpha in rs.positive_roots:
            for beta in rs.positive_roots:
                image = tuple(
                    b - rs.pairing(beta, alpha) * a for a, b in zip(alpha.coords, beta.coords)
                )
                assert rs.is_root(image), (spec, alpha, beta)


def test_inadmissible_types_rejected():
    for spec in [[("B", 1)], [("C", 1)], [("D", 2)], [("E", 5)], [("E", 9)], [("F", 3)], [("G", 3)], [("H", 2)], [("A", 0)], []]:
        with pytest.raises(InvalidType):
            build_root_system(spec)


def test_equal_specs_share_one_root_system():
    rs = build_root_system([("a", 2)])
    assert build_root_system([("A", 2)]) is rs
    assert build_root_system((("A", 2.0),)) is rs
    assert build_root_system([("A", 1), ("A", 2)]) is not build_root_system([("A", 2), ("A", 1)])


@pytest.mark.parametrize(
    "spec, message",
    [
        ([("A", 0)], "A_0 is not an admissible type"),
        ([("e", 9)], "E_9 is not an admissible type"),
        ([("A", 9), ("A", 8)], "total rank 17 is above the limit of 16"),
        ([("A", 2.5)], "'2.5' has non-integral entries"),
    ],
)
def test_an_invalid_spec_is_refused_on_every_call_and_never_stored(spec, message):
    stored = dict(rootsys._SYSTEMS)
    for _ in range(3):
        with pytest.raises(InvalidType) as exc:
            build_root_system(spec)
        assert str(exc.value) == message
    assert rootsys._SYSTEMS == stored


def test_non_integral_rank_rejected():
    with pytest.raises(InvalidType, match="non-integral"):
        build_root_system([("A", 2.5)])
    assert build_root_system([("A", 2.0)]).n == 2


def test_root_form_matches_the_symmetrized_double_sum():
    from solvsph.fuzzing import POOL_RANK3

    for spec in POOL_RANK3 + [(("E", 8),)]:
        rs = build_root_system(spec)
        roots = list(rs.positive_roots) + [-r for r in rs.positive_roots]
        if rs.n == 8:
            roots = roots[::7]
        for a in roots:
            for b in roots:
                expected = sum(
                    rs._d[i] * rs.cartan[i][j] * a.coords[i] * b.coords[j]
                    for i in range(rs.n)
                    for j in range(rs.n)
                )
                assert rs.root_form(a, b) == expected, (spec, a, b)


def test_non_integral_input_is_named_as_a_config_writes_it():
    cases = [
        (InvalidType, lambda: build_root_system([("A", 2.5)]), "'2.5'"),
        (ValueError, lambda: TorusRestriction([[1.5, 0]], 2), "'1.5 0'"),
        (NonIntegralWeight, lambda: Weight((Fraction(3, 2), 0)), "'3/2 0'"),
    ]
    for error, build, written in cases:
        with pytest.raises(error, match="non-integral") as exc:
            build()
        message = str(exc.value)
        assert written in message
        assert "(" not in message and ")" not in message, message


A2 = build_root_system([("A", 2)])
A2_A1, A2_A2 = A2.simple_roots


@pytest.mark.parametrize(
    "call",
    [
        lambda: Weight((1, 0)) + Weight((1,)),
        lambda: Weight((1, 0)) - Weight((1, 0, 0)),
        lambda: Root((1, 0)) + Root((1,)),
        lambda: Root((1, 0)) - Root((1, 0, 4)),
        lambda: A2.pairing(Weight((1,)), A2_A2),
        lambda: A2.pairing(Weight((1, 0, 9)), A2_A1),
        lambda: A2.pairing(A2_A1, Root((1, 0, 4))),
        lambda: A2.pairing(Root((1,)), A2_A1),
        lambda: A2.root_form(Root((1, 0, 4)), A2_A1),
        lambda: A2.root_form(A2_A1, Root((1,))),
        lambda: A2.weight_root_form(Weight((1,)), A2_A1),
        lambda: A2.root_to_weight(Root((1, 0, 4))),
        lambda: A2.root_to_weight(Root((1,))),
        lambda: A2.coroot_coefficients(Root((1, 0, 4))),
    ],
    ids=["weight+", "weight-", "root+", "root-", "pairing-short-weight", "pairing-long-weight",
         "pairing-long-root", "pairing-short-root", "root_form-left", "root_form-right",
         "weight_root_form", "root_to_weight-long", "root_to_weight-short", "coroot_coefficients"],
)
def test_vectors_of_the_wrong_length_are_refused(call):
    # zip used to drop the extra or missing coordinates, or a lookup raised IndexError
    with pytest.raises(ValueError, match="coordinates"):
        call()
