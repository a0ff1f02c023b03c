import random

import pytest

from solvsph import (
    NotSpherical,
    SemigroupGenerators,
    Weight,
    active_roots,
    anchor_weights,
    bounded_members,
    build_root_system,
    build_subgroup,
    check_spherical,
    decompose,
    generators,
    get_preset,
)
from solvsph.fuzzing import POOL_RANK3, random_mixed_config
from solvsph.linalg import rank, solve


def _gens(name, components=None):
    sub = build_subgroup(get_preset(name, components))
    table = active_roots(sub)
    return sub, table, generators(sub, table)


def test_anchor_weights_on_sp4_preset():
    sub, table, gens = _gens("sl4-sp4borel")
    assert [w.coords for w in anchor_weights(table, sub.root_system)] == [(1, 0, 1), (0, 1, 0)]


def test_anchor_weights_on_tu_prime():
    # families come in lexicographic weight order, not simple-root order
    sub, table, gens = _gens("tu-prime", (("A", 3),))
    assert {w.coords for w in anchor_weights(table, sub.root_system)} == {
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    }
    assert [fam.phi for fam in table.families] == sorted(fam.phi for fam in table.families)


def test_sp4_preset_generators_exact():
    _, _, gens = _gens("sl4-sp4borel")
    got = {(w.coords, chi) for w, chi in gens.all_generators()}
    assert got == {
        ((0, 0, 1), (1, 0)),
        ((0, 1, 0), (1, 1)),
        ((1, 0, 0), (1, 0)),
        ((1, 0, 1), (1, 1)),
        ((0, 1, 0), (0, 0)),
    }


def test_borel_generators_are_dual_pairs():
    sub, _, gens = _gens("borel", (("A", 3),))
    rs = sub.root_system
    assert gens.m == 0
    got = {(w.coords, chi) for w, chi in gens.all_generators()}
    expected = {
        (rs.dual_weight(rs.fundamental_weight(i)).coords, tuple(int(i == j) for j in range(3)))
        for i in range(3)
    }
    assert got == expected


def test_sl2_generators():
    _, _, gens = _gens("sl2-torus")
    got = {(w.coords, chi) for w, chi in gens.all_generators()}
    assert got == {((1,), (1,)), ((1,), (-1,))}


def test_maximal_unipotent_generators_have_empty_character():
    sub, _, gens = _gens("maximal-unipotent")
    rs = sub.root_system
    got = {(w.coords, chi) for w, chi in gens.all_generators()}
    assert got == {(rs.dual_weight(rs.fundamental_weight(i)).coords, ()) for i in range(2)}


def test_generators_require_spherical():
    sub = build_subgroup(get_preset("sl2-trivial"))
    with pytest.raises(NotSpherical):
        generators(sub, None)


def test_generator_count_and_rank():
    for name, components in [
        ("borel", None),
        ("tu-prime", (("A", 3),)),
        ("sl4-sp4borel", None),
        ("sl2-torus", None),
        ("maximal-unipotent", None),
    ]:
        sub, table, gens = _gens(name, components)
        assert len(gens.all_generators()) == gens.n + gens.m
        vectors = [list(w.coords) + list(chi) for w, chi in gens.all_generators()]
        assert rank(vectors) == gens.n + gens.m


def test_decompose_zero_is_empty():
    _, _, gens = _gens("sl4-sp4borel")
    assert gens.decompose((Weight((0, 0, 0)), (0, 0))) == (0,) * 5


def test_decompose_sl2_doubled_weight():
    _, _, gens = _gens("sl2-torus")
    assert gens.decompose((Weight((2,)), (0,))) == (1, 1)
    assert gens.decompose((Weight((1,)), (0,))) is None
    assert gens.decompose((Weight((1,)), (3,))) is None


def test_decompose_picks_single_generator():
    _, _, gens = _gens("sl4-sp4borel")
    coeffs = gens.decompose((Weight((0, 1, 0)), (0, 0)))
    assert coeffs == (0, 0, 0, 0, 1)


def test_each_generator_is_indecomposable():
    for name in ["sl4-sp4borel", "sl2-torus", "borel"]:
        _, _, gens = _gens(name)
        for idx, g in enumerate(gens.all_generators()):
            coeffs = gens.decompose(g)
            assert coeffs == tuple(int(i == idx) for i in range(gens.n + gens.m))


def test_decompose_round_trips_random_combinations():
    rng = random.Random(17)
    for name, components in [("sl4-sp4borel", None), ("tu-prime", (("A", 2),))]:
        _, _, gens = _gens(name, components)
        gl = gens.all_generators()
        for _ in range(40):
            coeffs = tuple(rng.randint(0, 3) for _ in gl)
            w = [0] * gens.n
            chi = [0] * gens.d
            for c, (gw, gchi) in zip(coeffs, gl):
                w = [a + c * b for a, b in zip(w, gw.coords)]
                chi = [a + c * b for a, b in zip(chi, gchi)]
            assert gens.decompose((Weight(tuple(w)), tuple(chi))) == coeffs


def test_bounded_members_matches_decompose():
    _, _, gens = _gens("sl2-torus")
    members = bounded_members(gens, 3)
    assert members == {((k,), (l,)) for k in range(4) for l in range(-k, k + 1, 2)}
    for pair in members:
        assert decompose(gens, (Weight(pair[0]), pair[1])) is not None


def test_zero_character_slice():
    _, _, gens = _gens("sl4-sp4borel")
    assert [(w.coords, chi) for w, chi in gens.zero_character_generators()] == [
        ((0, 1, 0), (0, 0))
    ]
    assert gens.zero_character_members(2) == [(0, 0, 0), (0, 1, 0), (0, 2, 0)]
    # the slice needs mixed generators: neither sl2-torus generator has
    # trivial character, yet their sum does
    _, _, gens2 = _gens("sl2-torus")
    assert gens2.zero_character_generators() == []
    assert gens2.zero_character_members(4) == [(0,), (2,), (4,)]


def test_decompose_refuses_a_pair_outside_the_span_of_fewer_generators():
    # borel on A2: pairs have n + d = 4 coordinates, there are n + m = 2 generators
    _, _, gens = _gens("borel")
    assert (gens.n + gens.d, gens.n + gens.m) == (4, 2)
    assert gens.decompose((Weight((1, 0)), (0, 1))) == (0, 1)
    assert gens.decompose((Weight((1, 0)), (0, 0))) is None
    assert gens.decompose((Weight((1, 0)), (1, 0))) is None


@pytest.mark.parametrize("name", ["borel", "sl4-sp4borel"])
def test_decompose_refuses_a_weight_or_character_of_the_wrong_length(name):
    # the weight must have n coordinates and the character d: a pair of n + d
    # coordinates split elsewhere was read as another pair
    _, _, gens = _gens(name)
    n, d = gens.n, gens.d
    assert gens.m == (0 if name == "borel" else 2)
    bad = {  # pair -> the part refused, and its length
        ((1,) * (n + 1), (0,) * (d - 1)): ("weight", n + 1),
        (Weight((1,) * (n + 1)), (0,) * (d - 1)): ("weight", n + 1),
        ((0,) * (n - 1), (0,) * (d + 1)): ("weight", n - 1),
        ((0,) * n, (0,) * (d + 1)): ("character", d + 1),
        ((0,) * n, (0,) * (d - 1)): ("character", d - 1),
    }
    if name == "borel":  # ((0, 1, 1), (0,)) was decomposed as ((0, 1), (1, 0))
        bad.update({((0, 1, 1), (0,)): ("weight", 3), ((1, 0, 1), (0,)): ("weight", 3)})
    for call in (gens.decompose, lambda pair: decompose(gens, pair)):
        assert call(((0,) * n, (0,) * d)) == (0,) * (n + gens.m)
        for pair, (part, size) in bad.items():
            with pytest.raises(ValueError, match=f"^the {part} of a pair has {size} coordinates, not "):
                call(pair)


def test_decompose_matches_a_rational_solve_on_fuzzed_configs():
    # decompose returns x exactly when M x = pair has a nonnegative integral
    # solution over Q, and then the two agree
    rng = random.Random(2027)
    spherical = 0
    for _ in range(40):
        sub = build_subgroup(random_mixed_config(rng, POOL_RANK3))
        if not check_spherical(sub):
            continue
        spherical += 1
        gens = generators(sub, active_roots(sub))
        cols = [[*w.coords, *chi] for w, chi in gens.all_generators()]
        matrix = [list(row) for row in zip(*cols)]
        pairs = bounded_members(gens, 3)
        for _ in range(60):
            w = tuple(rng.randint(-1, 3) for _ in range(gens.n))
            pairs.add((w, tuple(rng.randint(-2, 2) for _ in range(gens.d))))
        for w, chi in pairs:
            x = solve(matrix, [*w, *chi])
            if x is not None and all(c >= 0 and c.denominator == 1 for c in x):
                assert gens.decompose((w, chi)) == tuple(x)
            else:
                assert gens.decompose((w, chi)) is None
    assert spherical >= 10


def test_dependent_generators_are_refused():
    rs = build_root_system([("A", 2)])
    w1, w2 = rs.fundamental_weight(0), rs.fundamental_weight(1)
    torus = [(w1, (1,)), (w2, (0,))]
    for active in ([(w1 + w2, (1,))], [(w1 + w1, (2,)), (w2, (1,))]):
        with pytest.raises(AssertionError, match="generators are not linearly independent"):
            SemigroupGenerators(rs, 1, torus, active, [w for w, _ in active])
