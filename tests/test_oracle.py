import math
import operator
import random
import re
import weakref
from fractions import Fraction
from types import MappingProxyType

import pytest
from bracket_table import constants, with_constant
from hypothesis import assume, given, settings, strategies as st

from solvsph import chevalley, cli, linalg, oracle
from solvsph.chevalley import ChevalleyAlgebra
from solvsph.fuzzing import POOL_RANK3
from solvsph.oracle import semi_invariant_records

from solvsph import (
    DimensionCap,
    NotDominant,
    NotSpherical,
    Weight,
    active_roots,
    anchor_weights,
    annihilated_by_nil,
    build_algebra,
    build_irrep,
    build_realization,
    build_root_system,
    build_subgroup,
    bounded_members,
    dominant_weights_up_to,
    enumerate_semigroup,
    generators,
    get_preset,
    check_spherical,
    open_orbit_check,
    parse_config_text,
    preset_names,
    representation_property_check,
    semi_invariant_dim,
    semi_invariant_witness,
    validate,
    vector_s_weight,
    weyl_dim,
)


def _algebra(spec):
    return build_algebra(build_root_system(spec))


def test_supported_types():
    for spec in [[("A", 1)], [("A", 2)], [("A", 3)], [("A", 4)], [("C", 2)]]:
        alg = _algebra(spec)
        assert build_irrep(alg, alg.root_system.fundamental_weight(0), math.inf).dim in (2, 3, 4, 5)
    for spec in [[("B", 2)], [("G", 2)], [("A", 5)], [("A", 1), ("A", 1)]]:
        alg = _algebra(spec)
        rs = alg.root_system
        dims = [build_irrep(alg, rs.fundamental_weight(i), math.inf).dim for i in range(rs.n)]
        assert dims == [weyl_dim(rs, rs.fundamental_weight(i)) for i in range(rs.n)]


def test_verify_on_fuzzed_types_beyond_a_and_c2(tmp_path):
    from solvsph.fuzzing import POOL_RANK3, random_mixed_config

    pool = [c for c in POOL_RANK3 if c not in [(("A", 1),), (("A", 2),), (("A", 3),), (("C", 2),)]]
    rng = random.Random(4)
    path = tmp_path / "job.cfg"
    seen = 0
    while seen < 30:
        config = random_mixed_config(rng, pool)
        if not check_spherical(build_subgroup(config)).spherical:
            continue
        path.write_text(config.to_text())
        assert cli.main(["verify", str(path), "--height", "1"]) == 0, config.to_text()
        seen += 1


def test_weyl_dimension_values():
    rs = build_root_system([("A", 3)])
    assert weyl_dim(rs, Weight((0, 0, 0))) == 1
    assert weyl_dim(rs, Weight((1, 0, 0))) == 4
    assert weyl_dim(rs, Weight((0, 1, 0))) == 6
    assert weyl_dim(rs, Weight((1, 0, 1))) == 15
    rsc = build_root_system([("C", 2)])
    assert weyl_dim(rsc, Weight((1, 0))) == 4
    assert weyl_dim(rsc, Weight((0, 1))) == 5
    assert weyl_dim(rsc, Weight((1, 1))) == 16
    rs2 = build_root_system([("A", 2)])
    assert weyl_dim(rs2, Weight((1, 1))) == 8


def _counted_weyl_products(monkeypatch, rs):
    """Empty the Weyl-dimension memo of rs; the list of weights the formula then runs on."""
    monkeypatch.setattr(rs, "_weyl_dims", {})
    computed = []
    product = oracle._weyl_product

    def counting(rs, coords):
        computed.append(coords)
        return product(rs, coords)

    monkeypatch.setattr(oracle, "_weyl_product", counting)
    return computed


def test_weyl_dim_is_kept_per_root_system_and_refusals_are_not(monkeypatch):
    rs = build_root_system([("A", 3)])
    computed = _counted_weyl_products(monkeypatch, rs)
    assert [weyl_dim(rs, Weight((1, 0, 1))) for _ in range(3)] == [15] * 3
    assert computed == [(1, 0, 1)] and rs._weyl_dims == {(1, 0, 1): 15}
    for lam, error in [(Weight((1, -1, 0)), NotDominant), (Weight((1, 0)), ValueError)]:
        for _ in range(2):
            with pytest.raises(error):
                weyl_dim(rs, lam)
    assert computed == [(1, 0, 1)] and rs._weyl_dims == {(1, 0, 1): 15}


def test_verify_computes_each_weyl_dimension_once(monkeypatch, capsys):
    # the cap pre-check, checked_fundamentals and build_irrep read one value per weight
    rs = build_root_system([("A", 2)])
    computed = _counted_weyl_products(monkeypatch, rs)
    assert cli.main(["verify", "--preset", "borel", "--group", "A2", "--height", "2"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    assert len(computed) == len(set(computed)) == len(rs._weyl_dims)
    assert {(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)} <= set(computed)


def _rational_weyl_dim(rs, lam):
    """The Weyl dimension formula in Fractions: the product over the positive
    roots a of (lam + rho, a) / (rho, a)."""
    rho = Weight((1,) * rs.n)
    out = Fraction(1)
    for alpha in rs.positive_roots:
        out *= Fraction(rs.weight_root_form(lam + rho, alpha), rs.weight_root_form(rho, alpha))
    return out


@pytest.mark.parametrize(
    "spec, top",
    [(spec, 2) for spec in POOL_RANK3 + [(("F", 4),), (("E", 6),)]]
    + [((("E", 7),), 1), ((("E", 8),), 1)],
)
def test_weyl_dim_matches_the_rational_formula(spec, top):
    rs = build_root_system(spec)
    for alpha, coroot in zip(rs.positive_roots, rs.positive_coroots):
        assert coroot == rs.coroot_coefficients(alpha)
        # <omega_i, coroot of alpha> is its coefficient on the i-th simple coroot
        assert coroot == tuple(rs.pairing(rs.fundamental_weight(i), alpha) for i in range(rs.n))
    for lam in dominant_weights_up_to(rs, top):
        assert weyl_dim(rs, lam) == _rational_weyl_dim(rs, lam), lam


def test_fundamental_modules_have_formula_dimensions():
    for spec in [[("A", 3)], [("A", 4)], [("C", 2)]]:
        alg = _algebra(spec)
        rs = alg.root_system
        for i in range(rs.n):
            mod = build_irrep(alg, rs.fundamental_weight(i), math.inf)
            assert mod.dim == weyl_dim(rs, rs.fundamental_weight(i))
            assert mod.weights[0] == rs.fundamental_weight(i).coords


def test_build_irrep_dimensions():
    alg = _algebra([("A", 1)])
    assert build_irrep(alg, Weight((2,))).dim == 3
    alg3 = _algebra([("A", 3)])
    assert build_irrep(alg3, Weight((0, 1, 0))).dim == 6
    algc = _algebra([("C", 2)])
    assert build_irrep(algc, Weight((0, 1))).dim == 5
    assert build_irrep(algc, Weight((1, 1))).dim == 16


def test_build_irrep_trivial_module():
    alg = _algebra([("A", 2)])
    mod = build_irrep(alg, Weight((0, 0)))
    assert mod.dim == 1 and mod.weights == [(0, 0)]


def test_build_irrep_rejects_bad_weights():
    alg = _algebra([("A", 2)])
    with pytest.raises(NotDominant):
        build_irrep(alg, Weight((-1, 0)))
    with pytest.raises(DimensionCap):
        build_irrep(alg, Weight((1, 1)), dim_cap=7)


def _a2_tu_prime():
    sub = build_subgroup(get_preset("tu-prime"))
    return sub, sub.algebra


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda sub, alg: sub.tau.restrict((1,)), "a vector of 1 coordinates is not a weight of rank 2"),
        (lambda sub, alg: sub.tau.restrict((1, 0, 7)), "a vector of 3 coordinates is not a weight of rank 2"),
        (lambda sub, alg: weyl_dim(sub.root_system, Weight((1,))),
         "a vector of 1 coordinates is not a weight of A2"),
        (lambda sub, alg: weyl_dim(sub.root_system, Weight((1, 0, 5))),
         "a vector of 3 coordinates is not a weight of A2"),
        (lambda sub, alg: build_irrep(alg, (1,)), "a vector of 1 coordinates is not a weight of A2"),
        (lambda sub, alg: build_irrep(alg, (1, 0, 0)), "a vector of 3 coordinates is not a weight of A2"),
        (lambda sub, alg: sub.root_system.dual_weight(Weight((1, 0, 5))),
         "a vector of 3 coordinates is not a weight of A2"),
        (lambda sub, alg: semi_invariant_dim(build_irrep(alg, (1, 0)), sub, (0,)),
         "a vector of 1 coordinates is not a character of S (d = 2)"),
        (lambda sub, alg: semi_invariant_dim(build_irrep(alg, (1, 0)), sub, (0, 0, 0)),
         "a vector of 3 coordinates is not a character of S (d = 2)"),
    ],
    ids=["restrict-short", "restrict-long", "weyl_dim-short", "weyl_dim-long", "build_irrep-short",
         "build_irrep-long", "dual_weight-long", "semi_invariant_dim-short", "semi_invariant_dim-long"],
)
def test_vectors_of_the_wrong_length_are_refused(call, message):
    sub, alg = _a2_tu_prime()
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        call(sub, alg)


def test_representation_property_of_constructed_modules():
    alg = _algebra([("A", 2)])
    for lam in [(1, 0), (1, 1), (2, 0)]:
        mod = build_irrep(alg, Weight(lam))
        assert representation_property_check(alg, mod.actions)
    algc = _algebra([("C", 2)])
    mod = build_irrep(algc, Weight((0, 1)))
    assert representation_property_check(algc, mod.actions)


def _assert_integral_module(alg, lam):
    """The module is built on a Z-form: every entry of every basis key's
    matrix, derived root vectors included, is an int, and every divided
    power x^m / m! of a root vector keeps the lattice."""
    rs = alg.root_system
    mod = build_irrep(alg, lam)
    assert mod.dim == weyl_dim(rs, lam)
    assert set(mod.actions) == set(alg.basis_keys())
    for key, cols in mod.actions.items():
        assert all(type(x) is int for col in cols for x in col.values())
        for j in range(mod.dim) if key[0] == "e" else ():
            v, m = {j: 1}, 1
            while v := linalg.apply(cols, v):
                v, m = linalg.divide(v, m), m + 1
    assert representation_property_check(alg, mod.actions)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=st.sampled_from(POOL_RANK3), coords=st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_modules_are_integer_matrices_on_fuzzed_types(spec, coords):
    rs = build_root_system(spec)
    lam = Weight(tuple(coords[: rs.n]))
    assume(weyl_dim(rs, lam) <= 300)
    _assert_integral_module(build_algebra(rs), lam)


def test_f4_omega3_is_an_integer_module():
    alg = _algebra([("F", 4)])
    _assert_integral_module(alg, alg.root_system.fundamental_weight(2))


def test_lowering_then_raising_matches_bracket_on_highest_vector():
    rng = random.Random(31)
    for spec, lam in [([("A", 2)], (1, 1)), ([("C", 2)], (1, 1)), ([("A", 3)], (1, 0, 1))]:
        alg = _algebra(spec)
        rs = alg.root_system
        mod = build_irrep(alg, Weight(lam))
        v0 = {0: 1}  # the highest vector
        for _ in range(12):
            a = rng.choice(rs.positive_roots)
            b = rng.choice(rs.positive_roots)
            lowered = linalg.apply(mod.actions[("e", (-b).coords)], v0)
            lhs = linalg.apply(mod.actions[("e", a.coords)], lowered)
            rhs = linalg.apply(mod.act_element(alg.bracket(alg.e(a), alg.e(-b))), v0)
            assert lhs == rhs


def test_semi_invariant_highest_vector_witness():
    sub = build_subgroup(get_preset("borel"))
    rs = sub.root_system
    lam = Weight((2, 1))
    mod = build_irrep(sub.algebra, lam)
    rec = semi_invariant_dim(mod, sub, sub.tau.restrict(lam))
    assert rec.dim == 1
    # any other character of the full torus has no invariant vector
    other = tuple(c - 1 for c in sub.tau.restrict(lam))
    assert semi_invariant_dim(mod, sub, other).dim == 0


def test_semi_invariant_weight_spaces_of_torus():
    sub = build_subgroup(get_preset("sl2-torus"))
    mod = build_irrep(sub.algebra, Weight((3,)))
    dims = {chi: semi_invariant_dim(mod, sub, chi).dim for chi in [(-3,), (-1,), (1,), (3,), (0,), (2,)]}
    assert dims == {(-3,): 1, (-1,): 1, (1,): 1, (3,): 1, (0,): 0, (2,): 0}


def test_sp4_preset_zero_character_generator_exists():
    sub = build_subgroup(get_preset("sl4-sp4borel"))
    mod = build_irrep(sub.algebra, Weight((0, 1, 0)))
    assert semi_invariant_dim(mod, sub, (0, 0)).dim == 1


def test_witness_vectors_on_presets():
    for name in ["sl2-torus", "tu-prime", "sl4-sp4borel"]:
        sub = build_subgroup(get_preset(name))
        table = active_roots(sub)
        rs = sub.root_system
        lams = anchor_weights(table, rs)
        for j in range(table.m):
            mod = build_irrep(sub.algebra, lams[j])
            w = semi_invariant_witness(mod, sub, table, j)
            assert any(x != 0 for x in w)
            assert annihilated_by_nil(mod, sub, w)
            expect = tuple(
                a - b for a, b in zip(sub.tau.restrict(lams[j]), table.families[j].phi)
            )
            assert vector_s_weight(mod, sub, w) == expect


def test_witness_with_singleton_family_is_lowered_highest_vector():
    sub = build_subgroup(get_preset("sl2-torus"))
    table = active_roots(sub)
    mod = build_irrep(sub.algebra, Weight((1,)))
    w = semi_invariant_witness(mod, sub, table, 0)
    lowered = linalg.apply(mod.actions[("e", (-1,))], {0: 1})
    ratios = {w[i] / y for i, y in lowered.items()}
    assert len(ratios) == 1
    assert vector_s_weight(mod, sub, w) == (-1,)


def test_witness_index_out_of_range():
    sub = build_subgroup(get_preset("sl2-torus"))
    table = active_roots(sub)
    mod = build_irrep(sub.algebra, Weight((1,)))
    with pytest.raises(IndexError):
        semi_invariant_witness(mod, sub, table, 5)


@pytest.mark.parametrize("check", [annihilated_by_nil, vector_s_weight])
def test_witness_checks_refuse_a_vector_of_the_wrong_length(check):
    # borel on A2, V(1, 0) of dim 3: a short vector was read as if zero-padded,
    # a long one had its extra coordinates ignored, both without an error
    sub = build_subgroup(get_preset("borel"))
    mod = build_irrep(sub.algebra, Weight((1, 0)))
    assert mod.dim == 3 and check(mod, sub, [1, 0, 0]) in (True, (1, 0))
    for vec in ([1, 0], [1, 0, 0, 5], [], [0, 0, 1, 0]):
        with pytest.raises(ValueError, match=f"a vector of {len(vec)} coordinates is not in a module of dimension 3"):
            check(mod, sub, vec)


def test_enumerate_maximal_unipotent_on_sl2():
    sub = build_subgroup(get_preset("borel", (("A", 1),)))
    records = enumerate_semigroup(sub, 2)
    assert [(r.lam.coords, r.chi, r.dim) for r in records] == [
        ((0,), (0,), 1),
        ((1,), (1,), 1),
        ((2,), (2,), 1),
    ]


def test_enumerate_sl2_torus():
    sub = build_subgroup(get_preset("sl2-torus"))
    rs = sub.root_system
    records = enumerate_semigroup(sub, 3)
    assert all(r.dim == 1 for r in records)
    got = {r.pair(rs) for r in records}
    assert got == {((k,), (l,)) for k in range(4) for l in range(-k, k + 1, 2)}


def test_enumerate_requires_spherical():
    sub = build_subgroup(get_preset("sl2-trivial"))
    with pytest.raises(NotSpherical):
        enumerate_semigroup(sub, 2)


def test_records_stream_ignores_the_verdict_and_keeps_zero_dimensions():
    sub = build_subgroup(get_preset("sl2-trivial"))
    records = semi_invariant_records(sub, 2)
    assert [(r.lam.coords, r.chi, r.dim) for r in records] == [((0,), (), 1), ((1,), (), 2), ((2,), (), 3)]
    with pytest.raises(NotSpherical):
        enumerate_semigroup(sub, 2)


def test_records_stream_drops_only_the_modules_it_built(monkeypatch):
    sub = build_subgroup(get_preset("borel", (("A", 2),)))
    alg = sub.algebra
    mod = build_irrep(alg, Weight((2, 1)))  # dim 15 > dim g = 8: alive while this caller holds it
    built = _counting_builds(monkeypatch)
    assert len(list(semi_invariant_records(sub, 3))) > len(alg._modules)
    # the stream reused the held module, and of what it built it left alive only what the algebra keeps
    assert Weight((2, 1)) not in built and any(weyl_dim(alg.root_system, lam) > 8 for lam in built)
    assert set(alg._modules) == {m.lam.coords for m in alg._small} | {(2, 1)} and alg._modules[(2, 1)] is mod


def test_the_stream_frees_each_module_larger_than_the_algebra_before_it_builds_the_next(monkeypatch):
    sub = build_subgroup(get_preset("sl4-sp4borel"))
    dim_g = _dim_g(sub.root_system)
    large, build = [], oracle._build_irreducible  # a weak reference to each module built larger than dim g

    def watching(algebra, lam):
        assert all(ref() is None for ref in large), f"a module larger than dim g is alive while V{lam.coords} is built"
        mod = build(algebra, lam)
        if mod.dim > dim_g:
            large.append(weakref.ref(mod))
        return mod

    monkeypatch.setattr(oracle, "_build_irreducible", watching)
    assert len(list(semi_invariant_records(sub, 3))) > 0
    assert len(large) >= 5


def test_enumeration_matches_free_semigroup_on_sp4_preset():
    sub = build_subgroup(get_preset("sl4-sp4borel"))
    rs = sub.root_system
    table = active_roots(sub)
    gens = generators(sub, table)
    records = enumerate_semigroup(sub, 2)
    assert all(r.dim <= 1 for r in records)
    assert {r.pair(rs) for r in records} == bounded_members(gens, 2)


def test_dominant_weight_enumeration_is_ordered():
    rs = build_root_system([("A", 2)])
    ws = dominant_weights_up_to(rs, 2)
    assert [w.coords for w in ws] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_open_orbit_on_presets():
    for name, expected in [("borel", True), ("sl2-torus", True), ("sl2-trivial", False)]:
        sub = build_subgroup(get_preset(name))
        assert open_orbit_check(sub, trials=60) is expected
    sub = build_subgroup(get_preset("sl4-sp4borel"))
    assert open_orbit_check(sub, trials=60) is True


def test_open_orbit_agrees_with_criterion_on_fuzzed_rank3():
    from solvsph import check_spherical
    from solvsph.fuzzing import random_mixed_config

    pool = [(("A", 1),), (("A", 2),), (("A", 3),), (("C", 2),)]
    rng = random.Random(4711)
    for k in range(12):
        sub = build_subgroup(random_mixed_config(rng, pool))
        verdict = check_spherical(sub).spherical
        assert open_orbit_check(sub, trials=200, seed=k) == verdict


def test_open_orbit_agrees_with_criterion_on_every_type():
    # a spherical config is witnessed by its first trial
    from solvsph.fuzzing import POOL_RANK3, random_mixed_config

    rng = random.Random(1980)
    for k in range(300):
        sub = build_subgroup(random_mixed_config(rng, POOL_RANK3))
        spherical = check_spherical(sub).spherical
        assert open_orbit_check(sub, trials=1 if spherical else 200, seed=k) == spherical


@pytest.mark.parametrize("group", [[("G", 2)], [("B", 3)], [("C", 3)], [("D", 4)], [("F", 4)], [("E", 6)],
                                   [("E", 7)], [("A", 1), ("C", 2)]], ids=lambda g: "x".join(f"{t}{r}" for t, r in g))
def test_open_orbit_agrees_with_criterion_on_the_presets_of_larger_types(group):
    # a spherical preset is witnessed by its first trial
    for name in ("borel", "maximal-unipotent", "tu-prime"):
        sub = build_subgroup(get_preset(name, group))
        spherical = check_spherical(sub).spherical
        assert open_orbit_check(sub, trials=1 if spherical else 200) == spherical


@pytest.mark.parametrize("spec", [list(spec) for spec in POOL_RANK3] + [
    [("D", 4)], [("B", 4)], [("C", 4)], [("D", 5)], [("F", 4)], [("E", 6)], [("E", 7)], [("E", 8)], [("A", 1), ("C", 2)]
], ids=lambda g: "x".join(f"{t}{r}" for t, r in g))
def test_each_simple_lowering_operator_is_monomial_with_zero_fourth_power(spec):
    # the two facts the orbit test's draw relies on, read from the bracket table
    alg = _algebra(spec)
    for a in alg.root_system.simple_roots:
        f = {("e", (-a).coords): 1}
        for key in alg.basis_keys():
            assert len(alg.bracket_terms(f, {key: 1})) <= 1
            image = {key: 1}
            for _ in range(4):
                image = alg.bracket_terms(f, image)
            assert image == {}, (a, key)


def test_kept_orbit_columns_give_the_answers_of_fresh_ones(monkeypatch):
    from solvsph.fuzzing import random_mixed_config

    rng = random.Random(5)
    configs = [get_preset(name) for name in preset_names()] + [random_mixed_config(rng) for _ in range(100)]
    subs = [build_subgroup(config) for config in configs]
    kept = [open_orbit_check(sub, seed=k) for k, sub in enumerate(subs)]
    columns = {sub.algebra: sub.algebra._orbit for sub in subs}
    assert all(open_orbit_check(sub, seed=k) is kept[k] for k, sub in enumerate(subs))
    assert all(sub.algebra._orbit is columns[sub.algebra] for sub in subs)  # built once per algebra
    monkeypatch.setattr(oracle, "_derived", lambda algebra, slot, derive, *inputs: derive())
    assert [open_orbit_check(sub, seed=k) for k, sub in enumerate(subs)] == kept
    assert kept == [check_spherical(sub).spherical for sub in subs]


def test_rebinding_the_constants_rebuilds_the_orbit_columns(monkeypatch):
    sub = build_subgroup(get_preset("tu-prime", (("A", 2),)))
    alg = sub.algebra
    assert open_orbit_check(sub) is True
    tables = alg._orbit[1]
    monkeypatch.setattr(alg, "_brackets", MappingProxyType(dict(alg._brackets)))  # equal, but another object
    assert open_orbit_check(sub) is True
    assert alg._orbit[1] is not tables and alg._orbit[1] == tables
    # a constant N(-a_i, b) that the column of e(b) in ad e(-a_i) reads
    negative_simple = [(-r).coords for r in alg.root_system.simple_roots]
    (a, b), n = min((pair, n) for pair, n in constants(alg).items() if pair[0] in negative_simple)
    monkeypatch.setattr(alg, "_brackets", with_constant(alg, a, b, -n))
    open_orbit_check(sub)
    index, _, _, letters = alg._orbit[1]
    chains = dict(letters[negative_simple.index(a)])  # column -> its steps (row, k, N_1...N_k / k!)
    row, k, w = chains[index["e", b]][0]
    assert (row, k, w) == (index["e", tuple(map(operator.add, a, b))], 1, -n % oracle.PRIME)
    assert alg._orbit[1] != tables


def test_an_ad_column_with_two_entries_is_refused():
    # the orbit test applies each ad e(-a_i) as one (row, constant) per column
    alg = ChevalleyAlgebra(build_root_system([("A", 2)]))  # private: nothing else reads its table
    pair = (("e", (-1, 0)), ("e", (1, 1)))
    alg._brackets = MappingProxyType({**alg._brackets, pair: alg._brackets[pair] + ((("h", 0), 1),)})
    with pytest.raises(AssertionError, match=r"ad e\(-a1\) is not monomial"):
        oracle._orbit_tables(alg)


@pytest.mark.parametrize(
    "spec", [*POOL_RANK3, (("G", 2),), (("F", 4),), (("E", 6),), (("E", 7),), (("E", 8),), (("A", 1), ("C", 2))]
)
def test_the_orbit_chains_exponentiate_like_the_dense_series(spec):
    # exp(c ad e(-a_i)) = sum over k <= 3 of c^k (ad e(-a_i))^k / k! mod p, densely from bracket_keys
    alg, p = _algebra(spec), oracle.PRIME
    index, _, _, letters = oracle._orbit_tables(alg)
    keys = alg.basis_keys()
    unit_rows = [[int(i == j) for j in range(len(keys))] for i in range(len(keys))]
    for a, chains in zip(alg.root_system.simple_roots, letters):
        f = ("e", (-a).coords)
        powers = []  # per basis key y: (ad f)^k y for k = 0..3, as dicts key -> int
        for y in keys:
            powers.append([{y: 1}])
            for _ in range(3):
                image = {}
                for key, x in powers[-1][-1].items():
                    for z, n in alg.bracket_keys(f, key).items():
                        image[z] = image.get(z, 0) + n * x
                powers[-1].append(image)
        for c in (1, 2, 987654321):
            dense = [[0] * len(keys) for _ in keys]
            for j, images in enumerate(powers):
                for k, image in enumerate(images):
                    for key, x in image.items():
                        dense[index[key]][j] += x * c**k * pow(math.factorial(k), -1, p)
            assert oracle.exp_nilpotent(chains, unit_rows, c) == [[x % p for x in row] for row in dense], (spec, a, c)


def test_a_chain_derivation_that_refuses_keeps_nothing(monkeypatch):
    alg = ChevalleyAlgebra(build_root_system([("A", 2)]))  # private: nothing else reads its slots
    sub = validate(alg, [[1, 0], [0, 1]], [])
    derive = oracle._chains
    monkeypatch.setattr(oracle, "_chains", lambda cols: derive([(j, 1) for j in range(len(cols))]))  # the identity
    for _ in range(2):
        with pytest.raises(AssertionError, match="operator is not nilpotent"):
            open_orbit_check(sub)
        assert alg._orbit is None
    monkeypatch.setattr(oracle, "_chains", derive)
    assert open_orbit_check(sub) is True and alg._orbit is not None


@pytest.mark.parametrize("trials", [0, -4, 2.0, True, "200", None])
def test_open_orbit_check_refuses_trials_that_are_not_a_positive_int(trials):
    # tu-prime on A2 is spherical: no trial may end in a negative
    sub = build_subgroup(get_preset("tu-prime", (("A", 2),)))
    with pytest.raises(ValueError, match="open-orbit trials must be an int of at least 1"):
        open_orbit_check(sub, trials=trials)
    assert open_orbit_check(sub, trials=1) is True


def test_open_orbit_never_inverts_input_mod_p(tmp_path):
    # the coefficient is the prime of the orbit test itself
    text = "[group]\nA 2\n[torus]\n1 1\n[nilradical]\n(1 0) 2147483647, (0 1) 1\n"
    sub = build_subgroup(parse_config_text(text))
    assert check_spherical(sub).spherical
    assert open_orbit_check(sub) is True
    path = tmp_path / "job.cfg"
    path.write_text(text)
    assert cli.main(["verify", str(path), "--height", "1"]) == 0


def test_rank_mod_p_matches_rank_on_small_integer_matrices():
    p = 2**31 - 1
    rng = random.Random(77)
    for case in range(600):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        if case % 3 == 0:
            nr = max(nr, nc + 1)  # more rows than columns
        span = rng.choice([3, p, 3 * p])  # entries negative, and at least p
        rows = [[rng.randint(-span, span) for _ in range(nc)] for _ in range(nr)]
        for _ in range(rng.randint(0, 2)):
            rows.insert(rng.randrange(nr + 1), [0] * nc)  # zero rows
            rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))  # repeated rows
        want = linalg.rank(rows)  # unless p divides every maximal minor, about 1/p likely here
        assert linalg.rank_mod_p(rows, p) == want, rows
        congruent = [x + p * rng.randint(-2, 2) for x in rng.choice(rows)]  # a row again, mod p
        assert linalg.rank_mod_p(rows + [congruent], p) == want, rows
    # full rank mod p implies full rank over Q, not the other way round: p
    # divides every maximal minor
    assert linalg.rank([[1, 1], [1, 1 + p]]) == 2
    assert linalg.rank_mod_p([[1, 1], [1, 1 + p]], p) == 1
    assert linalg.rank_mod_p([[p, 2 * p, 0], [1, 2, 3 * p]], p) == 1 < linalg.rank([[p, 2 * p, 0], [1, 2, 3 * p]])
    assert linalg.rank_mod_p([], p) == 0 == linalg.rank_mod_p([[0, 0], [p, -p]], p)


def _dense_semi_invariant_dim(mod, sub, mats, chi):
    """Reference: rank of the dense rows of the unipotent basis matrices."""
    cols = [j for j in range(mod.dim) if sub.tau.restrict(mod.weights[j]) == chi]
    rows = []
    for a in mats:
        rows += [row for r in range(mod.dim) if any(row := [a[j].get(r, 0) for j in cols])]
    return len(cols) - (linalg.rank(rows) if rows else 0)


def test_semi_invariant_dim_matches_dense_rank_on_fuzzed_types():
    from solvsph.fuzzing import POOL_RANK3, random_mixed_config

    rng = random.Random(2024)
    kernels = 0
    for _ in range(8):
        sub = build_subgroup(random_mixed_config(rng, POOL_RANK3))
        for lam in dominant_weights_up_to(sub.root_system, 2):
            mod = build_irrep(sub.algebra, lam)
            mats = [mod.act_element(x) for x in sub.nil_basis]
            for chi in sorted({sub.tau.restrict(w) for w in mod.weights}):
                dense = _dense_semi_invariant_dim(mod, sub, mats, chi)
                assert semi_invariant_dim(mod, sub, chi).dim == dense, (sub, lam, chi)
                kernels += 1
            # a random vector is killed exactly when every dense product vanishes
            vec = [rng.choice([0, 0, 1, -2]) for _ in range(mod.dim)]
            v = {j: x for j, x in enumerate(vec) if x}
            assert annihilated_by_nil(mod, sub, vec) == all(not linalg.apply(a, v) for a in mats)
            assert annihilated_by_nil(mod, sub, [int(j == 0) for j in range(mod.dim)])
    assert kernels > 250, kernels


def _counting_echelons(monkeypatch):
    """A list that grows by one on every call of ``linalg.echelon``."""
    calls, original = [], linalg.echelon

    def counting(vectors):
        calls.append(1)
        return original(vectors)

    monkeypatch.setattr(linalg, "echelon", counting)
    return calls


def test_module_build_reduces_each_weight_space_below_the_top_once(monkeypatch):
    from solvsph.oracle import _build_irreducible

    calls = _counting_echelons(monkeypatch)
    a2 = build_algebra(build_root_system([("A", 2)]))
    assert _build_irreducible(a2, Weight((0, 0))).dim == 1 and not calls
    assert _build_irreducible(a2, Weight((1, 0))).dim == 3 and len(calls) == 2
    rng = random.Random(21)
    built = 0
    while built < 25:
        rs = build_root_system(rng.choice(POOL_RANK3))
        lam = Weight(tuple(rng.randint(0, 3) for _ in range(rs.n)))
        if weyl_dim(rs, lam) > 300:
            continue
        calls.clear()
        mod = _build_irreducible(build_algebra(rs), lam)
        assert len(calls) == len(mod.by_weight) - 1, (rs.describe(), lam)
        built += 1


def _counting_builds(monkeypatch):
    """A list of the weights ``oracle._build_irreducible`` is called on: the
    builds the module memo does not answer."""
    built, original = [], oracle._build_irreducible

    def counting(algebra, lam):
        built.append(lam)
        return original(algebra, lam)

    monkeypatch.setattr(oracle, "_build_irreducible", counting)
    return built


def _dim_g(rs):
    return 2 * len(rs.positive_roots) + rs.n


@pytest.mark.parametrize(
    "spec",
    [[("A", 1)], [("A", 2)], [("B", 2)], [("G", 2)], [("A", 3)], [("B", 3)], [("C", 3)],
     [("A", 1), ("B", 2)], [("D", 4)], [("F", 4)]],
    ids=lambda spec: "x".join(f"{t}{n}" for t, n in spec),
)
def test_a_memo_hit_equals_a_cold_build(spec, monkeypatch):
    cold_build = oracle._build_irreducible
    built = _counting_builds(monkeypatch)
    rs = build_root_system(spec)
    lams = [lam for lam in dominant_weights_up_to(rs, 3) if weyl_dim(rs, lam) <= _dim_g(rs)]
    assert len(lams) >= 3
    for lam in lams:
        build_irrep(build_algebra(rs), lam)  # the memo holds V(lam) from here on
        built.clear()
        alg = build_algebra(rs)
        warm, cold = build_irrep(alg, lam), cold_build(build_algebra(rs), lam)
        assert not built and warm.algebra is alg
        assert warm.weights == cold.weights and warm.by_weight == cold.by_weight, (spec, lam)
        assert warm.actions == cold.actions, (spec, lam)


@pytest.mark.parametrize("factor", [-1, 2])
def test_an_algebra_with_a_corrupted_extraspecial_constant_misses_the_memo(factor, monkeypatch):
    rs, lam = build_root_system([("A", 2)]), Weight((1, 0))
    good = build_algebra(rs)
    build_realization(good)  # the memo holds V(1, 0), A2's checked fundamental
    stored = dict(good._modules)
    built = _counting_builds(monkeypatch)
    bad = ChevalleyAlgebra(rs)
    # negated, the constant gives a module the bracket check refuses; doubled, a failed build
    a, b = rs.decompositions[(1, 1)][0]
    bad._brackets = with_constant(bad, a, b, factor * bad.structure_constant(a, b))
    with pytest.raises(AssertionError):
        build_realization(bad)
    assert built == [lam]
    if factor == 2:  # a build that raises is never stored
        assert not bad._modules
    assert dict(good._modules) == stored
    mod = build_irrep(good, lam)
    assert built == [lam] and mod.algebra is good
    assert mod.actions == oracle._build_irreducible(ChevalleyAlgebra(rs), lam).actions


def test_the_memo_holds_no_module_larger_than_the_algebra(monkeypatch, capsys):
    monkeypatch.setattr(chevalley, "_ALGEBRAS", {})
    built = _counting_builds(monkeypatch)
    assert cli.main(["verify", "--preset", "sl4-sp4borel", "--height", "3"]) == 0
    capsys.readouterr()
    (alg,) = chevalley._ALGEBRAS.values()
    rs = alg.root_system
    dims = [weyl_dim(rs, lam) for lam in built]
    assert rs.describe() == "A3" and _dim_g(rs) == 15 and max(dims) == 64
    assert sorted(mod.dim for mod in alg._modules.values()) == sorted(d for d in dims if d <= 15)


def test_shared_modules_stay_intact_after_every_preset_is_verified(monkeypatch, capsys):
    # one process verifies every preset; each module its algebra keeps is then
    # still what a cold build gives, and holds one S-weight grouping at most
    monkeypatch.setattr(chevalley, "_ALGEBRAS", {})
    codes = {name: cli.main(["verify", "--preset", name, "--height", "2"]) for name in preset_names()}
    capsys.readouterr()
    assert codes == {**dict.fromkeys(preset_names(), 0), "sl2-trivial": 1}  # the one non-spherical preset
    kept = [(alg, mod) for alg in chevalley._ALGEBRAS.values() for mod in alg._modules.values()]
    assert len(kept) >= 10
    for alg, mod in kept:
        cold = oracle._build_irreducible(ChevalleyAlgebra(alg.root_system), mod.lam)
        assert mod.weights == cold.weights and mod.by_weight == cold.by_weight, mod
        assert mod.actions == cold.actions, mod
        rows, groups = mod._s_weights
        regrouped = {}
        for j, w in enumerate(mod.weights):
            if rows is not None:
                regrouped.setdefault(tuple(sum(map(operator.mul, row, w)) for row in rows), []).append(j)
        assert groups == regrouped, mod


def test_a_memo_hit_still_belongs_to_its_own_algebra():
    from solvsph import AlgebraMismatch, validate

    rs = build_root_system([("A", 2)])
    shared, private = build_algebra(rs), ChevalleyAlgebra(rs)
    borel = validate(shared, [[1, 0], [0, 1]], [])
    mine = build_irrep(shared, Weight((1, 1)))
    again = build_irrep(build_algebra(rs), Weight((1, 1)))  # the memo's module
    theirs = build_irrep(private, Weight((1, 1)))  # built for the private algebra
    assert again is mine and mine.algebra is shared and theirs.algebra is private
    assert theirs.actions == mine.actions and theirs.actions is not mine.actions
    chi = borel.tau.restrict(mine.weights[0])
    assert semi_invariant_dim(mine, borel, chi).dim == 1
    with pytest.raises(AlgebraMismatch):
        semi_invariant_dim(theirs, borel, chi)


def test_semi_invariant_dim_groups_by_module_and_torus():
    from solvsph import validate

    alg = build_algebra(build_root_system([("A", 2)]))
    borel = validate(alg, [[1, 0], [0, 1]], [])
    diagonal = validate(alg, [[1, 1]], [[((1, 0), 1), ((0, 1), -1)]])
    big, small = build_irrep(alg, Weight((1, 1))), build_irrep(alg, Weight((2, 0)))
    order = [(big, borel), (big, diagonal), (big, borel), (small, diagonal), (big, diagonal),
             (small, borel), (small, diagonal), (big, borel)]
    for mod, sub in order:
        mats = [mod.act_element(x) for x in sub.nil_basis]
        for chi in sorted({sub.tau.restrict(w) for w in mod.weights}):
            assert semi_invariant_dim(mod, sub, chi).dim == _dense_semi_invariant_dim(mod, sub, mats, chi)


def test_build_irrep_builds_each_weight_once_and_keeps_the_cap():
    alg = _algebra([("A", 2)])
    mod = build_irrep(alg, Weight((1, 1)))
    assert build_irrep(alg, (1, 1)) is mod and alg._modules[(1, 1)] is mod
    fundamental = build_irrep(alg, alg.root_system.fundamental_weight(0), math.inf)
    assert build_irrep(alg, Weight((1, 0))) is fundamental
    with pytest.raises(DimensionCap):
        build_irrep(alg, Weight((1, 1)), dim_cap=7)


def test_dominant_weights_up_to_matches_sorted_compositions():
    import itertools

    for n, height in [(1, 5), (2, 4), (3, 3), (4, 2), (8, 2)]:
        rs = build_root_system([("A", n)])
        expected = sorted(
            (c for c in itertools.product(range(height + 1), repeat=n) if sum(c) <= height),
            key=lambda c: (sum(c), c),
        )
        assert [w.coords for w in dominant_weights_up_to(rs, height)] == expected


def test_the_chain_derivation_refuses_an_operator_that_is_not_nilpotent():
    from solvsph.oracle import _chains, exp_nilpotent

    # monomial columns (row, constant) or None; the vectors as rows, None for zero
    assert exp_nilpotent(_chains([None, (0, 2)]), [None, [1]]) == [[2], [1]]
    with pytest.raises(AssertionError, match="operator is not nilpotent"):
        _chains([(1, 1), (0, 1)])
    with pytest.raises(AssertionError, match="operator is not nilpotent"):
        _chains([(1, 1), (2, 1), (3, 1), (4, 1), None])  # a fourth step
    assert [len(steps) for _, steps in _chains([(1, 1), (2, 1), (3, 1), None])] == [3, 2, 1]


def test_the_default_dimension_cap_is_the_one_constant():
    import inspect

    from solvsph import JobOptions, oracle

    assert JobOptions().dim_cap == oracle.DIM_CAP == 20000
    for f in (build_irrep, enumerate_semigroup):
        assert inspect.signature(f).parameters["dim_cap"].default is oracle.DIM_CAP
