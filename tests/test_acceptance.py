"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact (integers, Fractions, set equality); the only
tolerances are the per-criterion runtime budgets.
"""

import itertools
import math
import random
import time

from solvsph import (
    Weight,
    active_roots,
    anchor_weights,
    annihilated_by_nil,
    bounded_members,
    build_algebra,
    build_irrep,
    build_root_system,
    build_subgroup,
    check_spherical,
    enumerate_semigroup,
    generators,
    get_preset,
    open_orbit_check,
    representation_property_check,
    semi_invariant_witness,
    vector_s_weight,
    verify_active_axioms,
)
from solvsph.fuzzing import POOL_ORACLE_RANK2, random_mixed_config, random_spherical_config
from solvsph.linalg import rank

SPHERICAL_PRESETS = ["borel", "maximal-unipotent", "tu-prime", "sl4-sp4borel", "sl2-torus"]
ALL_PRESETS = SPHERICAL_PRESETS + ["sl2-trivial"]


def _report(number, label, t0, limit):
    elapsed = time.time() - t0
    print(f"[PASS] criterion {number}: {label} ({elapsed:.2f}s < {limit}s)")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def test_criterion_1_sp4_borel_generators():
    t0 = time.time()
    sub = build_subgroup(get_preset("sl4-sp4borel"))
    table = active_roots(sub)
    gens = generators(sub, table)
    chi1 = sub.tau.restrict(Weight((1, 0, 0)))
    chi2 = sub.tau.restrict(Weight((0, 1, 0)))
    expected = {
        ((0, 0, 1), chi1),
        ((0, 1, 0), chi2),
        ((1, 0, 0), chi1),
        ((1, 0, 1), chi2),
        ((0, 1, 0), (0, 0)),
    }
    got = {(w.coords, chi) for w, chi in gens.all_generators()}
    assert got == expected
    _report(1, "sp4-borel preset yields exactly the five expected generators", t0, 1.0)


def test_criterion_2_derived_unipotent_generators():
    t0 = time.time()
    for n in (1, 2, 3):
        sub = build_subgroup(get_preset("tu-prime", (("A", n),)))
        rs = sub.root_system
        gens = generators(sub, active_roots(sub))
        expected = set()
        for i in range(n):
            dual = rs.dual_weight(rs.fundamental_weight(i)).coords
            omega = tuple(int(i == j) for j in range(n))
            alpha = tuple(rs.cartan[k][i] for k in range(n))
            expected.add((dual, omega))
            expected.add((dual, tuple(a - b for a, b in zip(omega, alpha))))
        got = {(w.coords, chi) for w, chi in gens.all_generators()}
        assert got == expected, n
    _report(2, "tu-prime on A1..A3 yields the dual/shifted generator pairs", t0, 1.0)


def test_criterion_3_rank_on_presets_and_fuzzed_configs():
    t0 = time.time()
    rng = random.Random(20260811)
    configs = [get_preset(name) for name in SPHERICAL_PRESETS]
    configs += [random_spherical_config(rng) for _ in range(100)]
    for config in configs:
        sub = build_subgroup(config)
        gens = generators(sub, active_roots(sub))
        assert len(gens.all_generators()) == gens.n + gens.m
        vectors = [list(w.coords) + list(chi) for w, chi in gens.all_generators()]
        assert rank(vectors) == gens.n + gens.m
    _report(3, "generator count and rank equal n + m on presets and 100 fuzzed configs", t0, 30.0)


def test_criterion_4_oracle_equivalence():
    t0 = time.time()
    cases = [
        ("sl2-torus", None, 3),
        ("tu-prime", (("A", 2),), 3),
        ("sl4-sp4borel", None, 2),
        ("maximal-unipotent", (("A", 2),), 3),
    ]
    total = 0
    for name, components, bound in cases:
        sub = build_subgroup(get_preset(name, components))
        rs = sub.root_system
        records = enumerate_semigroup(sub, bound)
        assert all(r.dim <= 1 for r in records), name
        gens = generators(sub, active_roots(sub))
        members = bounded_members(gens, bound)
        assert {r.pair(rs) for r in records} == members, name
        for pair in members:
            assert gens.decompose((Weight(pair[0]), pair[1])) is not None
        total += len(records)
    _report(4, f"brute-force enumeration equals the free semigroup ({total} pairs)", t0, 60.0)


def test_criterion_5_witness_vectors():
    t0 = time.time()
    count = 0
    for name in SPHERICAL_PRESETS:
        sub = build_subgroup(get_preset(name))
        rs = sub.root_system
        table = active_roots(sub)
        if table.m == 0:
            continue
        lams = anchor_weights(table, rs)
        for j in range(table.m):
            mod = build_irrep(sub.algebra, lams[j])
            w = semi_invariant_witness(mod, sub, table, j)
            assert any(x != 0 for x in w), (name, j)
            assert annihilated_by_nil(mod, sub, w), (name, j)
            expected = tuple(
                a - b for a, b in zip(sub.tau.restrict(lams[j]), table.families[j].phi)
            )
            assert vector_s_weight(mod, sub, w) == expected, (name, j)
            count += 1
    _report(5, f"all {count} witness vectors are nonzero semi-invariants", t0, 10.0)


def test_criterion_6_sphericity_cross_check():
    t0 = time.time()
    rng = random.Random(6021023)
    configs = [get_preset(name) for name in ALL_PRESETS]
    configs += [random_mixed_config(rng, POOL_ORACLE_RANK2) for _ in range(50)]
    n_spherical = 0
    for k, config in enumerate(configs):
        sub = build_subgroup(config)
        verdict = check_spherical(sub).spherical
        witnessed = open_orbit_check(sub, trials=200, seed=k)
        assert witnessed == verdict, config
        n_spherical += verdict
    _report(
        6,
        f"open-orbit check agrees with the criterion on {len(configs)} configs "
        f"({n_spherical} spherical)",
        t0,
        60.0,
    )


def test_criterion_7_algebra_property_suite():
    t0 = time.time()
    modules_checked = 0
    extra = {("A", 2): (1, 1), ("A", 3): (1, 0, 1), ("C", 2): (1, 1)}
    for spec in [[("A", 2)], [("A", 3)], [("C", 2)]]:
        alg = build_algebra(build_root_system(spec))
        els = [alg.basis_element(k) for k in alg.basis_keys()]
        for x, y, z in itertools.product(els, repeat=3):
            s = (
                alg.bracket(alg.bracket(x, y), z)
                + alg.bracket(alg.bracket(y, z), x)
                + alg.bracket(alg.bracket(z, x), y)
            )
            assert not s.terms, spec
        rs = alg.root_system
        for pos in rs.positive_roots:
            for r in (pos, -pos):
                coroot = {("h", i): c for i, c in enumerate(rs.coroot_coefficients(r)) if c}
                assert alg.bracket(alg.e(r), alg.e(-r)).terms == coroot, spec
        fundamentals = [build_irrep(alg, rs.fundamental_weight(i), math.inf) for i in range(rs.n)]
        assert representation_property_check(alg, fundamentals[0].actions)
        for mod in fundamentals:
            assert representation_property_check(alg, mod.actions)
            modules_checked += 1
        mod = build_irrep(alg, Weight(extra[spec[0]]))
        assert representation_property_check(alg, mod.actions)
        modules_checked += 1
    _report(
        7,
        f"Jacobi exhaustive on A2/A3/C2, coroot normalization, representation "
        f"property on {modules_checked} modules",
        t0,
        30.0,
    )


def test_criterion_8_active_root_axiom_suite():
    t0 = time.time()
    total = 0
    for name in SPHERICAL_PRESETS:
        sub = build_subgroup(get_preset(name))
        table = active_roots(sub)
        report = verify_active_axioms(sub, table)
        total += report.total()
    _report(8, f"active-root consistency checks all pass ({total} instances)", t0, 5.0)
