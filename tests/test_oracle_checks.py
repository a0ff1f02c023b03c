import itertools
import math
from fractions import Fraction
from types import MappingProxyType

import pytest
from bracket_table import constants, with_constant

from solvsph import (
    Weight,
    build_algebra,
    build_irrep,
    build_realization,
    build_root_system,
    oracle,
    representation_property_check,
)
from solvsph import chevalley
from solvsph.chevalley import ChevalleyAlgebra
from solvsph.cli import main
from solvsph.oracle import HighestWeightModule


def test_representation_property_check_rejects_one_corrupted_entry():
    alg = build_algebra(build_root_system([("C", 2)]))
    mod = build_irrep(alg, alg.root_system.fundamental_weight(1), math.inf)
    actions = dict(mod.actions)
    key = ("e", (0, 1))
    actions[key] = [dict(col) for col in actions[key]]
    actions[key][0][0] = actions[key][0].get(0, 0) + Fraction(1)
    # the failing pair is named the way the command line prints roots
    with pytest.raises(AssertionError, match=r"fails on e\(-2a1-a2\), e\(a2\)$"):
        representation_property_check(alg, actions)


def test_module_relation_check_rejects_one_corrupted_entry():
    mod = build_irrep(build_algebra(build_root_system([("C", 2)])), Weight((0, 1)))
    actions = dict(mod.actions)
    key = ("e", (1, 0))
    j = next(j for j, col in enumerate(actions[key]) if col)
    r, x = next(iter(actions[key][j].items()))
    # doubles one entry; weights still shift correctly, so only [e1, f1] = h1 can fail
    actions[key] = [dict(col) for col in actions[key]]
    actions[key][j][r] = 2 * x
    with pytest.raises(AssertionError, match=r"delta_ij h_i fails on a1, a1$"):
        HighestWeightModule(mod.algebra, mod.lam, mod.weights, actions)
    HighestWeightModule(mod.algebra, mod.lam, mod.weights, dict(mod.actions))


def test_build_realization_builds_and_checks_one_module_per_simple_factor(monkeypatch):
    built, checked = [], []
    build, check = oracle._build_irreducible, oracle.representation_property_check

    def counting_build(algebra, lam):
        built.append(lam)
        return build(algebra, lam)

    def counting_check(algebra, actions):
        checked.append(actions)
        return check(algebra, actions)

    monkeypatch.setattr(oracle, "_build_irreducible", counting_build)
    monkeypatch.setattr(oracle, "representation_property_check", counting_check)
    monkeypatch.setattr(chevalley, "_ALGEBRAS", {})  # a new shared algebra, nothing checked on it yet
    rs = build_root_system([("A", 1), ("C", 2)])
    alg = build_realization(build_algebra(rs))
    assert alg is build_algebra(rs)
    # the smallest fundamental of each factor: V(a1) of A1, the 4-dimensional V(1, 0) of C2
    assert built == [Weight((1, 0, 0)), Weight((0, 1, 0))] and len(checked) == 2
    fundamentals = [build_irrep(alg, rs.fundamental_weight(i), math.inf) for i in range(3)]
    assert [mod.dim for mod in fundamentals] == [2, 4, 5] and len(checked) == 2
    # the verdict is kept on the algebra: a later call on it finds the same
    # modules in its memo and, as they and the tables are the ones checked,
    # builds and checks nothing
    built.clear()
    checked.clear()
    build_realization(build_algebra(rs))
    assert not built and not checked
    # a private algebra shares no verdict and no module: it builds and checks its own
    build_realization(ChevalleyAlgebra(rs))
    assert built == [Weight((1, 0, 0)), Weight((0, 1, 0))] and len(checked) == 2


@pytest.mark.parametrize("spec, entries", [([("A", 1), ("B", 2)], 24), ([("G", 2)], 60)])
def test_build_realization_catches_every_corrupted_structure_constant(spec, entries):
    rs = build_root_system(spec)
    table = constants(build_algebra(rs))
    assert len(table) == entries
    caught = 0
    for (a, b), n in sorted(table.items()):
        for corrupt in (-n, 2 * n):
            alg = ChevalleyAlgebra(rs)  # a private algebra, so the shared one stays intact
            alg._brackets = with_constant(alg, a, b, corrupt)
            with pytest.raises(AssertionError):
                build_realization(alg)
            caught += 1
    assert caught == 2 * entries
    assert constants(build_algebra(rs)) == table
    build_realization(build_algebra(rs))


def _counting_checks(monkeypatch):
    checked = []
    check = oracle.representation_property_check

    def counting_check(algebra, actions):
        checked.append(algebra)
        return check(algebra, actions)

    monkeypatch.setattr(oracle, "representation_property_check", counting_check)
    return checked


@pytest.mark.parametrize("table", ["_brackets"])
def test_rebinding_a_table_makes_the_next_realization_check_again(table, monkeypatch):
    checked = _counting_checks(monkeypatch)
    alg = ChevalleyAlgebra(build_root_system([("A", 1), ("C", 2)]))
    build_realization(alg)
    build_realization(alg)
    assert len(checked) == 2  # one per simple factor, on the first realization only
    monkeypatch.setattr(alg, table, MappingProxyType(dict(getattr(alg, table))))  # equal, but another object
    build_realization(alg)
    build_realization(alg)
    assert len(checked) == 4


def test_a_module_of_the_wrong_dimension_is_refused_and_not_kept(monkeypatch):
    # a builder that hands back V(1, 0), of dim 3, for V(1, 1), of dim 8 by the formula
    alg = ChevalleyAlgebra(build_root_system([("A", 2)]))  # a private algebra, so the shared one stays intact
    build = oracle._build_irreducible
    monkeypatch.setattr(oracle, "_build_irreducible", lambda algebra, lam: build(algebra, Weight((1, 0))))
    with pytest.raises(AssertionError, match=r"^module has dimension 3, formula says 8$"):
        build_irrep(alg, Weight((1, 1)))
    assert (1, 1) not in alg._modules


def test_a_verdict_hit_reads_nothing_but_the_table(monkeypatch):
    alg = ChevalleyAlgebra(build_root_system([("A", 1), ("C", 2)]))  # a private algebra
    build_realization(alg)
    calls = []
    for name in ("checked_fundamentals", "_module"):
        real = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    build_realization(alg)
    assert calls == []
    monkeypatch.setattr(alg, "_brackets", MappingProxyType(dict(alg._brackets)))  # equal, but another object
    build_realization(alg)
    assert calls == ["checked_fundamentals", "_module", "_module"]  # one module per simple factor


def test_a_rebound_table_with_one_constant_negated_is_caught(monkeypatch):
    alg = ChevalleyAlgebra(build_root_system([("G", 2)]))
    build_realization(alg)
    (a, b), n = min(constants(alg).items())
    monkeypatch.setattr(alg, "_brackets", with_constant(alg, a, b, -n))
    with pytest.raises(AssertionError, match="representation property fails on "):
        build_realization(alg)


@pytest.mark.parametrize("spec, lam", [([("C", 2)], (1, 0)), ([("C", 2)], (1, 1)), ([("G", 2)], (1, 1))],
                         ids=["C2-checked-fundamental", "C2-other", "G2-other"])
def test_build_irrep_on_an_algebra_with_a_negated_constant_returns_no_module(spec, lam, monkeypatch):
    # the verdict comes before any module of the algebra is handed out, and
    # before any module other than the checked fundamentals is built
    built, build = [], oracle._build_irreducible

    def counting_build(algebra, lam):
        built.append(lam.coords)
        return build(algebra, lam)

    monkeypatch.setattr(oracle, "_build_irreducible", counting_build)
    alg = ChevalleyAlgebra(build_root_system(spec))  # a private algebra, so the shared one stays intact
    (a, b), n = min(constants(alg).items())
    alg._brackets = with_constant(alg, a, b, -n)
    with pytest.raises(AssertionError, match="representation property fails on "):
        build_irrep(alg, lam)
    assert built == [w.coords for w in oracle.checked_fundamentals(alg.root_system)]
    assert alg._verdict is None


def test_the_derived_actions_and_the_check_read_one_copy_of_a_constant():
    # N(a1, a2) negated alone: [e(a1+a2)] is derived with -1, and the check reads the
    # same -1 beside N(a2, a1) = -1, so the table is caught, not a module made to fit it
    alg = ChevalleyAlgebra(build_root_system([("A", 2)]))  # a private algebra, so the shared one stays intact
    alg._brackets = with_constant(alg, (1, 0), (0, 1), -1)
    assert alg.structure_constant((1, 0), (0, 1)) == -1
    assert alg.bracket_keys(("e", (1, 0)), ("e", (0, 1))) == {("e", (1, 1)): -1}
    with pytest.raises(AssertionError, match="representation property fails on "):
        build_irrep(alg, Weight((1, 1)))
    assert (1, 1) not in alg._modules and alg._verdict is None


def test_a_failed_check_leaves_no_verdict(monkeypatch):
    checked = _counting_checks(monkeypatch)
    alg = ChevalleyAlgebra(build_root_system([("C", 2)]))
    (a, b), n = min(constants(alg).items())
    alg._brackets = with_constant(alg, a, b, -n)
    for attempt in (1, 2):
        with pytest.raises(AssertionError, match="representation property fails on "):
            build_realization(alg)
        assert len(checked) == attempt and alg._verdict is None


def test_an_inexact_derived_division_is_an_internal_error(monkeypatch, capsys):
    # doubling N(a1, a2) makes [e(a1), e(a2)] / N inexact on V(1, 0) of A2
    constant = ChevalleyAlgebra.structure_constant

    def doubled(self, a, b):
        n = constant(self, a, b)
        return 2 * n if (tuple(a), tuple(b)) == ((1, 0), (0, 1)) else n

    monkeypatch.setattr(ChevalleyAlgebra, "structure_constant", doubled)
    monkeypatch.setattr(chevalley, "_ALGEBRAS", {})  # a new A2 algebra, its memo empty
    alg = build_algebra(build_root_system([("A", 2)]))
    assert alg.root_system.decompositions[(1, 1)][0] == ((1, 0), (0, 1))
    with pytest.raises(AssertionError, match="inexact division"):
        build_realization(alg)
    code = main(["verify", "--preset", "borel", "--group", "A2", "--height", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("internal error: AssertionError: inexact division")


def _checked_module(spec):
    alg = build_algebra(build_root_system(spec))
    (lam,) = oracle.checked_fundamentals(alg.root_system)
    return alg, build_irrep(alg, lam)


@pytest.mark.parametrize("spec", [[("A", 1), ("C", 2)], [("G", 2)]])
def test_representation_property_check_asks_for_every_ordered_pair(spec, monkeypatch):
    alg = build_algebra(build_root_system(spec))
    build_realization(alg)  # the algebra keeps its checked fundamentals from here on
    keys = alg.basis_keys()
    for lam in oracle.checked_fundamentals(alg.root_system):
        asked = set()
        lookup = ChevalleyAlgebra.bracket_keys.__get__(alg)

        def recording(x, y):
            asked.add((x, y))
            return lookup(x, y)

        monkeypatch.setattr(alg, "bracket_keys", recording)
        assert representation_property_check(alg, build_irrep(alg, lam).actions)
        monkeypatch.undo()
        assert asked == set(itertools.product(keys, repeat=2)), lam


@pytest.mark.parametrize("spec, dim", [([("C", 2)], 4), ([("G", 2)], 7)])
def test_representation_property_check_refuses_every_single_entry_corruption(spec, dim):
    # each entry of each action matrix in turn: a nonzero entry gets 1 added,
    # a zero entry (so every entry of an empty column) becomes 1
    alg, mod = _checked_module(spec)
    assert mod.dim == dim and representation_property_check(alg, mod.actions)
    cases = 0
    for key, cols in mod.actions.items():
        for j, r in itertools.product(range(dim), repeat=2):
            bad = [dict(col) for col in cols]
            bad[j][r] = bad[j].get(r, 0) + 1
            if not bad[j][r]:
                del bad[j][r]
            with pytest.raises(AssertionError, match="representation property fails on "):
                representation_property_check(alg, {**mod.actions, key: bad})
            cases += 1
    assert cases == len(alg.basis_keys()) * dim * dim


def test_representation_property_check_refuses_a_table_that_is_not_antisymmetric(monkeypatch):
    alg, mod = _checked_module([("C", 2)])
    x, y = ("e", (0, 1)), ("e", (1, 0))  # e(a2) comes before e(a1) in basis_keys
    keys = alg.basis_keys()
    assert keys.index(x) < keys.index(y) and alg.bracket_keys(x, y)
    lookup = ChevalleyAlgebra.bracket_keys.__get__(alg)

    def skewed(p, q):
        # [e(a1), e(a2)] is given the value of [e(a2), e(a1)]
        return lookup(q, p) if (p, q) == (y, x) else lookup(p, q)

    monkeypatch.setattr(alg, "bracket_keys", skewed)
    with pytest.raises(AssertionError, match=r"representation property fails on e\(a1\), e\(a2\)$"):
        representation_property_check(alg, mod.actions)
