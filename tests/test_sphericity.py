import pytest

from solvsph import (
    NoValidCandidate,
    NotSpherical,
    Root,
    active_roots,
    anchor_root,
    build_subgroup,
    check_spherical,
    get_preset,
    subordinate,
    verify_active_axioms,
)


def _sub(name, components=None):
    return build_subgroup(get_preset(name, components))


def test_borel_is_spherical_with_no_active_roots():
    sub = _sub("borel")
    verdict = check_spherical(sub)
    assert verdict.spherical and not verdict.violations
    table = active_roots(sub)
    assert table.m == 0 and table.active_roots == []


def test_sp4_borel_preset_is_spherical():
    sub = _sub("sl4-sp4borel")
    assert check_spherical(sub).spherical
    table = active_roots(sub)
    assert table.m == 2
    assert [r.coords for r in table.families[0].roots] == [(1, 0, 0), (0, 0, 1)]
    assert [r.coords for r in table.families[1].roots] == [(1, 1, 0), (0, 1, 1)]


def test_trivial_subgroup_is_not_spherical():
    sub = _sub("sl2-trivial")
    verdict = check_spherical(sub)
    assert not verdict.spherical
    assert verdict.violations[0][0] == "DependentWeights"


def test_verdict_is_true_exactly_when_spherical():
    for name, spherical in (("borel", True), ("sl2-trivial", False)):
        verdict = check_spherical(_sub(name))
        assert verdict.spherical is spherical and bool(verdict) is spherical
        assert verdict == check_spherical(_sub(name)) and verdict != (spherical, verdict.violations)
        assert repr(verdict) == f"SphericityVerdict(spherical={spherical}, violations={verdict.violations!r})"


def test_codim_two_is_not_spherical():
    from solvsph import NilradicalSpec, TorusRestriction, build_algebra, build_root_system, validate

    rs = build_root_system([("A", 2)])
    alg = build_algebra(rs)
    sub = validate(
        alg,
        TorusRestriction([[1, 1]], 2),
        NilradicalSpec([[(Root((1, 0)), 1)], [(Root((0, 1)), 1)]]),
    )
    verdict = check_spherical(sub)
    assert not verdict.spherical
    assert verdict.violations[0][0] == "CodimTooLarge"


def test_codim_too_large_end_to_end(tmp_path, capsys):
    # a trivial torus puts every positive root in one class; two single-root
    # constraints on it leave codimension 2
    from solvsph import JobConfig, cli, oracle
    from solvsph.fuzzing import POOL_RANK3

    pool = [comps for comps in POOL_RANK3 if sum(r for _, r in comps) >= 2]
    assert len(pool) == 12
    for comps in pool:
        n = sum(r for _, r in comps)
        simple = [tuple(int(i == j) for j in range(n)) for i in range(2)]
        config = JobConfig(comps, (), tuple(((coords, 1),) for coords in simple))
        sub = build_subgroup(config)
        assert [c.codim for c in sub.classes] == [2]
        verdict = check_spherical(sub)
        assert not verdict.spherical and verdict.violations[0][0] == "CodimTooLarge", comps
        assert oracle.open_orbit_check(sub) is False
        path = tmp_path / "job.txt"
        path.write_text(config.to_text())
        assert cli.main(["verify", str(path), "--height", "1"]) == 1
        assert "NOT spherical: [('CodimTooLarge'" in capsys.readouterr().out


def test_dependent_weights_on_one_dimensional_torus():
    from solvsph import NilradicalSpec, TorusRestriction, build_algebra, build_root_system, validate

    rs = build_root_system([("A", 2)])
    alg = build_algebra(rs)
    sub = validate(
        alg,
        TorusRestriction([[1, 1]], 2),
        NilradicalSpec([[(Root((1, 0)), 1), (Root((0, 1)), 1)], [(Root((1, 1)), 1)]]),
    )
    verdict = check_spherical(sub)
    assert not verdict.spherical
    assert verdict.violations[0][0] == "DependentWeights"


def test_active_roots_requires_spherical():
    with pytest.raises(NotSpherical):
        active_roots(_sub("sl2-trivial"))


def test_tu_prime_active_roots_are_the_simple_roots():
    for components in [None, (("A", 3),), (("C", 2),)]:
        sub = _sub("tu-prime", components)
        table = active_roots(sub)
        assert table.m == sub.root_system.n
        assert {r.coords for r in table.active_roots} == {
            s.coords for s in sub.root_system.simple_roots
        }
        for r in table.active_roots:
            assert table.anchor[r.coords] == list(r.coords).index(1)


def test_anchors_on_sp4_preset():
    sub = _sub("sl4-sp4borel")
    table = active_roots(sub)
    assert table.anchor[(1, 0, 0)] == 0
    assert table.anchor[(0, 0, 1)] == 2
    assert table.anchor[(1, 1, 0)] == 1
    assert table.anchor[(0, 1, 1)] == 1


def test_anchor_no_valid_candidate_on_corrupt_input():
    sub = _sub("borel")
    rs = sub.root_system
    theta = Root((1, 1))
    with pytest.raises(NoValidCandidate):
        anchor_root(rs, {theta.coords}, theta)


def test_subordinate():
    sub = _sub("sl4-sp4borel")
    rs = sub.root_system
    assert subordinate(rs, Root((1, 0, 0)), Root((1, 1, 0)))
    assert not subordinate(rs, Root((1, 0, 0)), Root((1, 0, 0)))
    assert not subordinate(rs, Root((1, 0, 0)), Root((0, 0, 1)))
    table = active_roots(sub)
    assert set(table.subordinate_pairs) == {
        (Root((1, 0, 0)), Root((1, 1, 0))),
        (Root((0, 0, 1)), Root((0, 1, 1))),
    }


def test_axioms_clean_on_presets():
    for name in ["borel", "maximal-unipotent", "tu-prime", "sl4-sp4borel", "sl2-torus"]:
        sub = _sub(name)
        table = active_roots(sub)
        report = verify_active_axioms(sub, table)
        assert all(v >= 0 for v in report.checks.values())


def test_axioms_cover_the_shift_on_sp4_preset():
    sub = _sub("sl4-sp4borel")
    table = active_roots(sub)
    report = verify_active_axioms(sub, table)
    assert report.checks["shift_inclusion"] == 1
    assert report.checks["functional_compatibility"] == 1
    assert report.checks["exactly_one_active"] == 2
