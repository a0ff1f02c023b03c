import itertools
import random
import re
from fractions import Fraction

import pytest
from bracket_table import with_constant

from solvsph import (
    AlgebraElement,
    AlgebraMismatch,
    Root,
    Weight,
    build_algebra,
    build_root_system,
    bracket,
    fmt_root,
    fmt_weight,
)


def _algebra(spec):
    return build_algebra(build_root_system(spec))


def _all_root_coords(rs):
    pos = [r.coords for r in rs.positive_roots]
    return pos + [tuple(-x for x in c) for c in pos]


def test_e_f_bracket_is_coroot():
    for spec in [[("A", 3)], [("B", 2)], [("C", 3)], [("G", 2)], [("A", 1), ("A", 1)]]:
        alg = _algebra(spec)
        rs = alg.root_system
        for pos in rs.positive_roots:
            for r in (pos, -pos):
                coroot = {("h", i): c for i, c in enumerate(rs.coroot_coefficients(r)) if c}
                assert alg.bracket(alg.e(r), alg.e(-r)).terms == coroot, (spec, r)


def test_elements_name_roots_the_way_the_cli_prints_them():
    alg = _algebra([("A", 2)])
    a1, a2 = alg.root_system.simple_roots
    x = alg.e(a1) * 2 + alg.e(-(a1 + a2)) + alg.h(1) * -1
    assert repr(x) == "1*e(-a1-a2) + 2*e(a1) + -1*h2"
    cases = [((0, 0, 0), "0"), ((0, -1, 0), "-w2"), ((2, 0, -3), "2w1-3w3"), ((-1, 1, 4), "-w1+w2+4w3")]
    for coords, text in cases:
        assert fmt_weight(Weight(coords)) == text
        assert fmt_root(Root(coords)) == text.replace("w", "a")


def test_simple_bracket_a2():
    alg = _algebra([("A", 2)])
    a1, a2 = alg.root_system.simple_roots
    out = alg.bracket(alg.e(a1), alg.e(a2))
    assert list(out.terms) == [("e", (1, 1))]
    assert abs(out.terms[("e", (1, 1))]) == 1
    # [h_1, e_{a2}] = -e_{a2}
    assert alg.bracket(alg.h(0), alg.e(a2)) == alg.e(a2) * -1


def test_bracket_with_self_is_zero():
    alg = _algebra([("C", 2)])
    x = alg.e(alg.root_system.positive_roots[2]) + alg.h(0) * 3
    assert not alg.bracket(x, x).terms


def test_bracket_of_distant_roots_is_zero():
    alg = _algebra([("A", 2)])
    theta = Root((1, 1))
    a1 = alg.root_system.simple_roots[0]
    assert not alg.bracket(alg.e(theta), alg.e(a1)).terms


def test_structure_constant_magnitude_is_string_length():
    # |N_ab| = p + 1 and N_ba = -N_ab (Carter, Simple Groups of Lie Type, Thm 4.1.2)
    specs = [[("A", 3)], [("B", 2)], [("C", 2)], [("G", 2)], [("B", 3)], [("C", 3)], [("D", 4)]]
    specs += [[("F", 4)], [("E", 6)], [("E", 7)], [("E", 8)], [("A", 1), ("C", 2)]]
    for spec in specs:
        alg = _algebra(spec)
        rs = alg.root_system
        allr = _all_root_coords(rs)
        roots = set(allr)
        for a, b in itertools.product(allr, repeat=2):
            s = tuple(x + y for x, y in zip(a, b))
            n = alg.structure_constant(a, b)
            assert type(n) is int, (spec, a, b)
            if any(s) and s in roots:
                p = 0
                cur = tuple(x - y for x, y in zip(b, a))
                while cur in roots:
                    p += 1
                    cur = tuple(x - y for x, y in zip(cur, a))
                assert abs(n) == p + 1, (spec, a, b)
                assert n == -alg.structure_constant(b, a)
            else:
                assert n == 0


def test_c2_long_string_constant():
    alg = _algebra([("C", 2)])
    assert abs(alg.structure_constant((1, 0), (1, 1))) == 2


def test_jacobi_exhaustive_small_ranks():
    for spec in [[("A", 2)], [("B", 2)], [("C", 2)], [("G", 2)]]:
        alg = _algebra(spec)
        els = [alg.basis_element(k) for k in alg.basis_keys()]
        for x, y, z in itertools.product(els, repeat=3):
            s = (
                alg.bracket(alg.bracket(x, y), z)
                + alg.bracket(alg.bracket(y, z), x)
                + alg.bracket(alg.bracket(z, x), y)
            )
            assert not s.terms, (spec, x, y, z)


def test_jacobi_sampled_rank_four():
    rng = random.Random(23)
    for spec in [[("A", 4)], [("D", 4)], [("F", 4)]]:
        alg = _algebra(spec)
        keys = alg.basis_keys()
        for _ in range(300):
            x, y, z = (alg.basis_element(rng.choice(keys)) for _ in range(3))
            s = (
                alg.bracket(alg.bracket(x, y), z)
                + alg.bracket(alg.bracket(y, z), x)
                + alg.bracket(alg.bracket(z, x), y)
            )
            assert not s.terms, spec


def test_coroot_action_is_integer_diagonal():
    alg = _algebra([("C", 2)])
    rs = alg.root_system
    for i in range(rs.n):
        for c in _all_root_coords(rs):
            out = alg.bracket(alg.h(i), alg.e(c))
            if not out.terms:
                continue
            assert list(out.terms) == [("e", c)]
            assert out.terms[("e", c)].denominator == 1


def test_algebra_mismatch():
    from solvsph.chevalley import ChevalleyAlgebra

    rs = build_root_system([("A", 2)])
    a, b = build_algebra(rs), ChevalleyAlgebra(rs)
    # one algebra per root system; a direct build is a private algebra with equal tables
    assert build_algebra(rs) is a and b is not a
    tables = ("_brackets", "_basis_keys", "_keys")
    assert all(getattr(a, t) == getattr(b, t) for t in tables)
    with pytest.raises(AlgebraMismatch):
        bracket(a.h(0), b.h(0))


def test_unknown_root_vector_rejected():
    alg = _algebra([("A", 2)])
    with pytest.raises(ValueError):
        alg.e((2, 0))


def test_elements_refuse_non_integral_coefficients():
    alg = _algebra([("A", 2)])
    with pytest.raises(ValueError, match="non-integral"):
        alg.e((1, 0)) * Fraction(1, 2)
    with pytest.raises(ValueError, match="non-integral"):
        AlgebraElement(alg, {("h", 0): Fraction(1, 2)})
    assert AlgebraElement(alg, {("h", 0): Fraction(4, 2)}).terms == {("h", 0): 2}


def test_coroot_index_must_be_an_integer():
    alg = _algebra([("A", 2)])
    with pytest.raises(ValueError, match="non-integral"):
        alg.h(1.5)
    assert alg.h(1.0) == alg.h(1)


def test_decompositions_match_a_scan_of_root_pairs_and_head_the_constants():
    from solvsph.fuzzing import POOL_RANK3

    extra = [(("B", 4),), (("C", 4),), (("D", 4),), (("F", 4),), (("E", 6),), (("E", 7),), (("E", 8),)]
    for spec in POOL_RANK3 + extra:
        alg = _algebra(list(spec))
        rs = alg.root_system
        pos = [r.coords for r in rs.positive_roots]
        expected = {eps: [] for eps in pos}
        for i, a in enumerate(pos):
            for b in pos[i + 1 :]:
                s = tuple(x + y for x, y in zip(a, b))
                if s in expected:
                    expected[s].append((a, b))
        assert rs.decompositions == expected, spec
        for eps, pairs in expected.items():  # the head pair gets the positive constant p + 1
            if pairs:
                gamma, delta = pairs[0]
                p = 0  # the largest p with delta - p gamma a root
                while rs.is_root(tuple(d - (p + 1) * g for d, g in zip(delta, gamma))):
                    p += 1
                assert alg.structure_constant(gamma, delta) == p + 1 > 0, (spec, eps)


def test_root_vector_refuses_non_integral_coordinates():
    alg = _algebra([("A", 2)])
    with pytest.raises(ValueError, match="non-integral"):
        alg.e((1.9, 0.2))
    assert alg.e((1.0, 0)) == alg.e((1, 0))


def test_bracket_keys_match_bracket_and_are_ints():
    from solvsph.fuzzing import POOL_RANK3

    for spec in POOL_RANK3:
        alg = _algebra(list(spec))
        keys = alg.basis_keys()
        for x, y in itertools.product(keys, repeat=2):
            terms = alg.bracket_keys(x, y)
            assert terms == alg.bracket(alg.basis_element(x), alg.basis_element(y)).terms, (spec, x, y)
            assert all(type(c) is int and c != 0 for c in terms.values()), (spec, x, y)


def _reference_bracket(alg, x, y):
    """[x, y] of two basis keys from structure_constant, the positive coroots
    and the Cartan matrix (row i holds <a_j, a_i coroot> over j), not from
    bracket_keys."""
    rs = alg.root_system
    (kx, vx), (ky, vy) = x, y
    if kx == ky == "h":
        return {}
    if "h" in (kx, ky):
        (i, beta), sign = ((vx, vy), 1) if kx == "h" else ((vy, vx), -1)
        pair = sum(c * b for c, b in zip(rs.cartan[i], beta))
        return {("e", beta): sign * pair} if pair else {}
    s = tuple(a + b for a, b in zip(vx, vy))
    if not any(s):
        sign = 1 if rs.is_positive_root(vx) else -1
        coroot = rs.positive_coroots[[r.coords for r in rs.positive_roots].index(tuple(sign * a for a in vx))]
        return {("h", i): sign * c for i, c in enumerate(coroot) if c}
    c = alg.structure_constant(vx, vy)
    assert (c != 0) == rs.is_root(s), (x, y)
    return {("e", s): c} if c else {}


def test_bracket_keys_match_an_independent_reference():
    from solvsph.fuzzing import POOL_RANK3

    extra = [(("G", 2),), (("F", 4),), (("E", 6),), (("A", 1), ("B", 2))]
    for spec in [*POOL_RANK3, *extra]:
        alg = _algebra(list(spec))
        for x, y in itertools.product(alg.basis_keys(), repeat=2):
            assert alg.bracket_keys(x, y) == _reference_bracket(alg, x, y), (spec, x, y)
        # zero brackets are not stored
        assert all(terms and all(c for _, c in terms) for terms in alg._brackets.values()), spec


@pytest.mark.parametrize(
    "x, y, name",
    [
        (("h", 0), ("e", (2, 0)), "e(2a1)"),
        (("e", (2, 0)), ("h", 1), "e(2a1)"),
        (("e", (2, 0)), ("e", (-2, 0)), "e(2a1)"),
        (("e", (1, 0)), ("e", (0, 0)), "e(0)"),
        (("e", (1, 1, 0)), ("e", (1, 0)), "e(a1+a2)"),
        (("h", 7), ("e", (1, 0)), "h8"),
        (("h", -1), ("e", (1, 0)), "h0"),
        (("e", (1, 0)), ("h", 2), "h3"),
        (("h", 0), ("h", 2), "h3"),
        (("f", (1, 0)), ("e", (0, 1)), "('f', (1, 0))"),
        (("e", (1, 0)), ("x", 0), "('x', 0)"),
        (("e", 5), ("h", 0), "('e', 5)"),
        (("h", 0), ("e", (1.5, 0)), "('e', (1.5, 0))"),
        (("h", "0"), ("h", 0), "('h', '0')"),
        (5, ("e", (1, 0)), "5"),
    ],
)
def test_bracket_keys_refuses_a_key_outside_the_basis(x, y, name):
    from solvsph import NotBasisKey, SolvsphError

    alg = _algebra([("A", 2)])
    assert issubclass(NotBasisKey, SolvsphError) and issubclass(NotBasisKey, ValueError)
    with pytest.raises(NotBasisKey, match=rf"^{re.escape(name)} is not a basis key of A2$"):
        alg.bracket_keys(x, y)
    with pytest.raises(NotBasisKey, match=rf"^{re.escape(name)} is not a basis key of A2$"):
        alg.bracket(AlgebraElement(alg, {x: 1}), AlgebraElement(alg, {y: 1}))


@pytest.mark.parametrize("i, name", [(7, "h8"), (2, "h3"), (-1, "h0")])
def test_h_refuses_an_index_outside_the_simple_roots(i, name):
    from solvsph import NotBasisKey

    alg = _algebra([("A", 2)])
    with pytest.raises(NotBasisKey, match=rf"^{name} is not a basis key of A2$"):
        alg.h(i)
    assert [alg.h(j).terms for j in range(2)] == [{("h", 0): 1}, {("h", 1): 1}]


@pytest.mark.parametrize(
    "a, b, name",
    [
        ((2, 0), (0, 1), "e(2a1)"),
        ((1, 0, 7), (0, 1), "e(a1+7a3)"),
        ((0, 1), (2, 0), "e(2a1)"),
        ((0, 0), (1, 0), "e(0)"),
    ],
)
def test_structure_constant_refuses_a_vector_that_is_not_a_root(a, b, name):
    from solvsph import NotBasisKey

    alg = _algebra([("A", 2)])
    # refused the way e() refuses the same vector, not answered with 0
    not_a_root = next(v for v in (a, b) if ("e", v) not in alg.basis_keys())
    for call in (lambda: alg.structure_constant(a, b), lambda: alg.e(not_a_root)):
        with pytest.raises(NotBasisKey, match=rf"^{re.escape(name)} is not a basis key of A2$"):
            call()


@pytest.mark.parametrize(
    "key, name",
    [
        (("x", 1), "('x', 1)"),
        (("e", (2, 0)), "e(2a1)"),
        (("e", (0, 0)), "e(0)"),
        (("h", 2), "h3"),
        (("e", 5), "('e', 5)"),
    ],
)
def test_basis_element_refuses_a_key_outside_the_basis(key, name):
    from solvsph import NotBasisKey

    alg = _algebra([("A", 2)])
    with pytest.raises(NotBasisKey, match=rf"^{re.escape(name)} is not a basis key of A2$"):
        alg.basis_element(key)
    if key[0] == "e" and isinstance(key[1], tuple):  # e((2, 0)) and e((0, 0)) refuse it alike
        with pytest.raises(NotBasisKey, match=rf"^{re.escape(name)} is not a basis key of A2$"):
            alg.e(key[1])
    assert [alg.basis_element(k).terms for k in alg.basis_keys()] == [{k: 1} for k in alg.basis_keys()]


def test_the_tables_an_algebra_shares_refuse_a_write():
    from solvsph import build_realization
    from solvsph.chevalley import ChevalleyAlgebra

    alg = _algebra([("A", 2)])
    e1, f1, e2 = ("e", (1, 0)), ("e", (-1, 0)), ("e", (0, 1))
    with pytest.raises(TypeError):
        alg._brackets[e1, f1][0] = (("h", 0), 2)
    with pytest.raises(TypeError):
        alg._brackets[e1, f1] = ((("h", 0), 2),)
    with pytest.raises(TypeError):
        alg._brackets[e1, e2] = ((("e", (1, 1)), 2),)
    # a private algebra may rebind its constants; the shared algebra keeps its own
    private = ChevalleyAlgebra(alg.root_system)
    private._brackets = with_constant(private, (1, 0), (0, 1), 2)
    with pytest.raises(AssertionError):
        build_realization(private)
    assert alg.structure_constant((1, 0), (0, 1)) == 1
    build_realization(alg)
