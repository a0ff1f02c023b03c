import collections
import math
import random

import pytest

from solvsph import linalg


def _sparse(row):
    return {j: x for j, x in enumerate(row) if x}


def _dense(vectors, n):
    return [[v.get(j, 0) for j in range(n)] for v in vectors]


def test_echelon_is_a_z_basis_of_the_span_of_random_integer_matrices():
    rng = random.Random(11)
    full = 0
    for _ in range(400):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        ech = linalg.echelon(_sparse(row) for row in rows)
        assert len(ech) == linalg.rank(rows)
        assert list(ech) == sorted(ech)
        assert all(min(row) == p and row[p] > 0 for p, row in ech.items())
        # Hermite form: the entries above each pivot are reduced modulo it
        for p, r in ech.items():
            assert all(0 <= row.get(p, 0) < r[p] for row in ech.values() if row is not r)
        basis = list(ech.values())
        for row in rows:
            coords = linalg.coordinates(ech, _sparse(row))
            assert all(type(c) is int for c in coords.values())
            rebuilt = {}
            for i, c in coords.items():
                linalg.add_into(rebuilt, basis[i], c)
            assert rebuilt == _sparse(row)
        if nr == nc == len(ech):
            # equal determinants: the rows span the whole lattice, not a sublattice
            assert math.prod(row[p] for p, row in ech.items()) == math.prod(linalg.smith_diagonal(rows))
            full += 1
    assert full > 30, full


def test_coordinates_refuse_a_vector_outside_the_lattice():
    ech = linalg.echelon([{0: 2, 1: 2}, {1: 3}])
    assert linalg.coordinates(ech, {0: 4, 1: 7}) == {0: 2, 1: 1}
    for vec in ({0: 1, 1: 1}, {2: 1}):
        with pytest.raises(AssertionError):
            linalg.coordinates(ech, vec)


def test_divide_is_exact_or_raises():
    assert linalg.divide({3: 6, 5: -4}, -2) == {3: -3, 5: 2}
    with pytest.raises(AssertionError, match="inexact division"):
        linalg.divide({0: 4, 1: 5}, 2)


def _kernel_by_rref(rows, ncols):
    """The rational kernel basis read off the reduced row echelon form, each
    vector scaled to its primitive integer multiple."""
    red, pivots = linalg.rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = {fc: 1} | {pc: -red[r][fc] for r, pc in enumerate(pivots) if red[r][fc]}
        basis.append(linalg.primitive(v))
    return basis


def test_nullspace_is_a_z_basis_of_the_integer_kernel():
    rng = random.Random(12)
    cases = [([], 3), ([[2, 3, 5]], 3)]
    for _ in range(400):
        nr, nc = rng.randint(0, 4), rng.randint(1, 6)
        cases.append(([[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)], nc))
    for rows, nc in cases:
        basis = linalg.nullspace(rows, nc)
        assert len(basis) == nc - linalg.rank(rows)
        for vec in basis:
            assert len(vec) == nc and all(type(x) is int for x in vec)
            assert math.gcd(*vec) == 1
            assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
        ech = linalg.echelon(_sparse(vec) for vec in basis)
        assert len(ech) == len(basis)
        for ref in _kernel_by_rref(rows, nc):
            assert all(type(c) is int for c in linalg.coordinates(ech, ref).values())
        # saturated: the basis spans every integer vector of its rational span
        assert all(x == 1 for x in linalg.smith_diagonal(basis))
    # the primitive rref vectors (-3, 2, 0), (-5, 0, 2) span a sublattice of index 2
    assert math.prod(linalg.smith_diagonal(_dense(_kernel_by_rref([[2, 3, 5]], 3), 3))) == 2


def test_surjectivity_over_z_matches_the_smith_criterion():
    rng = random.Random(13)
    seen = collections.Counter()
    for _ in range(400):
        nr, nc = rng.randint(0, 4), rng.randint(0, 4)
        rows = [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)]
        diag = linalg.smith_diagonal(rows)
        expected = len(diag) == nr and all(x == 1 for x in diag)
        assert linalg.is_surjective_over_z(rows, nc) == expected, rows
        seen[expected, nr == 0, nr > nc] += 1
    assert seen[True, False, False] > 30 and seen[False, False, False] > 30
    assert seen[True, True, False] and seen[False, False, True]
