import math
import random

import pytest

from solvsph import linalg


def _sparse(row):
    return {j: x for j, x in enumerate(row) if x}


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
