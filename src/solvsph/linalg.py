"""Exact linear algebra over the integers and F_p.

Dense matrices are lists of rows, sparse vectors dicts index -> value with no
zeros (summed by ``add_into``), sparse matrices lists of such columns (applied
by ``apply``).  Every elimination over Z the package runs is ``echelon``, the
Hermite basis of a lattice of sparse integer vectors.  Rationals appear only
in ``primitive`` (config coefficients) and in the test references ``rref``,
``rank``, ``solve`` and ``in_row_span``; nothing here is floating point.
"""

from fractions import Fraction
from math import gcd, lcm


def add_into(out, vec, c=1):
    """out += c * vec on sparse vectors (dicts index -> value, no zeros)."""
    for k, x in vec.items():
        s = out.get(k, 0) + c * x
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def apply(cols, vec):
    """The product of a matrix given by its sparse columns with a sparse vector."""
    out = {}
    for j, c in vec.items():
        add_into(out, cols[j], c)
    return out


def divide(vec, d):
    """vec / d for a sparse integer vector that d divides; AssertionError otherwise."""
    if any(x % d for x in vec.values()):
        raise AssertionError(f"inexact division of {vec} by {d}")
    return {k: x // d for k, x in vec.items()}


def primitive(vec):
    """The positive multiple of a sparse rational vector whose entries are
    integers with gcd 1."""
    den = lcm(*(c.denominator for c in vec.values()))  # ints have one too
    ints = {k: c.numerator * (den // c.denominator) for k, c in vec.items()}
    g = gcd(*ints.values())
    return {k: x // g for k, x in ints.items()}


def echelon(vectors):
    """The Hermite basis of the lattice spanned by sparse integer vectors: a
    dict pivot -> row in pivot order, each pivot the least index of its row
    with a positive entry, and the entries above it reduced modulo it.  Where
    a row's pivot entry a does not divide a vector's b, the pair is replaced
    by a unimodular combination with pivot gcd(a, b), so the rows span the
    whole lattice, not a sublattice of it.
    """
    rows = {}
    for vec in vectors:
        v = dict(vec)
        while v:
            p = min(v)
            if p not in rows:
                rows[p] = v if v[p] > 0 else {k: -x for k, x in v.items()}
                break
            r = rows[p]
            a, b = r[p], v[p]
            if b % a:  # s a + t b = g, and (a/g) v - (b/g) r vanishes at p
                g = gcd(a, b)
                s = pow(a // g, -1, abs(b) // g)
                rows[p] = add_into({k: s * x for k, x in r.items()}, v, (g - s * a) // b)
                v = add_into({k: a // g * x for k, x in v.items()}, r, -(b // g))
            else:
                add_into(v, r, -(b // a))
    out = {p: rows[p] for p in sorted(rows)}
    for i, (p, r) in enumerate(out.items()):
        for row in list(out.values())[:i]:
            if q := row.get(p, 0) // r[p]:
                add_into(row, r, -q)
    return out


def reduce_over(rows, vec):
    """(integer coefficients keyed by position, remainder) of vec over the rows
    of ``echelon``, each pivot cleared by floor division; no later row touches
    a pivot, so the remainder is zero exactly when vec lies in the rows' span."""
    v, out = dict(vec), {}
    for i, (p, row) in enumerate(rows.items()):
        if t := v.get(p):
            out[i] = q = t // row[p]
            add_into(v, row, -q)
    return out, v


def coordinates(rows, vec):
    """The integer coordinates of vec over the rows of ``echelon``, keyed by
    position; AssertionError when vec is outside their span."""
    out, rest = reduce_over(rows, vec)
    if rest:
        raise AssertionError("vector is outside the lattice")
    return out


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced rows, pivot column list).  The input is not modified.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows, ncols):
    """A Z-basis of the integer right kernel, as primitive int vectors: the rows
    of U, in the Hermite basis [U rows^T | U] of [rows^T | I], whose pivot lies
    in the I part."""
    nrows = len(rows)
    columns = ({**{i: row[j] for i, row in enumerate(rows) if row[j]}, nrows + j: 1} for j in range(ncols))
    kernel = [row for p, row in echelon(columns).items() if p >= nrows]
    return [[row.get(nrows + j, 0) for j in range(ncols)] for row in kernel]


def solve(rows, rhs):
    """One solution of ``rows @ x = rhs`` over Q, or None if inconsistent.

    When the columns are linearly independent the solution is unique.
    """
    if not rows:
        return [] if all(x == 0 for x in rhs) else None
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def in_row_span(rows, vec):
    """Whether vec lies in the rational row span of rows."""
    if not rows:
        return all(x == 0 for x in vec)
    base = rank(rows)
    return rank(list(rows) + [list(vec)]) == base


def smith_diagonal(rows):
    """Diagonal of an integer diagonalization U @ M @ V with U, V unimodular.

    The entries are returned as nonnegative integers (the elementary
    divisors up to sign, without the divisibility normalization, which is
    enough to read off the cokernel being trivial).
    """
    m = [[int(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    diag = []
    t = 0
    while t < min(nr, nc):
        # locate a nonzero entry of minimal absolute value in the submatrix
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[t], m[bi] = m[bi], m[t]
        for row in m:
            row[t], row[bj] = row[bj], row[t]
        # reduce row and column against the pivot until both are clear
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    for j in range(t, nc):
                        m[i][j] -= q * m[t][j]
                    if m[i][t] != 0:
                        m[t], m[i] = m[i], m[t]
                        dirty = True
            for j in range(t + 1, nc):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    for i in range(t, nr):
                        m[i][j] -= q * m[i][t]
                    if m[t][j] != 0:
                        for i in range(t, nr):
                            m[i][t], m[i][j] = m[i][j], m[i][t]
                        dirty = True
        diag.append(abs(m[t][t]))
        t += 1
    return diag


def is_surjective_over_z(rows, ncols):
    """Whether the integer matrix defines a surjection Z^ncols -> Z^nrows: its
    columns span Z^nrows exactly when their Hermite basis has the pivots
    0, ..., nrows - 1, each equal to 1."""
    ech = echelon({i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols))
    return list(ech) == list(range(len(rows))) and all(row[p] == 1 for p, row in ech.items())


def rank_mod_p(rows, p):
    """Rank over F_p of an integer matrix, for a prime p.

    A full rank mod p implies a full rank over Q; the converse fails when p
    divides every maximal minor.
    """
    m = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        pivot_row = [x * inv % p for x in m[r]]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], pivot_row)]
        r += 1
        if r == len(m):
            break
    return r
