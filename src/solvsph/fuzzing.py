"""Random valid subgroup configurations for stress testing.

Three families are always valid by construction: torus relabellings with
a subset of the simple roots left out of the unipotent part, arbitrary
subtori over the full unipotent radical, and rejection-sampled free-form
constraints.  Mixed sampling also produces valid but non-spherical data
(dependent weights); no weight class gets more than one constraint group,
so it never makes the codimension-too-large violation.
"""

from __future__ import annotations

from fractions import Fraction

from .config import JobConfig, build_subgroup
from .errors import SolvsphError
from .rootsys import build_root_system
from .sphericity import check_spherical
from .subgroup import TorusRestriction

POOL_RANK3 = [
    (("A", 1),),
    (("A", 2),),
    (("A", 3),),
    (("B", 2),),
    (("B", 3),),
    (("C", 2),),
    (("C", 3),),
    (("D", 3),),
    (("G", 2),),
    (("A", 1), ("A", 1)),
    (("A", 1), ("A", 2)),
    (("A", 1), ("B", 2)),
    (("A", 1), ("A", 1), ("A", 1)),
]

POOL_ORACLE_RANK2 = [(("A", 1),), (("A", 2),), (("C", 2),)]
MAX_TRIES = 40  # draws a sampler rejects before it falls back to one that always succeeds


def random_unimodular(rng, k):
    """A k x k integer matrix of determinant +-1 (product of elementary ops)."""
    m = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        op = rng.randrange(3)
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        if op == 0:
            c = rng.choice([-2, -1, 1, 2])
            for t in range(k):
                m[i][t] += c * m[j][t]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return m


def random_surjective(rng, d, n):
    """A d x n integer matrix that is onto over the integers."""
    u = random_unimodular(rng, d)
    cols = list(range(n))
    rng.shuffle(cols)
    picked = cols[:d]
    m = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(d)]
    for r in range(d):
        for c_idx, col in enumerate(picked):
            m[r][col] = u[r][c_idx]
    return tuple(tuple(row) for row in m)


def _coeff(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))


def _tu_subset(rng, components):
    """Unimodular torus relabelling; a random subset of simple roots active."""
    rs = build_root_system(components)
    rows = tuple(tuple(r) for r in random_unimodular(rng, rs.n))
    subset = [i for i in range(rs.n) if rng.random() < 0.6]
    groups = tuple(((rs.simple_roots[i].coords, _coeff(rng)),) for i in subset)
    return JobConfig(tuple(components), rows, groups)


def _horospherical(rng, components):
    """Random subtorus over the full unipotent radical (no constraints)."""
    rs = build_root_system(components)
    d = rng.randint(0, rs.n)
    return JobConfig(tuple(components), random_surjective(rng, d, rs.n), ())


def _free_form(rng, components):
    """Random constraints on the classes of a random subtorus (may be invalid)."""
    rs = build_root_system(components)
    d = rng.randint(1, rs.n)
    rows = random_surjective(rng, d, rs.n)
    groups = []
    for roots in TorusRestriction(rows, rs.n).root_classes(rs).values():
        if rng.random() < 0.5:
            continue
        chosen = [r for r in roots if rng.random() < 0.7] or [rng.choice(roots)]
        groups.append(tuple((r.coords, _coeff(rng)) for r in chosen))
    return JobConfig(tuple(components), rows, tuple(groups))


def _nonspherical_bare(rng, components):
    """Trivial torus with one simple root active: a dependent zero weight."""
    rs = build_root_system(components)
    i = rng.randrange(rs.n)
    return JobConfig(tuple(components), (), (((rs.simple_roots[i].coords, _coeff(rng)),),))


def random_spherical_config(rng, pool=None) -> JobConfig:
    """A fuzzed configuration that validates and is spherical."""
    pool = pool or POOL_RANK3
    for _ in range(MAX_TRIES):
        components = rng.choice(pool)
        style = rng.random()
        if style < 0.45:
            config = _tu_subset(rng, components)
        elif style < 0.75:
            config = _horospherical(rng, components)
        else:
            config = _free_form(rng, components)
        try:
            sub = build_subgroup(config)
        except (SolvsphError, ValueError):
            continue
        if check_spherical(sub).spherical:
            return config
    # the subset family never fails validation or sphericity
    return _tu_subset(rng, rng.choice(pool))


def random_mixed_config(rng, pool=None) -> JobConfig:
    """A fuzzed configuration that validates; sphericity varies."""
    pool = pool or POOL_RANK3
    if rng.random() < 0.4:
        for _ in range(MAX_TRIES):
            components = rng.choice(pool)
            config = _nonspherical_bare(rng, components) if rng.random() < 0.7 else _free_form(
                rng, components
            )
            try:
                build_subgroup(config)
            except (SolvsphError, ValueError):
                continue
            return config
    return random_spherical_config(rng, pool)
