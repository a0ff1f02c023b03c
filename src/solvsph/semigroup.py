"""Free generators of the extended weight semigroup, and membership.

The semigroup lives in (dominant weights) x (characters of S).  It is
free on n + m generators: one pair (dual of omega_i, tau(omega_i)) per
fundamental weight, and one pair per active family, built from the sum
of fundamental weights over the family's anchors.  Membership in the
generated semigroup is decided by Hermite reduction: the generators, each
tagged by a unit vector of its own, are reduced once by ``linalg.echelon``
(the one elimination over Z); a target lies in their integer span exactly
when it reduces to zero over that basis (``linalg.reduce_over``), the tags
then hold minus its coefficients, and it is a member when those are
nonnegative.
"""

from __future__ import annotations

from . import linalg
from .errors import NotSpherical
from .rootsys import Weight
from .sphericity import ActiveRootTable, check_spherical


def anchor_weights(table: ActiveRootTable, rs):
    """Per family, the sum of fundamental weights over the anchor roots."""
    return [sum(map(rs.fundamental_weight, {table.anchor[r.coords] for r in fam.roots}), rs.zero_weight())
            for fam in table.families]


class SemigroupGenerators:
    """The n + m free generators, with decomposition support."""

    def __init__(self, rs, d, torus_gens, active_gens, anchor_wts):
        self.n = rs.n
        self.d = d
        self.m = len(active_gens)
        self.torus_gens = list(torus_gens)  # (Weight, chi tuple)
        self.active_gens = list(active_gens)
        self.anchor_wts = list(anchor_wts)
        # generator g is tagged by a 1 at n + d + g; a row of the Hermite basis with its
        # pivot among the tags is a vanishing combination of the generators
        width = self.n + self.d
        self._basis = linalg.echelon(
            {**{i: x for i, x in enumerate((*w.coords, *chi)) if x}, width + g: 1}
            for g, (w, chi) in enumerate(self.all_generators())
        )
        if max(self._basis) >= width:
            raise AssertionError("generators are not linearly independent")

    def all_generators(self):
        return self.torus_gens + self.active_gens

    def decompose(self, pair):
        """Nonnegative integer coefficients over the generators, or None; ValueError unless the
        weight has n coordinates and the character d."""
        w, chi = pair
        coords, chi = (w.coords if isinstance(w, Weight) else tuple(w)), tuple(chi)
        if len(coords) != self.n:
            raise ValueError(f"the weight of a pair has {len(coords)} coordinates, not n = {self.n}")
        if len(chi) != self.d:
            raise ValueError(f"the character of a pair has {len(chi)} coordinates, not d = {self.d}")
        target, width = (*coords, *chi), self.n + self.d
        # target - sum x_g gen_g is left below the tags, and -x in them
        _, rest = linalg.reduce_over(self._basis, {i: t for i, t in enumerate(target) if t})
        coeffs = tuple(-rest.pop(width + g, 0) for g in range(self.n + self.m))
        if rest or min(coeffs) < 0:
            return None
        return coeffs

    def zero_character_generators(self):
        """Generators whose character component vanishes."""
        return [(w, chi) for w, chi in self.all_generators() if all(c == 0 for c in chi)]

    def zero_character_members(self, height_bound):
        """The trivial-character slice of the semigroup, up to a height bound.

        These are the weights of functions on the homogeneous space itself;
        the slice is not generated by the trivial-character generators, so
        it is computed by filtering the bounded enumeration.
        """
        return sorted(w for w, chi in bounded_members(self, height_bound) if not any(chi))

    def __repr__(self):
        return f"SemigroupGenerators(n={self.n}, m={self.m}, d={self.d})"


def generators(sub, table: ActiveRootTable) -> SemigroupGenerators:
    """The free generators of the extended weight semigroup.

    Requires spherical data (raises NotSpherical otherwise).  Generators
    come in deterministic order: the n torus pairs first, then one pair
    per active family in weight order.
    """
    verdict = check_spherical(sub)
    if not verdict.spherical:
        raise NotSpherical(verdict.violations)
    rs = sub.root_system
    torus_gens = []
    for i in range(rs.n):
        w = rs.fundamental_weight(i)
        torus_gens.append((rs.dual_weight(w), sub.tau.restrict(w)))
    anchor_wts = anchor_weights(table, rs)
    active_gens = []
    for fam, lam in zip(table.families, anchor_wts):
        chi = tuple(a - b for a, b in zip(sub.tau.restrict(lam), fam.phi))
        active_gens.append((rs.dual_weight(lam), chi))
    return SemigroupGenerators(rs, sub.tau.d, torus_gens, active_gens, anchor_wts)


def decompose(gens: SemigroupGenerators, pair):
    """Unique decomposition of a pair over the generators, or None."""
    return gens.decompose(pair)


def bounded_members(gens: SemigroupGenerators, height_bound):
    """All semigroup elements whose weight coordinates sum to at most the bound.

    Every generator has a nonzero dominant weight, so the enumeration of
    nonnegative combinations terminates.  Returns a set of
    (weight coords, chi) pairs.
    """
    gen_list = gens.all_generators()
    out = set()

    def rec(i, w, chi):
        if sum(w) > height_bound:
            return
        if i == len(gen_list):
            out.add((tuple(w), tuple(chi)))
            return
        gw, gchi = gen_list[i]
        k = 0
        while True:
            w2 = [a + k * b for a, b in zip(w, gw.coords)]
            if sum(w2) > height_bound:
                break
            rec(i + 1, w2, [a + k * b for a, b in zip(chi, gchi)])
            k += 1

    rec(0, [0] * gens.n, [0] * gens.d)
    return out
