"""Sphericity test and the active-root combinatorics it unlocks.

A validated solvable subgroup is spherical exactly when every weight
component of the Borel nilradical meets the unipotent part in codimension
at most one and the codimension-one weights are linearly independent.
For spherical data the roots whose root space escapes the unipotent part
("active" roots) fall into families, one per codimension-one weight, and
every active root carries a distinguished simple root in its support (its
"anchor") that governs which summand of any decomposition is active.
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import (
    AxiomViolation,
    MultipleCandidates,
    NotSpherical,
    NoValidCandidate,
)
from .rootsys import Root, fmt_root
from .subgroup import SubgroupData


class _Record:
    """A mutable record: equal to a record of its own class with equal
    ``_fields``, shown as Name(field=value, ...)."""

    _fields = ()

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class SphericityVerdict(_Record):
    _fields = ("spherical", "violations")

    def __init__(self, spherical, violations):
        self.spherical = spherical  # bool
        self.violations = violations  # [(kind, offending weights), ...]

    def __bool__(self):
        return self.spherical


class ActiveFamily(_Record):
    """Active roots of one codimension-one S-weight, with their functional."""

    _fields = ("phi", "roots", "coefficients")

    def __init__(self, phi, roots, coefficients):
        self.phi = phi  # tuple
        self.roots = roots  # active roots, in root order
        self.coefficients = coefficients  # root coords -> int, the primitive cut-out functional


class ActiveRootTable(_Record):
    _fields = ("m", "families", "anchor", "subordinate_pairs")

    def __init__(self, m, families, anchor, subordinate_pairs=None):
        self.m = m  # int
        self.families = families  # list[ActiveFamily], in lexicographic weight order
        self.anchor = anchor  # root coords -> simple-root index
        # (beta, alpha) pairs
        self.subordinate_pairs = [] if subordinate_pairs is None else subordinate_pairs

    @property
    def active_roots(self):
        return [r for fam in self.families for r in fam.roots]


def check_spherical(sub: SubgroupData) -> SphericityVerdict:
    """Evaluate the sphericity criterion exactly.

    Spherical iff every class has codimension <= 1 and the weights of the
    codimension-one classes are linearly independent over Q, which the
    integer ``linalg.echelon`` of the weights decides.
    """
    violations = []
    big = [c.phi for c in sub.classes if c.codim > 1]
    if big:
        violations.append(("CodimTooLarge", big))
    ones = [c.phi for c in sub.classes if c.codim == 1]
    if ones:
        if len(linalg.echelon({i: x for i, x in enumerate(phi) if x} for phi in ones)) < len(ones):
            violations.append(("DependentWeights", ones))
    return SphericityVerdict(not violations, violations)


def anchor_root(rs, active_set, alpha):
    """The unique simple root of Supp(alpha) marking inactive summands.

    For every decomposition alpha = b + c into positive roots, a summand
    is active exactly when the anchor is missing from its support.  The
    candidate set is scanned exhaustively; for genuine spherical data
    exactly one survives, anything else signals corrupted input.
    """
    decs = rs.decompositions[alpha.coords]
    candidates = [
        g
        for g in sorted(alpha.support())
        if all((r in active_set) == (r[g] == 0) for pair in decs for r in pair)
    ]
    if not candidates:
        raise NoValidCandidate(f"no anchor candidate for {fmt_root(alpha)}")
    if len(candidates) > 1:
        raise MultipleCandidates(f"anchors {candidates} all valid for {fmt_root(alpha)}")
    return candidates[0]


def active_roots(sub: SubgroupData) -> ActiveRootTable:
    """Active roots grouped by codimension-one weight, with anchors.

    Requires spherical data; raises NotSpherical otherwise.
    """
    verdict = check_spherical(sub)
    if not verdict.spherical:
        raise NotSpherical(verdict.violations)
    families = []
    active_set = set()
    for cls in sub.classes:
        if cls.codim != 1:
            continue
        functional = dict(cls.functionals[0])
        roots = [r for r in cls.roots if functional.get(r.coords, 0) != 0]
        families.append(ActiveFamily(cls.phi, roots, functional))
        active_set.update(r.coords for r in roots)

    rs = sub.root_system
    anchor = {}
    for fam in families:
        for r in fam.roots:
            anchor[r.coords] = anchor_root(rs, active_set, r)

    table = ActiveRootTable(m=len(families), families=families, anchor=anchor)
    actives = table.active_roots
    for beta in actives:
        for alpha in actives:
            if beta != alpha and subordinate(rs, beta, alpha):
                table.subordinate_pairs.append((beta, alpha))
    return table


def subordinate(rs, beta: Root, alpha: Root) -> bool:
    """Whether alpha splits off beta plus another positive root."""
    diff = tuple(a - b for a, b in zip(alpha.coords, beta.coords))
    return rs.is_positive_root(diff)


class AxiomReport:
    """Counts of exhaustively verified active-root consistency checks."""

    def __init__(self, checks):
        self.checks = checks  # check name -> count

    def total(self):
        return sum(self.checks.values())


def verify_active_axioms(sub: SubgroupData, table: ActiveRootTable) -> AxiomReport:
    """Exhaustive consistency checks on the active-root table.

    Verifies, over the whole instance: every decomposition of an active
    root has exactly one active summand; root differences never stay
    inside one family; a shift mapping one family into another maps all
    of it, and intertwines the two functionals up to one nonzero
    constant; anchors of roots with equal S-weight agree or avoid the
    common support.  Raises AxiomViolation with a witness on failure.
    """
    rs = sub.root_system
    counts = dict.fromkeys(["exactly_one_active", "no_difference_within_family", "shift_inclusion",
                            "functional_compatibility", "anchor_compatibility"], 0)
    active_set = {r.coords for fam in table.families for r in fam.roots}

    for alpha_coords in active_set:
        for b, c in rs.decompositions[alpha_coords]:
            n_active = (b in active_set) + (c in active_set)
            if n_active != 1:
                raise AxiomViolation(
                    "exactly_one_active",
                    f"{fmt_root(Root(alpha_coords))} = {fmt_root(Root(b))} + {fmt_root(Root(c))} has {n_active} active summands",
                )
            counts["exactly_one_active"] += 1

    for fam in table.families:
        for a, b in itertools.permutations(fam.roots, 2):
            if rs.is_root(tuple(x - y for x, y in zip(a.coords, b.coords))):
                raise AxiomViolation(
                    "no_difference_within_family",
                    f"{fmt_root(a)} - {fmt_root(b)} is a root within one family",
                )
            counts["no_difference_within_family"] += 1

    # shifts between families
    for (i, fam_i), (j, fam_j) in itertools.permutations(enumerate(table.families), 2):
        gammas = {diff for a in fam_i.roots for b in fam_j.roots
                  if rs.is_positive_root(diff := tuple(y - x for x, y in zip(a.coords, b.coords)))}
        for g in sorted(gammas):
            shifted = []
            for a in fam_i.roots:
                s = tuple(x + y for x, y in zip(a.coords, g))
                if not rs.is_positive_root(s) or Root(s) not in fam_j.roots:
                    raise AxiomViolation(
                        "shift_inclusion",
                        f"family {i + 1} + {fmt_root(Root(g))} leaves family {j + 1} at {fmt_root(a)}",
                    )
                shifted.append((a, Root(s)))
            counts["shift_inclusion"] += 1
            # one constant c with xi_i(x) = c * xi_j([x, e_gamma]) on the family: equal nonzero num/den
            ratios = []
            for a, s in shifted:
                n_ag = sub.algebra.structure_constant(a.coords, g)
                denom = n_ag * fam_j.coefficients[s.coords]
                if denom == 0:
                    raise AxiomViolation(
                        "functional_compatibility",
                        f"vanishing image coefficient at {fmt_root(a)} + {fmt_root(Root(g))}",
                    )
                ratios.append((fam_i.coefficients[a.coords], denom))
            num0, den0 = ratios[0]
            if num0 == 0 or any(num * den0 != num0 * den for num, den in ratios):
                raise AxiomViolation(
                    "functional_compatibility",
                    f"no single constant links families {i + 1} and {j + 1} along {fmt_root(Root(g))}: "
                    + ", ".join(f"{num}/{den}" for num, den in ratios),
                )
            counts["functional_compatibility"] += 1

    # anchors of equal-weight actives agree or stay out of the common support
    for fam in table.families:
        for a, b in itertools.permutations(fam.roots, 2):
            pa, pb = table.anchor[a.coords], table.anchor[b.coords]
            common = a.support() & b.support()
            if pa != pb and (pa in common or pb in common):
                raise AxiomViolation(
                    "anchor_compatibility",
                    f"anchors of {fmt_root(a)} and {fmt_root(b)} disagree inside the common support",
                )
            counts["anchor_compatibility"] += 1

    return AxiomReport(counts)
