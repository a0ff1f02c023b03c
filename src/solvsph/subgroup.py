"""Data model for a connected solvable subgroup of the Borel.

The subgroup is the semidirect product of a subtorus S of the maximal
torus and a unipotent part N normalized by S.  S enters through the
character restriction matrix tau (rows = a basis of the characters of S,
columns = fundamental weights); N enters through constraint groups, each
listing the positive roots of one S-weight component together with the
coefficients of the linear functional cutting N out of that component.
Roots mentioned in no group contribute their full root space to N.  The
classes are ``TorusRestriction.root_classes``.  An element is in N when its
terms are positive root vectors and their classes' functionals vanish on it.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from . import linalg
from .chevalley import AlgebraElement, ChevalleyAlgebra
from .errors import (
    DuplicateRoot,
    MixedWeightConstraint,
    NonSurjectiveTau,
    NotSubalgebra,
    ZeroCoefficient,
)
from .rootsys import Root, Weight, fmt_root, integers


class TorusRestriction:
    """Character restriction from the maximal torus to a subtorus.

    ``rows`` is a d x n integer matrix, surjective over the integers
    (restriction of characters to a subtorus is onto).
    """

    def __init__(self, rows, n):
        (self.n,) = integers([n])
        self.rows = tuple(integers(row) for row in rows)
        self.d = len(self.rows)
        self._images = {}  # weight coords -> image, filled by restrict
        for row in self.rows:  # rows are named as a config writes them
            if len(row) != self.n:
                raise ValueError(f"torus row {' '.join(map(str, row))!r} does not have {self.n} entries")
        if not linalg.is_surjective_over_z(self.rows, self.n):
            rows = ", ".join(repr(" ".join(map(str, row))) for row in self.rows)
            raise NonSurjectiveTau(f"torus rows {rows} are not onto Z^{self.d}")

    def restrict(self, weight):
        """Image of a torus character (integral weight) in Z^d.

        Each image is computed once and kept: the rows never change, and
        non-integral input raises NonIntegralWeight, input of other than n
        coordinates ValueError, before anything is stored.
        """
        coords = weight.coords if isinstance(weight, Weight) else tuple(weight)
        image = self._images.get(coords)
        if image is None:
            ints = Weight(coords).coords
            if len(ints) != self.n:
                raise ValueError(f"a vector of {len(ints)} coordinates is not a weight of rank {self.n}")
            image = self._images[coords] = self._image(ints)
        return image

    def _image(self, ints):
        """The image of n int coordinates, unchecked and not kept."""
        return tuple([sum(map(operator.mul, row, ints)) for row in self.rows])

    def root_classes(self, rs):
        """Dict S-weight -> positive roots of ``rs``, in root order, classes by
        first root; ValueError unless ``rs`` has rank n.  Each root's weight is
        read from ``rs.root_weights``, int coordinates by construction, and
        restricted with no other check."""
        if rs.n != self.n:
            raise ValueError(f"torus matrix has {self.n} columns, expected {rs.n}")
        classes, images = {}, self._images
        for r, wt in zip(rs.positive_roots, rs.root_weights.values()):
            if (image := images.get(wt)) is None:
                image = images[wt] = self._image(wt)
            classes.setdefault(image, []).append(r)
        return classes

    def __eq__(self, other):
        return isinstance(other, TorusRestriction) and (self.rows, self.n) == (other.rows, other.n)

    def __repr__(self):
        return f"TorusRestriction(d={self.d}, n={self.n})"


def restrict(tau: TorusRestriction, weight):
    """Restriction of a torus character along tau."""
    return tau.restrict(weight)


class NilradicalSpec:
    """Constraint groups describing the unipotent part inside the nilradical.

    Each group is a list of (positive root, nonzero coefficient) pairs; an
    element of the group's weight component lies in N exactly when the
    coefficient-weighted sum of its root-vector coordinates vanishes.
    """

    def __init__(self, groups):
        self.groups = tuple(tuple((r, c if type(c) is Fraction else Fraction(c)) for r, c in group) for group in groups)

    def __eq__(self, other):
        return isinstance(other, NilradicalSpec) and self.groups == other.groups

    def __repr__(self):
        return f"NilradicalSpec({len(self.groups)} groups)"


class WeightClass:
    """All positive roots sharing one S-weight, with the cut-out functionals."""

    def __init__(self, phi, roots, functionals=None, codim=0):
        self.phi = phi  # tuple
        self.roots = roots  # list
        # primitive integer dicts keyed by root coords
        self.functionals = [] if functionals is None else functionals
        self.codim = codim


class SubgroupData:
    """Validated solvable subgroup: torus part, unipotent part, weight table."""

    def __init__(self, algebra, tau, classes):
        self.algebra = algebra
        self.root_system = algebra.root_system
        self.tau = tau
        self.classes = classes
        self.class_by_phi = {c.phi: c for c in classes}
        self._phi_of_root = {r.coords: c.phi for c in classes for r in c.roots}
        self.dim_u = len(self.root_system.positive_roots)
        self.nil_basis = self._build_nil_basis()
        self.dim_n = len(self.nil_basis)
        self.dim_s = tau.d

    def _build_nil_basis(self):
        """A basis of the unipotent part, each element a primitive integer vector:
        the kernel of each class's functionals, the unit vectors if it has none."""
        basis, of = [], AlgebraElement._of  # the ints are built here: no check
        for cls in self.classes:
            cols = [r.coords for r in cls.roots]
            if not cls.functionals:
                basis += [of(self.algebra, {("e", c): 1}) for c in cols]
                continue
            rows = [[f.get(c, 0) for c in cols] for f in cls.functionals]
            basis += [of(self.algebra, {("e", c): v for c, v in zip(cols, vec) if v}) for vec in linalg.nullspace(rows, len(cols))]
        return basis

    def contains_in_nil(self, element):
        """Whether an algebra element lies in the unipotent part."""
        return self._terms_in_nil(element.terms)

    def _terms_in_nil(self, terms):
        """Whether the combination ``terms`` (basis key -> nonzero int) lies in the unipotent part."""
        phis = set()
        for kind, coords in terms:
            if kind != "e" or coords not in self._phi_of_root:
                return False  # a coroot or a negative root vector
            phis.add(self._phi_of_root[coords])
        for phi in phis:
            for f in self.class_by_phi[phi].functionals:
                if sum(coeff * terms.get(("e", c), 0) for c, coeff in f.items()):
                    return False
        return True

    def weight_table(self):
        """The classes as (S-weight, roots, codimension), in weight order."""
        return [(c.phi, list(c.roots), c.codim) for c in self.classes]

    def __repr__(self):
        return (
            f"SubgroupData({self.root_system.describe()}, d={self.tau.d}, "
            f"dim_n={self.dim_n}/{self.dim_u})"
        )


def validate(algebra: ChevalleyAlgebra, tau, nilradical) -> SubgroupData:
    """Check a subgroup description and assemble its weight table.

    Raises NonSurjectiveTau, ZeroCoefficient, DuplicateRoot,
    MixedWeightConstraint, or NotSubalgebra (with a witness pair) when the
    data does not describe a solvable subgroup normalized by the torus.
    """
    rs = algebra.root_system
    if not isinstance(tau, TorusRestriction):
        tau = TorusRestriction(tau, rs.n)
    classes = {phi: WeightClass(phi, roots) for phi, roots in tau.root_classes(rs).items()}  # checks the rank
    if not isinstance(nilradical, NilradicalSpec):
        nilradical = NilradicalSpec(nilradical)

    seen = set()
    for group in nilradical.groups:
        if not group:
            raise ZeroCoefficient("empty constraint group")
        functional = {}
        phi = None
        for root, coeff in group:
            if not isinstance(root, Root):
                root = rs.root(root)
            if not rs.is_positive_root(root.coords):
                raise ValueError(f"{fmt_root(root)} is not a positive root")
            if coeff == 0:
                raise ZeroCoefficient(f"zero coefficient on {fmt_root(root)}")
            if root.coords in seen:
                raise DuplicateRoot(f"{fmt_root(root)} appears in more than one constraint")
            seen.add(root.coords)
            this_phi = tau._image(rs.root_weights[root.coords])
            if phi not in (None, this_phi):
                raise MixedWeightConstraint(f"constraint group mixes S-weights {phi} and {this_phi}")
            phi = this_phi
            functional[root.coords] = coeff
        classes[phi].functionals.append(linalg.primitive(functional))

    for cls in classes.values():
        if cls.functionals:  # codim 0 otherwise
            cls.codim = len(linalg.echelon(cls.functionals))

    ordered = [classes[phi] for phi in sorted(classes)]
    sub = SubgroupData(algebra, tau, ordered)

    if sub.dim_u - sub.dim_n != sum(c.codim for c in ordered):
        raise AssertionError("codimension bookkeeping is inconsistent")

    # closure of the unipotent part under the bracket, checked pairwise on the bracket's terms
    basis = sub.nil_basis
    for i, x in enumerate(basis):
        for y in basis[i + 1 :]:
            if not sub._terms_in_nil(algebra.bracket_terms(x.terms, y.terms)):
                raise NotSubalgebra(x, y)
    return sub


def weight_table(sub: SubgroupData):
    """S-weights on the Borel nilradical with their roots and codimensions."""
    return sub.weight_table()
