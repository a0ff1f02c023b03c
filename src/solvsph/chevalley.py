"""The Lie algebra in a Chevalley basis with exact integer structure constants.

Basis: one vector e_alpha per root alpha (positive and negative) and one
coroot h_i per simple root, normalized so that [e_alpha, e_{-alpha}] is
the coroot of alpha.  Signs follow the classical recipe: for each
non-simple positive root the decomposition pair (gamma, delta) with gamma
minimal in the root order (the head of ``RootSystem.decompositions``) is
given the positive constant p + 1, and every
other constant is forced from those choices by antisymmetry, the
opposite-root sign rule and the four-root relation between constants of
roots summing to zero.  Any consistent sign choice gives the same
downstream results; this one is fixed for reproducibility.  The constants
are computed in integers, and a division with a remainder raises.
"""

from __future__ import annotations

from .errors import AlgebraMismatch
from .linalg import add_into
from .rootsys import Root, RootSystem, _string_down, fmt_root, integers


def fmt_key(key):
    """Readable name of a basis key, the way the CLI prints roots: 'e(a1+a2)'
    for a root vector, 'h1' for a simple coroot."""
    kind, v = key
    return f"h{v + 1}" if kind == "h" else f"e({fmt_root(Root(v))})"


class AlgebraElement:
    """Sparse combination of basis vectors, with int coefficients (anything
    else that is not an integer raises ValueError).

    Keys are ("e", coords) for root vectors and ("h", i) for simple
    coroots; zero coefficients are never stored.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        self.terms = {k: c for k, c in zip(terms, integers(terms.values())) if c} if terms else {}

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraMismatch("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, scalar):
        (s,) = integers([scalar])
        return AlgebraElement(self.algebra, {k: c * s for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra is other.algebra
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=repr):
            bits.append(f"{self.terms[key]}*{fmt_key(key)}")
        return " + ".join(bits)


class ChevalleyAlgebra:
    """Chevalley basis of the semisimple Lie algebra of a root system."""

    def __init__(self, root_system: RootSystem):
        self.root_system = root_system
        self.extraspecial = {}
        self._build_constants()

    # -- construction -----------------------------------------------------

    def _build_constants(self):
        rs = self.root_system
        roots, positive = rs._roots, rs._index
        norm = {r.coords: rs.root_form(r, r) for r in rs.positive_roots}
        norm.update({tuple(-x for x in c): v for c, v in norm.items()})  # squared lengths
        n_pos = {}

        def exact(num, den):
            if num % den:
                raise ArithmeticError("structure constant is not an integer")
            return num // den

        def mixed(x, y):
            """Constant for [e_x, e_{-y}] with x, y distinct positive roots."""
            diff = tuple(a - b for a, b in zip(x, y))
            if diff not in roots:
                return 0
            if diff in positive:
                return exact(norm[diff] * n_pos[(diff, y)], norm[x])
            # x - y is a negative root: same constant as [e_y, e_{-x}]
            rev = tuple(-d for d in diff)
            return exact(norm[rev] * n_pos[(rev, x)], norm[y])

        for eps, pairs in rs.decompositions.items():
            if not pairs:
                continue
            gamma, delta = self.extraspecial[eps] = pairs[0]
            n_gd = _string_down(roots, delta, gamma) + 1
            n_pos[(gamma, delta)] = n_gd
            n_pos[(delta, gamma)] = -n_gd
            for a, b in pairs[1:]:
                # four-root relation applied to (gamma, delta, -a, -b), over one denominator
                da = tuple(d - x for d, x in zip(delta, a))
                ga = tuple(g - x for g, x in zip(gamma, a))
                t2 = mixed(delta, a) * mixed(gamma, b) if da in norm else 0
                t3 = -mixed(gamma, a) * mixed(delta, b) if ga in norm else 0
                n2, n3 = norm.get(da, 1), norm.get(ga, 1)
                n_ab = exact(norm[eps] * (t2 * n3 + t3 * n2), n2 * n3 * n_gd)
                n_pos[(a, b)] = n_ab
                n_pos[(b, a)] = -n_ab

        # Fill the full signed table from the positive-positive part.
        table = {}
        for (a, b), c in n_pos.items():
            na = tuple(-x for x in a)
            nb = tuple(-x for x in b)
            table[(a, b)] = c
            table[(na, nb)] = -c
        for x in positive:
            for y in positive:
                if x == y:
                    continue
                diff = tuple(a - b for a, b in zip(x, y))
                if diff not in roots:
                    continue
                ny = tuple(-b for b in y)
                c = mixed(x, y)
                table[(x, ny)] = c
                table[(ny, x)] = -c
        self._n = {k: v for k, v in table.items() if v}

    # -- basis ------------------------------------------------------------

    def e(self, root):
        """The basis vector of a root (a Root, or raw coordinates)."""
        coords = self.root_system.root(root.coords if isinstance(root, Root) else root).coords
        return AlgebraElement(self, {("e", coords): 1})

    def h(self, i):
        """The simple coroot basis vector h_i (0-based)."""
        (i,) = integers([i])
        return AlgebraElement(self, {("h", i): 1})

    def coroot(self, root):
        """The coroot of an arbitrary root, as a combination of the h_i."""
        coords = root.coords if isinstance(root, Root) else tuple(root)
        negative = tuple(-c for c in coords)
        return AlgebraElement(self, self.bracket_keys(("e", coords), ("e", negative)))

    def basis_keys(self):
        """All basis keys: root vectors for every root, then simple coroots."""
        keys = [("e", c) for c in sorted(self.root_system._roots, key=lambda c: (sum(c), c))]
        keys += [("h", i) for i in range(self.root_system.n)]
        return keys

    def basis_element(self, key):
        return AlgebraElement(self, {key: 1})

    def structure_constant(self, a, b):
        """N with [e_a, e_b] = N e_{a+b}; zero when a+b is not a root."""
        a = a.coords if isinstance(a, Root) else tuple(a)
        b = b.coords if isinstance(b, Root) else tuple(b)
        return self._n.get((a, b), 0)

    # -- bracket ----------------------------------------------------------

    def bracket_keys(self, key_x, key_y):
        """[x, y] of two basis keys, as a dict key -> nonzero int."""
        (kx, vx), (ky, vy) = key_x, key_y
        rs = self.root_system
        cartan = rs.cartan
        if kx == "h":
            if ky == "h":
                return {}
            # [h_i, e_alpha] = <alpha | alpha_i> e_alpha
            pair = sum(a * b for a, b in zip(cartan[vx], vy))
            return {key_y: pair} if pair else {}
        if ky == "h":
            pair = sum(a * b for a, b in zip(cartan[vy], vx))
            return {key_x: -pair} if pair else {}
        s = tuple(a + b for a, b in zip(vx, vy))
        if not any(s):
            # [e_alpha, e_-alpha] is the coroot of alpha
            sign = 1 if vx in rs._index else -1
            coeffs = rs.positive_coroots[rs._index[tuple(sign * a for a in vx)]]
            return {("h", i): sign * c for i, c in enumerate(coeffs) if c}
        c = self._n.get((vx, vy), 0)
        return {("e", s): c} if c else {}

    def bracket(self, x: AlgebraElement, y: AlgebraElement):
        if x.algebra is not self or y.algebra is not self:
            raise AlgebraMismatch("bracket of elements from a different algebra")
        out = {}
        for key_x, cx in x.terms.items():
            for key_y, cy in y.terms.items():
                add_into(out, self.bracket_keys(key_x, key_y), cx * cy)
        return AlgebraElement(self, out)

    def __repr__(self):
        return f"ChevalleyAlgebra({self.root_system.describe()})"


def build_algebra(root_system):
    """Chevalley algebra of a root system."""
    return ChevalleyAlgebra(root_system)


def bracket(x, y):
    """Lie bracket of two elements of the same algebra."""
    if not isinstance(x, AlgebraElement) or not isinstance(y, AlgebraElement):
        raise TypeError("bracket expects algebra elements")
    if x.algebra is not y.algebra:
        raise AlgebraMismatch("bracket of elements from different algebras")
    return x.algebra.bracket(x, y)
