"""The Lie algebra in a Chevalley basis with exact integer structure constants.

Basis: one vector e_alpha per root alpha (positive and negative) and one
coroot h_i per simple root, normalized so that [e_alpha, e_{-alpha}] is
the coroot of alpha.  Signs follow the classical recipe: for each
non-simple positive root the decomposition pair (gamma, delta) with gamma
minimal in the root order (the head of ``RootSystem.decompositions``) is
given the positive constant p + 1, and every other constant is forced from
those choices by antisymmetry, the opposite-root sign rule and the four-root
relation between constants of roots summing to zero.  Any consistent sign
choice gives the same downstream results; this one is fixed for
reproducibility.  The constants are computed in integers, and a division
with a remainder raises.  An algebra holds every nonzero bracket of two basis
keys in one table, ``_brackets``: the e-e constants, the coroot of each pair
of opposites and the nonzero simple-coroot pairings of every root, so
``bracket_keys`` is one lookup.  Zero brackets are not stored: a pair of
basis keys with no entry brackets to zero.  An algebra derives the table
when it is built and holds it as a read-only view.  It depends on the root
system alone, so ``build_algebra`` builds one algebra per root system and
every caller shares it; ``ChevalleyAlgebra(rs)`` builds a private one.
"""

from __future__ import annotations

import weakref
from types import MappingProxyType

from .errors import AlgebraMismatch, NotBasisKey
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

    @classmethod
    def _of(cls, algebra, terms):
        """The element of terms the package built (nonzero ints), unchecked."""
        out = cls.__new__(cls)
        out.algebra, out.terms = algebra, terms
        return out

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


def _derive_tables(rs):
    """The bracket table of a root system's Chevalley basis, read-only, and
    its basis keys, root vectors by height, then simple coroots.  The table
    maps each pair of basis keys with a nonzero bracket to the (key, c) terms
    of that bracket: ((e_{a+b}, N),) for [e_a, e_b] = N e_{a+b}, the h terms
    of the coroot for [e_a, e_{-a}], and ((e_a, c),) for a coroot bracket."""
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
        gamma, delta = pairs[0]
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

    # Fill the whole table from the positive-positive constants.  Every other
    # pair of roots with a root as sum is one positive and one negative root,
    # x and -y with x - y a root, so it too is met in the decompositions.
    neg = {c: tuple(-x for x in c) for c in roots}
    key, h = {c: ("e", c) for c in roots}, [("h", i) for i in range(rs.n)]
    table = {}
    for eps, pairs in rs.decompositions.items():
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                c = n_pos[x, y]
                table[key[x], key[y]], table[key[neg[x]], key[neg[y]]] = ((key[eps], c),), ((key[neg[eps]], -c),)
            for x, y, diff in ((eps, a, b), (eps, b, a), (a, eps, neg[b]), (b, eps, neg[a])):
                c, d = mixed(x, y), key[diff]
                table[key[x], key[neg[y]]], table[key[neg[y]], key[x]] = ((d, c),), ((d, -c),)
    # the brackets of opposites and with a coroot
    for a, coeffs in zip(positive, rs.positive_coroots):
        ea, fa = key[a], key[neg[a]]
        table[ea, fa] = tuple((h[i], c) for i, c in enumerate(coeffs) if c)
        table[fa, ea] = tuple((h[i], -c) for i, c in enumerate(coeffs) if c)
        for hi, row in zip(h, rs.cartan):  # [h_i, e_a] = <a, a_i coroot> e_a
            if p := sum(x * y for x, y in zip(row, a)):
                table[hi, ea], table[ea, hi] = ((ea, p),), ((ea, -p),)
                table[hi, fa], table[fa, hi] = ((fa, -p),), ((fa, p),)
    ordered = [("e", c) for c in sorted(roots, key=lambda c: (sum(c), c))] + h
    return MappingProxyType(table), tuple(ordered)


class ChevalleyAlgebra:
    """Chevalley basis of the semisimple Lie algebra of a root system, its one
    bracket table read-only, so a write fails at the writer instead of
    reaching every caller of ``build_algebra``."""

    def __init__(self, root_system: RootSystem):
        self.root_system = root_system
        self._brackets, self._basis_keys = _derive_tables(root_system)
        self._keys = frozenset(self._basis_keys)
        self._modules = weakref.WeakValueDictionary()  # weight coords -> module while held, by oracle.build_irrep
        self._small = []  # the modules of dim <= dim g, held for the process
        self._verdict = self._orbit = None  # (objects read, value), kept by oracle._derived

    # -- basis ------------------------------------------------------------

    def e(self, root):
        """The basis vector of a root (a Root, or raw coordinates); NotBasisKey
        for a vector that is not a root."""
        return self.basis_element(("e", root.coords if isinstance(root, Root) else integers(root)))

    def h(self, i):
        """The simple coroot basis vector h_i (0-based); NotBasisKey unless 0 <= i < n."""
        (i,) = integers([i])
        return self.basis_element(("h", i))

    def basis_keys(self):
        """All basis keys: root vectors for every root, then simple coroots."""
        return list(self._basis_keys)

    def basis_element(self, key):
        """The basis vector of a basis key; NotBasisKey for any other key."""
        if key not in self._keys:
            raise self._refusal(key)
        return AlgebraElement(self, {key: 1})

    def _refusal(self, key):
        """NotBasisKey naming the key by ``fmt_key`` if it is well formed (an e key
        with a tuple of ints, an h key with an int), by ``repr`` otherwise."""
        match key:
            case ("e", tuple(v)) if all(type(c) is int for c in v):
                name = fmt_key(key)
            case ("h", int()):
                name = fmt_key(key)
            case _:
                name = repr(key)
        return NotBasisKey(f"{name} is not a basis key of {self.root_system.describe()}")

    def structure_constant(self, a, b):
        """N with [e_a, e_b] = N e_{a+b}, read from the bracket table; zero
        when a+b is not a root, and NotBasisKey when a or b is not a root."""
        a, b = (r.coords if isinstance(r, Root) else integers(r) for r in (a, b))
        return self.bracket_keys(("e", a), ("e", b)).get(("e", tuple(x + y for x, y in zip(a, b))), 0)

    # -- bracket ----------------------------------------------------------

    def bracket_keys(self, key_x, key_y):
        """[x, y] of two basis keys, as a dict key -> nonzero int; NotBasisKey
        if either key names no basis vector."""
        if terms := self._brackets.get((key_x, key_y)):
            return dict(terms)
        if key_x in self._keys and key_y in self._keys:
            return {}  # no entry: the bracket is zero
        raise self._refusal(key_y if key_x in self._keys else key_x)

    def bracket_terms(self, terms_x, terms_y):
        """[x, y] of two combinations of basis keys (dicts key -> int), as a
        dict key -> nonzero int; NotBasisKey as ``bracket_keys``."""
        out = {}
        for key_x, cx in terms_x.items():
            for key_y, cy in terms_y.items():
                add_into(out, self.bracket_keys(key_x, key_y), cx * cy)
        return out

    def bracket(self, x: AlgebraElement, y: AlgebraElement):
        if x.algebra is not self or y.algebra is not self:
            raise AlgebraMismatch("bracket of elements from a different algebra")
        return AlgebraElement(self, self.bracket_terms(x.terms, y.terms))

    def __repr__(self):
        return f"ChevalleyAlgebra({self.root_system.describe()})"


_ALGEBRAS = {}  # RootSystem -> the one ChevalleyAlgebra of build_algebra


def build_algebra(root_system):
    """The Chevalley algebra of a root system, built once per process and
    shared by every caller, the way ``build_root_system`` shares the root system."""
    alg = _ALGEBRAS.get(root_system)
    if alg is None:
        alg = _ALGEBRAS[root_system] = ChevalleyAlgebra(root_system)
    return alg


def bracket(x, y):
    """Lie bracket of two elements of the same algebra."""
    if not isinstance(x, AlgebraElement) or not isinstance(y, AlgebraElement):
        raise TypeError("bracket expects algebra elements")
    return x.algebra.bracket(x, y)
