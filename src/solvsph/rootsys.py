"""Root systems, weights and Weyl combinatorics of semisimple groups.

Roots are stored as integer coordinate vectors over the simple roots,
weights as integer coordinate vectors over the fundamental weights (a
non-integral weight is refused when it is built), so that
``pairing(omega_i, alpha_j) == delta_ij`` is a coordinate readoff.
There is no floating point anywhere in the package.

Conventions.  ``cartan[i][j]`` is the pairing of the simple root alpha_j
against the coroot of alpha_i, i.e. 2(alpha_i, alpha_j)/(alpha_i, alpha_i).
Positive roots are ordered by height and, within a height, so that
alpha_1 < alpha_2 < ...; hence ``positive_roots[:n]`` are the simple roots
in their natural order.

A RootSystem tabulates, once, the set of all roots, each positive root's
position in root order and fundamental-weight coordinates (``root_weights``),
a reduced word of the longest Weyl element (``longest_word``) and
``decompositions[eps]``: the pairs (a, b) of positive roots with a + b = eps
and a before b, in the order of a.  The Chevalley constants and the
active-root anchors read that table.  Root generation and the constants
measure root strings by one ``_string_down``.  ``build_root_system`` builds
one RootSystem per type and process, and every caller shares it: nothing
writes to a RootSystem once it is built but the memo of Weyl dimensions that
``oracle.weyl_dim`` keeps on it.
"""

from __future__ import annotations

import operator

from .errors import InvalidType, NonIntegralWeight, NotDominant, ZeroRoot

# admissible ranks per simple type (min, max); None = unbounded
_ADMISSIBLE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}
MAX_RANK = 16  # largest total rank accepted, checked before any root is generated


def positive_root_count(letter, rank):
    """Number of positive roots of one simple component."""
    return {
        "A": rank * (rank + 1) // 2,
        "B": rank * rank,
        "C": rank * rank,
        "D": rank * (rank - 1),
        "E": {6: 36, 7: 63, 8: 120}[rank],
        "F": 24,
        "G": 6,
    }[letter]


def integers(values, error=ValueError):
    """The values as a tuple of ints; ``error``, naming them as a config writes them, if one is not."""
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values:
        raise error(f"{' '.join(map(str, values))!r} has non-integral entries")
    return ints


def _entrywise(op, u, v):
    """op on the coordinates of two vectors of one length; ValueError otherwise."""
    if len(u) != len(v):
        raise ValueError(f"vectors of {len(u)} and {len(v)} coordinates do not combine")
    return tuple(map(op, u, v))


def _string_down(roots, beta, alpha):
    """Largest p with beta - p*alpha in ``roots``, a set of coordinate tuples."""
    p = 1
    while tuple(b - p * a for b, a in zip(beta, alpha)) in roots:
        p += 1
    return p - 1


class _Coords:
    """An immutable coordinate vector, equal only to one of its own class with
    equal coordinates; assignment raises AttributeError."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash((self.coords,))

    def __reduce__(self):
        return type(self), (self.coords,)


class Root(_Coords):
    """A root, as integer coefficients over the simple roots."""

    __slots__ = ()

    @property
    def height(self):
        return sum(self.coords)

    def support(self):
        """Indices (0-based) of the simple roots appearing with k > 0."""
        return frozenset(i for i, k in enumerate(self.coords) if k > 0)

    def __neg__(self):
        return Root(tuple(-k for k in self.coords))

    def __add__(self, other):
        return Root(_entrywise(operator.add, self.coords, other.coords))

    def __sub__(self, other):
        return Root(_entrywise(operator.sub, self.coords, other.coords))

    def __repr__(self):
        return f"Root{self.coords}"


class Weight(_Coords):
    """An integral weight, as int coordinates over the fundamental weights."""

    __slots__ = ()

    def __init__(self, coords):
        object.__setattr__(self, "coords", integers(coords, NonIntegralWeight))

    @property
    def is_dominant(self):
        return all(c >= 0 for c in self.coords)

    def __add__(self, other):
        return Weight(_entrywise(operator.add, self.coords, other.coords))

    def __sub__(self, other):
        return Weight(_entrywise(operator.sub, self.coords, other.coords))

    def __neg__(self):
        return Weight(tuple(-c for c in self.coords))

    def __repr__(self):
        return f"Weight{self.coords}"


def _component_cartan(letter, rank):
    """Cartan matrix of one simple component (rows indexed by coroots)."""
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def edge(i, j):
        c[i][j] = -1
        c[j][i] = -1

    if letter in ("A", "B", "C"):
        for i in range(rank - 1):
            edge(i, i + 1)
        if letter == "B" and rank >= 2:
            c[rank - 1][rank - 2] = -2  # last simple root short
        if letter == "C" and rank >= 2:
            c[rank - 2][rank - 1] = -2  # last simple root long
    elif letter == "D":
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 3, rank - 1)
    elif letter == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for a, b in zip(chain, chain[1:]):
            edge(a, b)
        edge(1, 3)
    elif letter == "F":
        edge(0, 1)
        edge(1, 2)
        edge(2, 3)
        c[2][1] = -2  # alpha_3, alpha_4 short
    elif letter == "G":
        c[0][1] = -3  # alpha_1 short
        c[1][0] = -1
    return c


def _symmetrizer(cartan, n):
    """Positive integers d_i with d_i * cartan[i][j] symmetric.

    d_i is half the squared length of alpha_i; computed by propagating
    the symmetry condition along the Dynkin graph from 6 (exact, as squared
    root lengths differ by a factor 2 or 3), normalized so the minimum over
    each connected component is 1.
    """
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        comp = [start]
        d[start] = 6
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if i != j and cartan[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * cartan[i][j] // cartan[j][i]
                    comp.append(j)
                    queue.append(j)
        low = min(d[i] for i in comp)
        for i in comp:
            d[i] //= low
    return d


def _normalized(components):
    """The components as a tuple of (upper-case letter, int rank) pairs;
    InvalidType unless each is admissible and the total rank is at most MAX_RANK."""
    components = tuple((str(t).upper(), *integers([r], InvalidType)) for t, r in components)
    if not components:
        raise InvalidType("at least one simple component is required")
    for letter, rank in components:
        if letter not in _ADMISSIBLE:
            raise InvalidType(f"unknown simple type {letter!r}")
        lo, hi = _ADMISSIBLE[letter]
        if rank < lo or (hi is not None and rank > hi):
            raise InvalidType(f"{letter}_{rank} is not an admissible type")
    n = sum(r for _, r in components)
    if n > MAX_RANK:
        raise InvalidType(f"total rank {n} is above the limit of {MAX_RANK}")
    return components


class RootSystem:
    """The root and weight combinatorics of a simply connected semisimple group."""

    def __init__(self, components):
        self.components = _normalized(components)
        self.n = sum(r for _, r in self.components)
        self.cartan = self._build_cartan()
        self._d = tuple(_symmetrizer(self.cartan, self.n))
        # d_i * cartan[i][j], symmetric
        self._form = tuple(tuple(d * a for a in row) for d, row in zip(self._d, self.cartan))
        self.positive_roots = self._generate_positive_roots()
        self.simple_roots = tuple(self.positive_roots[: self.n])
        self._index = {r.coords: i for i, r in enumerate(self.positive_roots)}
        # positive root coords -> fundamental-weight coords, in root order
        self.root_weights = {c: tuple(sum(map(operator.mul, row, c)) for row in self.cartan) for c in self._index}
        self.longest_word = self._reflect_down((1,) * self.n)[1]  # read off rho
        self._roots = {*self._index, *(tuple(-x for x in c) for c in self._index)}
        self.decompositions = self._decompose()
        # the coroot of each positive root over the simple coroots, in the same order
        self.positive_coroots = tuple(self.coroot_coefficients(r) for r in self.positive_roots)
        self._weyl_dims = {}  # dominant weight coords -> dim V(lam), filled by oracle.weyl_dim
        self._checked = None  # the weights of oracle.checked_fundamentals: they depend on the Cartan matrix alone

    def _build_cartan(self):
        blocks = [_component_cartan(t, r) for t, r in self.components]
        c = [[0] * self.n for _ in range(self.n)]
        off = 0
        for block in blocks:
            k = len(block)
            for i in range(k):
                for j in range(k):
                    c[off + i][off + j] = block[i][j]
            off += k
        return tuple(tuple(row) for row in c)

    def _generate_positive_roots(self):
        """Breadth-first over heights: beta + alpha_i is a root exactly when
        the alpha_i-string below beta is longer than <beta, alpha_i^vee>."""
        simples = [tuple(int(i == j) for j in range(self.n)) for i in range(self.n)]
        known, layer = set(simples), simples
        while layer:
            nxt = []
            for beta in layer:
                for row, alpha in zip(self.cartan, simples):
                    pair = sum(a * b for a, b in zip(row, beta))
                    gamma = tuple(b + a for b, a in zip(beta, alpha))
                    if gamma not in known and _string_down(known, beta, alpha) > pair:
                        known.add(gamma)
                        nxt.append(gamma)
            layer = nxt
        ordered = sorted(known, key=lambda c: (sum(c), tuple(-x for x in c)))
        return tuple(Root(c) for c in ordered)

    def _decompose(self):
        """Per positive root eps, the pairs (a, b) of positive roots with
        a + b = eps and a before b, in the order of a."""
        index, out = self._index, {}
        height = {a: sum(a) for a in index}
        for eps in index:
            pairs = out[eps] = []
            for a in index:
                if 2 * height[a] > height[eps]:  # a before b forces height(a) <= height(b)
                    break
                b = tuple(e - x for e, x in zip(eps, a))
                if index.get(b, -1) > index[a]:
                    pairs.append((a, b))
        return out

    # -- membership -------------------------------------------------------

    def is_positive_root(self, coords):
        return tuple(coords) in self._index

    def is_root(self, coords):
        return tuple(coords) in self._roots

    def root(self, coords):
        """The Root with these coordinates, validated against the root set."""
        c = integers(coords)
        if not self.is_root(c):
            name = fmt_root(Root(c)) if len(c) == self.n else f"a vector of {len(c)} coordinates"
            raise ValueError(f"{name} is not a root of {self.describe()}")
        return Root(c)

    def check_weight(self, lam):
        """ValueError unless the Weight lam has n coordinates."""
        if len(lam.coords) != self.n:
            raise ValueError(f"a vector of {len(lam.coords)} coordinates is not a weight of {self.describe()}")

    def check_root_vector(self, alpha):
        """ValueError unless the root-lattice vector alpha has n coordinates."""
        if len(alpha.coords) != self.n:
            raise ValueError(
                f"a vector of {len(alpha.coords)} coordinates is not in the root lattice of {self.describe()}"
            )

    # -- bilinear form ----------------------------------------------------

    def root_form(self, alpha, beta):
        """The invariant inner product of two vectors in the root lattice."""
        self.check_root_vector(alpha)
        self.check_root_vector(beta)
        b = beta.coords
        return sum(
            x * sum(f * y for f, y in zip(row, b) if f) for x, row in zip(alpha.coords, self._form) if x
        )

    def weight_root_form(self, lam, mu):
        """The invariant inner product of a weight with a root."""
        self.check_weight(lam)
        self.check_root_vector(mu)
        return sum(c * k * d for c, k, d in zip(lam.coords, mu.coords, self._d) if c != 0 and k != 0)

    def pairing(self, lam, mu):
        """2(lam, mu)/(mu, mu) for a weight (or root) lam and a root mu."""
        if all(k == 0 for k in mu.coords):
            raise ZeroRoot("pairing against the zero vector")
        if isinstance(lam, Root):
            num = self.root_form(lam, mu)
        else:
            num = self.weight_root_form(lam, mu)
        q, r = divmod(2 * num, self.root_form(mu, mu))
        if r:
            raise ArithmeticError(f"non-integral pairing of {lam} with {mu}")
        return q

    # -- weights ----------------------------------------------------------

    def fundamental_weight(self, i):
        return Weight(tuple(int(i == j) for j in range(self.n)))

    def zero_weight(self):
        return Weight((0,) * self.n)

    def root_to_weight(self, alpha):
        """Fundamental-weight coordinates of a vector in the root lattice."""
        self.check_root_vector(alpha)
        return Weight(
            tuple(sum(self.cartan[i][j] * alpha.coords[j] for j in range(self.n)) for i in range(self.n))
        )

    def _reflect_down(self, coords):
        """(w(mu), (i_1, ..., i_k)) for the weight mu with these coordinates,
        w = s_ik ... s_i1: each step reflects by the first s_i with
        <mu, a_i coroot> > 0, until none is left.  From a dominant mu the
        loop ends at w0(mu).  Each step lengthens w by one, so from rho, whose
        stabilizer is trivial, it ends at w = w0 after |positive roots| steps
        and the word is reduced; as w0 is an involution, so is its reverse."""
        mu, word = list(coords), []
        while (i := next((k for k, c in enumerate(mu) if c > 0), None)) is not None:
            ci = mu[i]
            for k in range(self.n):
                mu[k] -= ci * self.cartan[k][i]
            word.append(i)
        return tuple(mu), tuple(word)

    def dual_weight(self, lam):
        """The highest weight of the dual module: -w0(lam), for dominant lam."""
        self.check_weight(lam)
        if not lam.is_dominant:
            raise NotDominant(f"{lam} is not dominant")
        return Weight(tuple(-c for c in self._reflect_down(lam.coords)[0]))

    def coroot_coefficients(self, alpha):
        """Integer coefficients of the coroot of alpha over the simple coroots."""
        norm = self.root_form(alpha, alpha)
        coeffs = []
        for i, k in enumerate(alpha.coords):
            c, rem = divmod(k * self._form[i][i], norm)
            if rem:
                raise ArithmeticError(f"non-integral coroot coefficient for {alpha}")
            coeffs.append(c)
        return tuple(coeffs)

    # -- presentation -----------------------------------------------------

    def describe(self):
        return " x ".join(f"{t}{r}" for t, r in self.components)

    def __repr__(self):
        return f"RootSystem({self.describe()})"


_SYSTEMS = {}  # normalized components -> the one RootSystem of that type


def build_root_system(spec):
    """The root system of a product of simple components, built once per process.

    ``spec`` is a sequence of (type letter, rank) pairs, e.g.
    ``[("A", 3)]`` or ``[("A", 1), ("C", 2)]``.  Specs that normalize alike
    (``("a", 2)`` and ``("A", 2.0)`` as ``("A", 2)``) share one RootSystem,
    which only the memos of ``oracle.weyl_dim`` and ``checked_fundamentals``
    write once it is built.  An invalid spec is refused on every call and never stored.
    """
    try:  # a hit is a spec normalized already
        return _SYSTEMS[spec]
    except (KeyError, TypeError):  # a miss, or an unhashable spec
        pass
    components = _normalized(spec)
    if (rs := _SYSTEMS.get(components)) is None:
        rs = _SYSTEMS[components] = RootSystem(components)
    return rs


def _fmt(coords, symbol):
    parts = []
    for i, k in enumerate(coords):
        if k == 0:
            continue
        sign = "-" if k < 0 else ("+" if parts else "")
        mag = abs(k)
        parts.append(f"{sign}{'' if mag == 1 else mag}{symbol}{i + 1}")
    return "".join(parts) or "0"


def fmt_root(root):
    """Readable form of a root, e.g. 'a1+2a2'."""
    return _fmt(root.coords, "a")


def fmt_weight(w):
    """Readable form of a weight, e.g. 'w1+w3' or '0'."""
    return _fmt(w.coords, "w")
