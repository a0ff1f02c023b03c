"""Brute-force verification against genuine matrix representations.

Everything the combinatorial pipeline claims is re-derived here from
scratch, for every type.  Irreducible modules are built weight space by
weight space from the Cartan matrix alone, on their Kostant Z-form
(``_build_irreducible``), so every basis element of the algebra acts by an
integer matrix: a list of sparse columns (dicts row -> value), applied by
``linalg.apply``.  The simple root vectors act directly and the coroots by
the weight diagonal; the other root vectors act through brackets
(``_with_derived_actions``).  ``build_irrep`` is the one entry point to
modules and the algebra the one place that keeps them (``_module``).  Every
module is checked against the defining relations and the Weyl dimension
formula when it is built, and only once ``build_realization`` has checked
the algebra's bracket table on a module each simple factor acts on
faithfully; both checks compare a matrix bracket with the combination it
should equal entry by entry, in one pass (``_bracket_defect``).
Semi-invariant dimensions are exact kernels (``semi_invariant_dim``).  What
depends only on an algebra's bracket table, that verdict and the orbit test's
chains of each ad e(-a_i), is kept on the algebra by ``_derived`` and derived
again once the table is rebound.

``open_orbit_check`` probes sphericity for every type in the adjoint
representation over F_p: it looks for a lower unipotent element, drawn along
a reduced word of w0, whose conjugate of the subgroup's Lie algebra spans
the whole Lie algebra with the Borel subalgebra.  A witness is an exact
certificate; a failure, after at least one trial, carries an error bound.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import namedtuple

from . import linalg
from .errors import AlgebraMismatch, DimensionCap, NotDominant, NotSpherical
from .linalg import add_into, apply
from .chevalley import fmt_key
from .rootsys import Weight, fmt_root
from .sphericity import ActiveRootTable, check_spherical
from .subgroup import SubgroupData

DIM_CAP = 20000  # the default cap on the dimension of a module that is built


def _bracket_defect(actions, nonzero, x, y, terms):
    """Whether X_x X_y - X_y X_x differs from the sum of c X_k over the terms {k: c},
    summed entry by entry into one dict keyed by row * dim + column; each
    X_k = actions[k] is read through its nonzero columns (j, col) in nonzero[k]."""
    a, b, out = actions[x], actions[y], {}
    get, dim = out.get, len(a)
    for j, col in nonzero[y]:
        for r, v in col.items():
            for i, w in a[r].items():
                key = i * dim + j
                out[key] = get(key, 0) + w * v
    for j, col in nonzero[x]:
        for r, v in col.items():
            for i, w in b[r].items():
                key = i * dim + j
                out[key] = get(key, 0) - w * v
    for k, c in terms.items():
        for j, col in nonzero[k]:
            for i, w in col.items():
                key = i * dim + j
                out[key] = get(key, 0) - c * w
    return any(out.values())


def weyl_dim(rs, lam):
    """Dimension of the irreducible module of highest weight lam, by
    ``_weyl_product`` once per root system and weight and then read from the
    root system's memo; a weight of the wrong length, or not dominant, is
    refused on every call and never stored."""
    rs.check_weight(lam)
    if not lam.is_dominant:
        raise NotDominant(f"{lam} is not dominant")
    if (val := rs._weyl_dims.get(lam.coords)) is None:
        val = rs._weyl_dims[lam.coords] = _weyl_product(rs, lam.coords)
    return val


def _weyl_product(rs, coords):
    """The product over the positive coroots h of <lam + rho, h> / <rho, h>,
    in integers, for the dominant weight lam with these coordinates."""
    num = den = 1
    for coroot in rs.positive_coroots:
        num *= sum((c + 1) * k for c, k in zip(coords, coroot))
        den *= sum(coroot)
    val, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("dimension formula did not give an integer")
    return val


def _with_derived_actions(algebra, actions):
    """Complete the simple root vector and coroot actions to the whole algebra.

    Every other root vector acts as the bracket along its extraspecial pair
    (the head of ``rs.decompositions``), divided exactly by the structure
    constant.  Positive roots come by height, so both factors are known.
    """
    rs = algebra.root_system
    for eps in [r.coords for r in rs.positive_roots if r.height > 1]:
        gamma, delta = rs.decompositions[eps][0]
        n = algebra.structure_constant(gamma, delta)
        for sign in (1, -1):
            a = actions[("e", tuple(sign * x for x in gamma))]
            b = actions[("e", tuple(sign * x for x in delta))]
            cols = [linalg.divide(add_into(apply(a, bj), apply(b, aj), -1), sign * n) for aj, bj in zip(a, b)]
            actions[("e", tuple(sign * x for x in eps))] = cols
    return actions


class HighestWeightModule:
    """An irreducible module, with exact matrices for the whole basis.

    Basis vector 0 is the highest vector; every basis vector carries a
    torus weight.  Construction checks the defining relations of the
    algebra on the simple root matrices (``_verify_basics``).  The algebra's
    memo hands one module to every caller that asks for it while it lives
    (``build_irrep``), so its weights and matrices are read and never
    written.
    """

    def __init__(self, algebra, lam, weights, actions):
        self.algebra = algebra
        self.lam = lam
        self.weights = weights  # the weight coords of each basis vector
        self.actions = actions  # basis key -> list of sparse columns
        self.dim = len(weights)
        self.by_weight = {}  # weight coords -> basis indices, in order
        for j, w in enumerate(weights):
            self.by_weight.setdefault(w, []).append(j)
        self._s_weights = (None, {})  # (torus restriction rows, by_s_weight's grouping), the last asked for
        self._verify_basics()

    def by_s_weight(self, tau):
        """S-weight -> basis indices, in order, under the torus restriction
        tau: grouped in one pass over the distinct weights, and kept until a
        request for other rows, which alone decide the grouping."""
        rows, groups = self._s_weights
        if rows != tau.rows:
            groups = {}
            for wt, js in self.by_weight.items():
                groups.setdefault(tau.restrict(wt), []).extend(js)
            self._s_weights = (tau.rows, groups)
        return groups

    def _verify_basics(self):
        """Check the relations that present the algebra on the simple root
        matrices: the coroots act as the weight diagonal, e_i and f_i shift
        weights by +-a_i, and [e_i, f_j] = delta_ij h_i.

        A module that passes is a module of the algebra.  The Serre relations
        ad(e_i)^(1 - a_ij) e_j = 0 (a_ij = ``cartan[i][j]``, i != j) follow: on
        the finite-dimensional module End(V) of the sl2 spanned by e_i, h_i,
        f_i, the matrix e_j is killed by ad f_i and has ad h_i eigenvalue
        a_ij <= 0, so it is a lowest weight vector of an irreducible of
        dimension 1 - a_ij.  The same holds for f with the roles swapped.
        """
        rs = self.algebra.root_system
        if self.weights[0] != self.lam.coords:
            raise AssertionError("highest vector has the wrong weight")
        simple, wts = rs.simple_roots, self.weights
        e_keys = [("e", a.coords) for a in simple]
        f_keys = [("e", (-a).coords) for a in simple]
        h_keys = [("h", i) for i in range(rs.n)]
        e, f, h = ([self.actions[k] for k in keys] for keys in (e_keys, f_keys, h_keys))
        for i, alpha in enumerate(simple):
            if h[i] != [{j: w[i]} if w[i] else {} for j, w in enumerate(wts)]:
                raise AssertionError("coroot action is not the weight diagonal")
            if e[i][0]:
                raise AssertionError("highest vector is not annihilated by raising operators")
            for sign, m in ((1, e[i]), (-1, f[i])):
                step = [sign * b for b in rs.root_weights[alpha.coords]]
                up = {w: tuple(map(operator.add, w, step)) for w in self.by_weight}
                if any(wts[r] != up[wts[j]] for j, col in enumerate(m) for r in col):
                    root = alpha if sign == 1 else -alpha
                    raise AssertionError(f"e({fmt_root(root)}) does not shift weights by its root")
        nonzero = {k: [(j, col) for j, col in enumerate(self.actions[k]) if col]
                   for k in e_keys + f_keys + h_keys}  # the only matrices read below
        for i, j in itertools.product(range(rs.n), repeat=2):
            want = {h_keys[i]: 1} if i == j else {}
            if _bracket_defect(self.actions, nonzero, e_keys[i], f_keys[j], want):
                names = f"{fmt_root(simple[i])}, {fmt_root(simple[j])}"
                raise AssertionError(f"[e_i, f_j] = delta_ij h_i fails on {names}")

    def act_element(self, element):
        """Matrix of an algebra element (linear combination of basis keys)."""
        if element.algebra is not self.algebra:
            raise AlgebraMismatch("element from a different algebra")
        cols = [{} for _ in range(self.dim)]
        for key, c in element.terms.items():
            for out, col in zip(cols, self.actions[key]):
                add_into(out, col, c)
        return cols

    def __repr__(self):
        return f"HighestWeightModule(lam={self.lam.coords}, dim={self.dim})"


def _build_irreducible(algebra, lam):
    """The irreducible module V(lam) on its Kostant Z-form, from the Cartan matrix.

    A basis vector v below the highest is stored as its signature
    e_1 v + ... + e_n v, in integer coordinates over the weights wt(v) + a_i.
    Only highest vectors have zero signature, so it is injective below the
    top (Humphreys, sections 20-21).  Weight spaces come in order of depth:
    the signature of f_k b is the sum over i of f_k(e_i b), plus
    <wt(b), a_k coroot> b, and those f_k columns are already known.

    The basis spans V_Z = U_Z^- v_lam (Humphreys, section 27; Steinberg,
    Lectures on Chevalley Groups, section 2).  U_Z^- is generated by the
    divided powers f_k^(m) = f_k^m / m!, so V_Z at a weight mu is spanned by
    the f_k^(m) b = f_k(f_k^(m-1) b) / m over every k, m >= 1 and basis
    vector b of weight mu + m a_k, reduced to a Z-basis by ``linalg.echelon``.
    V_Z is stable under every e_a and f_a of the Chevalley basis, so every
    division is exact; each is checked, so a wrong lattice fails the build.

    Root strings say, before any arithmetic, which f_k kill a weight space:
    the weights mu + i a_k of V form one unbroken string, -q <= i <= p, with
    q - p = <mu, a_k coroot> = mu[k] (Humphreys, section 21.3).  The p steps
    up are higher weights, built already, so when p + mu[k] <= 0 then q = 0:
    mu - a_k is no weight, f_k is zero on V_mu, its columns there are set to
    zero and the divided powers pending at mu are dropped, with no signature
    or reduction.  The rule is exact, not a shortcut that could hide a
    vector: V_{mu - a_k} = 0, so those products would all have reduced to
    zero.  Every other direction reaches a weight of V, so ``linalg.echelon``
    runs once per weight space below the top, and never on an empty span:
    a direction kept has q = p + mu[k] >= 1, so the irreducible component
    under the sl2 of a_k through the string's top weight mu + p a_k runs
    down to mu - q a_k, past mu and mu - a_k.  Hence f_k is nonzero on V_mu,
    and as signatures are injective below the top, some f_k b of the span
    has a nonzero signature.
    """
    rs = algebra.root_system
    shifts = [rs.root_weights[a.coords] for a in rs.simple_roots]  # a_k in weight coordinates
    weights, sigs = [lam.coords], [{}]  # per basis vector: weight coords, signature
    built = {lam.coords}  # the weights of the depths done so far
    lowering = [{} for _ in range(rs.n)]  # k -> basis index -> column of f_k
    powers = [{} for _ in range(rs.n)]  # k -> weight -> (m, coordinates) of each f_k^(m) b there
    level = [(lam.coords, range(1))]  # the weights of one depth, with their basis indices
    while level:
        spans = {}  # weight one step down -> [(k, m, b or None, signature of f_k^(m) b)]
        for wt, js in level:
            for k in range(rs.n):
                p, up = 0, tuple(map(operator.add, wt, shifts[k]))
                while up in built:
                    p, up = p + 1, tuple(map(operator.add, up, shifts[k]))
                if p + wt[k] <= 0:  # wt - a_k is not a weight: f_k kills V_wt
                    lowering[k].update((j, {}) for j in js)
                    powers[k].pop(wt, None)
                    continue
                first = {j: add_into(apply(lowering[k], sigs[j]), {j: wt[k]}) for j in js}
                span = spans.setdefault(tuple(map(operator.sub, wt, shifts[k])), [])
                span += [(k, 1, j, sig) for j, sig in first.items()]
                for m, vec in powers[k].pop(wt, []):
                    span.append((k, m + 1, None, linalg.divide(apply(first, vec), m + 1)))
        level = []
        for low, span in spans.items():
            rows = linalg.echelon(sig for _, _, _, sig in span)
            start = len(weights)
            weights += [low] * len(rows)
            sigs += rows.values()
            level.append((low, range(start, len(weights))))
            built.add(low)
            for k, m, b, sig in span:
                vec = {start + i: c for i, c in linalg.coordinates(rows, sig).items()}
                if b is not None:
                    lowering[k][b] = vec
                if vec:
                    powers[k].setdefault(low, []).append((m, vec))

    dim = len(weights)
    actions = {}
    for k, alpha in enumerate(rs.simple_roots):
        up = {w: tuple(map(operator.add, w, shifts[k])) for w in built}
        actions[("h", k)] = [{j: w[k]} if w[k] else {} for j, w in enumerate(weights)]
        actions[("e", alpha.coords)] = [
            {r: x for r, x in sigs[j].items() if weights[r] == up[w]} for j, w in enumerate(weights)
        ]
        actions[("e", (-alpha).coords)] = [lowering[k][j] for j in range(dim)]
    return HighestWeightModule(algebra, lam, weights, _with_derived_actions(algebra, actions))


# -- modules ----------------------------------------------------------------


def build_irrep(algebra, lam, dim_cap=DIM_CAP):
    """V(lam) of the algebra, the one entry point to modules.  The weight is
    refused by ``weyl_dim`` and the cap is checked on every call.  A module
    in the algebra's memo is returned with no other check; a miss consults
    the bracket table's verdict (``build_realization``) before it builds, so
    no module of an algebra whose table fails the check is returned."""
    if not isinstance(lam, Weight):
        lam = Weight(tuple(lam))
    if (predicted := weyl_dim(algebra.root_system, lam)) > dim_cap:
        raise DimensionCap(predicted, dim_cap)
    if lam.coords not in algebra._modules:
        build_realization(algebra)
    return _module(algebra, lam)


def _module(algebra, lam):
    """V(lam) from the algebra's memo, which holds a module while anything
    else does and every module no larger than dim g for the process; or
    built, checked against the dimension formula and stored."""
    if (mod := algebra._modules.get(lam.coords)) is None:
        mod = _build_irreducible(algebra, lam)
        if mod.dim != (predicted := weyl_dim(algebra.root_system, lam)):
            raise AssertionError(f"module has dimension {mod.dim}, formula says {predicted}")
        algebra._modules[lam.coords] = mod
        if mod.dim <= len(algebra._index):  # dim g
            algebra._small.append(mod)
    return mod


def build_realization(algebra):
    """The algebra, its bracket table checked on the fundamental of least
    Weyl dimension of each simple factor (``checked_fundamentals``).  That is
    enough: the simple root matrices satisfy the presenting relations, a
    nonzero module of a simple algebra is faithful and the other factors act
    by zero, so the sweep over all ordered pairs of basis keys checks the
    factor's component of every bracket, cross-factor ones included.  Every
    such module is built before any is checked.  The algebra alone keeps the
    verdict, with the table it read (``_derived``): while that table is bound
    a later call reads no module, and a check that raises keeps nothing."""
    def check():
        mods = [_module(algebra, lam) for lam in checked_fundamentals(algebra.root_system)]
        return [representation_property_check(algebra, mod.actions) for mod in mods]

    _derived(algebra, "_verdict", check)
    return algebra


def _derived(algebra, slot, derive):
    """derive(), kept in the algebra's slot (``_verdict``, ``_orbit``) with the
    bracket table it read and returned while that table is bound (``is``);
    derived again once the table is rebound.  A derive that raises keeps nothing."""
    kept, table = getattr(algebra, slot), algebra._brackets
    if kept is None or kept[0] is not table:
        kept = (table, derive())
        setattr(algebra, slot, kept)
    return kept[1]


def checked_fundamentals(rs):
    """The fundamental weight of least Weyl dimension of each simple factor, on whose
    modules ``build_realization`` checks the bracket table."""
    ranks = [rank for _, rank in rs.components]
    out = []
    for start, rank in zip(itertools.accumulate(ranks, initial=0), ranks):
        lams = [rs.fundamental_weight(i) for i in range(start, start + rank)]
        out.append(min(lams, key=lambda lam: weyl_dim(rs, lam)))
    return out


def _failure(x, y):
    """The error naming the pair of basis keys the representation check fails on."""
    return AssertionError(f"representation property fails on {fmt_key(x)}, {fmt_key(y)}")


def representation_property_check(algebra, actions):
    """Exact check that the matrices represent the algebra: on every ordered
    pair of basis keys, the matrix bracket equals the matrix of the bracket.
    Each unordered pair is compared in one pass over the nonzero columns
    (``_bracket_defect``), and the table must give [y, x] = -[x, y], as
    [X_y, X_x] = -[X_x, X_y] holds for any matrices."""
    keys = algebra.basis_keys()
    nonzero = {k: [(j, col) for j, col in enumerate(actions[k]) if col] for k in keys}
    for i, x in enumerate(keys):
        for y in keys[i:]:
            terms = algebra.bracket_keys(x, y)
            if _bracket_defect(actions, nonzero, x, y, terms):
                raise _failure(x, y)
            if algebra.bracket_keys(y, x) != {k: -c for k, c in terms.items()}:
                raise _failure(y, x)
    return True


class MultiplicityRecord(namedtuple("MultiplicityRecord", "lam chi dim")):
    """dim of the subspace of semi-invariants of character chi in the module
    of highest weight lam (a Weight)."""

    __slots__ = ()

    def pair(self, rs):
        """The semigroup element this record witnesses (dual weight, character)."""
        return (rs.dual_weight(self.lam).coords, self.chi)


def _nil_images(mod, sub: SubgroupData, vectors):
    """For each sparse vector v, the images x_i v under the unipotent basis
    (whose elements x_i = sum of c X_key are primitive integer vectors),
    summed straight from the columns of the X_key and stacked into one
    vector keyed by i * dim + row."""
    if mod.algebra is not sub.algebra:
        raise AlgebraMismatch("module and subgroup live over different algebras")
    terms = [(i * mod.dim, mod.actions[key], c)
             for i, x in enumerate(sub.nil_basis) for key, c in x.terms.items()]
    out = []
    for vec in vectors:
        stacked = {}
        get = stacked.get
        for j, x in vec.items():
            for base, cols, c in terms:
                for r, y in cols[j].items():
                    key = base + r
                    stacked[key] = get(key, 0) + c * x * y
        out.append({key: y for key, y in stacked.items() if y})
    return out


def semi_invariant_dim(mod, sub: SubgroupData, chi) -> MultiplicityRecord:
    """Exact dimension of the semi-invariants of weight chi under the subgroup.

    A vector qualifies when it is an S-weight vector of weight chi and is
    killed by every basis element of the unipotent part: the dimension is
    the number of basis vectors of S-weight chi less the rank of their
    stacked integer images, counted by ``linalg.echelon``.  The basis
    vectors of S-weight chi are read from ``mod.by_s_weight(sub.tau)``, one
    grouping of the module's basis per torus restriction, kept on the module.
    """
    chi = tuple(chi)
    if len(chi) != sub.tau.d:
        raise ValueError(f"a vector of {len(chi)} coordinates is not a character of S (d = {sub.tau.d})")
    cols = mod.by_s_weight(sub.tau).get(chi, [])
    images = _nil_images(mod, sub, ({j: 1} for j in cols))
    return MultiplicityRecord(mod.lam, chi, len(cols) - len(linalg.echelon(images)))


def semi_invariant_witness(mod, sub: SubgroupData, table: ActiveRootTable, j):
    """The lowered highest vector witnessing the j-th active generator.

    Returns a nonzero module vector of S-weight tau(lam) - phi_j that the
    unipotent part annihilates, scaled to its primitive integer multiple;
    both facts are checked by the caller via annihilated_by_nil and
    vector_s_weight.
    """
    if not 0 <= j < table.m:
        raise IndexError(f"family index {j} out of range (m = {table.m})")
    rs = mod.algebra.root_system
    fam = table.families[j]
    first = fam.roots[0].coords
    scale = fam.coefficients[first]
    pairs = [(beta, rs.pairing(mod.lam, beta)) for beta in fam.roots]
    for beta, pair in pairs:
        if pair <= 0:
            raise AssertionError(f"nonpositive pairing of {mod.lam} with {beta}")
    den = math.lcm(*(scale * pair for _, pair in pairs))  # c_beta / (scale pair), times den, in ints
    vec = {}
    for beta, pair in pairs:
        coeff = fam.coefficients[beta.coords] * (den // (scale * pair))
        add_into(vec, mod.actions[("e", (-beta).coords)][0], coeff)
    vec = linalg.primitive(vec)
    return [vec.get(i, 0) for i in range(mod.dim)]


def annihilated_by_nil(mod, sub: SubgroupData, vec):
    """Whether every unipotent basis element kills the vector; ValueError unless it has mod.dim coordinates."""
    if len(vec) != mod.dim:
        raise ValueError(f"a vector of {len(vec)} coordinates is not in a module of dimension {mod.dim}")
    return not _nil_images(mod, sub, [{j: x for j, x in enumerate(vec) if x}])[0]


def vector_s_weight(mod, sub: SubgroupData, vec):
    """The common S-weight of a vector's support; ValueError if mixed, or unless it has mod.dim coordinates."""
    if len(vec) != mod.dim:
        raise ValueError(f"a vector of {len(vec)} coordinates is not in a module of dimension {mod.dim}")
    chis = {sub.tau.restrict(mod.weights[j]) for j in range(mod.dim) if vec[j] != 0}
    if len(chis) != 1:
        raise ValueError(f"vector is not an S-weight vector: {sorted(chis)}")
    return chis.pop()


def dominant_weights_at_level(rs, level):
    """The dominant integral weights with coordinate sum level, in
    coordinate order: each weight is read off the bars of one arrangement of
    level stars and n - 1 bars."""
    n = rs.n
    for bars in itertools.combinations(range(level + n - 1), n - 1):
        edges = (-1, *bars, level + n - 1)
        yield Weight(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))


def dominant_weights_up_to(rs, height_bound):
    """All dominant integral weights with coordinate sum <= the bound,
    ordered by coordinate sum, then by coordinates."""
    return [w for level in range(height_bound + 1) for w in dominant_weights_at_level(rs, level)]


def semi_invariant_records(sub: SubgroupData, height_bound, dim_cap=DIM_CAP):
    """The MultiplicityRecord of every character of S in every module up to
    the bound, dimension 0 included, level by level and in character order,
    whatever the subgroup's verdict.  The stream holds one module at a time:
    it lets go of each before it asks for the next, so a module that no other
    caller holds and the algebra does not keep is freed by then."""
    for lam in dominant_weights_up_to(sub.root_system, height_bound):
        mod = build_irrep(sub.algebra, lam, dim_cap)
        for chi in sorted(mod.by_s_weight(sub.tau)):
            yield semi_invariant_dim(mod, sub, chi)
        del mod


def enumerate_semigroup(sub: SubgroupData, height_bound, dim_cap=DIM_CAP):
    """The records of ``semi_invariant_records`` with nonzero semi-invariants;
    NotSpherical for a subgroup that is not spherical."""
    verdict = check_spherical(sub)
    if not verdict.spherical:
        raise NotSpherical(verdict.violations)
    return [r for r in semi_invariant_records(sub, height_bound, dim_cap) if r.dim]


# -- open orbit check --------------------------------------------------------

PRIME = 2**31 - 1  # the open-orbit test works mod this prime


def exp_nilpotent(chains, rows, c=1):
    """exp(c A) V mod PRIME, V given by its rows (int lists mod PRIME, or None for
    zero) and A by its ``_chains``, which check nilpotency and carry the constants:
    row r gains c^k w times row j for each step (r, k, w) of column j's chain."""
    powers, out = (1, c % PRIME, c * c % PRIME, c * c * c % PRIME), list(rows)
    for j, steps in chains:
        if src := rows[j]:
            for r, k, w in steps:
                s, acc = w * powers[k] % PRIME, out[r]
                out[r] = [s * b % PRIME for b in src] if acc is None else [(a + s * b) % PRIME for a, b in zip(acc, src)]
    return out


def _chains(cols):
    """For each column j with an entry of an operator A given by monomial columns
    (cols[j] None or its one (row, N) entry), the steps (row, k, N_1...N_k / k!
    mod PRIME) of the chain j -> ... -> row, k <= 3; AssertionError if A^4 e_j != 0."""
    out = []
    for j, entry in enumerate(cols):
        steps, w = [], 1
        while entry is not None:
            if len(steps) == 3:
                raise AssertionError("operator is not nilpotent")
            (r, n), k = entry, len(steps) + 1
            w, entry = w * n % PRIME, cols[r]
            steps.append((r, k, w * pow(math.factorial(k), -1, PRIME) % PRIME))
        out += [(j, steps)] if steps else []
    return out


def _orbit_tables(algebra):
    """The basis key index, the e(-a) positions over the positive roots a,
    ``longest_word`` and the chains of each ad e(-a_i), checked monomial."""
    rs, index, letters = algebra.root_system, algebra._index, []
    for f in [("e", (-a).coords) for a in rs.simple_roots]:
        cols = [algebra.bracket_keys(f, y) for y in index]
        if any(len(terms) > 1 for terms in cols):
            raise AssertionError(f"ad {fmt_key(f)} is not monomial")
        letters.append(_chains([next(((index[k], c) for k, c in terms.items()), None) for terms in cols]))
    return index, [index[("e", (-a).coords)] for a in rs.positive_roots], rs.longest_word, letters


def open_orbit_check(sub: SubgroupData, realization=None, trials=200, seed=0):
    """Randomized certificate that the Borel has an open orbit on G/H.

    The u in the lower unipotent group U^- with b + Ad(u) h = g form an open
    set, not empty exactly when H is spherical: the good g of G are open and
    left B-invariant, and B U^- is dense in G.  A trial draws u = y_i1(c_1)
    ... y_iN(c_N), y_i(c) = exp(c e(-a_i)), along the reduced word of w0 of
    ``RootSystem.longest_word`` (N = |positive roots|), each c_k uniform mod
    p = PRIME = 2^31 - 1; that product map is dominant onto U^- (Lusztig,
    Total positivity in reductive groups, 1994, section 2; Fomin and
    Zelevinsky, Double Bruhat cells and total positivity, 1999).  It tests
    whether the e(-a) coordinates of Ad(u) x, over a basis x of h (primitive
    integer vectors, so no input datum is inverted mod p), have rank N mod
    p, which holds exactly when b + Ad(u) h = g.  Ad(u) acts one letter at a
    time on the rows of all x (``exp_nilpotent``).  Each ad e(-a_i) is checked
    monomial on the Chevalley basis, with fourth power zero, once per algebra,
    where its chains with their constants are derived (``_chains``).

    True is exact: the coordinates are polynomials in the c_k over Q without
    p in a denominator (p > 3, so each 1/k! exists mod p), and a maximal
    minor nonzero mod p is nonzero over Q.  Each ad e(-a_i) lowers height by
    one, so an entry of Ad(u) has degree at most 2 ht(theta) and a maximal
    minor at most D = 2 ht(theta) |positive roots|: after k failed trials,
    False is wrong with probability at most (D/p)^k (Schwartz 1980, Zippel
    1979) if a maximal minor nonzero over Q is not identically zero mod p,
    and exact when dim h < |positive roots|.  ``trials`` must be an int of
    at least 1, as no trial supports a negative.  The tables are kept on the
    algebra (``_derived``) and read, never written.  The unused second
    parameter takes the ``build_realization`` result that the benchmark's
    crosscheck job passes.
    """
    if type(trials) is not int or trials < 1:
        raise ValueError(f"open-orbit trials must be an int of at least 1, got {trials!r}")
    index, negatives, word, letters = _derived(sub.algebra, "_orbit", lambda: _orbit_tables(sub.algebra))
    vectors = [{("h", i): c for i, c in enumerate(row) if c} for row in sub.tau.rows] + [x.terms for x in sub.nil_basis]
    if len(vectors) < len(negatives):
        return False
    filled = {}  # the rows of the basis keys in some vector's support
    for v, terms in enumerate(vectors):
        for key, c in terms.items():
            filled.setdefault(index[key], [0] * len(vectors))[v] = c % PRIME
    rows = [filled.get(i) for i in range(len(index))]
    rng = random.Random(seed)
    for _ in range(trials):
        image = rows
        for i in reversed(word):  # Ad(u) x: the last letter acts first
            image = exp_nilpotent(letters[i], image, rng.randrange(PRIME))
        if linalg.rank_mod_p([image[j] or [0] * len(vectors) for j in negatives], PRIME) == len(negatives):
            return True
    return False
