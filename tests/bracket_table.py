"""Reading and corrupting the structure constants of an algebra's one bracket
table, ``ChevalleyAlgebra._brackets``, for the tests that need them."""

from types import MappingProxyType


def constants(algebra):
    """{(a, b): N} for every [e_a, e_b] = N e_{a+b} with N nonzero: the
    entries of two e keys whose term is an e key."""
    return {
        (x[1], y[1]): terms[0][1]
        for (x, y), terms in algebra._brackets.items()
        if x[0] == y[0] == terms[0][0][0] == "e"
    }


def with_constant(algebra, a, b, n):
    """A copy of the algebra's bracket table with N(a, b) set to n and every
    other entry kept, for rebinding ``_brackets`` to."""
    pair = (("e", a), ("e", b))
    ((key, _),) = algebra._brackets[pair]
    return MappingProxyType({**algebra._brackets, pair: ((key, n),)})
