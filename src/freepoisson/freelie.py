"""Free Lie algebra on generators x1..xn over the rationals.

Elements are stored in the Lyndon basis: each basis element is identified
with a Lyndon word (a tuple of letter indices, 1-based) whose attached
bracketing is the standard one derived from the standard factorization.
Generators are ordered x1 < x2 < ..., and words compare lexicographically
with that letter order (a proper prefix is smaller than the full word).

`associative_expansion`, a basis word's bracketing as an associative
polynomial, is the Hamiltonian map on basis words (env.ham) and the core
of the test oracle `lie_bracket_oracle`.
"""

from fractions import Fraction
from functools import lru_cache

from .core import SCALARS, Terms, accumulate, graded_lex_key


def is_lyndon(word):
    """True iff the word is strictly smaller than every proper suffix."""
    w = tuple(word)
    if not w:
        raise ValueError("empty word")
    return all(w < w[k:] for k in range(1, len(w)))


def lyndon_words(n, max_len):
    """All Lyndon words over the alphabet 1..n of length <= max_len.

    Duval's algorithm; yields each word exactly once.
    """
    if n < 1 or max_len < 0:
        raise ValueError("need n >= 1 and max_len >= 0")
    out = []
    w = [0]
    while w:
        w[-1] += 1
        m = len(w)
        if m <= max_len:
            out.append(tuple(w))
        while len(w) < max_len:
            w.append(w[-m])
        while w and w[-1] == n:
            w.pop()
    return out


def lyndon_basis(n, max_degree):
    """Basis words of degree <= max_degree, ordered by degree then lex."""
    return sorted(lyndon_words(n, max_degree), key=graded_lex_key)


def standard_factorization(word):
    """Split a Lyndon word of length >= 2 as u*v with v the least proper suffix.

    Both halves are again Lyndon words and u < v.
    """
    w = tuple(word)
    if len(w) < 2:
        raise ValueError("word is a single letter")
    v = min(w[k:] for k in range(1, len(w)))
    return w[: len(w) - len(v)], v


def standard_bracketing(word):
    """Nested-pair form of the basis element attached to a Lyndon word."""
    w = tuple(word)
    if len(w) == 1:
        return w[0]
    u, v = standard_factorization(w)
    return (standard_bracketing(u), standard_bracketing(v))


class Lie(Terms):
    """A free-Lie-algebra element: finite map from Lyndon words to scalars."""

    __slots__ = ()

    @staticmethod
    def zero():
        return Lie()

    @staticmethod
    def generator(i):
        if i < 1:
            raise ValueError("generator index must be >= 1")
        return Lie({(i,): 1})

    @staticmethod
    def basis_element(word):
        if not is_lyndon(word):
            raise ValueError(f"{word!r} is not a Lyndon word")
        return Lie({tuple(word): 1})

    def _lift(self, c):
        # the free Lie algebra has no unit: 0 is its only scalar
        return Lie() if isinstance(c, SCALARS) and not c else NotImplemented

    def degree(self):
        """Maximal word length, or -inf for the zero element."""
        if not self.terms:
            return float("-inf")
        return max(len(w) for w in self.terms)

    def is_homogeneous(self):
        return len({len(w) for w in self.terms}) <= 1

    def __repr__(self):
        if not self.terms:
            return "Lie(0)"
        bits = [f"{c}*{w}" for w, c in sorted(self.terms.items(), key=lambda t: graded_lex_key(t[0]))]
        return "Lie(" + " + ".join(bits) + ")"


# Far above the 2,884 pairs (either order) that all the property suites bracket.
_BRACKET_TABLE_SIZE = 1 << 16


@lru_cache(maxsize=_BRACKET_TABLE_SIZE)
def _basis_bracket(u, v):
    """Bracket of two basis words, expanded over the Lyndon basis.

    Recursive rewriting on ordered pairs u < v (the concatenation uv is
    then itself Lyndon): if (u, v) is the standard factorization of uv
    the bracket is a basis element; otherwise u has length >= 2 and its
    standard factorization (u1, u2) satisfies u2 < v, so the Jacobi
    identity [u1u2, v] = [u1, [u2, v]] - [u2, [u1, v]] applies, with
    both inner brackets of strictly smaller degree.  The results, kept in
    a bounded table, must not be mutated.
    """
    if u == v:
        return {}
    if u > v:
        return {w: -c for w, c in _basis_bracket(v, u).items()}
    w = u + v
    if standard_factorization(w) == (u, v):
        return {w: 1}
    u1, u2 = standard_factorization(u)
    out = {}
    for z, c in _basis_bracket(u2, v).items():
        accumulate(out, _basis_bracket(u1, z).items(), c)
    for z, c in _basis_bracket(u1, v).items():
        accumulate(out, _basis_bracket(u2, z).items(), -c)
    return out


def lie_bracket(a, b):
    """Bracket of two Lie elements, bilinear over the basis rewriting."""
    out = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            accumulate(out, _basis_bracket(u, v).items(), cu * cv)
    return Lie._make(out)


def associative_expansion(word):
    """A basis word's bracketing expanded in the free associative algebra
    by [u, v] = uv - vu, with integer coefficients.  In the h-letters it is
    h of the basis element in canonical form (env.ham)."""
    w = tuple(word)
    if len(w) == 1:
        return {w: 1}
    u, v = standard_factorization(w)
    a = associative_expansion(u)
    b = associative_expansion(v)
    out = {}
    for wu, cu in a.items():
        for wv, cv in b.items():
            accumulate(out, [(wu + wv, cu * cv), (wv + wu, -cu * cv)])
    return out


# ---------------------------------------------------------------------------
# Cross-check oracle: expand bracketings in the free associative algebra and
# convert back by greedy peeling of minimal Lyndon words.  Independent of
# _basis_bracket, and only used at test scale.

def lie_to_associative(a):
    """Image of a Lie element in the free associative algebra."""
    out = {}
    for w, c in a.terms.items():
        accumulate(out, associative_expansion(w).items(), c)
    return out


def lie_from_associative(terms):
    """Rewrite an associative polynomial that lies in the free Lie algebra.

    Greedy: the lexicographically least word of a Lie element is a Lyndon
    word carrying the coefficient of its basis element.  Raises ValueError
    if the input is not a Lie element.
    """
    rest = {w: Fraction(c) for w, c in terms.items() if c}
    out = {}
    while rest:
        w = min(rest)
        if not is_lyndon(w):
            raise ValueError(f"not a Lie element: stray word {w!r}")
        c = rest[w]
        accumulate(out, ((w, c),))
        accumulate(rest, associative_expansion(w).items(), -c)
    return Lie._make(out)


def lie_bracket_oracle(a, b):
    """Bracket computed through the associative expansion (test oracle)."""
    ea = lie_to_associative(a)
    eb = lie_to_associative(b)
    out = {}
    for wa, ca in ea.items():
        for wb, cb in eb.items():
            accumulate(out, [(wa + wb, ca * cb), (wb + wa, -ca * cb)])
    return lie_from_associative(out)
