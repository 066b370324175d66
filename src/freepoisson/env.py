"""Enveloping algebra of the free Poisson algebra.

Every element has a canonical form: a finite sum of polynomial
coefficients times words in the Hamiltonian generators h(x_1)..h(x_n),
with the coefficient written on the left.  An h-word is stored as a
tuple of generator indices.  The defining relations are

    h(x_i) * q = q * h(x_i) + {x_i, q}          for q polynomial,

so multiplication pushes h-letters to the right past coefficients; each
bracket term shortens the pending h-word, which makes the rewriting
terminate.
"""

from . import freelie, poisson
from .core import SCALARS, Terms, accumulate, graded_lex_key
from .poisson import Poly


class Env(Terms):
    """Enveloping-algebra element: finite map from h-words to Poly."""

    __slots__ = ()

    @staticmethod
    def zero():
        return Env()

    @staticmethod
    def one():
        return Env({(): Poly.one()})

    @staticmethod
    def from_poly(p):
        return Env({(): p})

    @staticmethod
    def h_generator(i):
        if i < 1:
            raise ValueError("generator index must be >= 1")
        return Env({(i,): Poly.one()})

    def _coefficient(self, p):
        return p if isinstance(p, Poly) else Poly.constant(p)

    def _lift(self, x):
        if isinstance(x, SCALARS):
            x = Poly.constant(x)
        return Env._make({(): x} if x else {}) if isinstance(x, Poly) else NotImplemented

    def _mul(self, other):
        return env_mul(self, other)

    def hdeg(self):
        """Length of the longest h-word, or -inf for zero."""
        if not self.terms:
            return float("-inf")
        return max(len(w) for w in self.terms)

    def leading_word(self):
        if not self.terms:
            raise ValueError("zero element has no leading word")
        return max(self.terms, key=graded_lex_key)

    def split(self):
        """(polynomial part, remainder with nonempty h-words)."""
        p = self.terms.get((), Poly.zero())
        rest = Env._make({w: q for w, q in self.terms.items() if w})
        return p, rest

    def __repr__(self):
        if not self.terms:
            return "Env(0)"
        bits = []
        for w in sorted(self.terms, key=graded_lex_key, reverse=True):
            hw = "*".join(f"h(x{j})" for j in w) or "1"
            bits.append(f"({self.terms[w]!r})*{hw}")
        return "Env(" + " + ".join(bits) + ")"


def _word_past(w, q):
    """h_w * q as a dict word -> Poly, pushing h-letters right past q.

    The letters of w move right one at a time, the last first, by
    h_j * r = r * h_j + {x_j, r}.  A (suffix, r) path ends as soon as r
    is constant, and the paths are summed by suffix only at the end, so
    every bracket is taken on the same r as in a recursive rewriting.
    The loop has no recursion depth to run out of.
    """
    if q.is_zero():
        return {}
    if not w or q.is_constant():
        return {w: q}
    done, paths = [], [((), q)]
    for i in range(len(w) - 1, -1, -1):
        step = []
        for s, r in paths:
            if r.is_constant():
                done.append((w[: i + 1] + s, r))
                continue
            step.append(((w[i],) + s, r))
            br = poisson.p_bracket(Poly.generator(w[i]), r)
            if br:
                step.append((s, br))
        paths = step
    return accumulate({}, done + paths)


def env_mul(a, b):
    """Product in the enveloping algebra, result in canonical form."""
    b = b.terms.items()
    products = ((u + v, p * r) for w, p in a.terms.items() for v, q in b for u, r in _word_past(w, q).items())
    return Env._make(accumulate({}, products))


def commutator(a, b):
    return env_mul(a, b) - env_mul(b, a)


def graded_mul(a, b):
    """Product of top symbols: concatenate h-words, multiply coefficients."""
    out = {}
    for w, p in a.terms.items():
        accumulate(out, ((w + v, p * q) for v, q in b.terms.items()))
    return Env._make(out)


_HAM_CACHE = {}


def _ham_word(w):
    """Hamiltonian of a Lyndon-basis element, in canonical form."""
    got = _HAM_CACHE.get(w)
    if got is not None:
        return got
    if len(w) == 1:
        got = Env({(w[0],): Poly.one()})
    else:
        u, v = freelie.standard_factorization(w)
        got = commutator(_ham_word(u), _ham_word(v))
    _HAM_CACHE[w] = got
    return got


def ham(p):
    """Hamiltonian of a polynomial.

    Linear in p; on a monomial it expands by the Leibniz rule
    h(m) = sum over basis factors e_w of  e·(m / e_w)·h(e_w),
    and on basis elements by h([u, v]) = [h(u), h(v)].
    """
    out = {}
    for m, c in p.terms.items():
        for w, e, rest in poisson.partials(m):
            cof = Poly._make({rest: c * e})
            accumulate(out, (cof * _ham_word(w)).terms.items())
    return Env._make(out)


def hdeg(u):
    return u.hdeg()


def ldm(u):
    """Leading h-word: greatest under length then left-to-right lex."""
    return u.leading_word()


def ldc(u):
    """Coefficient of the leading h-word (the literal, unnormalized Poly)."""
    return u.terms[u.leading_word()]


def ldt(u):
    """Leading term: leading coefficient times leading word."""
    w = u.leading_word()
    return Env._make({w: u.terms[w]})


def top(u):
    """Highest hdeg-homogeneous part; errors on zero."""
    if u.is_zero():
        raise ValueError("zero element has no top part")
    d = u.hdeg()
    return Env._make({w: p for w, p in u.terms.items() if len(w) == d})


def split(u):
    """(polynomial part, part with nonempty h-words)."""
    return u.split()


def word_right_divides(v, u):
    """True iff u = t + v as letter sequences (v is a suffix of u)."""
    k = len(v)
    return k <= len(u) and (k == 0 or u[-k:] == tuple(v))
