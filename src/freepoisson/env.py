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

from fractions import Fraction

from . import freelie, poisson
from .core import graded_lex_key
from .poisson import Poly


class Env:
    """Enveloping-algebra element: finite map from h-words to Poly."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for w, p in terms.items():
                if not isinstance(p, Poly):
                    p = Poly.constant(p)
                if not p.is_zero():
                    data[tuple(w)] = p
        self.terms = data

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

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for w, p in other.terms.items():
            s = out.get(w)
            s = p if s is None else s + p
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return Env(out)

    __radd__ = __add__

    def __neg__(self):
        return Env({w: -p for w, p in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Env({w: p * c for w, p in self.terms.items()})
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return env_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        if isinstance(other, Poly):
            # left coefficients multiply commutatively
            return Env({w: other * p for w, p in self.terms.items()})
        return NotImplemented

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((w, hash(p)) for w, p in self.terms.items()))

    def hdeg(self):
        """Length of the longest h-word, or -inf for zero."""
        if not self.terms:
            return float("-inf")
        return max(len(w) for w in self.terms)

    def leading_word(self):
        if not self.terms:
            raise ValueError("zero element has no leading word")
        return max(self.terms, key=graded_lex_key)

    def leading_coeff(self):
        return self.terms[self.leading_word()]

    def leading_term(self):
        w = self.leading_word()
        return Env({w: self.terms[w]})

    def top_part(self):
        """Terms whose h-word has maximal length."""
        if not self.terms:
            return Env()
        d = self.hdeg()
        return Env({w: p for w, p in self.terms.items() if len(w) == d})

    def split(self):
        """(polynomial part, remainder with nonempty h-words)."""
        p = self.terms.get((), Poly.zero())
        rest = Env({w: q for w, q in self.terms.items() if w})
        return p, rest

    def last_letter_parts(self):
        """Group terms by the last letter of the h-word (0 for the empty word)."""
        out = {}
        for w, p in self.terms.items():
            k = w[-1] if w else 0
            out.setdefault(k, {})[w] = p
        return {k: Env(t) for k, t in out.items()}

    def __repr__(self):
        if not self.terms:
            return "Env(0)"
        bits = []
        for w in sorted(self.terms, key=graded_lex_key, reverse=True):
            hw = "*".join(f"h(x{j})" for j in w) or "1"
            bits.append(f"({self.terms[w]!r})*{hw}")
        return "Env(" + " + ".join(bits) + ")"


def _coerce(x):
    if isinstance(x, Env):
        return x
    if isinstance(x, Poly):
        return Env.from_poly(x)
    if isinstance(x, (int, Fraction)):
        return Env.from_poly(Poly.constant(x))
    return NotImplemented


def _acc(out, w, p):
    s = out.get(w)
    s = p if s is None else s + p
    if s.is_zero():
        out.pop(w, None)
    else:
        out[w] = s


def _word_past(w, q):
    """h_w * q as a dict word -> Poly, pushing h-letters right past q."""
    if q.is_zero():
        return {}
    if not w or q.is_constant():
        return {w: q}
    j = w[-1]
    head = w[:-1]
    out = {}
    for u, r in _word_past(head, q).items():
        _acc(out, u + (j,), r)
    br = poisson.p_bracket(Poly.generator(j), q)
    if not br.is_zero():
        for u, r in _word_past(head, br).items():
            _acc(out, u, r)
    return out


def env_mul(a, b):
    """Product in the enveloping algebra, result in canonical form."""
    out = {}
    for w, p in a.terms.items():
        for v, q in b.terms.items():
            for u, r in _word_past(w, q).items():
                _acc(out, u + v, p * r)
    return Env(out)


def commutator(a, b):
    return env_mul(a, b) - env_mul(b, a)


def graded_mul(a, b):
    """Product of top symbols: concatenate h-words, multiply coefficients."""
    out = {}
    for w, p in a.terms.items():
        for v, q in b.terms.items():
            _acc(out, w + v, p * q)
    return Env(out)


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
    out = Env.zero()
    for m, c in p.terms.items():
        for w, e in m:
            cof = Poly({poisson.mono_div(m, w): c * e})
            out = out + cof * _ham_word(w)
    return out


def hdeg(u):
    return u.hdeg()


def ldm(u):
    """Leading h-word: greatest under length then left-to-right lex."""
    return u.leading_word()


def ldc(u):
    """Coefficient of the leading h-word (the literal, unnormalized Poly)."""
    return u.leading_coeff()


def ldt(u):
    """Leading term: leading coefficient times leading word."""
    return u.leading_term()


def top(u):
    """Highest hdeg-homogeneous part; errors on zero."""
    if u.is_zero():
        raise ValueError("zero element has no top part")
    return u.top_part()


def split(u):
    """(polynomial part, part with nonempty h-words)."""
    return u.split()


def word_right_divides(v, u):
    """True iff u = t + v as letter sequences (v is a suffix of u)."""
    k = len(v)
    return k <= len(u) and (k == 0 or u[-k:] == tuple(v))
