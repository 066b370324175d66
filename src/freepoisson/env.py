"""Enveloping algebra of the free Poisson algebra.

Every element has a canonical form: a finite sum of polynomial
coefficients times words in the Hamiltonian generators h(x_1)..h(x_n),
with the coefficient written on the left.  An h-word is stored as a
tuple of generator indices.  The defining relations are

    h(x_i) * q = q * h(x_i) + {x_i, q}          for q polynomial,

and since {x_i, .} is a derivation they give the derivation rule

    h_a * (p h_v) = p h_(a,v) + {x_a, p} h_v,

which `_Derivation` applies, one letter of h_w at a time from the last,
to make h_w * u in canonical form.  It is the only statement of the
relation: env_mul and the bounded searches of `depend` both call it.

Products of the h(x_i) with constant coefficients are plain h-words, so
`ham` of a basis element is its associative expansion in the h-letters:
a closed form that makes no product and keeps no table.
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


class _Derivation:
    """h_w * u by the derivation rule, on the monomials of one call
    interned as ints: the one statement of the defining relation.

    Since {x_a, .} is a derivation, h_a * (p h_v) = p h_(a,v) + {x_a, p} h_v,
    and {x_a, p} is the sum of c * {x_a, m} over the terms c*m of p.  Every
    monomial met, in an input or in a bracket, gets the next int id
    (`monos` lists them by id), and each {x_a, m} is bracketed once.  So
    both tables hold one entry per monomial, and per (letter, monomial)
    pair, of the call that owns them: one env_mul, or the set-up of one
    bounded search (depend.ColumnBuilder).  The coefficients are those of
    the Poly terms, ints where integral.
    """

    def __init__(self):
        self.monos, self._ids, self._brackets = [], {}, {}

    def _intern(self, p):
        for m in p.terms:
            if m not in self._ids:
                self._ids[m] = len(self.monos)
                self.monos.append(m)
        return {self._ids[m]: c for m, c in p.terms.items()}

    def products(self, u, words):
        """{w: {v: {id: c}}}, h_w * u = sum of c * monos[id] * h_v, for w in
        `words`, each made as h_(w[0]) * (h_(w[1:]) * u), so each w must
        come after w[1:] (as in any shortest-first order)."""
        brackets = self._brackets
        done = {(): {v: self._intern(p) for v, p in u.terms.items()}}
        for w in filter(None, words):
            a, out = w[0], {}
            for v, p in done[w[1:]].items():
                accumulate(out.setdefault((a,) + v, {}), p.items())
                bracket = out.setdefault(v, {})
                for i, c in p.items():
                    if (a, i) not in brackets:
                        br = poisson.p_bracket(Poly.generator(a), Poly._make({self.monos[i]: 1}))
                        brackets[a, i] = list(self._intern(br).items())
                    accumulate(bracket, brackets[a, i], c)
            done[w] = {v: p for v, p in out.items() if p}
        return {w: done[w] for w in words}


def env_mul(a, b):
    """Product in the enveloping algebra, result in canonical form: the sum,
    over the terms p*h_w of a, of p*(h_w*b).  One _Derivation makes h_w*b
    for every suffix of a word of a.  A polynomial a only multiplies the
    coefficients of b, and a term c*h_v of b with c constant brackets to
    nothing: h_w*(c*h_v) = c*h_(w+v), in time linear in the word."""
    if a.terms.keys() == {()}:
        p = a.terms[()]
        return Env._make({v: p * q for v, q in b.terms.items()})
    const = {v: q for v, q in b.terms.items() if q.is_constant()}
    rest = Env._make({v: q for v, q in b.terms.items() if v not in const})
    out = {}
    for w, p in a.terms.items():
        accumulate(out, ((w + v, p * q) for v, q in const.items()))
    if rest:
        derivation = _Derivation()
        words = sorted({w[i:] for w in a.terms for i in range(len(w) + 1)}, key=graded_lex_key)
        done, monos = derivation.products(rest, words), derivation.monos
        for w, p in a.terms.items():
            accumulate(out, ((v, p * Poly({monos[i]: c for i, c in q.items()})) for v, q in done[w].items()))
    return Env._make(out)


def commutator(a, b):
    return env_mul(a, b) - env_mul(b, a)


def graded_mul(a, b):
    """Product of top symbols: concatenate h-words, multiply coefficients."""
    out = {}
    for w, p in a.terms.items():
        accumulate(out, ((w + v, p * q) for v, q in b.terms.items()))
    return Env._make(out)


def ham(p):
    """Hamiltonian of a polynomial, in closed form: no Env product.

    Linear in p; on a monomial it expands by the Leibniz rule
    h(m) = sum over basis factors e_w of  e·(m / e_w)·h(e_w),
    and h(e_w) is the associative expansion of w in the h-letters
    (freelie.associative_expansion), by h({u, v}) = [h(u), h(v)].
    """
    out = {}
    for m, c in p.terms.items():
        for w, e, rest in poisson.partials(m):
            for v, d in freelie.associative_expansion(w).items():
                accumulate(out.setdefault(v, {}), ((rest, c * (e * d)),))
    return Env._make({v: Poly._make(poisson.int_coefficients(q)) for v, q in out.items() if q})


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
