"""Free Poisson algebra: polynomials in the Lyndon basis elements.

The underlying commutative algebra is the polynomial algebra whose
variables are the Lyndon-basis elements of the free Lie algebra; the
bracket of two basis elements is rewritten in the free Lie algebra and
extended to products by the Leibniz rule, over the factors that
`partials` gives.  A monomial is stored as a tuple of (word, exponent)
pairs sorted by the basis order (degree, then lex on the word).
`mono_key` states the canonical monomial order: every leading term and
every display order is taken in it.  A coefficient is an int when it is
integral and a Fraction only when it is not, so that most arithmetic is
on ints; every operation here returns that form, and every division of
coefficients is exact.  `p_gcd` is the heuristic gcd of Char, Geddes and
Gonnet, retried at larger points until it divides both.
"""

import heapq
import math
from fractions import Fraction
from operator import add, sub

from . import freelie
from .core import SCALARS, Terms, accumulate, graded_lex_key, scalar


def coefficient(c):
    """The scalar c in the form Poly keeps: an int when integral, else a
    Fraction; TypeError unless c is an int or a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = scalar(c)
    return c.numerator if c.denominator == 1 else c


def int_coefficients(terms):
    """The term dict with every integral Fraction coefficient made an int,
    in place: sums and products of Fractions can be integral."""
    for m, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[m] = c.numerator
    return terms


def _quo(c, d):
    """c / d for scalars in Poly's form, in that form: never a float."""
    if type(c) is int and type(d) is int and not c % d:
        return c // d
    return coefficient(Fraction(c) / d)


def mono_mul(m1, m2):
    """Merge two monomials, adding exponents."""
    if not m1 or not m2:
        return m1 or m2
    out = dict(m1)
    for w, e in m2:
        out[w] = out.get(w, 0) + e
    return tuple(sorted(out.items(), key=lambda t: graded_lex_key(t[0])))


def mono_div(m, d):
    """m / d for monomials, or None when d does not divide m."""
    out = dict(m)
    for w, e in d:
        r = out.get(w, 0) - e
        if r < 0:
            return None
        if r:
            out[w] = r
        else:
            del out[w]
    return tuple(out.items())


def mono_deg(m):
    """Total degree, counting each basis factor with its word length."""
    return sum(len(w) * e for w, e in m)


def mono_deg_var(m, i):
    """Degree in the generator x_i: letter count weighted by exponents."""
    return sum(w.count(i) * e for w, e in m)


def mono_key(m):
    """Sort key of the canonical monomial order: degree first, then the
    exponent vectors over the basis order compared lexicographically, a
    positive exponent at an earlier basis word counting as larger."""
    return mono_deg(m), tuple((-len(w), tuple(-a for a in w), e) for w, e in m)


def partials(m):
    """(w, e, m / w) for each factor w^e of the monomial m: the Leibniz
    cofactors of a derivation applied to m."""
    return [(w, e, m[:i] + ((w, e - 1),) * (e > 1) + m[i + 1 :]) for i, (w, e) in enumerate(m)]


class Poly(Terms):
    """A Poisson-algebra element: finite map from monomials to scalars,
    each an int when integral and a Fraction otherwise (`coefficient`)."""

    __slots__ = ()

    _coefficient = staticmethod(coefficient)

    @staticmethod
    def zero():
        return Poly()

    @staticmethod
    def one():
        return Poly({(): 1})

    @staticmethod
    def constant(c):
        return Poly({(): c})

    @staticmethod
    def generator(i):
        if i < 1:
            raise ValueError("generator index must be >= 1")
        return Poly({(((i,), 1),): 1})

    @staticmethod
    def from_basis(word):
        if not freelie.is_lyndon(word):
            raise ValueError(f"{word!r} is not a Lyndon word")
        return Poly({((tuple(word), 1),): 1})

    @staticmethod
    def from_lie(a):
        return Poly._make(int_coefficients({((w, 1),): c for w, c in a.terms.items()}))

    def _like(self, terms):
        return Poly._make(int_coefficients(terms))

    def _lift(self, c):
        return Poly.constant(c) if isinstance(c, SCALARS) else NotImplemented

    @staticmethod
    def _key_power(m, k):
        return tuple((w, e * k) for w, e in m)

    def _mul(self, other):
        """The product; a constant operand only scales the other's
        coefficients, and the constant 1 gives the other operand."""
        const, rest = (other, self) if len(other.terms) == 1 and () in other.terms else (self, other)
        if len(const.terms) == 1 and () in const.terms:
            c = const.terms[()]
            return rest if c == 1 else self._like({m: c * v for m, v in rest.terms.items()})
        b = other.terms.items()
        products = ((mono_mul(m1, m2), c1 * c2) for m1, c1 in self.terms.items() for m2, c2 in b)
        return self._like(accumulate({}, products))

    def is_constant(self):
        return all(m == () for m in self.terms)

    def constant_value(self):
        return self.terms.get((), 0)

    def deg(self):
        """Total degree, or -inf for the zero polynomial."""
        if not self.terms:
            return float("-inf")
        return max(mono_deg(m) for m in self.terms)

    def deg_var(self, i):
        if not self.terms:
            return float("-inf")
        return max(mono_deg_var(m, i) for m in self.terms)

    def leading(self):
        """(monomial, coefficient) maximal in the canonical order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        best = max(self.terms, key=mono_key)
        return best, self.terms[best]

    def monic(self):
        if not self.terms:
            raise ValueError("cannot normalize zero")
        _, c = self.leading()
        return self * _quo(1, c)

    def variables(self):
        """The set of basis words occurring in the support."""
        return {w for m in self.terms for w, _ in m}

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m, c in sorted(self.terms.items()):
            factors = "*".join(f"{w}^{e}" if e > 1 else f"{w}" for w, e in m) or "1"
            bits.append(f"{c}*{factors}")
        return "Poly(" + " + ".join(bits) + ")"


def p_add(a, b):
    return Poly.zero() + a + b


def p_mul(a, b):
    return Poly.one() * a * b


def p_bracket(a, b):
    """Poisson bracket, extended from the Lie bracket by the Leibniz rule:
    the bracket of two factors is read off the basis rewriting table."""
    out = {}
    right = [(c2, partials(m2)) for m2, c2 in b.terms.items()]
    for m1, c1 in a.terms.items():
        left = partials(m1)
        for c2, parts in right:
            c = c1 * c2
            for w1, e1, cof1 in left:
                for w2, e2, cof2 in parts:
                    base = freelie._basis_bracket(w1, w2)
                    if base:
                        cof, s = mono_mul(cof1, cof2), c * e1 * e2
                        accumulate(out, ((mono_mul(cof, ((w, 1),)), s * k) for w, k in base.items()))
    return Poly._make(int_coefficients(out))


def p_deg(a):
    """Total degree; -inf for the zero polynomial."""
    return a.deg()


def p_deg_var(a, i):
    return a.deg_var(i)


def evaluate(p, images):
    """Substitute images[i-1] for the generator x_i, as a Poisson map.

    Basis elements evaluate through their bracketing, monomials through
    commutative products.
    """
    cache = {}

    def eval_word(w):
        got = cache.get(w)
        if got is None:
            if len(w) == 1:
                got = images[w[0] - 1]
            else:
                u, v = freelie.standard_factorization(w)
                got = p_bracket(eval_word(u), eval_word(v))
            cache[w] = got
        return got

    out = {}
    for m, c in p.terms.items():
        acc = Poly.constant(c)
        for w, e in m:
            acc = acc * eval_word(w) ** e
        accumulate(out, acc.terms.items())
    return Poly._make(int_coefficients(out))


def _exponents(words, p):
    """The terms of p keyed by exponent tuples over `words`."""
    zeros = [0] * len(words)
    return {tuple(map(dict(m).get, words, zeros)): c for m, c in p.terms.items()}


def _from_exponents(words, terms):
    order = sorted(range(len(words)), key=lambda i: graded_lex_key(words[i]))
    return Poly._make({tuple((words[i], e[i]) for i in order if e[i]): c for e, c in terms.items()})


def _divide(rest, div, quot):
    """The quotient of two term dicts keyed by exponent tuples, or None if
    div does not divide rest; `quot` divides coefficients and gives None
    when it cannot.  The largest key leads.  The remainder is updated in
    place in `rest` and its leading key is popped from a heap of negated
    keys; since the exponents of a quotient are bounded by those of rest
    less those of div, a term outside that box ends a failed division.
    """
    tail = dict(div)
    lead = max(tail)
    lc = tail.pop(lead)
    top = [max(col) for col in zip(*rest)]
    top = [t - max(col) for t, col in zip(top, zip(*div))]
    heap = [tuple(-x for x in k) for k in rest]
    heapq.heapify(heap)
    out = {}
    while rest:
        k = tuple(-x for x in heapq.heappop(heap))
        c = rest.pop(k, None)
        if c is None:
            continue
        m = tuple(map(sub, k, lead))
        c = quot(c, lc)
        if c is None or any(x < 0 or x > t for x, t in zip(m, top)):
            return None
        out[m] = c
        for t, d in tail.items():
            key = tuple(map(add, m, t))
            if key not in rest:
                heapq.heappush(heap, tuple(-x for x in key))
            s = rest.get(key, 0) - c * d
            if s:
                rest[key] = s
            else:
                del rest[key]
    return out


def _iquot(c, d):
    q, r = divmod(c, d)
    return None if r else q


def divexact(a, b):
    """Exact polynomial division a / b; raises ValueError if not divisible.

    A one-term divisor divides each term.  Otherwise, as an exact quotient
    is the same under every term order, the division runs on exponent
    tuples in their lex order."""
    if b.is_zero():
        raise ValueError("division by zero polynomial")
    if len(b.terms) == 1:
        ((d, c),) = b.terms.items()
        out = {}
        for m, v in a.terms.items():
            q = mono_div(m, d) if d else m
            if q is None:
                raise ValueError("polynomials do not divide exactly")
            out[q] = _quo(v, c)
        return Poly._make(out)
    words = sorted(a.variables() | b.variables(), key=graded_lex_key)
    quo = _divide(_exponents(words, a), _exponents(words, b), _quo)
    if quo is None:
        raise ValueError("polynomials do not divide exactly")
    return _from_exponents(words, quo)


def _heu_gcd(f, g, k):
    """The gcd of nonzero integer polynomials in x_k, x_(k+1), ..., up to
    sign, by the heuristic gcd of Char, Geddes and Gonnet (J. Symbolic
    Comput. 7, 1989): with the integer content taken out, the gcd of the
    values at x_k = xi, found one level down, is expanded in powers of xi,
    and its primitive part is accepted once it divides both inputs; until
    then xi grows.  By their theorem an accepted candidate is the gcd, as
    xi > 2 min(|f|, |g|) + 2.  The loop ends: with f = G A, g = G B, A and
    B coprime, the inner gcd at xi is G(xi) D, D = gcd(A(xi), B(xi)), and
    D divides Res_(x_k)(A, B), which does not depend on xi.  A factor of
    it that divided A(xi) and B(xi) for infinitely many xi would divide A
    and B, so for all but finitely many xi, D is an integer dividing the
    resultant's content.  Past twice the largest coefficient of D G the
    expansion is D G, whose primitive part G divides both inputs.
    """
    cont = math.gcd(*f.values(), *g.values())
    if k == len(next(iter(f))):
        return {next(iter(f)): cont}
    f, g = ({e: c // cont for e, c in p.items()} for p in (f, g))
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    while True:
        ff, gg = _eval(f, k, xi), _eval(g, k, xi)
        if ff and gg:
            h = _expand(_heu_gcd(ff, gg, k + 1), k, xi)
            d = math.gcd(*h.values())
            h = {e: c // d for e, c in h.items()}
            if _divide(dict(f), h, _iquot) is not None and _divide(dict(g), h, _iquot) is not None:
                return {e: cont * c for e, c in h.items()}
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011


def _eval(f, k, xi):
    """f at x_k = xi."""
    out = {}
    for e, c in f.items():
        key = e[:k] + (0,) + e[k + 1 :]
        out[key] = out.get(key, 0) + c * xi ** e[k]
    return {e: c for e, c in out.items() if c}


def _expand(h, k, xi):
    """The polynomial in x_k whose value at xi is h: each coefficient is
    written in powers of xi with digits in (-xi/2, xi/2]."""
    out = {}
    for e, c in h.items():
        j = 0
        while c:
            d = c % xi
            d = d - xi if d > xi // 2 else d
            if d:
                out[e[:k] + (j,) + e[k + 1 :]] = d
            c, j = (c - d) // xi, j + 1
    return out


def p_gcd(a, b):
    """Greatest common divisor, normalized monic in the canonical order.

    The inputs become integer polynomials in the basis words that occur
    in them.  Their monomial contents are split off (the gcd of two
    monomials takes the smaller exponent per word).  When a primitive
    part is a single term the gcd is that monomial; otherwise the
    heuristic gcd `_heu_gcd` gives the rest.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_constant() or b.is_constant():
        return Poly.one()
    words = sorted(a.variables() | b.variables(), key=graded_lex_key)
    parts, contents = [], []
    for p in (a, b):
        terms = _exponents(words, p)
        den = math.lcm(*(c.denominator for c in terms.values()))
        low = tuple(map(min, *terms)) if len(terms) > 1 else next(iter(terms))
        parts.append({tuple(map(sub, e, low)): c.numerator * (den // c.denominator) for e, c in terms.items()})
        contents.append(low)
    f, g = parts
    h = {(0,) * len(words): 1} if len(f) == 1 or len(g) == 1 else _heu_gcd(f, g, 0)
    low = tuple(map(min, *contents))
    return _from_exponents(words, {tuple(map(add, e, low)): c for e, c in h.items()}).monic()
