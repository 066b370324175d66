"""Symplectic polynomial algebra, Weyl algebra, and quantization maps.

Polynomials live in k[x_1..x_n, y_1..y_n] with the canonical bracket
{x_i, y_j} = delta_ij.  Weyl elements are kept in normal order (all X
factors left of all Y factors).  The enveloping algebra P_n^e keeps SPoly
coefficients on the left of commuting h-generators indexed by a length-2n
multi-index, with h_{x_i} q = q h_{x_i} + dq/dy_i and
h_{y_i} q = q h_{y_i} - dq/dx_i.

The three noncommutative products, weyl_mul, moyal and pn_env_mul, run
one integer contraction kernel, _contract, on two factors given as flat
exponent vectors with integer numerators over one common denominator.
(The commutative SPoly product is a plain loop over pairs of terms.)  A
vector is packed into one int, its exponents being the digits in base
1 + E_u + E_v (E: the largest exponent of a factor), so no digit
carries.  A channel (i, j, lam) contracts exponent p at place i of
the left factor against q at place j of the right: its index k lowers both
by k, which subtracts a fixed multiple of the code, with the weight
lam^k k! C(p,k) C(q,k).  weyl_mul has one channel per variable, Y_i
against X_i with lam = -1; moyal has two, x_i against y_i with lam = 1/2
and y_i against x_i with lam = -1/2; pn_env_mul has two on the vectors
(coefficient exponents, h-index), h_{x_i} against y_i with lam = 1 and
h_{y_i} against x_i with lam = -1, so P_n^e multiplies as the Weyl
algebra A_2n.  A product code is decoded once, each distinct half of it
once per call, straight into the keys the caller returns, with one
Fraction per output key.

The maps between the algebras take no product.  Symmetrization W is
exp(-D/2), D = sum_i d/dx_i d/dy_i, on normal-order exponents, so its
inverse is exp(D/2): one normal-ordering table, _normal_order, serves
both.  The quantization map rho = theta_left . W is a closed form, and
the theta maps are theta_left = rho . W^-1 and theta_right = rho_- . W^-1,
rho_- being rho with the weight (-1/2)^|gamma| in place of 2^-|gamma|.
"""

import itertools
import math
from fractions import Fraction

from operator import add, mul, sub

from .core import SCALARS, Terms, accumulate


def _zero_mi(n2):
    return (0,) * n2


def _unit(size, i, n, shift, message):
    """The length-size 0/1 tuple with its 1 at place shift + i - 1, for
    1 <= i <= n; ValueError(message) otherwise."""
    if not 1 <= i <= n:
        raise ValueError(message)
    e = [0] * size
    e[shift + i - 1] = 1
    return tuple(e)


class SPoly(Terms):
    """Polynomial in x_1..x_n, y_1..y_n: map 2n-exponent tuple -> Scalar."""

    __slots__ = ()

    def __init__(self, n, terms=None):
        super().__init__(terms, n)

    @staticmethod
    def zero(n):
        return SPoly(n)

    @staticmethod
    def constant(n, c):
        return SPoly(n, {_zero_mi(2 * n): c})

    @staticmethod
    def one(n):
        return SPoly.constant(n, 1)

    @staticmethod
    def x(n, i):
        return SPoly(n, {_unit(2 * n, i, n, 0, "x index out of range"): 1})

    @staticmethod
    def y(n, i):
        return SPoly(n, {_unit(2 * n, i, n, n, "y index out of range"): 1})

    def _key(self, e):
        if len(e) != 2 * self.n:
            raise ValueError("exponent length must be 2n")
        return tuple(e)

    def _lift(self, c):
        return SPoly.constant(self.n, c) if isinstance(c, SCALARS) else NotImplemented

    @staticmethod
    def _key_power(e, k):
        return tuple(a * k for a in e)

    def _mul(self, other):
        b = other.terms.items()
        products = ((tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in self.terms.items() for e2, c2 in b)
        return self._like(accumulate({}, products))

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        return self.terms.get(_zero_mi(2 * self.n), Fraction(0))

    def deg(self):
        if not self.terms:
            return float("-inf")
        return max(sum(e) for e in self.terms)

    def derive(self, var):
        """Partial derivative by position: 0..n-1 are x's, n..2n-1 are y's."""
        out = {}
        for e, c in self.terms.items():
            if e[var]:
                e2 = list(e)
                e2[var] -= 1
                out[tuple(e2)] = c * e[var]
        return self._like(out)

    def derive_multi(self, gamma):
        out = self
        for var, k in enumerate(gamma):
            for _ in range(k):
                out = out.derive(var)
                if out.is_zero():
                    return out
        return out

    def max_exponents(self):
        """Entrywise max exponent over the support (all zeros if empty)."""
        top = [0] * (2 * self.n)
        for e in self.terms:
            for k, v in enumerate(e):
                if v > top[k]:
                    top[k] = v
        return tuple(top)

    def __repr__(self):
        return f"SPoly({self.n}, {self.terms!r})"


def sp_bracket(f, g):
    """Canonical bracket: sum_i (df/dx_i dg/dy_i - df/dy_i dg/dx_i)."""
    if f.n != g.n:
        raise ValueError("mismatched variable counts")
    n = f.n
    out = SPoly.zero(n)
    for i in range(n):
        out = out + f.derive(i) * g.derive(n + i) - f.derive(n + i) * g.derive(i)
    return out


class Weyl(Terms):
    """Weyl-algebra element in normal order: map (alpha, beta) -> Scalar."""

    __slots__ = ()

    def __init__(self, n, terms=None):
        super().__init__(terms, n)

    @staticmethod
    def zero(n):
        return Weyl(n)

    @staticmethod
    def one(n):
        z = (0,) * n
        return Weyl(n, {(z, z): 1})

    @staticmethod
    def X(n, i):
        return Weyl(n, {(_unit(n, i, n, 0, "X index out of range"), (0,) * n): 1})

    @staticmethod
    def Y(n, i):
        return Weyl(n, {((0,) * n, _unit(n, i, n, 0, "Y index out of range")): 1})

    def _key(self, k):
        a, b = k
        if len(a) != self.n or len(b) != self.n:
            raise ValueError("multi-index length must be n")
        return (tuple(a), tuple(b))

    def _lift(self, c):
        return Weyl.one(self.n) * c if isinstance(c, SCALARS) else NotImplemented

    def _mul(self, other):
        return weyl_mul(self, other)

    def __repr__(self):
        return f"Weyl({self.n}, {self.terms!r})"


def _rows(terms, place, positions):
    """(d, rows): per term (vector e, Fraction c) the row (code, mask, e,
    numerator over d), d the common denominator; bit k of the mask is set
    where e[positions[k]] is nonzero."""
    d = math.lcm(*(c.denominator for _, c in terms))
    bits = [1 << k for k in range(len(positions))]
    return d, [
        (sum(map(mul, e, place)), sum(itertools.compress(bits, map(e.__getitem__, positions))), e, c.numerator * (d // c.denominator))
        for e, c in terms
    ]


def _contract(u, v, channels):
    """(radix, den, acc): u and v, lists of (vector, Fraction), contracted
    along the channels (i, j, lam), acc mapping each product code to its
    numerator over den.  Channel c lowers its pair at most
    K_c = min(E_u[i], E_v[j]) times, so its weights are integers over
    lam_den^K_c; a pair of terms expands only along the channels where both
    exponents are nonzero, found once per mask, with the weights tabulated
    once per call."""
    if not u or not v:
        return 1, 1, {}
    zero = (0,) * len(u[0][0])
    top_u, top_v = (list(map(max, zero, *(e for e, _ in w))) for w in (u, v))
    radix = 1 + max(top_u) + max(top_v)
    place = [radix**t for t in range(len(top_u))]
    du, left = _rows(u, place, [i for i, _, _ in channels])
    dv, right = _rows(v, place, [j for _, j, _ in channels])
    bound = [min(top_u[i], top_v[j]) for i, j, _ in channels]
    scale = [lam.denominator**k for (_, _, lam), k in zip(channels, bound)]
    full = math.prod(scale)
    weights, fired, acc = {}, {}, {}
    get = acc.get
    for code_u, umask, a, nu in left:
        for code_v, vmask, b, nv in right:
            code, num = code_u + code_v, nu * nv
            both = umask & vmask
            if not both:
                acc[code] = get(code, 0) + num * full
                continue
            f = fired.get(both)
            if f is None:
                on = [c for c in range(len(channels)) if both >> c & 1]
                f = fired[both] = (math.prod(s for c, s in enumerate(scale) if c not in on), [(c, *channels[c]) for c in on])
            items = [(code, num * f[0])]
            for c, i, j, lam in f[1]:
                key = (c, a[i], b[j])
                table = weights.get(key)
                if table is None:
                    p, q, step = a[i], b[j], place[i] + place[j]
                    table = weights[key] = [
                        (k * step, lam.numerator**k * lam.denominator ** (bound[c] - k) * math.factorial(k) * math.comb(p, k) * math.comb(q, k))
                        for k in range(min(p, q) + 1)
                    ]
                items = [(z - s, x * w) for z, x in items for s, w in table]
            for z, x in items:
                acc[z] = get(z, 0) + x
    return radix, du * dv * full, acc


def _decode(radix, den, acc, size):
    """{high: {low: x/den}} over the nonzero numerators x of acc, low being
    the tuple of the first size digits of a code and high that of the next
    size.  Each distinct half is decoded once per call, and each output key
    gets one Fraction."""
    split, places = radix**size, [radix**t for t in range(size)]
    lows, rows = {}, {}
    for p, x in acc.items():
        if x:
            hi, lo = divmod(p, split)
            a = lows.get(lo)
            if a is None:
                a = lows[lo] = tuple([lo // t % radix for t in places])
            rows.setdefault(hi, {})[a] = Fraction(x, den)
    return {tuple([hi // t % radix for t in places]): row for hi, row in rows.items()}


def weyl_mul(u, v):
    """Product renormalized to X-before-Y order, by
    Y^b X^c = sum_k (-1)^|k| k! C(b,k) C(c,k) X^(c-k) Y^(b-k): the kernel
    with Y_i of u against X_i of v, lam = -1."""
    if u.n != v.n:
        raise ValueError("mismatched variable counts")
    n = u.n
    flat = [[(a + b, c) for (a, b), c in w.terms.items()] for w in (u, v)]
    rows = _decode(*_contract(*flat, [(n + i, i, -1) for i in range(n)]), n)
    return Weyl._make({(a, b): x for b, row in rows.items() for a, x in row.items()}, n)


def _normal_order(terms, lam):
    """{(a', b'): c'}: the sum over the pairs ((a, b), c) of c times
    prod_i sum_k lam^k k! C(a_i,k) C(b_i,k) x_i^(a_i-k) y_i^(b_i-k),
    that is exp(lam sum_i d/dx_i d/dy_i) applied to c x^a y^b.  The sum of
    each (a_i, b_i) is tabulated once per call."""
    tables, out = {}, {}
    for (al, be), c in terms:
        per_index = []
        for p, q in zip(al, be):
            table = tables.get((p, q))
            if table is None:
                table = tables[(p, q)] = [
                    (p - k, q - k, lam**k * math.factorial(k) * math.comb(p, k) * math.comb(q, k)) for k in range(min(p, q) + 1)
                ]
            per_index.append(table)
        accumulate(
            out,
            (
                ((tuple(t[0] for t in choice), tuple(t[1] for t in choice)), c * math.prod(t[2] for t in choice))
                for choice in itertools.product(*per_index)
            ),
        )
    return out


def symmetrize(f):
    """Symmetrization W: P_n -> A_n (the average of all letter orderings of
    each monomial) in normal order, by the closed form
    W(x^a y^b) = prod_i sum_k (-1/2)^k k! C(a_i,k) C(b_i,k) X_i^(a_i-k) Y_i^(b_i-k).
    """
    n = f.n
    return Weyl._make(_normal_order((((e[:n], e[n:]), c) for e, c in f.terms.items()), Fraction(-1, 2)), n)


def _unsymmetrize(a):
    """W^-1: A_n -> P_n, the inverse of symmetrize: the same closed form
    with lam = 1/2, since exp(D/2) undoes exp(-D/2)."""
    return SPoly._make({al + be: c for (al, be), c in _normal_order(a.terms.items(), Fraction(1, 2)).items()}, a.n)


class PnEnv(Terms):
    """Enveloping element over the symplectic algebra.

    Map from h-multi-indices (length 2n; the h-generators commute) to
    SPoly coefficients written on the left.
    """

    __slots__ = ()

    def __init__(self, n, terms=None):
        super().__init__(terms, n)

    @staticmethod
    def zero(n):
        return PnEnv(n)

    @staticmethod
    def one(n):
        return PnEnv(n, {_zero_mi(2 * n): SPoly.one(n)})

    @staticmethod
    def from_poly(p):
        return PnEnv(p.n, {_zero_mi(2 * p.n): p})

    @staticmethod
    def h_x(n, i):
        return PnEnv(n, {_unit(2 * n, i, n, 0, "index out of range"): SPoly.one(n)})

    @staticmethod
    def h_y(n, i):
        return PnEnv(n, {_unit(2 * n, i, n, n, "index out of range"): SPoly.one(n)})

    def _key(self, g):
        if len(g) != 2 * self.n:
            raise ValueError("h-index length must be 2n")
        return tuple(g)

    def _coefficient(self, p):
        if not isinstance(p, SPoly):
            return SPoly.constant(self.n, p)
        if p.n != self.n:
            raise ValueError("mismatched variable counts")
        return p

    def _lift(self, x):
        if isinstance(x, SCALARS):
            x = SPoly.constant(self.n, x)
        return PnEnv._make({_zero_mi(2 * x.n): x} if x else {}, x.n) if isinstance(x, SPoly) else NotImplemented

    def _mul(self, other):
        return pn_env_mul(self, other)

    def p_part(self):
        return self.terms.get(_zero_mi(2 * self.n), SPoly.zero(self.n))

    def __repr__(self):
        return f"PnEnv({self.n}, {self.terms!r})"


def pn_env_mul(u, v):
    """Product in the symplectic enveloping algebra, canonical form: the
    kernel on the vectors (e, g) of the terms, with h_{x_i} of u against
    y_i of v, lam = 1, and h_{y_i} of u against x_i of v, lam = -1."""
    if u.n != v.n:
        raise ValueError("mismatched variable counts")
    n = u.n
    flat = [[(e + g, c) for g, p in w.terms.items() for e, c in p.terms.items()] for w in (u, v)]
    channels = [(2 * n + i, n + i, 1) for i in range(n)] + [(3 * n + i, i, -1) for i in range(n)]
    rows = _decode(*_contract(*flat, channels), 2 * n)
    return PnEnv._make({g: SPoly._make(t, n) for g, t in rows.items()}, n)


def pn_commutator(a, b):
    return pn_env_mul(a, b) - pn_env_mul(b, a)


def _rho(f, sign):
    """rho_sign(f): the term c x^e gives sum over gamma <= e of
    c prod_i C(e_i, gamma_i) (sign/2)^|gamma| x^(e-gamma) h^gamma.
    Distinct (e, gamma) give distinct keys, so each term is built once."""
    out = {}
    for e, c in f.terms.items():
        for gamma in itertools.product(*(range(k + 1) for k in e)):
            w, d = c.numerator * math.prod(map(math.comb, e, gamma)), sum(gamma)
            out.setdefault(gamma, {})[tuple(map(sub, e, gamma))] = Fraction(-w if sign < 0 and d % 2 else w, c.denominator << d)
    return PnEnv._make({g: SPoly._make(t, f.n) for g, t in out.items()}, f.n)


def rho_w(f):
    """The quantization map rho = theta_left . W: P_n -> P_n^e, in closed
    form, rho(c x^e) = sum over gamma <= e of c prod_i C(e_i, gamma_i)
    2^-|gamma| x^(e-gamma) h^gamma."""
    return _rho(f, 1)


def theta_left(a):
    """Homomorphism X_i -> x_i + h_{x_i}/2, Y_i -> y_i + h_{y_i}/2: rho
    after W^-1, since it agrees with rho_w on symmetrized elements."""
    return _rho(_unsymmetrize(a), 1)


def theta_right(a):
    """Anti-homomorphism X_i -> x_i - h_{x_i}/2, Y_i -> y_i - h_{y_i}/2
    (each normal-order monomial has its factor order reversed): rho_- after
    W^-1, rho_- being rho with the weight (-1/2)^|gamma|."""
    return _rho(_unsymmetrize(a), -1)


def moyal(f, g):
    """Moyal product: the contraction kernel on f and g with two channels
    per variable, x_i of f against y_i of g with lam = 1/2 and y_i of f
    against x_i of g with lam = -1/2."""
    if f.n != g.n:
        raise ValueError("mismatched variable counts")
    n = f.n
    half = Fraction(1, 2)
    channels = [(i, n + i, half) for i in range(n)] + [(n + i, i, -half) for i in range(n)]
    rows = _decode(*_contract(list(f.terms.items()), list(g.terms.items()), channels), 2 * n)
    return SPoly._make(rows.get((0,) * (2 * n), {}), n)
