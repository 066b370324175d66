"""Symplectic polynomial algebra, Weyl algebra, and quantization maps.

Polynomials live in k[x_1..x_n, y_1..y_n] with the canonical bracket
{x_i, y_j} = delta_ij.  Weyl elements are kept in normal order (all X
factors left of all Y factors).  The enveloping algebra P_n^e keeps SPoly
coefficients on the left of commuting h-generators indexed by a length-2n
multi-index, with h_{x_i} q = q h_{x_i} + dq/dy_i and
h_{y_i} q = q h_{y_i} - dq/dx_i.

The products weyl_mul, moyal, pn_env_mul and that of SPoly run one
integer contraction kernel, _contract, on two factors given as flat
exponent vectors with integer numerators over one common denominator.  A
vector is packed into one int, its exponents being the digits in base
1 + E_u + E_v (E: the largest exponent of a factor), so no digit carries.
A channel (i, j, lam) contracts exponent p at place i of the left factor
against q at place j of the right: its index k lowers both by k with the
weight lam^k k! C(p,k) C(q,k) = lam^k C(p,k) q!/(q-k)!.  So each factor
is expanded once by the multi-index gamma of the channels, the left
weighed by C(p,k) and the right by q!/(q-k)!, keeping the gamma that a
term of the other factor reaches, and the parts of equal gamma are
multiplied as packed codes.  weyl_mul has one channel per variable,
Y_i against X_i with lam = -1; moyal has two, x_i against y_i with
lam = 1/2 and y_i against x_i with lam = -1/2; pn_env_mul has two on the
vectors (coefficient exponents, h-index), h_{x_i} against y_i with lam = 1
and h_{y_i} against x_i with lam = -1, so P_n^e multiplies as the Weyl
algebra A_2n; the SPoly product has none.  A product code is decoded once,
each distinct half of it once per call, straight into the keys the caller
returns, with one Fraction per distinct numerator.

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

from operator import mul, or_, sub

from .core import SCALARS, Terms, accumulate


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
        return SPoly(n, {(0,) * (2 * n): c})

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
        rows = _decode(*_contract(list(self.terms.items()), list(other.terms.items()), []), 2 * self.n)
        return self._like(rows.get((0,) * (2 * self.n), {}))

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * (2 * self.n), Fraction(0))

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
        return out

    def max_exponents(self):
        """Entrywise max exponent over the support (all zeros if empty)."""
        return tuple(map(max, zip((0,) * (2 * self.n), *self.terms)))

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


def _masks(terms, t, b):
    """[m_0, .., m_b]: m_k the bitmask of the terms of exponent >= k at t."""
    m = [0] * (b + 1)
    for s, (e, _) in enumerate(terms):
        m[b if e[t] > b else e[t]] |= 1 << s
    return [*itertools.accumulate(reversed(m), or_)][::-1]


def _expand(terms, place, chans, weight):
    """(d, groups): d the common denominator of the terms (vector e,
    Fraction c), groups mapping the key of each gamma to the (code,
    numerator over d) of the terms' derivatives of order gamma.  Channel
    (t, step, b, mask) takes gamma_c = k <= min(e[t], b): the key gains
    k step, the code loses k place[t] and the numerator is multiplied by
    weight(e[t], k), tabulated once per (t, e[t]) in a call.  An entry
    also keeps the bitmask of the other factor's terms that reach its
    gamma, and-ed with mask[k] at each step; once it is empty the entry
    would meet no group and is dropped, so a term makes no more entries
    than join products."""
    d = math.lcm(*(c.denominator for _, c in terms))
    groups, tables = {}, {}
    for e, c in terms:
        items = [(0, sum(map(mul, e, place)), c.numerator * (d // c.denominator), -1)]
        for t, step, b, mask in chans:
            p = e[t]
            if p:
                table = tables.get((t, p))
                if table is None:
                    table = tables[(t, p)] = [(k * step, k * place[t], weight(p, k), mask[k]) for k in range(1, min(p, b) + 1)]
                items += [(g + dg, z - dz, x * w, h) for g, z, x, r in items for dg, dz, w, m in table if (h := r & m)]
        for g, z, x, _ in items:
            groups.setdefault(g, []).append((z, x))
    return d, groups


def _contract(u, v, channels):
    """(radix, den, acc): u and v, lists of (vector, Fraction), contracted
    along the channels (i, j, lam), no two with the same i or the same j,
    acc mapping each product code to its numerator over den.  Channel c
    stops at gamma_c = K_c = min(E_u[i], E_v[j]) and is left out if K_c
    is 0.  The factors are expanded once by gamma, keyed by sum_c gamma_c
    radix^i, and equal keys are joined, the weight lam_num^gamma
    lam_den^(K - gamma) over lam_den^K (products over c) applied once a key."""
    if not u or not v:
        return 1, 1, {}
    zero = (0,) * len(u[0][0])
    top_u, top_v = (list(map(max, zero, *(e for e, _ in w))) for w in (u, v))
    radix = 1 + max(top_u) + max(top_v)
    place = [radix**t for t in range(len(top_u))]
    chans = [(i, j, lam, b) for i, j, lam in channels if (b := min(top_u[i], top_v[j]))]
    du, left = _expand(u, place, [(i, place[i], b, _masks(v, j, b)) for i, j, _, b in chans], math.comb)
    dv, right = _expand(v, place, [(j, place[i], b, _masks(u, i, b)) for i, j, _, b in chans], math.perm)
    scale = [(place[i], [lam.numerator**k * lam.denominator ** (b - k) for k in range(b + 1)]) for i, _, lam, b in chans]
    acc = {}
    get = acc.get
    for g, a in left.items():
        b = right.get(g)
        if b:
            w = 1
            for s, table in scale:
                w *= table[g // s % radix]
            for cu, nu in a:
                nu *= w
                for cv, nv in b:
                    z = cu + cv
                    acc[z] = get(z, 0) + nu * nv
    return radix, du * dv * math.prod(table[0] for _, table in scale), acc


def _decode(radix, den, acc, size):
    """{high: {low: x/den}} over the nonzero numerators x of acc, low being
    the tuple of the first size digits of a code and high that of the next
    size.  Each distinct half is decoded once per call, and each distinct
    numerator gives one Fraction, shared by the keys it sits at."""
    split, places = radix**size, [radix**t for t in range(size)]
    lows, rows = {}, {}
    fracs = {x: Fraction(x, den) for x in set(acc.values()) if x}
    for p, x in acc.items():
        if x:
            hi, lo = divmod(p, split)
            a = lows.get(lo)
            if a is None:
                a = lows[lo] = tuple([lo // t % radix for t in places])
            rows.setdefault(hi, {})[a] = fracs[x]
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
        return PnEnv(n, {(0,) * (2 * n): SPoly.one(n)})

    @staticmethod
    def from_poly(p):
        return PnEnv(p.n, {(0,) * (2 * p.n): p})

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
        return PnEnv._make({(0,) * (2 * x.n): x} if x else {}, x.n) if isinstance(x, SPoly) else NotImplemented

    def _mul(self, other):
        return pn_env_mul(self, other)

    def p_part(self):
        return self.terms.get((0,) * (2 * self.n), SPoly.zero(self.n))

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
