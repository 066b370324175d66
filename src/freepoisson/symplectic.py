"""Symplectic polynomial algebra, Weyl algebra, and quantization maps.

Polynomials live in k[x_1..x_n, y_1..y_n] with the canonical bracket
{x_i, y_j} = delta_ij.  Weyl elements are kept in normal order (all X
factors left of all Y factors).  The enveloping algebra P_n^e keeps SPoly
coefficients on the left of commuting h-generators indexed by a length-2n
multi-index, with h_{x_i} q = q h_{x_i} + dq/dy_i and
h_{y_i} q = q h_{y_i} - dq/dx_i.

P_n^e is the Weyl algebra A_2n.  The signed relabeling R sends x_i, y_i,
h_{y_i} and h_{x_i} to X_i, X_(n+i), Y_i and -Y_(n+i): the x's and y's
commute among themselves, as do the h's, and [h_{y_i}, x_i] = -1 and
[h_{x_i}, y_i] = 1 become [Y_i, X_i] = -1 and [-Y_(n+i), X_(n+i)] = 1,
the relations of A_2n.  Coefficients-left, h's-right is X-before-Y normal
order, so R is a renaming of keys with a sign (-1)^|gamma_x|, and
pn_env_mul and the theta maps multiply through weyl_mul.

weyl_mul is an integer kernel.  Each factor's coefficients are integer
numerators over one common denominator, and each key (alpha, beta) is
packed into one integer, its exponents being the digits in a base larger
than any exponent of the product.  Reordering Y^b X^c then subtracts a
fixed multiple of the code per reorder index, digits never carry, and all
sums run in Python ints; one Fraction is built per output key.
"""

import itertools
import math
from fractions import Fraction

from operator import add, mul

from .core import SCALARS, Terms, accumulate, mi_factorial, mi_norm, mi_swap


def _zero_mi(n2):
    return (0,) * n2


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
        if not 1 <= i <= n:
            raise ValueError("x index out of range")
        e = [0] * (2 * n)
        e[i - 1] = 1
        return SPoly(n, {tuple(e): 1})

    @staticmethod
    def y(n, i):
        if not 1 <= i <= n:
            raise ValueError("y index out of range")
        e = [0] * (2 * n)
        e[n + i - 1] = 1
        return SPoly(n, {tuple(e): 1})

    def _key(self, e):
        if len(e) != 2 * self.n:
            raise ValueError("exponent length must be 2n")
        return tuple(e)

    def _lift(self, c):
        return SPoly.constant(self.n, c) if isinstance(c, SCALARS) else NotImplemented

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
        if not 1 <= i <= n:
            raise ValueError("X index out of range")
        a = [0] * n
        a[i - 1] = 1
        return Weyl(n, {(tuple(a), (0,) * n): 1})

    @staticmethod
    def Y(n, i):
        if not 1 <= i <= n:
            raise ValueError("Y index out of range")
        b = [0] * n
        b[i - 1] = 1
        return Weyl(n, {((0,) * n, tuple(b)): 1})

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


def _packed(w, place):
    """(d, rows) for the Weyl element w: its coefficients as integer
    numerators over their common denominator d, and per term the row
    (code, a, b, X-mask, Y-mask, numerator), where the code of (a, b) is
    sum_i a_i place[i] + b_i place[n+i] and bit i of a mask is set where
    that exponent is nonzero."""
    d = math.lcm(*(c.denominator for c in w.terms.values()))
    rows = []
    for (a, b), c in w.terms.items():
        xmask = sum(1 << i for i, e in enumerate(a) if e)
        ymask = sum(1 << i for i, e in enumerate(b) if e)
        rows.append((sum(map(mul, a + b, place)), a, b, xmask, ymask, c.numerator * (d // c.denominator)))
    return d, rows


def weyl_mul(u, v):
    """Product renormalized to X-before-Y order.

    Uses Y^b X^c = sum_k (-1)^|k| k! C(b,k) C(c,k) X^(c-k) Y^(b-k),
    entrywise over the index k <= min(b, c).

    The sums run in integers: each factor's coefficients become numerators
    over its common denominator, and one Fraction is built per output key.
    A key (a, b) is packed into the code sum_i a_i B^i + b_i B^(n+i) in
    base B = 1 + E_u + E_v, where E is the largest single exponent in a
    factor.  The term of X^a Y^b * X^c Y^d at index k has the code
    code_u + code_v - sum_i k_i (B^i + B^(n+i)); every exponent of the
    product lies in [0, E_u + E_v], so no digit carries and two terms have
    the same code exactly when they have the same key.  A pair of terms
    expands only along the variables where both b_i and c_i are nonzero,
    with the weights (-1)^k k! C(b_i,k) C(c_i,k) tabulated once per call.
    """
    if u.n != v.n:
        raise ValueError("mismatched variable counts")
    n = u.n
    if not u.terms or not v.terms:
        return Weyl._make({}, n)
    radix = 1 + sum(max(max(a + b, default=0) for a, b in w.terms) for w in (u, v))
    place = [radix**i for i in range(2 * n)]
    du, left = _packed(u, place)
    dv, right = _packed(v, place)
    weights = {}
    acc = {}
    get = acc.get
    for code_u, _, b, _, ymask, nu in left:
        for code_v, c, _, xmask, _, nv in right:
            code, num = code_u + code_v, nu * nv
            both = ymask & xmask
            if not both:
                acc[code] = get(code, 0) + num
                continue
            items = [(code, num)]
            for i in range(n):
                if both >> i & 1:
                    key = (i, b[i], c[i])
                    table = weights.get(key)
                    if table is None:
                        step = place[i] + place[n + i]
                        table = weights[key] = [
                            (k * step, (-1) ** k * math.factorial(k) * math.comb(b[i], k) * math.comb(c[i], k))
                            for k in range(min(b[i], c[i]) + 1)
                        ]
                    items = [(p - s, x * w) for p, x in items for s, w in table]
            for p, x in items:
                acc[p] = get(p, 0) + x
    den = du * dv
    out = {}
    for p, x in acc.items():
        if x:
            digits = []
            for _ in range(2 * n):
                p, r = divmod(p, radix)
                digits.append(r)
            out[tuple(digits[:n]), tuple(digits[n:])] = Fraction(x, den)
    return Weyl._make(out, n)


def symmetrize(f):
    """Symmetrization P_n -> A_n (the average of all letter orderings of
    each monomial) in normal order, by the closed form
    W(x^a y^b) = prod_i sum_k (-1/2)^k k! C(a_i,k) C(b_i,k) X_i^(a_i-k) Y_i^(b_i-k).
    """
    n = f.n
    out = {}
    for e, c in f.terms.items():
        per_index = [
            [
                (a - k, b - k, Fraction(-1, 2) ** k * math.factorial(k) * math.comb(a, k) * math.comb(b, k))
                for k in range(min(a, b) + 1)
            ]
            for a, b in zip(e[:n], e[n:])
        ]
        accumulate(
            out,
            (
                ((tuple(t[0] for t in choice), tuple(t[1] for t in choice)), c * math.prod(t[2] for t in choice))
                for choice in itertools.product(*per_index)
            ),
        )
    return Weyl._make(out, n)


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
        if not 1 <= i <= n:
            raise ValueError("index out of range")
        g = [0] * (2 * n)
        g[i - 1] = 1
        return PnEnv(n, {tuple(g): SPoly.one(n)})

    @staticmethod
    def h_y(n, i):
        if not 1 <= i <= n:
            raise ValueError("index out of range")
        g = [0] * (2 * n)
        g[n + i - 1] = 1
        return PnEnv(n, {tuple(g): SPoly.one(n)})

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


def _to_weyl(u):
    """R(u) in A_2n: c*x^a y^b*h_x^gx h_y^gy -> (-1)^|gx| c*X^(a,b) Y^(gy,gx)."""
    n = u.n
    terms = {(e, g[n:] + g[:n]): -c if sum(g[:n]) % 2 else c for g, p in u.terms.items() for e, c in p.terms.items()}
    return Weyl._make(terms, 2 * n)


def _from_weyl(a, n):
    """The element u of P_n^e with R(u) = a."""
    out = {}
    for (e, b), c in a.terms.items():
        out.setdefault(b[n:] + b[:n], {})[e] = -c if sum(b[n:]) % 2 else c
    return PnEnv._make({g: SPoly._make(t, n) for g, t in out.items()}, n)


def pn_env_mul(u, v):
    """Product in the symplectic enveloping algebra, canonical form."""
    if u.n != v.n:
        raise ValueError("mismatched variable counts")
    return _from_weyl(weyl_mul(_to_weyl(u), _to_weyl(v)), u.n)


def pn_commutator(a, b):
    return pn_env_mul(a, b) - pn_env_mul(b, a)


def _theta(a, sign):
    """Image of a under X_i -> x_i + sign*h_{x_i}/2, Y_i -> y_i + sign*h_{y_i}/2:
    each normal-order monomial is multiplied out in its own order for
    sign 1 and in reverse for sign -1.  The product is taken in A_2n,
    where the images are R(x_i + s*h_{x_i}/2) = X_i - s*Y_(n+i)/2 and
    R(y_i + s*h_{y_i}/2) = X_(n+i) + s*Y_i/2."""
    n = a.n
    half = Fraction(sign, 2)
    im_x = [Weyl.X(2 * n, i) - half * Weyl.Y(2 * n, n + i) for i in range(1, n + 1)]
    im_y = [Weyl.X(2 * n, n + i) + half * Weyl.Y(2 * n, i) for i in range(1, n + 1)]
    out = {}
    for (al, be), c in a.terms.items():
        letters = [im_x[i] for i in range(n) for _ in range(al[i])]
        letters += [im_y[i] for i in range(n) for _ in range(be[i])]
        prod = Weyl.one(2 * n) * c
        for im in letters[::sign]:
            prod = weyl_mul(prod, im)
        accumulate(out, prod.terms.items())
    return _from_weyl(Weyl._make(out, 2 * n), n)


def theta_left(a):
    """Homomorphism X_i -> x_i + h_{x_i}/2, Y_i -> y_i + h_{y_i}/2."""
    return _theta(a, 1)


def theta_right(a):
    """Anti-homomorphism X_i -> x_i - h_{x_i}/2, Y_i -> y_i - h_{y_i}/2.

    Each normal-order monomial has its factor order reversed.
    """
    return _theta(a, -1)


def _multi_indices_bounded(bounds):
    return itertools.product(*[range(b + 1) for b in bounds])


def rho_w(f):
    """Closed form of theta_left(symmetrize(f)):
    sum over gamma of  d^gamma(f) h^gamma / (gamma! 2^|gamma|)."""
    out = {}
    for gamma in _multi_indices_bounded(f.max_exponents()):
        df = f.derive_multi(gamma)
        if not df.is_zero():
            out[gamma] = df * (Fraction(1) / (mi_factorial(gamma) * 2 ** mi_norm(gamma)))
    return PnEnv._make(out, f.n)


def moyal(f, g):
    """Moyal product:
    sum over alpha of (-1)^|alpha_2| d^alpha(f) d^(alpha*)(g) / (alpha! 2^|alpha|)."""
    if f.n != g.n:
        raise ValueError("mismatched variable counts")
    n = f.n
    out = {}
    for alpha in _multi_indices_bounded(f.max_exponents()):
        df = f.derive_multi(alpha)
        if df.is_zero():
            continue
        dg = g.derive_multi(mi_swap(alpha))
        if dg.is_zero():
            continue
        a2 = mi_norm(alpha[n:])
        scale = Fraction((-1) ** a2) / (mi_factorial(alpha) * 2 ** mi_norm(alpha))
        accumulate(out, (df * dg).terms.items(), scale)
    return SPoly._make(out, n)
