"""Symplectic polynomial algebra, Weyl algebra, and quantization maps.

Polynomials live in k[x_1..x_n, y_1..y_n] with the canonical bracket
{x_i, y_j} = delta_ij.  Weyl elements are kept in normal order (all X
factors left of all Y factors).  The enveloping engine for this algebra
keeps commuting h-generators indexed by a length-2n multi-index; moving
h_{x_i} or h_{y_i} past a coefficient inserts +d/dy_i or -d/dx_i terms
respectively.
"""

import itertools
import math
from fractions import Fraction

from .core import mi_add, mi_factorial, mi_norm, mi_swap


def _zero_mi(n2):
    return (0,) * n2


class SPoly:
    """Polynomial in x_1..x_n, y_1..y_n: map 2n-exponent tuple -> Scalar."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        data = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    if len(e) != 2 * n:
                        raise ValueError("exponent length must be 2n")
                    data[tuple(e)] = c
        self.terms = data

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

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        return self.terms.get(_zero_mi(2 * self.n), Fraction(0))

    def deg(self):
        if not self.terms:
            return float("-inf")
        return max(sum(e) for e in self.terms)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("mismatched variable counts")

    def __add__(self, other):
        other = _sp_coerce(self.n, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return SPoly(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return SPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_sp_coerce(self.n, other))

    def __rsub__(self, other):
        return _sp_coerce(self.n, other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return SPoly(self.n, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mi_add(e1, e2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return SPoly(self.n, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k):
        out = SPoly.one(self.n)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SPoly.constant(self.n, other)
        if not isinstance(other, SPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def derive(self, var):
        """Partial derivative by position: 0..n-1 are x's, n..2n-1 are y's."""
        out = {}
        for e, c in self.terms.items():
            if e[var]:
                e2 = list(e)
                e2[var] -= 1
                out[tuple(e2)] = c * e[var]
        return SPoly(self.n, out)

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


def _sp_coerce(n, x):
    if isinstance(x, SPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return SPoly.constant(n, x)
    raise TypeError(f"cannot interpret {x!r} as a symplectic polynomial")


def sp_bracket(f, g):
    """Canonical bracket: sum_i (df/dx_i dg/dy_i - df/dy_i dg/dx_i)."""
    if f.n != g.n:
        raise ValueError("mismatched variable counts")
    n = f.n
    out = SPoly.zero(n)
    for i in range(n):
        out = out + f.derive(i) * g.derive(n + i) - f.derive(n + i) * g.derive(i)
    return out


class Weyl:
    """Weyl-algebra element in normal order: map (alpha, beta) -> Scalar."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        data = {}
        if terms:
            for (a, b), c in terms.items():
                c = Fraction(c)
                if c:
                    if len(a) != n or len(b) != n:
                        raise ValueError("multi-index length must be n")
                    data[(tuple(a), tuple(b))] = c
        self.terms = data

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

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("mismatched variable counts")

    def __add__(self, other):
        other = _weyl_coerce(self.n, other)
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Weyl(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Weyl(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_weyl_coerce(self.n, other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Weyl(self.n, {k: c * v for k, v in self.terms.items()})
        return weyl_mul(self, _weyl_coerce(self.n, other))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Weyl(self.n, {((0,) * self.n, (0,) * self.n): other})
        if not isinstance(other, Weyl):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Weyl({self.n}, {self.terms!r})"


def _weyl_coerce(n, x):
    if isinstance(x, Weyl):
        return x
    if isinstance(x, (int, Fraction)):
        z = (0,) * n
        return Weyl(n, {(z, z): x})
    raise TypeError(f"cannot interpret {x!r} as a Weyl element")


def weyl_mul(u, v):
    """Product renormalized to X-before-Y order.

    Uses Y^b X^c = sum_k (-1)^|k| k! C(b,k) C(c,k) X^(c-k) Y^(b-k),
    entrywise over the index k <= min(b, c).
    """
    if u.n != v.n:
        raise ValueError("mismatched variable counts")
    n = u.n
    out = {}
    for (a, b), c1 in u.terms.items():
        for (cc, d), c2 in v.terms.items():
            ranges = [range(min(b[i], cc[i]) + 1) for i in range(n)]
            for k in itertools.product(*ranges):
                coeff = c1 * c2
                for i in range(n):
                    ki = k[i]
                    if ki:
                        coeff *= (
                            (-1) ** ki
                            * math.factorial(ki)
                            * math.comb(b[i], ki)
                            * math.comb(cc[i], ki)
                        )
                key = (
                    tuple(a[i] + cc[i] - k[i] for i in range(n)),
                    tuple(b[i] + d[i] - k[i] for i in range(n)),
                )
                s = out.get(key, 0) + coeff
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return Weyl(n, out)


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
        for choice in itertools.product(*per_index):
            key = (tuple(t[0] for t in choice), tuple(t[1] for t in choice))
            out[key] = out.get(key, 0) + c * math.prod(t[2] for t in choice)
    return Weyl(n, out)


class PnEnv:
    """Enveloping element over the symplectic algebra.

    Map from h-multi-indices (length 2n; the h-generators commute) to
    SPoly coefficients written on the left.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        data = {}
        if terms:
            for g, p in terms.items():
                if not isinstance(p, SPoly):
                    p = SPoly.constant(n, p)
                if not p.is_zero():
                    if len(g) != 2 * n:
                        raise ValueError("h-index length must be 2n")
                    data[tuple(g)] = p
        self.terms = data

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

    def is_zero(self):
        return not self.terms

    def p_part(self):
        return self.terms.get(_zero_mi(2 * self.n), SPoly.zero(self.n))

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("mismatched variable counts")

    def __add__(self, other):
        other = _pn_coerce(self.n, other)
        self._check(other)
        out = dict(self.terms)
        for g, p in other.terms.items():
            s = out.get(g)
            s = p if s is None else s + p
            if s.is_zero():
                out.pop(g, None)
            else:
                out[g] = s
        return PnEnv(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return PnEnv(self.n, {g: -p for g, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-_pn_coerce(self.n, other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PnEnv(
                self.n, {g: p * Fraction(other) for g, p in self.terms.items()}
            )
        return pn_env_mul(self, _pn_coerce(self.n, other))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        if isinstance(other, SPoly):
            return PnEnv(self.n, {g: other * p for g, p in self.terms.items()})
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, SPoly)):
            other = _pn_coerce(self.n, other)
        if not isinstance(other, PnEnv):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset((g, hash(p)) for g, p in self.terms.items())))

    def __repr__(self):
        return f"PnEnv({self.n}, {self.terms!r})"


def _pn_coerce(n, x):
    if isinstance(x, PnEnv):
        return x
    if isinstance(x, SPoly):
        return PnEnv.from_poly(x)
    if isinstance(x, (int, Fraction)):
        return PnEnv(n, {_zero_mi(2 * n): SPoly.constant(n, x)})
    raise TypeError(f"cannot interpret {x!r} as an enveloping element")


def _h_past(n, gamma, q):
    """h^gamma * q as a dict h-index -> SPoly.

    h_{x_i} q = q h_{x_i} + dq/dy_i  and  h_{y_i} q = q h_{y_i} - dq/dx_i.
    """
    if q.is_zero():
        return {}
    t = next((k for k, v in enumerate(gamma) if v), None)
    if t is None or q.is_constant():
        return {tuple(gamma): q}
    rest = list(gamma)
    rest[t] -= 1
    n2 = 2 * n
    dq = q.derive(n + t) if t < n else -q.derive(t - n)
    out = {}
    for g, r in _h_past(n, tuple(rest), q).items():
        g2 = list(g)
        g2[t] += 1
        g2 = tuple(g2)
        s = out.get(g2)
        s = r if s is None else s + r
        if s.is_zero():
            out.pop(g2, None)
        else:
            out[g2] = s
    if not dq.is_zero():
        for g, r in _h_past(n, tuple(rest), dq).items():
            s = out.get(g)
            s = r if s is None else s + r
            if s.is_zero():
                out.pop(g, None)
            else:
                out[g] = s
    return out


def pn_env_mul(u, v):
    """Product in the symplectic enveloping algebra, canonical form."""
    if u.n != v.n:
        raise ValueError("mismatched variable counts")
    n = u.n
    out = {}
    for g, p in u.terms.items():
        for d, q in v.terms.items():
            for g2, r in _h_past(n, g, q).items():
                key = mi_add(g2, d)
                s = out.get(key)
                s = p * r if s is None else s + p * r
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
    return PnEnv(n, out)


def pn_commutator(a, b):
    return pn_env_mul(a, b) - pn_env_mul(b, a)


def theta_left_images(n):
    out_x = [
        PnEnv.from_poly(SPoly.x(n, i)) + Fraction(1, 2) * PnEnv.h_x(n, i)
        for i in range(1, n + 1)
    ]
    out_y = [
        PnEnv.from_poly(SPoly.y(n, i)) + Fraction(1, 2) * PnEnv.h_y(n, i)
        for i in range(1, n + 1)
    ]
    return out_x, out_y


def theta_right_images(n):
    out_x = [
        PnEnv.from_poly(SPoly.x(n, i)) - Fraction(1, 2) * PnEnv.h_x(n, i)
        for i in range(1, n + 1)
    ]
    out_y = [
        PnEnv.from_poly(SPoly.y(n, i)) - Fraction(1, 2) * PnEnv.h_y(n, i)
        for i in range(1, n + 1)
    ]
    return out_x, out_y


def theta_left(a):
    """Homomorphism X_i -> x_i + h_{x_i}/2, Y_i -> y_i + h_{y_i}/2."""
    n = a.n
    im_x, im_y = theta_left_images(n)
    out = PnEnv.zero(n)
    for (al, be), c in a.terms.items():
        prod = PnEnv.one(n) * c
        for i in range(n):
            for _ in range(al[i]):
                prod = pn_env_mul(prod, im_x[i])
        for i in range(n):
            for _ in range(be[i]):
                prod = pn_env_mul(prod, im_y[i])
        out = out + prod
    return out


def theta_right(a):
    """Anti-homomorphism X_i -> x_i - h_{x_i}/2, Y_i -> y_i - h_{y_i}/2.

    Each normal-order monomial has its factor order reversed.
    """
    n = a.n
    im_x, im_y = theta_right_images(n)
    out = PnEnv.zero(n)
    for (al, be), c in a.terms.items():
        prod = PnEnv.one(n) * c
        for i in reversed(range(n)):
            for _ in range(be[i]):
                prod = pn_env_mul(prod, im_y[i])
        for i in reversed(range(n)):
            for _ in range(al[i]):
                prod = pn_env_mul(prod, im_x[i])
        out = out + prod
    return out


def _multi_indices_bounded(bounds):
    return itertools.product(*[range(b + 1) for b in bounds])


def rho_w(f):
    """Closed form of theta_left(symmetrize(f)):
    sum over gamma of  d^gamma(f) h^gamma / (gamma! 2^|gamma|)."""
    n = f.n
    out = PnEnv.zero(n)
    for gamma in _multi_indices_bounded(f.max_exponents()):
        df = f.derive_multi(gamma)
        if df.is_zero():
            continue
        scale = Fraction(1) / (mi_factorial(gamma) * 2 ** mi_norm(gamma))
        out = out + PnEnv(n, {tuple(gamma): df * scale})
    return out


def moyal(f, g):
    """Moyal product:
    sum over alpha of (-1)^|alpha_2| d^alpha(f) d^(alpha*)(g) / (alpha! 2^|alpha|)."""
    if f.n != g.n:
        raise ValueError("mismatched variable counts")
    n = f.n
    out = SPoly.zero(n)
    for alpha in _multi_indices_bounded(f.max_exponents()):
        df = f.derive_multi(alpha)
        if df.is_zero():
            continue
        dg = g.derive_multi(mi_swap(alpha))
        if dg.is_zero():
            continue
        a2 = mi_norm(alpha[n:])
        scale = Fraction((-1) ** a2) / (mi_factorial(alpha) * 2 ** mi_norm(alpha))
        out = out + df * dg * scale
    return out
