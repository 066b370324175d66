"""Exact scalars, multi-indices, the word order, and the sparse-term kernel
shared by the algebra modules.

`Terms` is the base class of the six element types (Lie, Poly, Env,
SPoly, Weyl, PnEnv): an element is a dict from basis keys to nonzero
coefficients, and the arithmetic that does not depend on the basis (sums,
negation, scalar multiples, equality, hashing, truth and powers) lives
here once.  `accumulate` is the one loop that adds terms into a dict and
drops the zeros.
"""

import math
from fractions import Fraction

# All coefficients in this package are exact rationals: a scalar is an int
# or a Fraction (`SCALARS`), and nothing else is accepted.  Fraction keeps
# values normalized (lowest terms, positive denominator), and an int equals
# and hashes as the Fraction of the same value.  Poly keeps a coefficient
# as an int when it is integral and as a Fraction only when it is not;
# Lie, SPoly and Weyl keep Fractions.
Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def graded_lex_key(word):
    """Sort key ordering words by length, then left-to-right on letters."""
    w = tuple(word)
    return (len(w), w)


def mi_norm(a):
    """Sum of the entries of a multi-index."""
    return sum(a)


def mi_factorial(a):
    """Product of entrywise factorials, as an exact scalar."""
    out = 1
    for k in a:
        if k < 0:
            raise ValueError("negative entry in multi-index")
        out *= math.factorial(k)
    return Fraction(out)


def mi_swap(a):
    """Swap the two halves of an even-length multi-index."""
    if len(a) % 2:
        raise ValueError("multi-index length must be even")
    n = len(a) // 2
    return tuple(a[n:]) + tuple(a[:n])


SCALARS = (int, Fraction)


def scalar(c):
    """c as a Fraction; TypeError unless c is an int or a Fraction."""
    if not isinstance(c, SCALARS):
        raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
    return Fraction(c)


class BudgetError(Exception):
    """The input asks for more work than a budget allows."""


class Record:
    """Base of the small mutable records: a subclass names its fields in
    `__slots__` and sets them in `__init__`.  Repr and equality are those
    of a dataclass (same class, equal fields); a record is unhashable."""

    __slots__ = ()
    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


def accumulate(out, items, scale=None):
    """Add (key, coefficient) pairs into the dict `out` in place; returns it.

    Each coefficient is multiplied by `scale` first when one is given.  A
    key whose sum is zero is dropped, so `out` keeps only nonzero
    coefficients.  Coefficients are scalars or elements of an algebra
    (the Poly coefficients of Env); anything with +, * and truth works.
    """
    if scale is not None:
        items = ((k, c * scale) for k, c in items)
    get = out.get
    for k, c in items:
        s = get(k)
        if s is not None:
            c = s + c
        if c:
            out[k] = c
        else:
            out.pop(k, None)
    return out


class Terms:
    """A finite sum of basis elements with coefficients: the shared kernel
    of Lie, Poly, Env, SPoly, Weyl and PnEnv.

    `terms` maps basis keys to nonzero coefficients.  `n` is the number of
    variable pairs of the symplectic algebras, which fixes the length of
    their keys, and None for the others.  The public constructor
    normalizes its input through the hooks `_key` and `_coefficient` and
    drops zeros; a coefficient is a scalar (`SCALARS`, kept as a Fraction
    by default) or, for Env and PnEnv, an element, and anything else is a
    TypeError.  `_make` and `_like` are the trusted constructors for dicts
    that are already normalized, such as the results of the package's own
    arithmetic, and keep the dict as it is; the base's sums, negation and
    scalar multiples go through `_like`, where Poly turns integral
    Fraction coefficients into ints.

    The base gives +, -, scalar *, ==, hash, truth and **, which
    multiplies the base into a running product k - 1 times.  A subclass
    supplies `_lift`, which turns a scalar (and, for Env and PnEnv, a
    coefficient) into an element or gives NotImplemented, and `_mul`,
    its product, if it has one.  A commutative one (Poly, SPoly) also
    supplies `_key_power(key, k)`, the key of the k-th power of a basis
    element, and ** gives the power of a single term c*key in closed form,
    c**k at that key.  Other operands make the operators
    return NotImplemented, so that Python raises TypeError; ** raises it
    itself.  Elements compare equal only to elements of the same class
    and n, and to the scalars they lift from; a constant hashes as its
    scalar.
    """

    __slots__ = ("terms", "n")

    _key = tuple
    _coefficient = staticmethod(scalar)
    _key_power = None

    def __init__(self, terms=None, n=None):
        self.n = n
        data = {}
        if terms:
            for k, c in terms.items():
                c = self._coefficient(c)
                if c:
                    data[self._key(k)] = c
        self.terms = data

    @classmethod
    def _make(cls, terms, n=None):
        out = cls.__new__(cls)
        out.terms = terms
        out.n = n
        return out

    def _like(self, terms):
        return self._make(terms, self.n)

    def _lift(self, x):
        return NotImplemented

    def _mul(self, other):
        return NotImplemented

    def _operand(self, other):
        """other as an element of this algebra, or NotImplemented."""
        if type(other) is not type(self):
            other = self._lift(other)
            if other is NotImplemented:
                return other
        if other.n != self.n:
            raise ValueError("mismatched variable counts")
        return other

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented or not self.terms:
            return other
        if not other.terms:
            return self
        return self._like(accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self._like(accumulate(dict(self.terms), ((k, -c) for k, c in other.terms.items())))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self._like({k: v * other for k, v in self.terms.items()} if other else {})
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self._mul(other)

    def __rmul__(self, other):
        if isinstance(other, SCALARS):
            return self * other
        other = self._lift(other)
        return other if other is NotImplemented else other * self

    def __pow__(self, k):
        if not isinstance(k, int):
            # not NotImplemented: Fraction(2).__rpow__ would compute self**2
            raise TypeError(f"power {k!r} is not an int")
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return self._lift(1)
        if k > 1 and len(self.terms) == 1 and self._key_power:
            ((key, c),) = self.terms.items()
            return self._like({self._key_power(key, k): c**k})
        out = self
        for _ in range(k - 1):
            # the base on the left: env_mul derives the right factor once per
            # suffix of a left h-word, and the base has the fewest
            out = self * out
        return out

    def __eq__(self, other):
        if isinstance(other, SCALARS):
            other = self._lift(other)
            if other is NotImplemented:
                return False
        elif type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1:
            unit = self._lift(1)
            if unit is not NotImplemented and unit.terms.keys() == self.terms.keys():
                return hash(next(iter(self.terms.values())))
        return hash(frozenset(self.terms.items()))
