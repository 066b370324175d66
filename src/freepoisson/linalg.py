"""Exact sparse Gaussian elimination over the rationals, carried out in
integers.

Columns arrive one at a time as dicts row-key -> int or Fraction; row
keys can be any mutually comparable values.  Each registered column is
reduced against the current pivots at its largest row key.  A column
that reduces to zero yields the combination of previously added columns
that produced it, which is exactly the kernel/solution certificate the
callers need.  Kernels and solutions do not depend on the order of the
row keys, but the fill-in does.

The elimination is fraction-free (Bareiss, Math. Comp. 22, 1968).  A
column with Fraction entries is first multiplied by the lcm of their
denominators.  A reduction step at row k with g = gcd(pvec[k], vec[k])
sets vec <- (pvec[k]/g) * vec - (vec[k]/g) * pvec, and the same for the
combination, so the entry at k cancels and everything stays an int.  A
surviving column is stored as a primitive pair: the gcd of all entries of
its vector and of its combination (which is int, over the original
columns) is divided out.

Every such pair is a nonzero rational multiple of the pair that
elimination over the rationals would hold at the same point: each step
replaces vec by pvec[k]/g times vec - (vec[k]/pvec[k]) * pvec.  So the
same columns become pivots, with the same nonzero entries, and a kernel
or a solution divided by its own scale (the coefficient of the new
column, or the product of the step factors) is the same rational vector.
"""

import math
from fractions import Fraction

from .core import accumulate


def _integral(vec):
    """(v, d): a new dict v of nonzero ints and an int d > 0 with v = d * vec."""
    vals = vec.values()
    if 0 not in vals and set(map(type, vals)) <= {int}:
        return dict(vec), 1
    vec = {k: Fraction(c) for k, c in vec.items() if c}
    d = math.lcm(*(c.denominator for c in vec.values()))
    return {k: c.numerator * (d // c.denominator) for k, c in vec.items()}, d


class SparseSolver:
    def __init__(self):
        self.pivots = {}  # row key -> (primitive int column with that lead, int combo over column ids)

    def _reduce(self, vec, combo):
        """Reduce vec in place against the pivots, combo in step with it.

        Returns (k, s): the lead row key left, or None when vec reduced to
        zero, and the product s > 0 of the factors vec and combo were
        multiplied by.
        """
        s = 1
        while vec:
            k = max(vec)
            piv = self.pivots.get(k)
            if piv is None:
                return k, s
            pvec, pcombo = piv
            p, v = pvec[k], vec[k]
            g = math.gcd(p, v)
            a, b = p // g, -v // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                s *= a
                for key in vec:
                    vec[key] *= a
                for key in combo:
                    combo[key] *= a
            accumulate(vec, pvec.items(), b)
            accumulate(combo, pcombo.items(), b)
        return None, s

    def add(self, col_id, vec):
        """Register a column.

        Returns None if the column is independent of those already seen;
        otherwise returns {column id: Fraction} with
        sum(coeff * column) = 0, including this column with coefficient 1.
        """
        vec, d = _integral(vec)
        combo = {col_id: d}
        k, _ = self._reduce(vec, combo)
        lead = combo[col_id]
        if k is None:
            return {c: Fraction(v, lead) for c, v in combo.items()}
        if lead != 1:
            g = math.gcd(*vec.values(), *combo.values())
            if g != 1:
                vec = {key: c // g for key, c in vec.items()}
                combo = {key: c // g for key, c in combo.items()}
        self.pivots[k] = (vec, combo)
        return None

    def solve(self, rhs):
        """Express rhs as a combination of the registered columns.

        Returns {column id: Fraction} with sum(coeff * column) = rhs, or
        None if rhs is outside the registered column span.
        """
        vec, d = _integral(rhs)
        combo = {}
        k, s = self._reduce(vec, combo)
        if k is not None:
            return None
        return {c: Fraction(-v, d * s) for c, v in combo.items()}
