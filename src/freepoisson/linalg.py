"""Exact sparse Gaussian elimination over the rationals, carried out in
integers.

Columns arrive one at a time as dicts row-key -> int or Fraction (`add`),
or a base at a time as the shifts {row + off: c} of one shared `Base`
(`add_shifted`), which numbers them by consecutive int column ids; row
keys can be any mutually comparable values.  Each column is reduced
against the current pivots at its largest row key.  A column that
reduces to zero yields the combination of previously added columns that
produced it, which is exactly the kernel/solution certificate the
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

A fresh column is one whose entries are all nonzero ints and whose lead
row no pivot holds yet.  No step touches it, so the pair that elimination
would store is the column itself with the combination {col_id: 1}, which
is primitive.  `add_shifted` stores it unbuilt, as its bare int col_id,
and keeps one (first id, base, offsets) run per call, from which a
reduction builds the dict pair in place the first time it reads the id as
a pivot.  The bounded searches make almost only fresh columns: m * h_w * s
leads at lead(h_w * s) + code(m), and two columns rarely share one.  Any
other column, and every column given to `add`, is built into a private
dict and reduced.  The solver never changes a column it was handed, and
the caller must not change one after handing it in.
"""

import bisect
import math
from fractions import Fraction

from .core import accumulate


class Base:
    """(row, coefficient) entries with distinct rows, shared by the columns
    {row + off: c} that `SparseSolver.add_shifted` makes of them; their top
    row and whether every coefficient is a nonzero int are found once, here."""

    __slots__ = ("entries", "top", "integral")

    def __init__(self, entries):
        self.entries = entries
        self.top = max((row for row, _ in entries), default=None)
        self.integral = all(type(c) is int and c for _, c in entries)


def _integral(vec):
    """(v, d): a new dict v of nonzero ints and an int d > 0 with v = d * vec."""
    vec = {k: Fraction(c) for k, c in vec.items() if c}
    d = math.lcm(*(c.denominator for c in vec.values()))
    return {k: c.numerator * (d // c.denominator) for k, c in vec.items()}, d


class SparseSolver:
    """Columns go in by `add` or `add_shifted`, and each dependent one gives
    its kernel; `solve` expresses a right-hand side in the columns."""

    def __init__(self):
        # row key -> (primitive int column with that lead, int combo over column
        # ids), or the col_id of an unbuilt fresh column; runs sorted by first
        self.pivots, self._runs = {}, []

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
            if type(piv) is int:
                first, base, offs = self._runs[bisect.bisect(self._runs, piv, key=lambda run: run[0]) - 1]
                piv = self.pivots[k] = {row + offs[piv - first]: c for row, c in base.entries}, {piv: 1}
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

    def _insert(self, col_id, vec, d):
        """Reduce the private int column vec = d * (column col_id) and store
        it as a primitive pair, or return its kernel as `add` does."""
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

    def add(self, col_id, vec):
        """Register a dict column.

        Returns None if the column is independent of those already seen;
        otherwise returns {column id: Fraction} with
        sum(coeff * column) = 0, including this column with coefficient 1.
        """
        return self._insert(col_id, *_integral(vec))

    def add_shifted(self, base, offs, first):
        """Register the columns {row + off: c for row, c in base.entries}
        for the offsets of the sequence `offs`, in order, as `add` would,
        with the column ids first, first + 1, ..., distinct from all others.

        A generator: it yields the kernel of each column that depends on
        those before it, as it arises, and registers the next column only
        when asked for more.  A fresh column (an integral base, and no
        pivot at its lead base.top + off) is stored unbuilt.
        """
        pivots = self.pivots
        top = base.top if base.integral and offs else None
        if top is not None:
            bisect.insort(self._runs, (first, base, offs), key=lambda run: run[0])
        for col_id, off in enumerate(offs, first):
            if top is not None and (k := top + off) not in pivots:
                pivots[k] = col_id
                continue
            vec = {row + off: c for row, c in base.entries}
            kernel = self._insert(col_id, vec, 1) if top is not None else self._insert(col_id, *_integral(vec))
            if kernel is not None:
                yield kernel

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
