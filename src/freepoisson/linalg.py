"""Exact sparse Gaussian elimination over the rationals.

Columns arrive one at a time as dicts row-key -> Fraction; row keys can
be any mutually comparable values.  Each registered column is reduced
against the current pivots at its largest row key.  A column that
reduces to zero yields the combination of previously added columns that
produced it, which is exactly the kernel/solution certificate the
callers need.

Pivots are stored unnormalized: a column that survives reduction is
kept as it is, together with its combination, and each reduction step
scales by vec[k] / pivot[k] instead.  Subtracting
(vec[k] / pivot[k]) * pivot is exactly the same rational vector as
subtracting vec[k] * (pivot / pivot[k]), so every reduced column, and
with it every kernel and every solution, is the same as with unit
pivots; only the stored pivots differ by a scalar, and no division runs
over the entries of a new pivot.
"""

from fractions import Fraction

from .core import accumulate


def _exact(vec):
    """A copy of vec with every entry a nonzero Fraction."""
    return {k: c if isinstance(c, Fraction) else Fraction(c) for k, c in vec.items() if c}


class SparseSolver:
    def __init__(self):
        self.pivots = {}  # row key -> (column with that lead, combo over column ids)

    def _reduce(self, vec, combo):
        while vec:
            k = max(vec)
            piv = self.pivots.get(k)
            if piv is None:
                return k
            pvec, pcombo = piv
            f = -vec[k] / pvec[k]
            accumulate(vec, pvec.items(), f)
            accumulate(combo, pcombo.items(), f)
        return None

    def add(self, col_id, vec):
        """Register a column.

        Returns None if the column is independent of those already seen;
        otherwise returns {column id: coefficient} with
        sum(coeff * column) = 0, including this column with coefficient 1.
        """
        vec = _exact(vec)
        combo = {col_id: Fraction(1)}
        k = self._reduce(vec, combo)
        if k is None:
            return combo
        self.pivots[k] = (vec, combo)
        return None

    def solve(self, rhs):
        """Express rhs as a combination of the registered columns.

        Returns {column id: coefficient} with sum(coeff * column) = rhs,
        or None if rhs is outside the registered column span.
        """
        vec = _exact(rhs)
        combo = {}
        if self._reduce(vec, combo) is not None:
            return None
        return {c: -v for c, v in combo.items() if v}
