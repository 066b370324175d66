"""Fox derivatives, Jacobian matrices, bounded inversion, pair classifier.

The Hamiltonian of any polynomial decomposes uniquely as
ham(p) = sum_i fox(p, i) * h(x_i); the Fox derivatives are read off the
canonical form by grouping h-words by their final letter.  Jacobians of
endomorphisms collect these derivatives; bounded inversion searches a
finite coefficient box for an exact two-sided inverse over the
enveloping algebra.
"""

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from . import depend, linalg, poisson
from .core import Record
from .env import Env, env_mul, ham, ldm, split
from .poisson import Poly


class Endomorphism(Record):
    __slots__ = ("n", "images")  # images of x_1..x_n, as Poly

    def __init__(self, n, images):
        if len(images) != n:
            raise ValueError("image count must equal the variable count")
        self.n = n
        self.images = images

    def __call__(self, p):
        return poisson.evaluate(p, self.images)

    def is_polynomial_map(self):
        """True iff every image avoids bracket-basis variables."""
        return all(
            all(len(w) == 1 for w in img.variables()) for img in self.images
        )


def compose(outer, inner):
    """The endomorphism x_i -> outer(inner(x_i))."""
    if outer.n != inner.n:
        raise ValueError("variable counts differ")
    return Endomorphism(outer.n, [outer(img) for img in inner.images])


class EnvMatrix(Record):
    __slots__ = ("entries",)  # n x n nested lists of Env

    def __init__(self, entries):
        self.entries = entries

    @property
    def n(self):
        return len(self.entries)


def identity_matrix(n):
    return EnvMatrix(
        [[Env.one() if i == j else Env.zero() for j in range(n)] for i in range(n)]
    )


def mat_mul(a, b):
    n = a.n
    out = []
    for i in range(n):
        row = []
        for k in range(n):
            acc = Env.zero()
            for j in range(n):
                acc = acc + env_mul(a.entries[i][j], b.entries[j][k])
            row.append(acc)
        out.append(row)
    return EnvMatrix(out)


def fox(p, i):
    """Coefficient of h(x_i) in the canonical decomposition of ham(p)."""
    if i < 1:
        raise ValueError("variable index must be >= 1")
    return _fox(ham(p), i)


def _fox(h, i):
    """Coefficient of h(x_i) in h, a Hamiltonian in canonical form."""
    return Env({w[:-1]: q for w, q in h.terms.items() if w and w[-1] == i})


def jacobian(psi):
    """Matrix with entry (i, j) = fox of the i-th image by x_j, each row
    read off one ham of its image."""
    return EnvMatrix(
        [[_fox(h, j) for j in range(1, psi.n + 1)] for h in map(ham, psi.images)]
    )


def env_apply(psi, u):
    """Apply an endomorphism to an enveloping element.

    Coefficients map through substitution and each h-letter j maps to
    ham of the j-th image.
    """
    hams = [ham(img) for img in psi.images]
    out = Env.zero()
    for w, p in u.terms.items():
        acc = Env.from_poly(poisson.evaluate(p, psi.images))
        for j in w:
            acc = env_mul(acc, hams[j - 1])
        out = out + acc
    return out


class InversionResult(NamedTuple):
    status: str  # "invertible" | "unknown"
    V: Optional[EnvMatrix]
    box: Optional[tuple]  # the (hdeg, coefficient degree) box searched, or None


def _poly_matrix(J):
    out = []
    for row in J.entries:
        prow = []
        for u in row:
            p, rest = split(u)
            if not rest.is_zero():
                return None
            prow.append(p)
        out.append(prow)
    return out


def _poly_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = Poly.zero()
    sign = 1
    for j in range(n):
        if not m[0][j].is_zero():  # a zero entry adds nothing: skip its minor
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            acc = acc + sign * (m[0][j] * _poly_det(minor))
        sign = -sign
    return acc


def _poly_adjugate(m):
    n = len(m)
    if n == 1:
        return [[Poly.one()]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            cof = _poly_det(minor)
            if (i + j) % 2:
                cof = -cof
            adj[j][i] = cof
    return adj


def _search_box(J, hb, cb, n_vars):
    """Exact solve of V*J = I with V confined to the box (the left system
    alone; see invert_jacobian_bounded).

    Row a of V*J = I reads sum_b V[a][b] * J[b][k] = delta_ak, and every
    row of V has the same columns.  The unknown (b, w, m) is the
    coefficient of m * h_w in V[a][b], and its column holds
    m * (h_w * J[b][k]) at the rows (k, word, mono): the column (b, w, m)
    of a depend.ColumnBuilder over the rows of J, which scales them by D.
    So row a solves against D * e_a.  One solver holds the columns and
    answers the n right-hand sides.  A kernel, some V != 0 in the box with
    V*J = 0, does not end the search: the later columns are still added.
    """
    columns = depend.ColumnBuilder(J.entries, depend.words_up_to(n_vars, hb), depend.monomials_up_to(n_vars, cb))
    solver = linalg.SparseSolver()
    for _ in columns.kernels(solver):
        pass
    entries = []
    for a in range(J.n):
        combo = solver.solve({columns.key(a, (), ()): columns.scale})
        if combo is None:
            return None
        entries.append(columns.decode(combo))
    return EnvMatrix(entries)


def _fit_box(n, n_vars, hb, cb, budget):
    """The first box (hb, cb) with at most `budget` unknowns on the
    shrinking path, or None when even (0, 0) has more.

    The path starts at (min(hb, budget), min(cb, budget)), since a box
    with a bound above the budget has more than budget unknowns.  One step
    lowers cb by one when it is above hb, and hb otherwise: the larger
    bound comes down to the smaller, then hb and cb come down in turn.
    The unknown count grows with either bound (depend.box_size), so it
    falls along the path, and the first box that fits is found by
    bisection over the number of steps.
    """
    hb, cb = min(hb, budget), min(cb, budget)
    gap, low = abs(hb - cb), min(hb, cb)

    def box(t):  # the box after t steps
        if t <= gap:
            return (hb - t, cb) if hb > cb else (hb, cb - t)
        return low - (t - gap + 1) // 2, low - (t - gap) // 2

    def fits(t):
        return n * n * depend.box_size(n_vars, *box(t), budget) <= budget

    lo, hi = 0, gap + 2 * low
    if not fits(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid + 1
    return box(lo)


def invert_jacobian_bounded(J, hdeg_bound, coeff_deg_bound):
    """Search for an exact two-sided inverse of J over the enveloping algebra.

    Coefficients of the candidate inverse are confined to h-words of
    length <= hdeg_bound with polynomial coefficients of degree <=
    coeff_deg_bound, in the letters of J's h-words and coefficients, and
    the box is shrunk to at most depend.BOX_BUDGET unknowns (_fit_box);
    the result's `box` is the box searched, the whole request when the
    polynomial adjugate gives V, and None when no box fits.
    "unknown" is never a claim of non-invertibility.

    The box search solves only V*J = I (_search_box).  A two-sided inverse
    is also the only left inverse: V*J = I gives V = (V*J)*V0 = V0 for any
    two-sided inverse V0.  So either path's V is checked once, by
    multiplying out: V*J != I is a defect and raises AssertionError, and
    J*V != I means that the box holds no two-sided inverse, which is
    "unknown" as when the left system has no solution.
    """
    if hdeg_bound < 0 or coeff_deg_bound < 0:
        raise ValueError("bounds must be nonnegative")
    n = J.n
    V, box = None, (hdeg_bound, coeff_deg_bound)
    pm = _poly_matrix(J)
    if pm is not None:
        det = _poly_det(pm)
        if det.is_constant() and not det.is_zero():
            inv = Fraction(1) / det.constant_value()
            V = EnvMatrix([[Env.from_poly(p * inv) for p in row] for row in _poly_adjugate(pm)])
    if V is None:
        n_vars = max(n, depend._infer_n([u for row in J.entries for u in row]))
        box = _fit_box(n, n_vars, hdeg_bound, coeff_deg_bound, depend.BOX_BUDGET)
        if box is None:
            return InversionResult("unknown", None, None)
        V = _search_box(J, *box, n_vars)
        if V is None:
            return InversionResult("unknown", None, box)
    ident = identity_matrix(n)
    if mat_mul(V, J) != ident:
        raise AssertionError("left inverse failed verification")
    if mat_mul(J, V) != ident:
        return InversionResult("unknown", None, box)
    return InversionResult("invertible", V, box)


class PairStatus(NamedTuple):
    status: str  # "free" | "dependent"
    lam: Optional[Poly]
    mu: Optional[Poly]
    witness: Optional[tuple]


def _normalize_pair(lam, mu):
    nums = [c.numerator for c in lam.terms.values()] + [
        c.numerator for c in mu.terms.values()
    ]
    dens = [c.denominator for c in lam.terms.values()] + [
        c.denominator for c in mu.terms.values()
    ]
    content = Fraction(math.gcd(*nums), math.lcm(*dens)) if nums else Fraction(1)
    if content:
        lam, mu = lam * (1 / content), mu * (1 / content)
    lead = lam if not lam.is_zero() else mu
    if not lead.is_zero() and lead.leading()[1] < 0:
        lam, mu = -lam, -mu
    return lam, mu


def pair_status(f, g):
    """Classify a pair: free when the bracket is nonzero, else dependent.

    On the dependent branch lam, mu in P with lam * ham(f) = mu * ham(g)
    are normalized from the polynomial witness (lam, -mu), attached too.
    If {f, g} = 0 and neither is constant, then f, g lie in k[a] for one a
    (the centralizer theorem, Makar-Limanov and Umirbaev, Proc. AMS 135,
    2007), so ham(f) = F'(a)*ham(a) and ham(g) = G'(a)*ham(a) share the
    leading word of ham(a), and one reduction step (depend._step, t = ())
    gives a*ham(f) - b*ham(g) = 0: that exact zero is the certificate of
    the witness (a, -b).  A constant input has ham 0 and gives a unit
    witness, (1, 0) when ham(f) = 0, else (0, 1).  Different leading
    words or a nonzero row raise AssertionError.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("pair_status requires nonzero inputs")
    if not poisson.p_bracket(f, g).is_zero():
        return PairStatus("free", None, None, None)
    u, v = ham(f), ham(g)
    if u.is_zero() or v.is_zero():
        a, b = (Poly.one(), Poly.zero()) if u.is_zero() else (Poly.zero(), -Poly.one())
    else:
        w = ldm(u)
        if ldm(v) != w:
            raise AssertionError("commuting pair with different leading words")
        a, b, _, row, _ = depend._step(u, w, v, w)
        if not row.is_zero():
            raise AssertionError("one reduction step must relate a commuting pair")
    lam, mu = _normalize_pair(a, b)
    return PairStatus("dependent", lam, mu, (Env.from_poly(a), Env.from_poly(-b)))
