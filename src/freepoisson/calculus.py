"""Fox derivatives, Jacobian matrices, bounded inversion, pair classifier.

The Hamiltonian of any polynomial decomposes uniquely as
ham(p) = sum_i fox(p, i) * h(x_i); the Fox derivatives are read off the
canonical form by grouping h-words by their final letter.  Jacobians of
endomorphisms collect these derivatives; bounded inversion searches a
finite coefficient box for an exact two-sided inverse over the
enveloping algebra.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import depend, poisson
from .env import Env, env_mul, ham, split
from .linalg import SparseSolver
from .poisson import Poly


@dataclass
class Endomorphism:
    n: int
    images: list  # images of x_1..x_n, as Poly

    def __post_init__(self):
        if len(self.images) != self.n:
            raise ValueError("image count must equal the variable count")

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


@dataclass
class EnvMatrix:
    entries: list  # n x n nested lists of Env

    @property
    def n(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, EnvMatrix) and self.entries == other.entries


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
    out = {}
    for w, q in ham(p).terms.items():
        if w and w[-1] == i:
            out[w[:-1]] = q
    return Env(out)


def jacobian(psi):
    """Matrix with entry (i, j) = fox of the i-th image by x_j."""
    return EnvMatrix(
        [[fox(img, j) for j in range(1, psi.n + 1)] for img in psi.images]
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


@dataclass
class InversionResult:
    status: str  # "invertible" | "unknown"
    V: Optional[EnvMatrix]
    exhausted: bool  # whether the full requested box was searched


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


def _verify_inverse(J, V):
    ident = identity_matrix(J.n)
    return mat_mul(V, J) == ident and mat_mul(J, V) == ident


def _search_box(J, hb, cb, n_vars):
    """Exact solve of V*J = I and J*V = I with V confined to the box.

    The unknown (a, b, w, m) is the coefficient of m * h_w in V[a][b].  Its
    column holds m * (h_w * J[b][k]) at the rows ("L", a, k, word, mono)
    and (J[i][a] * m) * h_w at the rows ("R", i, b, word, mono).  The
    columns are those of D*J, D the lcm of the coefficient denominators of
    J (see depend.ColumnBuilder), so the right-hand side is D*I.  All bases
    are built before the first column: each h_w * D*J[b][k] once along the
    word trie, and each D*J[i][a] * m once, split into coded entries that
    are placed at the rows of every suffix w.
    """
    n = J.n

    def prefix(side, i, j):  # ("L"|"R", i, j) as a ColumnBuilder prefix
        return (side * n + i) * n + j

    words = depend.words_up_to(n_vars, hb)
    monos = depend.monomials_up_to(n_vars, cb)
    scale = depend.denominator_lcm(u for row in J.entries for u in row)
    scaled = [[u * scale for u in row] for row in J.entries]
    base_left = [[depend.h_word_products(u, words) for u in row] for row in scaled]
    base_right = {
        (i, a, m): env_mul(scaled[i][a], Env.from_poly(Poly({m: 1})))
        for i in range(n)
        for a in range(n)
        for m in monos
    }
    lefts = [v for row in base_left for u in row for v in u.values()]
    columns = depend.ColumnBuilder(lefts, monos, base_right.values(), words, 2 * n * n)
    base_right = {key: columns.coded(u) for key, u in base_right.items()}

    solver = SparseSolver()
    for a in range(n):
        for b in range(n):
            for w in words:
                left = [
                    e
                    for k in range(n)
                    for e in columns.flatten(base_left[b][k][w], prefix(0, a, k))
                ]
                for m in monos:
                    col = columns.shift(left, m)
                    for i in range(n):
                        columns.place(base_right[(i, a, m)], prefix(1, i, b), w, col)
                    solver.add((a, b, w, m), col)

    rhs = {columns.key(prefix(s, i, i), (), ()): scale for s in (0, 1) for i in range(n)}
    combo = solver.solve(rhs)
    if combo is None:
        return None
    entries = [[Env.zero() for _ in range(n)] for _ in range(n)]
    for (a, b, w, m), c in combo.items():
        entries[a][b] = entries[a][b] + Env({w: Poly({m: c})})
    return EnvMatrix(entries)


def invert_jacobian_bounded(J, hdeg_bound, coeff_deg_bound, budget=depend.BOX_BUDGET):
    """Search for an exact two-sided inverse of J over the enveloping algebra.

    Coefficients of the candidate inverse are confined to h-words of
    length <= hdeg_bound with polynomial coefficients of degree <=
    coeff_deg_bound.  An "invertible" result is always re-verified by
    multiplying out; "unknown" is never a claim of non-invertibility.
    """
    if hdeg_bound < 0 or coeff_deg_bound < 0:
        raise ValueError("bounds must be nonnegative")
    n = J.n
    n_vars = max([n] + [max(w) for row in J.entries for u in row for w in u.terms if w])

    pm = _poly_matrix(J)
    if pm is not None:
        det = _poly_det(pm)
        if det.is_constant() and not det.is_zero():
            c = det.constant_value()
            adj = _poly_adjugate(pm)
            V = EnvMatrix(
                [
                    [Env.from_poly(adj[i][j] * (Fraction(1) / c)) for j in range(n)]
                    for i in range(n)
                ]
            )
            if not _verify_inverse(J, V):
                raise AssertionError("adjugate inverse failed verification")
            return InversionResult("invertible", V, True)

    # shrink the box until the unknown count fits the budget; a box with
    # a bound above the budget has more than budget unknowns, and the
    # shrinking passes through (min(hb, budget), min(cb, budget))
    hb, cb = min(hdeg_bound, budget), min(coeff_deg_bound, budget)
    while True:
        if n * n * depend.box_size(n_vars, hb, cb, budget) <= budget:
            break
        if cb > hb and cb > 0:
            cb -= 1
        elif hb > 0:
            hb -= 1
        else:
            return InversionResult("unknown", None, False)
    exhausted = hb == hdeg_bound and cb == coeff_deg_bound

    V = _search_box(J, hb, cb, n_vars)
    if V is None:
        return InversionResult("unknown", None, exhausted)
    if not _verify_inverse(J, V):
        raise AssertionError("solved inverse failed verification")
    return InversionResult("invertible", V, exhausted)


@dataclass
class PairStatus:
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


def pair_status(f, g, max_steps=100_000):
    """Classify a pair: free when the bracket is nonzero, else dependent.

    On the dependent branch produces lam, mu in P with
    lam * ham(f) = mu * ham(g) when such coefficients are found; the
    general enveloping witness is always attached.  Raises BudgetError
    when the bounded search for lam, mu would exceed depend.BOX_BUDGET.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("pair_status requires nonzero inputs")
    if not poisson.p_bracket(f, g).is_zero():
        return PairStatus("free", None, None, None)
    hf, hg = ham(f), ham(g)
    verdict = depend.decide_left_dependence([hf, hg], max_steps=max_steps)
    if verdict.status != "dependent":
        raise AssertionError("vanishing bracket must force dependence")
    w1, w2 = verdict.witness

    def try_pair(lam, mu):
        if lam.is_zero() and mu.is_zero():
            return None
        if (lam * hf - mu * hg).is_zero():
            return _normalize_pair(lam, mu)
        return None

    got = try_pair(split(w1)[0], -split(w2)[0])
    if got is None:
        base = max(int(max(f.deg(), g.deg())), 1)
        for extra in (0, 2, 4):
            w = depend.brute_force_dependence(
                [hf, hg], 0, base + extra, n=depend._infer_n([hf, hg])
            )
            if w is not None:
                got = try_pair(split(w[0])[0], -split(w[1])[0])
                if got is not None:
                    break
    if got is None:
        return PairStatus("dependent", None, None, verdict.witness)
    lam, mu = got
    return PairStatus("dependent", lam, mu, verdict.witness)
