"""Left-dependency decision procedure with certificates.

A finite system s_1,...,s_k of enveloping-algebra elements is left
dependent when some coefficients u_r in the enveloping algebra, not all
zero, give sum(env_mul(u_r, s_r)) = 0.  The decision loop repeatedly
cancels leading terms between comparable rows (composition) while
tracking each row as an explicit combination of the original inputs, so
every Dependent verdict carries a witness that is re-verified before it
is returned.  Independence follows when the leading words become
pairwise incomparable under right division.
"""

import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional

from . import freelie, poisson
from .core import BudgetError, graded_lex_key
from .env import Env, env_mul, ldc, ldm, word_right_divides
from .linalg import SparseSolver
from .poisson import Poly


class StepBudgetExceeded(Exception):
    """The reduction loop hit its step budget before reaching a verdict."""


@dataclass
class ReductionRecord:
    i: int
    j: int
    word: tuple
    mult_i: Poly
    mult_j: Poly


@dataclass
class DependencyVerdict:
    status: str  # "dependent" | "independent"
    witness: Optional[tuple]
    trace: list
    final_words: Optional[tuple] = None


def lambda_shift(lam, u):
    """For lam in P and u with hdeg u = m, the v with lam^(m+1)*u = v*lam.

    Uses lam*u = u*lam + u1 where hdeg u1 < hdeg u, then recurses on u1.
    """
    u = Env.zero() + u
    if not isinstance(lam, Poly):
        lam = Poly.constant(lam)
    if lam.is_zero() or u.is_zero():
        raise ValueError("lambda_shift requires nonzero inputs")
    m = u.hdeg()
    if m == 0:
        return u
    u1 = lam * u - env_mul(u, Env.from_poly(lam))
    if u1.is_zero():
        return lam**m * u
    m1 = u1.hdeg()
    v1 = lambda_shift(lam, u1)
    return lam**m * u + lam ** (m - 1 - m1) * v1


def _composition_factors(u, v):
    """(a, b, t) with a*u - b*h_t*v free of the leading term of u.

    ldm(v) right-divides ldm(u), say ldm(u) = t + ldm(v); with
    r = p_gcd(ldc(u), ldc(v)), a = ldc(v)/r and b = ldc(u)/r.
    """
    wu, wv = ldm(u), ldm(v)
    r = poisson.p_gcd(ldc(u), ldc(v))
    return poisson.divexact(ldc(v), r), poisson.divexact(ldc(u), r), wu[: len(wu) - len(wv)]


def composition(u, v):
    """Cancel the leading term of u against that of v.

    Requires ldm(v) to right-divide ldm(u), say ldm(u) = t + ldm(v); with
    r = p_gcd(ldc(u), ldc(v)) returns (ldc(v)/r)*u - (ldc(u)/r)*t*v,
    which is zero or has a strictly smaller leading word.
    """
    u, v = Env.zero() + u, Env.zero() + v
    if u.is_zero() or v.is_zero():
        raise ValueError("composition requires nonzero inputs")
    if not word_right_divides(ldm(v), ldm(u)):
        raise ValueError("ldm(v) does not right-divide ldm(u)")
    a, b, t = _composition_factors(u, v)
    out = a * u - b * env_mul(Env({t: Poly.one()}), v)
    if not out.is_zero() and graded_lex_key(ldm(out)) >= graded_lex_key(ldm(u)):
        raise AssertionError("composition failed to lower the leading word")
    return out


def verify_witness(witness, elements):
    """True iff some witness entry is nonzero and the combination vanishes."""
    if len(witness) != len(elements):
        raise ValueError("witness and element counts differ")
    ws = [Env.zero() + w for w in witness]
    if all(w.is_zero() for w in ws):
        return False
    total = Env.zero()
    for w, s in zip(ws, elements):
        total = total + env_mul(w, Env.zero() + s)
    return total.is_zero()


def _unit_witness(k, r):
    return tuple(Env.one() if t == r else Env.zero() for t in range(k))


def decide_left_dependence(elements, max_steps=100_000):
    """Decide left dependence of a nonempty system, with certificate.

    Dependent verdicts always carry a witness that has been verified
    against the original inputs; Independent verdicts are returned only
    after re-checking that the final leading words are pairwise
    incomparable under right division.  Raises StepBudgetExceeded when
    the reduction budget runs out.
    """
    originals = [Env.zero() + s for s in elements]
    if not originals:
        raise ValueError("empty system")
    k = len(originals)
    for r, s in enumerate(originals):
        if s.is_zero():
            return DependencyVerdict("dependent", _unit_witness(k, r), [])

    rows = [
        (s, [Env.one() if t == r else Env.zero() for t in range(k)])
        for r, s in enumerate(originals)
    ]
    trace = []
    steps = 0
    while True:
        best = None
        for i in range(len(rows)):
            wi = ldm(rows[i][0])
            for j in range(len(rows)):
                if i == j:
                    continue
                if word_right_divides(ldm(rows[j][0]), wi):
                    key = (graded_lex_key(wi), i, j)
                    if best is None or key < best[0]:
                        best = (key, i, j)
        if best is None:
            words = [ldm(s) for s, _ in rows]
            for a, b in itertools.combinations(words, 2):
                if word_right_divides(a, b) or word_right_divides(b, a):
                    raise AssertionError("independent state has comparable words")
            return DependencyVerdict("independent", None, trace, tuple(words))

        _, i, j = best
        steps += 1
        if steps > max_steps:
            raise StepBudgetExceeded(f"no verdict within {max_steps} reductions")
        si, ci = rows[i]
        sj, cj = rows[j]
        a, b, t = _composition_factors(si, sj)
        t_env = Env({t: Poly.one()})
        new_s = a * si - b * env_mul(t_env, sj)
        new_c = [a * ci[r_] - b * env_mul(t_env, cj[r_]) for r_ in range(k)]
        trace.append(ReductionRecord(i, j, t, a, b))

        if new_s.is_zero():
            # a != 0 and P^e is a domain, so the combinations stay left independent: new_c is not all zero
            witness = tuple(new_c)
            if not verify_witness(witness, originals):
                raise AssertionError("reduction produced an invalid witness")
            return DependencyVerdict("dependent", witness, trace)
        if graded_lex_key(ldm(new_s)) >= graded_lex_key(ldm(si)):
            raise AssertionError("reduction failed to lower the leading word")
        rows[i] = (new_s, new_c)


BOX_BUDGET = 200_000  # unknowns of one bounded search


def words_up_to(n, max_len):
    """All h-words over 1..n of length 0..max_len, shortest first."""
    out = []
    for length in range(max_len + 1):
        out.extend(itertools.product(range(1, n + 1), repeat=length))
    return out


def monomials_up_to(n, max_deg):
    """All Poisson monomials of total degree <= max_deg, in canonical form."""
    basis = freelie.lyndon_basis(n, max_deg) if max_deg >= 1 else []
    out, stack = [], [((), 0, 0)]  # monomial, its degree, first basis index still free
    while stack:
        m, d, i = stack.pop()
        out.append((d, m))
        for j in range(i, len(basis)):
            w = basis[j]
            if d + len(w) > max_deg:
                break  # the basis is sorted by length
            for e in range(1, (max_deg - d) // len(w) + 1):
                stack.append((m + ((w, e),), d + e * len(w), j + 1))
    return [m for _, m in sorted(out)]


def h_word_products(u, words):
    """{w: h_w * u} for w in `words`, shortest first as words_up_to lists
    them, each made as h_(w[0]) * (h_(w[1:]) * u)."""
    done = {}
    for w in words:
        done[w] = env_mul(Env.h_generator(w[0]), done[w[1:]]) if w else u
    return done


def box_size(n, max_len, max_deg, cap):
    """len(words_up_to(n, max_len)) * len(monomials_up_to(n, max_deg)) in
    closed form, or cap + 1 when that is larger than cap.

    There are n^l words of length l, and as many monomials of degree l:
    the monomials are counted by prod_l (1 - t^l)^-M(n, l), where M(n, l)
    is the number of Lyndon words of length l (Witt's formula), and that
    product is 1 / (1 - n*t) (Poincare-Birkhoff-Witt).
    """

    def up_to(d):
        if n == 1:
            return d + 1
        if d >= cap.bit_length():
            return cap + 1
        return (n ** (d + 1) - 1) // (n - 1)

    return min(up_to(max_len) * up_to(max_deg), cap + 1)


def _int(c):
    return c.numerator if c.denominator == 1 else c


def _infer_n(elements):
    n = 1
    for s in elements:
        for w, p in s.terms.items():
            if w:
                n = max(n, max(w))
            for m in p.terms:
                for bw, _ in m:
                    n = max(n, max(bw))
    return n


def denominator_lcm(elements):
    """The lcm of the denominators of every coefficient of the Env elements."""
    return math.lcm(*(c.denominator for s in elements for p in s.terms.values() for c in p.terms.values()))


class ColumnBuilder:
    """Columns m * u of a bounded search, built by adding monomial codes.

    A row is one int whose mixed-radix digits are, most significant first:
    the caller's prefix (below `prefixes`); the length and the letters of
    the h-word, padded with 0 on the right; then the monomial part
    code(mono) = deg * R**P + sum(e_w * R**idx(w)), where idx numbers in
    graded-lex order the P basis words of `monos` and of the bases.  R - 1
    is at least the largest monomial degree of a `shifted` base plus that
    of `monos`, so no digit carries and code(m * m2) = code(m) + code(m2).
    The rows sort like (prefix, graded_lex_key(word), deg, exponent vector,
    most significant last).  The caller builds all bases before the first
    column: every u that `flatten` will see (`shifted`) and `coded` will
    see (`placed`), and the `suffixes` of `place`.  They fix the radices,
    and each code is checked against them.

    The h-word part stays on top: SparseSolver reduces a column at its
    largest row, which then lies in the column's leading h-word, fixed by w
    for m * h_w * s.  With the monomial part on top a `search` round of the
    benchmark made about 18 times as many elimination steps and took twice
    as long.  No row order changes a kernel or a solution (see linalg).

    An element u is flattened once into (row, coefficient) entries; the
    column of m * u has them at row + code(m), code(m) memoized per m for
    the lifetime of the builder, which is one search.  `coded` and `place`
    serve the other side, u * h_w for one u and many suffixes w: u is split
    by h-word into (monomial code, coefficient) entries once, and the row
    of each (prefix, h-word + suffix) is memoized.

    The searches hand the builder the entries of their D-scaled system:
    the elements multiplied by D, the lcm of their coefficient
    denominators.  The bracket structure constants are integers, so every
    product of a scaled element with an h-word or a monomial has integer
    coefficients, and the builder emits them as ints (a coefficient that
    is not integral stays a Fraction).  Scaling every column by D changes
    no kernel.
    """

    def __init__(self, shifted, monos, placed=(), suffixes=(), prefixes=1):
        hwords = [{w for u in us for w in u.terms} for us in (shifted, placed)]
        mono_sets = [{m for u in us for p in u.terms.values() for m in p.terms} for us in (shifted, placed)]
        deg = [max(map(poisson.mono_deg, ms), default=0) for ms in (*mono_sets, monos)]
        hlen = [max(map(len, ws), default=0) for ws in (*hwords, suffixes)]
        self._prefixes = prefixes
        self._letters = 1 + max((a for w in [*hwords[0], *hwords[1], *suffixes] for a in w), default=0)
        self._hlen = max(hlen[0], hlen[1] + hlen[2])
        self._shift_deg = deg[2]
        self._deg = max(deg[0] + deg[2], deg[1])
        radix = self._deg + 1
        words = sorted({w for m in [*mono_sets[0], *mono_sets[1], *monos] for w, _ in m}, key=graded_lex_key)
        self._place = {w: radix**i for i, w in enumerate(words)}
        self._top = radix ** len(words)
        self._mono = self._top * radix
        self._offsets, self._rows = {}, {}

    def _code(self, m, max_deg):
        d = poisson.mono_deg(m)
        if d > max_deg or any(w not in self._place for w, _ in m):
            raise ValueError(f"monomial {m} outside the builder's radices")
        return d * self._top + sum(e * self._place[w] for w, e in m)

    def _row(self, prefix, word):
        if not 0 <= prefix < self._prefixes or len(word) > self._hlen or not all(0 < a < self._letters for a in word):
            raise ValueError(f"prefix {prefix}, word {word} outside the builder's radices")
        code = prefix * (self._hlen + 1) + len(word)
        for a in word:
            code = code * self._letters + a
        return code * self._letters ** (self._hlen - len(word)) * self._mono

    def key(self, prefix, word, mono):
        """The row of (prefix, h-word, monomial)."""
        return self._row(prefix, word) + self._code(mono, self._deg)

    def flatten(self, u, prefix=0):
        """Entries of u, for `shift`; the h-word w gives the row of (prefix, w)."""
        max_deg = self._deg - self._shift_deg
        out = []
        for w, p in u.terms.items():
            row = self._row(prefix, w)
            out.extend((row + self._code(m, max_deg), _int(c)) for m, c in p.terms.items())
        return out

    def coded(self, u):
        """u as (h-word, [(monomial code, coefficient), ...]) pairs, for `place`."""
        return [(w, [(self._code(m, self._deg), _int(c)) for m, c in p.terms.items()]) for w, p in u.terms.items()]

    def place(self, coded, prefix, suffix, col):
        """col with the entries of u * h_suffix added, u given by `coded(u)`."""
        rows = self._rows
        for w, entries in coded:
            row = rows.get((prefix, w, suffix))
            if row is None:
                row = rows[prefix, w, suffix] = self._row(prefix, w + suffix)
            for code, c in entries:
                col[row + code] = c
        return col

    def shift(self, entries, m):
        """A new column with the entries of m * (flattened)."""
        off = self._offsets.get(m)
        if off is None:
            off = self._offsets[m] = self._code(m, self._shift_deg)
        return {row + off: c for row, c in entries}


def brute_force_dependence(elements, hdeg_bound, coeff_deg_bound, n=None):
    """Search for a dependence witness in a bounded coefficient space.

    Candidate coefficients are spanned by mono * h_word with the word
    length at most hdeg_bound and the monomial degree at most
    coeff_deg_bound.  Exact rational elimination over that span either
    produces a witness (always verified) or refutes dependence within
    the bounds.  Raises BudgetError, before enumerating anything, when
    the span has more than BOX_BUDGET unknowns.

    The search runs on the D-scaled elements (see ColumnBuilder), which
    have the same kernel.  Each h_w * s_r is computed once, as
    h_(w[0]) * (h_(w[1:]) * s_r) along the word trie; all of these bases
    are built before the first column, since they fix the radices of the
    row codes.  Each base is flattened once, and the columns m * h_w * s_r
    for all monomials m are made by adding the code of m to its rows
    (ColumnBuilder).
    """
    if hdeg_bound < 0 or coeff_deg_bound < 0:
        raise ValueError("bounds must be nonnegative")
    elements = [Env.zero() + s for s in elements]
    if not elements:
        return None
    for r, s in enumerate(elements):
        if s.is_zero():
            return _unit_witness(len(elements), r)
    if n is None:
        n = _infer_n(elements)
    if len(elements) * box_size(n, hdeg_bound, coeff_deg_bound, BOX_BUDGET) > BOX_BUDGET:
        raise BudgetError(f"the box ({hdeg_bound}, {coeff_deg_bound}) has over {BOX_BUDGET} unknowns")

    words = words_up_to(n, hdeg_bound)
    monos = monomials_up_to(n, coeff_deg_bound)
    scale = denominator_lcm(elements)
    bases = [h_word_products(s * scale, words) for s in elements]
    columns = ColumnBuilder([u for b in bases for u in b.values()], monos)
    solver = SparseSolver()
    for r, products in enumerate(bases):
        for w, base in products.items():
            base = columns.flatten(base)
            for m in monos:
                kernel = solver.add((r, w, m), columns.shift(base, m))
                if kernel is not None:
                    witness = [Env.zero() for _ in elements]
                    for (r_, w_, m_), c in kernel.items():
                        witness[r_] = witness[r_] + Env({w_: Poly({m_: c})})
                    witness = tuple(witness)
                    if not verify_witness(witness, elements):
                        raise AssertionError("oracle produced an invalid witness")
                    return witness
    return None


def load_corpus():
    """Parsed dependence corpus: list of (n, elements, expected-status)."""
    from importlib.resources import files

    from . import syntax

    out = []
    text = files("freepoisson").joinpath("data/depend_corpus.jsonl").read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        n = rec["n"]
        elems = [syntax.parse_element(src, n, "env") for src in rec["elements"]]
        out.append((n, elems, rec.get("expected")))
    return out
