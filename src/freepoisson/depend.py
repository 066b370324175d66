"""Left-dependency decision procedure with certificates.

A finite system s_1,...,s_k of enveloping-algebra elements is left
dependent when some coefficients u_r in the enveloping algebra, not all
zero, give sum(env_mul(u_r, s_r)) = 0.  The decision loop repeatedly
cancels leading terms between comparable rows (composition) and records
each step as a ReductionRecord; the rows are plain elements, and the
trace is the only record of the run.  When a row vanishes, the witness
is the trace replayed on the unit combinations of the inputs, which is
verified before it is returned.  Independence follows when the leading
words become pairwise incomparable under right division.
"""

import itertools
import math
from typing import NamedTuple

from . import freelie, poisson
from .core import BudgetError, Record, accumulate, graded_lex_key
from .env import Env, _Derivation, env_mul, ldm, word_right_divides
from .linalg import Base, SparseSolver
from .poisson import Poly


class StepBudgetExceeded(BudgetError):
    """The reduction loop hit its step budget before reaching a verdict."""


class ReductionRecord(NamedTuple):
    i: int
    j: int
    word: tuple
    mult_i: Poly
    mult_j: Poly


class DependencyVerdict(Record):
    """status is "dependent" (with a witness tuple) or "independent" (with
    the final leading words).  trace lists the ReductionRecords, the record
    of the run; a witness is that trace replayed on the inputs."""

    __slots__ = ("status", "witness", "trace", "final_words")

    def __init__(self, status, witness, trace, final_words=None):
        self.status = status
        self.witness = witness
        self.trace = trace
        self.final_words = final_words


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


def _step(u, wu, v, wv):
    """Reduce u by v, whose leading words are wu = t + wv and wv.

    With r = p_gcd(ldc(u), ldc(v)), a = ldc(v)/r and b = ldc(u)/r, returns
    (a, b, t, a*u - b*h_t*v, the leading word of that row, or None when it
    is zero); the leading term of u cancels, so that word is below wu.
    """
    cu, cv = u.terms[wu], v.terms[wv]
    r = poisson.p_gcd(cu, cv)
    a, b, t = poisson.divexact(cv, r), poisson.divexact(cu, r), wu[: len(wu) - len(wv)]
    out = a * u - b * env_mul(Env({t: Poly.one()}), v)
    w = None if out.is_zero() else ldm(out)
    if w is not None and graded_lex_key(w) >= graded_lex_key(wu):
        raise AssertionError("reduction failed to lower the leading word")
    return a, b, t, out, w


def composition(u, v):
    """Cancel the leading term of u against that of v.

    Requires ldm(v) to right-divide ldm(u), say ldm(u) = t + ldm(v); with
    r = p_gcd(ldc(u), ldc(v)) returns (ldc(v)/r)*u - (ldc(u)/r)*t*v,
    which is zero or has a strictly smaller leading word.
    """
    u, v = Env.zero() + u, Env.zero() + v
    if u.is_zero() or v.is_zero():
        raise ValueError("composition requires nonzero inputs")
    wu, wv = ldm(u), ldm(v)
    if not word_right_divides(wv, wu):
        raise ValueError("ldm(v) does not right-divide ldm(u)")
    return _step(u, wu, v, wv)[3]


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


def _replay(trace, k):
    """The combination of the k inputs that the row of the last step of
    `trace` is: each step applied to the unit combinations, in order."""
    combos = [_unit_witness(k, r) for r in range(k)]
    for i, j, t, a, b in trace:
        h_t = Env({t: Poly.one()})
        combos[i] = tuple(a * ci - b * env_mul(h_t, cj) for ci, cj in zip(combos[i], combos[j]))
    return combos[trace[-1].i]


def decide_left_dependence(elements, max_steps=100_000):
    """Decide left dependence of a nonempty system, with certificate.

    Each step reduces the row with the least leading word that another
    row's leading word right-divides (the first such i, then j) by that
    row, as composition does, and appends its ReductionRecord to the
    trace.  A step whose row vanishes ends in "dependent", with the
    witness replayed from the trace and verified against the inputs; no
    comparable pair of leading words ends in "independent", after the
    final words are checked to be pairwise incomparable.  Raises
    StepBudgetExceeded when the trace reaches max_steps steps and another
    step is due.
    """
    rows = [Env.zero() + s for s in elements]
    if not rows:
        raise ValueError("empty system")
    k = len(rows)
    for r, s in enumerate(rows):
        if s.is_zero():
            return DependencyVerdict("dependent", _unit_witness(k, r), [])

    originals, words, trace = list(rows), [ldm(s) for s in rows], []
    while True:
        best = min(
            (
                (graded_lex_key(wi), i, j)
                for i, wi in enumerate(words)
                for j, wj in enumerate(words)
                if i != j and word_right_divides(wj, wi)
            ),
            default=None,
        )
        if best is None:
            for a, b in itertools.combinations(words, 2):
                if word_right_divides(a, b) or word_right_divides(b, a):
                    raise AssertionError("independent state has comparable words")
            return DependencyVerdict("independent", None, trace, tuple(words))
        _, i, j = best
        if len(trace) >= max_steps:
            raise StepBudgetExceeded(f"no verdict within {max_steps} reductions")
        a, b, t, row, w = _step(rows[i], words[i], rows[j], words[j])
        trace.append(ReductionRecord(i, j, t, a, b))
        if w is None:
            # a != 0 and P^e is a domain, so the combinations stay left independent: the replay is not all zero
            witness = _replay(trace, k)
            if not verify_witness(witness, originals):
                raise AssertionError("reduction produced an invalid witness")
            return DependencyVerdict("dependent", witness, trace)
        rows[i], words[i] = row, w


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


def _infer_n(elements):
    n = 1
    for s in elements:
        for w, p in s.terms.items():
            if w:
                n = max(n, max(w))
            for bw in p.variables():
                n = max(n, max(bw))
    return n


def denominator_lcm(elements):
    """The lcm of the denominators of every coefficient of the Env elements."""
    return math.lcm(*(c.denominator for s in elements for p in s.terms.values() for c in p.terms.values()))


class ColumnBuilder:
    """The columns of one bounded search, built by adding monomial codes.

    `rows` are lists of elements, all of one length K.  The column (i, w, m),
    for w in `words` and m in `monos`, is m * (h_w * rows[i][k]) at the rows
    of prefix k < K; its id is (i * len(words) + index of w) * len(monos) +
    index of m, which `decode` reads back by divmod.  The bases
    h_w * rows[i][k] are derived with one env._Derivation, the kernel of
    env_mul, which lives as long as the builder's set-up; so their
    monomials are interned, and each interned monomial is coded once.

    A row is one int whose mixed-radix digits are, most significant first:
    the prefix; the length and the letters of the h-word, padded with 0 on
    the right; then the monomial part code(mono) = deg * R**P +
    sum(e_w * R**idx(w)), where idx numbers in graded-lex order the P basis
    words of `monos` and of the interned monomials.  R - 1 is the largest
    degree of an interned monomial plus that of `monos`, so no digit
    carries and code(m * m2) = code(m) + code(m2).  The rows sort like
    (prefix, graded_lex_key(word), deg, exponent vector, most significant
    last).  The radices come from every base, so all are derived before
    the first column, and each code is checked against them.

    The h-word part stays on top: SparseSolver reduces a column at its
    largest row, which then lies in the column's leading h-word, fixed by w
    for m * h_w * s.  With the monomial part on top a `search` round of the
    benchmark made about 18 times as many elimination steps and took twice
    as long.  No row order changes a kernel or a solution (see linalg).

    The bases are those of the rows multiplied by `scale`, the lcm D of
    their coefficient denominators.  The bracket structure constants are
    ints (`freelie._basis_bracket`), so every column has int coefficients.
    Scaling every column by D changes no kernel.
    """

    def __init__(self, rows, words, monos):
        derivation, self.scale = _Derivation(), denominator_lcm(u for row in rows for u in row)
        self.bases = [[derivation.products(u * self.scale, words) for u in row] for row in rows]
        hwords = {v for row in self.bases for d in row for terms in d.values() for v in terms}
        self._words, self._monos, self._prefixes = words, monos, len(rows[0])
        self._letters = 1 + max((a for w in hwords for a in w), default=0)
        self._hlen = max(map(len, hwords), default=0)
        self._shift_deg = max(map(poisson.mono_deg, monos), default=0)
        base_deg = max(map(poisson.mono_deg, derivation.monos), default=0)
        self._deg = base_deg + self._shift_deg
        radix = self._deg + 1
        basis = sorted({w for m in [*derivation.monos, *monos] for w, _ in m}, key=graded_lex_key)
        self._place = {w: radix**i for i, w in enumerate(basis)}
        self._top = radix ** len(basis)
        self._mono = self._top * radix
        self._codes = [self._code(m, base_deg) for m in derivation.monos]

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

    def flatten(self, terms, prefix=0):
        """The (row, c) entries of a base {h-word v: {monomial id: c}}, as in
        `bases`; v gives the row of (prefix, v)."""
        codes, out = self._codes, []
        for v, p in terms.items():
            row = self._row(prefix, v)
            out.extend((row + codes[i], c) for i, c in p.items())
        return out

    def offsets(self, monos):
        """[code(m) for m in monos], the shifts of the columns m * u."""
        return [self._code(m, self._shift_deg) for m in monos]

    def kernels(self, solver):
        """Add the columns in id order to `solver`, those of one (i, w) as the
        shifts of one linalg.Base (SparseSolver.add_shifted), and yield the
        kernel of each column that depends on those before it."""
        offs = self.offsets(self._monos)
        for b, (row, w) in enumerate(itertools.product(self.bases, self._words)):
            base = Base([e for k, d in enumerate(row) for e in self.flatten(d[w], k)])
            yield from solver.add_shifted(base, offs, b * len(offs))

    def decode(self, combo):
        """[sum of c * m * h_w over the ids (i, w, m) of combo] for each i."""
        out = [Env.zero() for _ in self.bases]
        for col_id, c in combo.items():
            iw, t = divmod(col_id, len(self._monos))
            i, w = divmod(iw, len(self._words))
            out[i] = out[i] + Env({self._words[w]: Poly({self._monos[t]: c})})
        return out


def brute_force_dependence(elements, hdeg_bound, coeff_deg_bound, n=None):
    """Search for a dependence witness in a bounded coefficient space.

    Candidate coefficients are spanned by mono * h_word with the word
    length at most hdeg_bound and the monomial degree at most
    coeff_deg_bound.  Exact rational elimination over that span either
    produces a witness (always verified) or refutes dependence within
    the bounds.  Raises BudgetError, before enumerating anything, when
    the span has more than BOX_BUDGET unknowns.

    The search is a ColumnBuilder with one row per element, so the
    column (r, w, m) is m * h_w * s_r.  It stops at the first kernel.
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

    columns = ColumnBuilder([[s] for s in elements], words_up_to(n, hdeg_bound), monomials_up_to(n, coeff_deg_bound))
    for kernel in columns.kernels(SparseSolver()):
        witness = tuple(columns.decode(kernel))
        if not verify_witness(witness, elements):
            raise AssertionError("oracle produced an invalid witness")
        return witness
    return None


def load_corpus():
    """Parsed dependence corpus: list of (n, elements, expected-status)."""
    import json
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
