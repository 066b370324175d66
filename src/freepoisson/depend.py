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
from dataclasses import dataclass
from typing import Optional

from . import freelie, poisson
from .core import graded_lex_key
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


def words_up_to(n, max_len):
    """All h-words over 1..n of length 0..max_len, shortest first."""
    out = []
    for length in range(max_len + 1):
        out.extend(itertools.product(range(1, n + 1), repeat=length))
    return out


def monomials_up_to(n, max_deg):
    """All Poisson monomials of total degree <= max_deg, in canonical form."""
    basis = freelie.lyndon_basis(n, max_deg) if max_deg >= 1 else []
    out = []

    def rec(idx, room, acc):
        if idx == len(basis):
            out.append(tuple(acc))
            return
        w = basis[idx]
        step = len(w)
        rec(idx + 1, room, acc)
        e = 1
        while e * step <= room:
            acc.append((w, e))
            rec(idx + 1, room - e * step, acc)
            acc.pop()
            e += 1

    rec(0, max_deg, [])
    out.sort(key=lambda m: (poisson.mono_deg(m), m))
    return out


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


class ColumnBuilder:
    """Columns m * u of a bounded search, built by shifting monomial keys.

    An element u is flattened once into entries (row-key prefix, monomial
    m2, deg m2, coefficient); the column of m * u is then the same
    coefficients at the keys prefix + ((deg m + deg m2, m * m2),).
    Multiplying by a fixed monomial is injective on monomials, so no two
    entries of one flattened element land on the same key.  The products
    m * m2 are memoized for the lifetime of the builder, which is one
    search.
    """

    def __init__(self):
        self._products = {}

    @staticmethod
    def flatten(u, prefix=(), suffix=()):
        """Entries of u; the h-word w gives the key part graded_lex_key(w + suffix)."""
        out = []
        for w, p in u.terms.items():
            pre = prefix + (graded_lex_key(w + suffix),)
            for m2, c in p.terms.items():
                out.append((pre, m2, poisson.mono_deg(m2), c))
        return out

    def shift(self, entries, m, col=None):
        """col (a new dict by default) with the entries of m * (flattened) added."""
        if col is None:
            col = {}
        dm = poisson.mono_deg(m)
        products = self._products.setdefault(m, {})
        for pre, m2, d2, c in entries:
            mm = products.get(m2)
            if mm is None:
                mm = products[m2] = poisson.mono_mul(m, m2)
            col[pre + ((dm + d2, mm),)] = c
        return col


def brute_force_dependence(elements, hdeg_bound, coeff_deg_bound, n=None):
    """Search for a dependence witness in a bounded coefficient space.

    Candidate coefficients are spanned by mono * h_word with the word
    length at most hdeg_bound and the monomial degree at most
    coeff_deg_bound.  Exact rational elimination over that span either
    produces a witness (always verified) or refutes dependence within
    the bounds.

    Each h_w * s_r is computed once; the columns m * h_w * s_r for all
    monomials m are then made by shifting its monomial keys
    (ColumnBuilder), with row keys (graded_lex_key(word), (deg, mono)).
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

    words = words_up_to(n, hdeg_bound)
    monos = monomials_up_to(n, coeff_deg_bound)
    columns = ColumnBuilder()
    solver = SparseSolver()
    for r, s in enumerate(elements):
        for w in words:
            base = columns.flatten(env_mul(Env({w: Poly.one()}), s))
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
