import random
from fractions import Fraction

import pytest

from freepoisson.core import BudgetError, graded_lex_key
from freepoisson.depend import (
    ColumnBuilder,
    box_size,
    StepBudgetExceeded,
    brute_force_dependence,
    composition,
    decide_left_dependence,
    denominator_lcm,
    lambda_shift,
    load_corpus,
    monomials_up_to,
    verify_witness,
    words_up_to,
)
from freepoisson.env import Env, _Derivation, env_mul, hdeg, ldm
from freepoisson.linalg import Base, SparseSolver
from freepoisson.freelie import Lie, lyndon_words
from freepoisson.poisson import Poly, mono_deg
from freepoisson.sampling import rand_env, rand_env_nonzero, rand_poly_nonzero, rand_scalar

from test_env import env_mul_by_letters

X1 = Poly.generator(1)
X2 = Poly.generator(2)
E12 = Poly.from_lie(Lie.basis_element((1, 2)))
H1 = Env.h_generator(1)
H2 = Env.h_generator(2)


def test_lambda_shift_known_values():
    assert lambda_shift(X1, Env.from_poly(X2 ** 3)) == Env.from_poly(X2 ** 3)
    assert lambda_shift(X2, H1) == Env({(1,): X2, (): -E12})
    with pytest.raises(ValueError):
        lambda_shift(Poly.zero(), H1)
    with pytest.raises(ValueError):
        lambda_shift(X1, Env.zero())


def test_lambda_shift_property():
    # v = lambda_shift(lam, u) satisfies lam^(m+1) * u = v * lam with m = hdeg(u)
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 2)
        lam = rand_poly_nonzero(rng, n, 2)
        u = rand_env_nonzero(rng, n, 3, 2)
        v = lambda_shift(lam, u)
        m = hdeg(u)
        assert lam ** (m + 1) * u == env_mul(v, Env.from_poly(lam))


def test_composition_known_values():
    assert composition(Env({(1,): X1 * X1}), Env({(1,): X1})) == 0
    assert composition(H2 * H1, H1) == 0
    u = Env({(1,): X2}) + H2
    v = Env({(1,): X1})
    with pytest.raises(ValueError):
        composition(u, v)
    # the would-be reduction still satisfies the cancellation identity
    assert X1 * u - X2 * v == Env({(2,): X1})


def test_composition_strictly_reduces():
    rng = random.Random(23)
    hits = 0
    while hits < 40:
        n = rng.randint(1, 2)
        v = rand_env_nonzero(rng, n, 2, 2)
        t = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 2)))
        u = env_mul(Env({t: rand_poly_nonzero(rng, n, 1)}), v)
        r = composition(u, v)
        if not r.is_zero():
            from freepoisson.core import graded_lex_key

            assert graded_lex_key(ldm(r)) < graded_lex_key(ldm(u))
        hits += 1


def test_decide_known_systems():
    r = decide_left_dependence([H1, H2])
    assert r.status == "independent"
    assert r.witness is None
    assert r.final_words == ((1,), (2,))

    r = decide_left_dependence([H1, Env({(1,): X1})])
    assert r.status == "dependent"
    assert tuple(r.witness) == (Env.from_poly(X1), -Env.one())
    assert verify_witness(r.witness, [H1, Env({(1,): X1})])

    r = decide_left_dependence([Env({(1,): 2 * X1}), Env({(1,): 3 * X1 * X1})])
    assert r.status == "dependent"
    assert tuple(r.witness) == (Env.from_poly(3 * X1), Env.from_poly(Poly.constant(-2)))

    r = decide_left_dependence([Env.zero()])
    assert r.status == "dependent"
    assert tuple(r.witness) == (Env.one(),)


def test_decide_budget_exception():
    with pytest.raises(StepBudgetExceeded):
        decide_left_dependence([H1, Env({(1,): X1})], max_steps=0)
    assert len(decide_left_dependence([H1, Env({(1,): X1})], max_steps=1).trace) == 1


def planted_systems():
    """Ten seeded systems [s1, s2, w1*s1 + w2*s2]."""
    rng = random.Random(37)
    out = []
    for _ in range(10):
        n = rng.randint(1, 2)
        s1 = rand_env_nonzero(rng, n, 1, 1)
        s2 = rand_env_nonzero(rng, n, 1, 1)
        w1 = rand_env(rng, n, 1, 1)
        w2 = rand_env(rng, n, 1, 1)
        out.append([s1, s2, env_mul(w1, s1) + env_mul(w2, s2)])
    return out


def test_decide_finds_planted_dependence():
    for sys in planted_systems():
        r = decide_left_dependence(sys)
        assert r.status == "dependent"
        assert verify_witness(r.witness, sys)


def replay_trace(elements, trace):
    """The rows after applying composition(rows[i], rows[j]) for each
    ReductionRecord of `trace`, from the inputs, and the row of the last
    step; each record's word must be the quotient of the two leading words."""
    rows, last = [Env.zero() + s for s in elements], None
    for rec in trace:
        wi, wj = ldm(rows[rec.i]), ldm(rows[rec.j])
        assert rec.word + wj == wi
        last = rows[rec.i] = composition(rows[rec.i], rows[rec.j])
    return rows, last


def test_trace_is_a_complete_record():
    systems = [elements for _, elements, _ in load_corpus()] + planted_systems()
    seen = set()
    for sys in systems:
        r = decide_left_dependence(sys)
        rows, last = replay_trace(sys, r.trace)
        seen.add(r.status)
        if r.status == "dependent" and not r.trace:
            assert any(u.is_zero() for u in rows)  # the unit witness of a zero input
        elif r.status == "dependent":
            assert last.is_zero()
        else:
            assert tuple(ldm(u) for u in rows) == r.final_words
    assert seen == {"dependent", "independent"}


def test_decide_independent_verdicts_are_incomparable():
    from freepoisson.depend import word_right_divides

    for sys in ([H1, H2], [H1 * H2, H2 * H2], [H1, X1 * H2], [H1 * H1 + H2, H1]):
        r = decide_left_dependence(sys)
        assert r.status == "independent"
        words = r.final_words
        for i, wi in enumerate(words):
            for j, wj in enumerate(words):
                if i != j:
                    assert not word_right_divides(wj, wi)


def test_verify_witness():
    assert verify_witness((Env.from_poly(X1), -Env.one()), [H1, Env({(1,): X1})])
    assert not verify_witness((Env.one(), Env.one()), [H1, H2])
    assert not verify_witness((Env.zero(), Env.zero()), [H1, H2])


def test_words_up_to():
    assert words_up_to(2, 2) == [
        (),
        (1,),
        (2,),
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
    ]
    for n in (1, 2, 3):
        for bound in (0, 1, 3):
            assert len(words_up_to(n, bound)) == sum(n ** k for k in range(bound + 1))


def monomial_count_oracle(n, max_deg):
    # product of 1/(1 - t^d) over basis words, one factor per word
    dp = [1] + [0] * max_deg
    for w in lyndon_words(n, max_deg):
        d = len(w)
        for deg in range(d, max_deg + 1):
            dp[deg] += dp[deg - d]
    return sum(dp)


def test_monomials_up_to():
    monos = monomials_up_to(2, 6)
    assert len(monos) == 127
    assert len(set(monos)) == len(monos)
    assert all(mono_deg(m) <= 6 for m in monos)
    keys = [(mono_deg(m), m) for m in monos]
    assert keys == sorted(keys)
    for n in (1, 2, 3):
        for bound in (0, 2, 4):
            assert len(monomials_up_to(n, bound)) == monomial_count_oracle(n, bound)


def test_brute_force_dependence():
    w = brute_force_dependence([H1, Env({(1,): X1})], 2, 2, n=2)
    assert w is not None
    assert verify_witness(w, [H1, Env({(1,): X1})])
    assert brute_force_dependence([H1, H2], 2, 2, n=2) is None
    assert brute_force_dependence([Env.from_poly(X1), Env.from_poly(X2)], 0, 1, n=2) is not None


def test_h_word_products_match_products_by_generators():
    # the kernel of env_mul and the bounded searches against the reference
    # that multiplies by one generator at a time, pushing it letter by letter
    rng = random.Random(29)
    checked = 0
    for n, hb in ((1, 4), (2, 3), (3, 2)):
        words = words_up_to(n, hb)
        elements = [Env.zero(), Env.from_poly(Poly.constant(Fraction(-7, 3)))]
        elements += [rand_env_nonzero(rng, n, 2, 3, terms=rng.randint(1, 4)) for _ in range(12)]
        assert any(c.denominator > 1 for s in elements for p in s.terms.values() for c in p.terms.values())
        for s in elements:
            derivation = _Derivation()
            got, monos = derivation.products(s, words), derivation.monos
            want = {}
            for w in words:
                want[w] = env_mul_by_letters(Env.h_generator(w[0]), want[w[1:]]) if w else s
                assert Env({v: Poly({monos[i]: c for i, c in p.items()}) for v, p in got[w].items()}) == want[w], (s, w)
                checked += not want[w].is_zero()
            assert list(got) == words
    assert checked > 300


def shifted(base, off):
    """The column {row + off: c} of a linalg.Base."""
    return {row + off: c for row, c in base.entries}


def tuple_rows(u, m, prefix=()):
    """Column of m * u through full Poly products, at the keys
    (prefix, h-word, monomial)."""
    return {
        (prefix, w, mm): c
        for w, p in u.terms.items()
        for mm, c in (Poly({m: 1}) * p).terms.items()
    }


def test_column_builder_matches_products():
    rng = random.Random(31)
    n, hb, cb = 2, 2, 4
    monos = monomials_up_to(n, cb)
    words = words_up_to(n, hb)
    elements = [rand_env_nonzero(rng, n, 3, 3, terms=rng.randint(1, 4)) for _ in range(40)]
    # the rows of brute_force_dependence, one element each, and those of
    # _search_box, two elements each at the prefixes k < 2
    for rows, picks in (([[s] for s in elements], 1), ([elements[i : i + 2] for i in range(0, 40, 2)], 2)):
        builder = ColumnBuilder(rows, words, monos)
        scale = denominator_lcm(elements)
        assert builder.scale == scale > 1
        keys = {}
        for i, row in enumerate(builder.bases):
            for w in rng.sample(range(len(words)), picks):
                for k, s in enumerate(rows[i]):
                    # the base h_w * (D * s), through products by generators
                    u = env_mul(Env({words[w]: Poly.one()}), scale * s)
                    flat = Base(builder.flatten(row[k][words[w]], k))
                    for m in rng.sample(monos, 6):
                        want = tuple_rows(u, m, (k,))
                        (off,) = builder.offsets([m])
                        built = shifted(flat, off)
                        assert built == {builder.key(k, word, mono): c for (_, word, mono), c in want.items()}
                        assert all(type(c) is int for c in built.values())
                        assert len(flat.entries) == len(built) and flat.top + off == max(built)
                        keys.update((key, builder.key(k, key[1], key[2])) for key in want)
        # the order the int rows keep: (prefix, graded_lex_key(word), deg,
        # exponent vector over the basis words in graded-lex order, most
        # significant last); words that no row uses change no comparison
        basis = sorted({bw for _, _, mono in keys for bw, _ in mono}, key=graded_lex_key)

        def order(prefix, word, mono):
            e = dict(mono)
            return prefix + (graded_lex_key(word), mono_deg(mono), [e.get(bw, 0) for bw in reversed(basis)])

        # the int rows sort exactly in that order, and no two coincide
        assert len(set(keys.values())) == len(keys) > 1500
        assert [keys[k] for k in sorted(keys, key=lambda k: order(*k))] == sorted(keys.values())


def test_column_builder_rejects_codes_outside_its_radices():
    # one letter; shifts by monomials of degree <= 2 of bases of degree <= 1,
    # so monomial degrees up to 3; h-words of length <= 2; two prefixes
    builder = ColumnBuilder([[Env({(1,): X1}), Env({(1, 1): Poly.one()})]], [()], monomials_up_to(1, 2))
    assert builder.key(1, (1, 1), (((1,), 3),)) > builder.key(1, (1,), (((1,), 3),))
    flat = Base(builder.flatten(builder.bases[0][0][()], 1))
    assert shifted(flat, *builder.offsets([(((1,), 2),)])) == {builder.key(1, (1,), (((1,), 3),)): 1}
    (x1,) = builder.bases[0][0][()][(1,)]  # the id of the monomial x1
    unknown_word = (((1, 2), 1),)  # [x1, x2] was never interned
    unknown_letter = (((2,), 1),)
    outside = [
        lambda: builder.key(0, (), unknown_word),
        lambda: builder.key(0, (), unknown_letter),
        lambda: builder.key(0, (), (((1,), 4),)),
        lambda: builder.key(2, (), ()),
        lambda: builder.key(-1, (), ()),
        lambda: builder.key(0, (1, 1, 1), ()),
        lambda: builder.key(0, (2,), ()),
        lambda: builder.key(0, (0,), ()),
        lambda: builder.flatten({(2,): {x1: 1}}),
        lambda: builder.flatten({(1, 1, 1): {x1: 1}}),
        lambda: builder.flatten({(): {x1: 1}}, 2),
        lambda: builder.offsets([(((1,), 3),)]),
        lambda: builder.offsets([(((1,), 1),), unknown_word]),
    ]
    for make in outside:
        with pytest.raises(ValueError):
            make()


def test_oracle_with_n_below_the_largest_letter():
    # the row codes take their letters from the elements, not from n
    system = [H2, Env({(2,): X1}), H1 * H2]
    got = brute_force_dependence(system, 1, 1, n=1)
    assert got == brute_force_dependence(system, 1, 1)
    assert got == (Env.from_poly(-X1), Env.one(), Env.zero())
    assert verify_witness(got, system)


def tuple_id_oracle(elements, hb, cb, n):
    """The oracle's columns m * h_w * s_r, made by env_mul, unscaled and at
    tuple rows, fed one at a time to add with the ids (r, w, m): the
    reference for the int column ids.  Returns the witness of the first
    kernel and the id of its column, or (None, None)."""
    words, monos = words_up_to(n, hb), monomials_up_to(n, cb)
    solver = SparseSolver()
    for r, s in enumerate(elements):
        for w in words:
            u = env_mul(Env({w: Poly.one()}), s)
            for m in monos:
                kernel = solver.add((r, w, m), tuple_rows(u, m))
                if kernel is not None:
                    witness = [Env.zero() for _ in elements]
                    for (r_, w_, m_), c in kernel.items():
                        witness[r_] = witness[r_] + Env({w_: Poly({m_: c})})
                    return tuple(witness), (r, w, m)
    return None, None


def test_oracle_column_ids_decode_to_the_tuple_id_witness():
    rng = random.Random(47)
    cases = []
    for _ in range(6):
        # s and t * s with t in the box: a kernel at (1, (), ()), inside its base
        s, t = rand_env_nonzero(rng, 2, 1, 1), rand_env_nonzero(rng, 2, 1, 1)
        cases.append(([s, env_mul(t, s)], 1, 1, 2))
        cases.append(([rand_env_nonzero(rng, 2, 1, 1, terms=rng.randint(1, 3)) for _ in range(rng.randint(2, 3))], 1, 1, 2))
        # c1 * x1^d and c2 at (0, d): a kernel on the last column of the last base
        d = rng.randint(1, 3)
        cases.append(([Env.from_poly(rand_scalar(rng) * X1**d), Env.from_poly(Poly.constant(rand_scalar(rng)))], 0, d, 1))
    inside = last = 0
    for elements, hb, cb, n in cases:
        want, at = tuple_id_oracle(elements, hb, cb, n)
        assert brute_force_dependence(elements, hb, cb, n=n) == want
        if at is not None:
            words, monos = words_up_to(n, hb), monomials_up_to(n, cb)
            inside += at[2] != monos[-1]
            last += at == (len(elements) - 1, words[-1], monos[-1])
    assert inside >= 6 and last >= 6


def test_decision_agrees_with_the_oracle_on_seeded_systems():
    # an oracle witness in the box (1, 2) means the verdict "dependent", so
    # an "independent" verdict means that the oracle finds no witness
    rng = random.Random(53)
    found = independent = 0
    for _ in range(30):
        system = [rand_env_nonzero(rng, 2, rng.randint(0, 2), 2, terms=rng.randint(1, 3)) for _ in range(rng.randint(2, 3))]
        verdict = decide_left_dependence(system)
        witness = brute_force_dependence(system, 1, 2, n=2)
        if witness is not None:
            assert verify_witness(witness, system)
            assert verdict.status == "dependent"
        if verdict.status == "independent":
            assert witness is None
        found += witness is not None
        independent += verdict.status == "independent"
    assert found > 0 and independent > 0


def test_oracle_witness_is_invariant_under_rational_scaling():
    # the search runs on the elements times the lcm of their coefficient
    # denominators; a common factor changes no kernel, so not the witness
    n, system, label = load_corpus()[59]
    assert label == "dependent"
    want = brute_force_dependence(system, 4, 6, n=n)
    assert want is not None
    scaled = [Fraction(2, 3) * s for s in system]
    assert (denominator_lcm(system), denominator_lcm(scaled)) == (1, 3)
    assert brute_force_dependence(scaled, 4, 6, n=n) == want
    assert verify_witness(want, scaled)
    # different factors per element: another witness, still verified
    mixed = [Fraction(c) * s for c, s in zip(("1/2", "-5/7", "3/4"), system)]
    assert denominator_lcm(mixed) == 28
    assert verify_witness(brute_force_dependence(mixed, 4, 6, n=n), mixed)


def test_box_size_counts_without_enumerating():
    for n in (1, 2, 3):
        for hb in (0, 1, 3):
            for cb in (0, 2, 5):
                size = len(words_up_to(n, hb)) * len(monomials_up_to(n, cb))
                assert box_size(n, hb, cb, 10**6) == size
                assert box_size(n, hb, cb, size) == size
                assert box_size(n, hb, cb, size - 1) == size
    assert box_size(2, 10**9, 10**9, 200_000) == 200_001
    assert box_size(1, 10**9, 10**9, 200_000) == 200_001
    assert len(monomials_up_to(2, 13)) == box_size(2, 0, 13, 10**6) == 2**14 - 1


def test_oracle_budget():
    # over budget before any enumeration; (2, 13) used to exhaust the stack
    with pytest.raises(BudgetError):
        brute_force_dependence([H1, Env.from_poly(X2)], 2, 13)
    with pytest.raises(BudgetError):
        brute_force_dependence([H1, H2], 10**9, 10**9)


def test_corpus_loads():
    corpus = load_corpus()
    assert len(corpus) >= 60
    labels = {expected for _, _, expected in corpus}
    assert labels == {"dependent", "independent"}
    for n, elements, _ in corpus:
        assert n == 2
        assert elements
        assert all(isinstance(s, Env) for s in elements)
