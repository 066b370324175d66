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
from freepoisson.env import Env, env_mul, hdeg, ldm
from freepoisson.freelie import Lie, lyndon_words
from freepoisson.poisson import Poly, mono_deg
from freepoisson.sampling import rand_env, rand_env_nonzero, rand_poly_nonzero

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


def test_decide_finds_planted_dependence():
    rng = random.Random(37)
    for _ in range(10):
        n = rng.randint(1, 2)
        s1 = rand_env_nonzero(rng, n, 1, 1)
        s2 = rand_env_nonzero(rng, n, 1, 1)
        w1 = rand_env(rng, n, 1, 1)
        w2 = rand_env(rng, n, 1, 1)
        s3 = env_mul(w1, s1) + env_mul(w2, s2)
        sys = [s1, s2, s3]
        r = decide_left_dependence(sys)
        assert r.status == "dependent"
        assert verify_witness(r.witness, sys)


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


def tuple_rows(u, m, prefix=(), suffix=()):
    """Column of m * u through full Poly products, at the keys
    (prefix, h-word, monomial)."""
    return {
        (prefix, w + suffix, mm): c
        for w, p in u.terms.items()
        for mm, c in (Poly({m: 1}) * p).terms.items()
    }


def test_column_builder_matches_products():
    rng = random.Random(31)
    n, hb, cb = 2, 2, 4
    monos = monomials_up_to(n, cb)
    words = words_up_to(n, hb)
    elements = [rand_env_nonzero(rng, n, 3, 3, terms=rng.randint(1, 4)) for _ in range(40)]
    # the rows of brute_force_dependence, and those of _search_box with the
    # prefixes ("L"|"R", i, j), i, j < 2, coded (side * 2 + i) * 2 + j
    search_box = [
        ((side, i, j), (k * 2 + i) * 2 + j)
        for k, side in enumerate("LR")
        for i in (0, 1)
        for j in (0, 1)
    ]
    # every base is drawn first, since the bases fix the builder's radices:
    # (prefix, code, u, suffix, monomials to shift by or None to place)
    groups = []
    for prefixes in ([((), 0)], search_box):
        draws = []
        for s in elements:
            for prefix, code in rng.sample(prefixes, min(2, len(prefixes))):
                w = rng.choice(words)
                if prefix[:1] == ("R",):  # (s * m) * h_w, placed at the suffix w
                    u = env_mul(s, Env.from_poly(Poly({rng.choice(monos): 1})))
                    draws.append((prefix, code, u, w, None))
                else:  # m * (h_w * s)
                    u = env_mul(Env({w: Poly.one()}), s)
                    draws.append((prefix, code, u, (), rng.sample(monos, 6)))
        groups.append(draws)
    every = [d for draws in groups for d in draws]
    shifted = [u for _, _, u, _, shifts in every if shifts is not None]
    placed = [elements[0], *(u for _, _, u, _, shifts in every if shifts is None)]
    builder = ColumnBuilder(shifted, monos, placed, words, len(search_box))
    # the order the int rows keep: (prefix, graded_lex_key(word), deg, exponent
    # vector over the interned basis words, most significant last); the words
    # are those of the monomials and the bases, in graded-lex order
    base_monos = [m for u in shifted + placed for p in u.terms.values() for m in p.terms]
    interned = sorted({bw for m in [*monos, *base_monos] for bw, _ in m}, key=graded_lex_key)

    def order(prefix, word, mono):
        e = dict(mono)
        return prefix + (graded_lex_key(word), mono_deg(mono), [e.get(bw, 0) for bw in reversed(interned)])

    for draws in groups:
        rows = {}
        for prefix, code, u, suffix, shifts in draws:
            if shifts is None:
                want = tuple_rows(u, (), prefix, suffix)
                keys = {k: builder.key(code, k[1], k[2]) for k in want}
                got = builder.place(builder.coded(u), code, suffix, {})
                assert got == {keys[k]: c for k, c in want.items()}
                rows.update(keys)
                continue
            flat = builder.flatten(u, code)
            for m in shifts:
                want = tuple_rows(u, m, prefix)
                keys = {k: builder.key(code, k[1], k[2]) for k in want}
                assert builder.shift(flat, m) == {keys[k]: c for k, c in want.items()}
                rows.update(keys)
        # the int rows sort exactly in that order, and no two coincide
        assert len(set(rows.values())) == len(rows) > 1500
        assert [rows[k] for k in sorted(rows, key=lambda k: order(*k))] == sorted(rows.values())
    # entries add to a given column
    u = elements[0]
    col = builder.place(builder.coded(u), 5, (1, 2), {-1: 1})
    assert col == {-1: 1, **builder.place(builder.coded(u), 5, (1, 2), {})}


def test_column_builder_rejects_codes_outside_its_radices():
    # one letter; shifts by monomials of degree <= 2 of a base of degree 1,
    # so monomial degrees up to 3; h-words of length <= 1, and suffixes of
    # length <= 1 after those of the placed base; two prefixes
    builder = ColumnBuilder([Env({(1,): X1})], monomials_up_to(1, 2), [Env({(1,): X1})], words_up_to(1, 1), 2)
    x1 = ((1,), 1)
    assert builder.key(1, (1, 1), (((1,), 3),)) > builder.key(1, (1,), (((1,), 3),))
    flat = builder.flatten(Env({(1,): X1}), 1)
    assert builder.shift(flat, (((1,), 2),)) == {builder.key(1, (1,), (((1,), 3),)): 1}
    coded = builder.coded(Env({(1,): X1}))
    assert builder.place(coded, 0, (1,), {}) == {builder.key(0, (1, 1), (x1,)): 1}
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
        lambda: builder.flatten(Env({(): Poly({unknown_word: 1})})),
        lambda: builder.flatten(Env({(): X1 * X1})),  # degree 2 + 2 > 3
        lambda: builder.flatten(Env({(2,): X1})),
        lambda: builder.flatten(Env({(1, 1, 1): X1})),
        lambda: builder.flatten(Env({(): X1}), 2),
        lambda: builder.coded(Env({(): Poly({unknown_word: 1})})),
        lambda: builder.coded(Env({(): X1**4})),
        lambda: builder.shift(flat, (((1,), 3),)),
        lambda: builder.shift(flat, unknown_word),
        lambda: builder.place(coded, 0, (1, 1), {}),
        lambda: builder.place(coded, 2, (), {}),
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
