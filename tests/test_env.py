import random
from fractions import Fraction

import pytest

from freepoisson import clear_caches
from freepoisson.env import (
    Env,
    commutator,
    env_mul,
    graded_mul,
    ham,
    hdeg,
    ldc,
    ldm,
    ldt,
    split,
    top,
    word_right_divides,
)
from freepoisson.freelie import Lie, lie_bracket, lyndon_words, standard_factorization
from freepoisson.poisson import Poly, p_bracket
from freepoisson.sampling import rand_env, rand_env_nonzero, rand_poly

X1 = Poly.generator(1)
X2 = Poly.generator(2)
E12 = Poly.from_lie(Lie.basis_element((1, 2)))
H1 = Env.h_generator(1)
H2 = Env.h_generator(2)


def test_env_normalization():
    assert Env.zero() == 0
    assert H1 - H1 == 0
    assert Env.from_poly(Poly.zero()) == 0
    assert Env.one() == Env.from_poly(Poly.constant(1))
    assert Env({(1,): Poly.zero()}) == 0


def test_word_concatenation():
    assert Env({(1, 2): Poly.one()}) * Env({(2,): Poly.one()}) == Env({(1, 2, 2): Poly.one()})
    assert H1 * Env.one() == H1
    assert Env.one() * H1 == H1


def test_env_mul_pushes_words_past_coefficients():
    # h(x1) * x2 = x2*h(x1) + [x1,x2]
    got = env_mul(H1, Env.from_poly(X2))
    assert got == Env({(1,): X2, (): E12})
    # h(x1) * x1 = x1*h(x1): bracket term vanishes
    assert env_mul(H1, Env.from_poly(X1)) == Env({(1,): X1})


def env_mul_by_letters(a, b):
    """The reference product, independent of the derivation kernel: for
    each term p*h_w of a, the letters of w are pushed into b one at a time,
    the last first, by h_i*(q*h_v) = q*h_(i,v) + {x_i, q}*h_v with a
    whole-polynomial p_bracket, and p multiplies the coefficients."""
    out = Env.zero()
    for w, p in a.terms.items():
        u = b
        for i in reversed(w):
            u = sum((Env({(i,) + v: q, v: p_bracket(Poly.generator(i), q)}) for v, q in u.terms.items()), Env.zero())
        out = out + Env({v: p * q for v, q in u.terms.items()})
    return out


def test_env_mul_matches_the_product_by_letters():
    rng = random.Random(31)
    checked = 0
    for n in (1, 2, 3):
        # zero, constants, polynomials, and constant and polynomial
        # coefficients on one element, then seeded elements
        factors = [Env.zero(), Env.one(), Env.from_poly(Poly.constant(Fraction(-7, 3)))]
        factors += [Env.from_poly(rand_poly(rng, n, 2, terms=2)) for _ in range(2)]
        factors += [Env({tuple(range(n, 0, -1)): Poly.constant(Fraction(5, 2)), (1,): Poly.generator(n)})]
        factors += [rand_env_nonzero(rng, n, 4, 2, terms=rng.randint(1, 3)) for _ in range(8)]
        assert any(c.denominator > 1 for u in factors for p in u.terms.values() for c in p.terms.values())
        assert max(map(hdeg, factors)) == 4
        pairs = [(a, b) for a in factors[:6] for b in factors] + [(a, b) for a in factors for b in factors[:6]]
        pairs += [tuple(rng.sample(factors[6:], 2)) for _ in range(12)]
        for a, b in pairs:
            got = env_mul(a, b)
            assert got == env_mul_by_letters(a, b), (a, b)
            checked += hdeg(a) > 0 and hdeg(got) >= 0
    assert checked > 40


def test_env_ring_axioms_random():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 2)
        a = rand_env(rng, n, 2, 2)
        b = rand_env(rng, n, 2, 2)
        c = rand_env(rng, n, 1, 1)
        assert env_mul(env_mul(a, b), c) == env_mul(a, env_mul(b, c))
        assert env_mul(a, b + c) == env_mul(a, b) + env_mul(a, c)
        assert env_mul(a, Env.one()) == a
        assert env_mul(Env.one(), a) == a


def test_ham_known_values():
    assert ham(X1) == H1
    assert ham(X1 * X2) == Env({(2,): X1, (1,): X2})
    assert ham(p_bracket(X1, X2)) == commutator(H1, H2)
    assert ham(Poly.constant(3)) == 0
    assert ham(Poly.zero()) == 0


def test_ham_is_a_derivation_into_commutators():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 3)
        p = rand_poly(rng, n, 3)
        q = rand_poly(rng, n, 3)
        assert ham(p * q) == env_mul(Env.from_poly(q), ham(p)) + env_mul(
            Env.from_poly(p), ham(q)
        )
        assert ham(p_bracket(p, q)) == commutator(ham(p), ham(q))


def test_ham_of_basis_words_follows_the_standard_factorization():
    # ham reads each basis word's associative expansion; here the defining
    # recursion h([u, v]) = [h(u), h(v)] runs through commutator (env_mul),
    # and the square of the word checks the Leibniz factor
    words = [w for w in lyndon_words(3, 6) if len(w) >= 2]
    assert len(words) == 3 + 8 + 18 + 48 + 116
    for w in words:
        u, v = standard_factorization(w)
        b = Poly.from_basis(w)
        want = commutator(ham(Poly.from_basis(u)), ham(Poly.from_basis(v)))
        assert ham(b) == want, w
        assert ham(b * b) == 2 * env_mul(Env.from_poly(b), want), w


def test_clear_caches():
    # the bracket cache is the one table that grows across calls; ham keeps none
    a, b = Lie({(1, 2): 1}), Lie({(1, 2, 2): 1})
    p = X1 * X1 * E12 + X2
    before = (lie_bracket(a, b), ham(p))
    sizes = clear_caches()
    assert list(sizes) == ["bracket"] and sizes["bracket"] > 0
    assert clear_caches() == {"bracket": 0}
    assert (lie_bracket(a, b), ham(p)) == before
    assert all(clear_caches().values())


def test_leading_data():
    u = H1 * H2 + H2 * H1
    assert ldm(u) == (2, 1)
    assert ldc(u) == Poly.one()
    assert ldt(u) == Env({(2, 1): Poly.one()})
    v = Env.from_poly(X1 * X1) + 3 * H2
    assert ldm(v) == (2,)
    assert ldc(v) == Poly.constant(3)
    for fn in (ldm, ldc, ldt, top):
        with pytest.raises(ValueError):
            fn(Env.zero())


def test_leading_data_multiplicative():
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randint(1, 2)
        a = rand_env_nonzero(rng, n, 2, 2)
        b = rand_env_nonzero(rng, n, 2, 2)
        prod = env_mul(a, b)
        assert not prod.is_zero()  # no zero divisors
        assert ldm(prod) == ldm(a) + ldm(b)
        assert ldc(prod) == ldc(a) * ldc(b)
        assert hdeg(prod) == hdeg(a) + hdeg(b)


def test_hdeg():
    assert hdeg(Env.zero()) == float("-inf")
    assert hdeg(Env.from_poly(X1 * X1)) == 0
    assert hdeg(H1 * H2 + Env.from_poly(X2)) == 2


def test_top_and_split():
    v = Env.from_poly(X1 * X1) + H2
    assert top(v) == H2
    assert split(v) == (X1 * X1, H2)
    p, rest = split(Env.from_poly(X2))
    assert p == X2 and rest == 0
    assert split(Env.zero()) == (Poly.zero(), Env.zero())


def test_top_respects_graded_products():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 2)
        a = rand_env_nonzero(rng, n, 2, 2)
        b = rand_env_nonzero(rng, n, 2, 2)
        assert top(env_mul(a, b)) == graded_mul(top(a), top(b))


def test_word_right_divides():
    assert word_right_divides((2,), (1, 2))
    assert word_right_divides((1, 2), (1, 2))
    assert word_right_divides((), (1, 2))
    assert not word_right_divides((1, 2), (2,))
    assert not word_right_divides((1, 2), (1,))
    assert not word_right_divides((1,), (1, 2))
