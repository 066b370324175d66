import random
from fractions import Fraction

import pytest

from freepoisson import poisson
from freepoisson.core import graded_lex_key
from freepoisson.env import env_mul, ham
from freepoisson.freelie import Lie
from freepoisson.poisson import (
    Poly,
    divexact,
    evaluate,
    mono_deg,
    mono_deg_var,
    mono_key,
    mono_mul,
    p_bracket,
    p_deg,
    p_deg_var,
    p_gcd,
    partials,
)
from freepoisson.sampling import rand_env_nonzero, rand_lie, rand_poly, rand_poly_nonzero, rand_scalar

X1 = Poly.generator(1)
X2 = Poly.generator(2)
X3 = Poly.generator(3)


def test_poly_normalization():
    assert X1 - X1 == 0
    assert Poly.zero() == 0
    assert 0 * X1 == Poly.zero()
    assert X1 + X2 == X2 + X1
    assert (X1 + X2) - X2 == X1
    assert Poly.constant(Fraction(3, 2)) + Poly.constant(Fraction(-3, 2)) == 0


def test_poly_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 3)
        a = rand_poly(rng, n, 3)
        b = rand_poly(rng, n, 3)
        c = rand_poly(rng, n, 2)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * Poly.constant(1) == a


def test_monomial_helpers():
    m = (((1,), 2), ((1, 2), 1))  # x1^2 * [x1,x2]
    assert mono_deg(m) == 4
    assert mono_deg_var(m, 1) == 3
    assert mono_deg_var(m, 2) == 1
    assert mono_mul((((1,), 1),), (((1,), 1), ((2,), 1))) == (((1,), 2), ((2,), 1))


def test_mono_key_hand_cases():
    x1, x2, x12 = (1,), (2,), (1, 2)
    # degree decides first
    assert mono_key(((x2, 2),)) > mono_key(((x1, 1),))
    assert mono_key(((x12, 1),)) > mono_key(((x1, 1),))
    # an earlier basis word wins: shorter first, then lex on letters
    assert mono_key(((x1, 1), (x2, 1))) > mono_key(((x2, 2),))
    assert mono_key(((x1, 2),)) > mono_key(((x12, 1),))
    assert mono_key((((1, 1, 2), 1),)) > mono_key((((1, 2, 2), 1),))
    # a larger exponent at the same word wins
    assert mono_key(((x1, 2), (x2, 1))) > mono_key(((x1, 1), (x2, 2)))
    # a factor list that is a prefix of the other is smaller
    assert mono_key(((x1, 1),)) < mono_key(((x1, 1), (x2, 1)))
    assert mono_key(()) < mono_key(((x1, 1),))


def test_leading_term_is_multiplicative():
    rng = random.Random(61)
    for _ in range(150):
        n = rng.randint(1, 3)
        p = rand_poly_nonzero(rng, n, 4, terms=3)
        q = rand_poly_nonzero(rng, n, 4, terms=3)
        (lp, cp), (lq, cq) = p.leading(), q.leading()
        assert (p * q).leading() == (mono_mul(lp, lq), cp * cq)


def test_partials_are_leibniz_cofactors():
    m = (((1,), 1), ((2,), 3), ((1, 2), 2))
    got = partials(m)
    assert [(w, e) for w, e, _ in got] == list(m)
    assert got[0][2] == (((2,), 3), ((1, 2), 2))
    assert got[1][2] == (((1,), 1), ((2,), 2), ((1, 2), 2))
    for w, _, cof in got:
        assert mono_mul(cof, ((w, 1),)) == m
    assert partials(()) == []


def test_bracket_known_values():
    e12 = Poly.from_lie(Lie.basis_element((1, 2)))
    assert p_bracket(X1, X2) == e12
    assert p_bracket(X2, X1) == -e12
    assert p_bracket(X1, X1) == 0
    assert p_bracket(X1 * X1, X2) == 2 * X1 * e12
    assert p_bracket(X1, e12) == Poly.from_lie(Lie.basis_element((1, 1, 2)))
    assert p_bracket(Poly.constant(5), X1) == 0


def test_bracket_axioms_random():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(2, 3)
        a = rand_poly(rng, n, 3)
        b = rand_poly(rng, n, 3)
        c = rand_poly(rng, n, 2)
        assert p_bracket(a, b) == -p_bracket(b, a)
        assert p_bracket(a, b * c) == p_bracket(a, b) * c + b * p_bracket(a, c)
        jac = (
            p_bracket(a, p_bracket(b, c))
            + p_bracket(b, p_bracket(c, a))
            + p_bracket(c, p_bracket(a, b))
        )
        assert jac == 0


def test_bracket_extends_lie_bracket():
    rng = random.Random(47)
    from freepoisson.freelie import lie_bracket

    for _ in range(40):
        n = rng.randint(2, 3)
        a = rand_lie(rng, n, rng.randint(1, 4))
        b = rand_lie(rng, n, rng.randint(1, 4))
        assert p_bracket(Poly.from_lie(a), Poly.from_lie(b)) == Poly.from_lie(lie_bracket(a, b))


def test_degrees():
    assert p_deg(p_bracket(X1, X2) * X1) == 3
    assert p_deg(Poly.zero()) == float("-inf")
    assert p_deg(Poly.constant(7)) == 0
    assert p_deg(X1 * X1 + X2) == 2
    assert p_deg_var(X1 * X1 * X2, 1) == 2
    assert p_deg_var(X1 * X1 * X2, 2) == 1
    assert p_deg_var(X2, 1) == 0


def test_degree_is_additive_on_products():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(1, 3)
        a = rand_poly_nonzero(rng, n, 3)
        b = rand_poly_nonzero(rng, n, 3)
        assert p_deg(a * b) == p_deg(a) + p_deg(b)


def test_gcd_known_values():
    assert p_gcd(X1, X1 * X1) == X1
    assert p_gcd(X1, X2) == Poly.constant(1)
    assert p_gcd(X1 * X1 - X2 * X2, X1 + X2) == X1 + X2
    assert p_gcd(2 * X1, 4 * X1) == X1  # result is monic
    assert p_gcd(Poly.zero(), X1 * X1) == X1 * X1
    with pytest.raises(ValueError):
        p_gcd(Poly.zero(), Poly.zero())


def test_divexact():
    assert divexact(X1 * X1 - X2 * X2, X1 + X2) == X1 - X2
    assert divexact(Poly.zero(), X1) == 0
    with pytest.raises(ValueError):
        divexact(X1, X2)
    with pytest.raises(ValueError):
        divexact(X1, Poly.zero())


def test_gcd_divides_and_round_trips():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 2)
        g = rand_poly_nonzero(rng, n, 2)
        a = rand_poly_nonzero(rng, n, 2)
        b = rand_poly_nonzero(rng, n, 2)
        d = p_gcd(g * a, g * b)
        # d divides both inputs and is divisible by g
        assert divexact(g * a, d) * d == g * a
        assert divexact(g * b, d) * d == g * b
        divexact(d, p_gcd(d, g))  # g | d up to the gcd of the pair


def _sympy_gcd(a, b):
    """Monic gcd of two nonconstant polynomials through sympy."""
    sympy = pytest.importorskip("sympy")
    words = sorted(a.variables() | b.variables(), key=graded_lex_key)
    syms = sympy.symbols(f"v0:{len(words)}")

    def to_sympy(p):
        data = {}
        for m, c in p.terms.items():
            e = dict(m)
            data[tuple(e.get(w, 0) for w in words)] = sympy.Rational(c.numerator, c.denominator)
        return sympy.Poly.from_dict(data, *syms, domain="QQ")

    g = to_sympy(a).gcd(to_sympy(b))
    terms = {}
    for e, c in g.terms():
        terms[tuple((w, k) for w, k in zip(words, e) if k)] = Fraction(int(c.p), int(c.q))
    return Poly(terms).monic()


def _rand_word_poly(rng, words, terms, degree):
    out = {}
    for _ in range(terms):
        m = {}
        for _ in range(rng.randint(0, degree)):
            w = rng.choice(words)
            m[w] = m.get(w, 0) + 1
        out[tuple(sorted(m.items(), key=lambda t: graded_lex_key(t[0])))] = Fraction(
            rng.randint(-9, 9), rng.randint(1, 4)
        )
    p = Poly(out)
    return p if not p.is_zero() else Poly.one()


def test_gcd_matches_sympy_on_random_products():
    rng = random.Random(97)
    basis = [(1,), (2,), (3,), (1, 2), (1, 3), (1, 1, 2), (1, 2, 2)]
    for _ in range(120):
        words = rng.sample(basis, rng.randint(1, 5))
        g = _rand_word_poly(rng, words, rng.randint(1, 3), 2)
        a = _rand_word_poly(rng, words, rng.randint(1, 4), 3)
        b = _rand_word_poly(rng, words, rng.randint(1, 4), 3)
        x, y = g * a, g * b
        if x.is_constant() or y.is_constant():
            continue
        d = p_gcd(x, y)
        assert d == _sympy_gcd(x, y)
        assert divexact(x, g) == a and divexact(y, d) * d == y


def test_gcd_retries_at_a_larger_point(monkeypatch):
    # the first candidate at levels 0 and 1 is refused; each level then
    # tries a larger point instead of giving up
    heu, divide, evaluate_at = poisson._heu_gcd, poisson._divide, poisson._eval
    levels, points, refused = [], [], []

    def heu_at(f, g, k):
        levels.append(k)
        try:
            return heu(f, g, k)
        finally:
            levels.pop()

    def refuse_first(rest, div, quot):
        if levels[-1] not in refused:
            refused.append(levels[-1])
            return None
        return divide(rest, div, quot)

    def record(f, k, xi):
        points.append((k, xi))
        return evaluate_at(f, k, xi)

    monkeypatch.setattr(poisson, "_heu_gcd", heu_at)
    monkeypatch.setattr(poisson, "_divide", refuse_first)
    monkeypatch.setattr(poisson, "_eval", record)
    g = X1 * X2 + 2 * X2 + 1
    x, y = g * (X1 + 3 * X2**2 + 1), g * (X1**2 - X2 + 5)
    assert p_gcd(x, y) == g.monic()
    assert refused == [1, 0]
    first = [xi for k, xi in points if k == 0]
    assert len(set(first)) == 2 and first[0] < first[-1]
    inner = [xi for k, xi in points if k == 1]
    assert inner[0] < inner[2]  # the refused inner point was followed by a larger one


def test_gcd_monomial_fast_path(monkeypatch):
    def unused(f, g, k):
        raise AssertionError("a monomial gcd needs no polynomial gcd")

    monkeypatch.setattr(poisson, "_heu_gcd", unused)
    x12 = Poly.from_basis((1, 2))
    assert p_gcd(X1**2 * X2 * x12, 3 * X1 * X2**3 * (X1 + x12)) == X1 * X2
    assert p_gcd(Fraction(1, 2) * X1**3, X1 * X2 - X1**2) == X1
    assert p_gcd(X2 * (X1 + X2), x12**2) == Poly.one()


def test_evaluate_constants_and_identity():
    p = X1 * X2 + Poly.constant(Fraction(1, 2))
    assert evaluate(p, [Poly.constant(2), Poly.constant(3)]) == Poly.constant(Fraction(13, 2))
    rng = random.Random(83)
    for _ in range(30):
        q = rand_poly(rng, 3, 3)
        assert evaluate(q, [X1, X2, X3]) == q


def test_evaluate_is_a_poisson_map():
    # substitution commutes with the bracket
    rng = random.Random(97)
    for _ in range(30):
        images = [rand_poly(rng, 2, 2), rand_poly(rng, 2, 2)]
        a = rand_poly(rng, 2, 2)
        b = rand_poly(rng, 2, 2)
        lhs = evaluate(p_bracket(a, b), images)
        rhs = p_bracket(evaluate(a, images), evaluate(b, images))
        assert lhs == rhs
    assert evaluate(p_bracket(X1, X2), [X2, X1]) == -p_bracket(X1, X2)


# --- coefficients: an int when integral, a Fraction only when not ----------


def _canonical(p):
    """True iff every coefficient of p is an int or a non-integral Fraction."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in p.terms.values())


def test_every_operation_keeps_int_coefficients_where_integral():
    rng = random.Random(137)
    for _ in range(60):
        a = rand_poly_nonzero(rng, 2, 3, terms=3)
        b = rand_poly_nonzero(rng, 2, 2, terms=2)
        g = rand_poly_nonzero(rng, 2, 2, terms=2)
        c = rand_scalar(rng)  # a Fraction, integral about half the time
        m = Poly({next(iter(b.terms)): c})  # one term
        u, v = rand_env_nonzero(rng, 2, 2, 2), rand_env_nonzero(rng, 2, 2, 2)
        got = [a + b, a - b, -a, a + a, a - Fraction(1, 2) * a, a * b, a * a]
        got += [a * c, c * a, a * c.numerator, a * Fraction(2), a * Fraction(1, 2) * 2]
        got += [p_bracket(a, b), p_bracket(a * Fraction(1, 2), b), p_gcd(a * g, b * g)]
        got += [divexact(a * b, b), divexact(a * m, m), divexact(a, Poly.constant(c)), a.monic()]
        got += [evaluate(a, [b, g])]
        got += [q for w in (ham(a), env_mul(u, v), u * c) for q in w.terms.values()]
        for p in got:
            assert _canonical(p), p.terms


def test_int_and_integral_fraction_coefficients_are_one_poly():
    m = (((1,), 2),)
    a, b = Poly({m: 2}), Poly({m: Fraction(2)})
    assert a == b and hash(a) == hash(b)
    assert type(b.terms[m]) is int
    assert Poly.constant(Fraction(4, 2)) == 2 and hash(Poly.constant(Fraction(4, 2))) == hash(2)


def _reference_mono_mul(m1, m2):
    out = dict(m1)
    for w, e in m2:
        out[w] = out.get(w, 0) + e
    return tuple(sorted(out.items(), key=lambda t: graded_lex_key(t[0])))


def _reference_mul(a, b):
    """The product term by term, with no shortcut for a constant."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = _reference_mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return Poly(out)


def _reference_divexact(a, b):
    """divexact's division on exponent tuples, for any divisor; None when
    b does not divide a."""
    words = sorted(a.variables() | b.variables(), key=graded_lex_key)
    quo = poisson._divide(poisson._exponents(words, a), poisson._exponents(words, b), poisson._quo)
    return None if quo is None else poisson._from_exponents(words, quo)


def test_a_constant_factor_scales_like_the_general_product():
    rng = random.Random(139)
    for _ in range(80):
        a = rand_poly_nonzero(rng, 2, 3, terms=3)
        c = rng.choice([1, -1, 2, Fraction(2), Fraction(1, 2), rand_scalar(rng)])
        k = Poly.constant(c)
        assert k * a == a * k == _reference_mul(k, a) == _reference_mul(a, k)
        assert _canonical(k * a)
        assert k * k == _reference_mul(k, k)
    assert Poly.one() * X1 == X1 == X1 * Poly.one()


def test_mono_mul_by_the_empty_monomial():
    rng = random.Random(149)
    for _ in range(40):
        m = next(iter(rand_poly_nonzero(rng, 3, 4, terms=1).terms))
        assert mono_mul((), m) == mono_mul(m, ()) == _reference_mono_mul((), m) == m
    assert mono_mul((), ()) == ()


def test_divexact_by_one_term_matches_the_general_division():
    rng = random.Random(151)
    seen = {"divides": 0, "does not": 0}
    for _ in range(120):
        a = rand_poly_nonzero(rng, 2, 3, terms=3)
        m = next(iter(rand_poly_nonzero(rng, 2, 2, terms=1).terms))
        for d in (Poly.constant(rand_scalar(rng)), Poly({m: rand_scalar(rng)})):
            want = _reference_divexact(a, d)
            if want is None:
                seen["does not"] += 1
                with pytest.raises(ValueError):
                    divexact(a, d)
            else:
                seen["divides"] += 1
                assert divexact(a, d) == want and _canonical(divexact(a, d))
            assert divexact(a * d, d) == a
    assert seen["divides"] and seen["does not"]


def test_coefficient_division_is_exact():
    assert divexact(X1, 2 * X1) == Fraction(1, 2)
    assert type(divexact(X1, 2 * X1).terms[()]) is Fraction
    p = (3 * X1 + 1).monic()
    assert p.terms == {(((1,), 1),): 1, (): Fraction(1, 3)}
    assert type(p.terms[(((1,), 1),)]) is int and type(p.terms[()]) is Fraction
