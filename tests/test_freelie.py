import random
from fractions import Fraction
from functools import lru_cache

import pytest
from sympy import divisors, mobius

from freepoisson import freelie
from freepoisson.core import graded_lex_key
from freepoisson.freelie import (
    Lie,
    associative_expansion,
    is_lyndon,
    lie_bracket,
    lie_bracket_oracle,
    lie_from_associative,
    lie_to_associative,
    lyndon_basis,
    lyndon_words,
    standard_bracketing,
    standard_factorization,
)
from freepoisson.sampling import rand_lie


def test_is_lyndon_basics():
    assert is_lyndon((1,))
    assert is_lyndon((3,))
    assert is_lyndon((1, 2))
    assert is_lyndon((1, 1, 2))
    assert is_lyndon((1, 2, 2))
    assert is_lyndon((1, 1, 2, 1, 2))
    assert not is_lyndon((2, 1))
    assert not is_lyndon((1, 1))
    assert not is_lyndon((1, 2, 1, 2))
    assert not is_lyndon((2, 1, 2))
    with pytest.raises(ValueError):
        is_lyndon(())


def test_is_lyndon_matches_suffix_definition():
    # a word is in the basis iff it is strictly smaller than every proper suffix
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 3)
        word = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 8)))
        expected = all(word < word[i:] for i in range(1, len(word)))
        assert is_lyndon(word) == expected, word


def necklace_count(n, length):
    return sum(mobius(d) * n ** (length // d) for d in divisors(length)) // length


def test_lyndon_words_counts():
    for n in (1, 2, 3):
        words = lyndon_words(n, 7)
        assert words == sorted(words)
        assert len(set(words)) == len(words)
        for length in range(1, 8):
            got = sum(1 for w in words if len(w) == length)
            assert got == necklace_count(n, length), (n, length)
        for w in words:
            assert is_lyndon(w)
            assert all(1 <= a <= n for a in w)


def test_lyndon_basis_ordering():
    assert lyndon_basis(2, 3) == [(1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2)]
    basis = lyndon_basis(3, 5)
    keys = [graded_lex_key(w) for w in basis]
    assert keys == sorted(keys)
    assert set(basis) == set(lyndon_words(3, 5))


def test_standard_factorization():
    assert standard_factorization((1, 2)) == ((1,), (2,))
    assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
    assert standard_factorization((1, 2, 2)) == ((1, 2), (2,))
    assert standard_factorization((1, 2, 1, 2, 2)) == ((1, 2), (1, 2, 2))
    with pytest.raises(ValueError):
        standard_factorization((1,))


def test_standard_factorization_parts_are_basis_words():
    for w in lyndon_words(3, 7):
        if len(w) < 2:
            continue
        u, v = standard_factorization(w)
        assert u + v == w
        assert is_lyndon(u) and is_lyndon(v)
        assert u < v


def test_standard_bracketing():
    assert standard_bracketing((1,)) == 1
    assert standard_bracketing((1, 2)) == (1, 2)
    assert standard_bracketing((1, 1, 2)) == (1, (1, 2))
    assert standard_bracketing((1, 2, 2)) == ((1, 2), 2)


def test_associative_expansion_small():
    assert associative_expansion((1,)) == {(1,): Fraction(1)}
    assert associative_expansion((1, 2)) == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}
    # [x1,[x1,x2]] = x1x1x2 - 2 x1x2x1 + x2x1x1
    assert associative_expansion((1, 1, 2)) == {
        (1, 1, 2): Fraction(1),
        (1, 2, 1): Fraction(-2),
        (2, 1, 1): Fraction(1),
    }


def test_lie_element_arithmetic():
    x1 = Lie.generator(1)
    x2 = Lie.generator(2)
    a = 2 * x1 + x2
    b = x1 - x2
    assert a + b == 3 * x1
    assert a - a == 0
    assert -b == x2 - x1
    assert Fraction(1, 2) * (a + b) == x1 + Fraction(1, 2) * x1
    assert Lie.zero() == 0
    assert a != 0
    assert a.degree() == 1
    assert a.is_homogeneous()
    assert not (a + Lie.basis_element((1, 2))).is_homogeneous()


def test_lie_bracket_known_values():
    x1 = Lie.generator(1)
    x2 = Lie.generator(2)
    e12 = Lie.basis_element((1, 2))
    e23 = Lie.basis_element((2, 3))
    assert lie_bracket(x1, x2) == e12
    assert lie_bracket(x2, x1) == -e12
    assert lie_bracket(x1, x1) == 0
    assert lie_bracket(x1, e12) == Lie.basis_element((1, 1, 2))
    assert lie_bracket(e12, x2) == Lie.basis_element((1, 2, 2))
    assert lie_bracket(e12, x1) == -Lie.basis_element((1, 1, 2))
    assert lie_bracket(e12, e23) == Lie.basis_element((1, 2, 2, 3)) + Lie.basis_element((1, 2, 3, 2))


def test_lie_bracket_matches_associative_commutator_exhaustively():
    # every bracket of basis elements must equal the commutator of their expansions
    for n, max_deg in ((2, 7), (3, 6)):
        basis = lyndon_basis(n, max_deg - 1)
        for i, u in enumerate(basis):
            for v in basis[i + 1 :]:
                if len(u) + len(v) > max_deg:
                    continue
                a = Lie.basis_element(u)
                b = Lie.basis_element(v)
                assert lie_bracket(a, b) == lie_bracket_oracle(a, b), (u, v)


def test_structure_constants_are_ints_and_lie_coefficients_fractions():
    basis = lyndon_basis(3, 5)
    for u in basis:
        for v in basis:
            if len(u) + len(v) <= 6:
                assert all(type(c) is int for c in freelie._basis_bracket(u, v).values()), (u, v)
                bracket = lie_bracket(Lie.basis_element(u), Lie.basis_element(v))
                assert all(type(c) is Fraction for c in bracket.terms.values()), (u, v)


def test_lie_bracket_axioms_random():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(2, 3)
        a = rand_lie(rng, n, rng.randint(1, 4))
        b = rand_lie(rng, n, rng.randint(1, 4))
        c = rand_lie(rng, n, rng.randint(1, 3))
        assert lie_bracket(a, b) == -lie_bracket(b, a)
        assert lie_bracket(a, a) == 0
        jac = (
            lie_bracket(a, lie_bracket(b, c))
            + lie_bracket(b, lie_bracket(c, a))
            + lie_bracket(c, lie_bracket(a, b))
        )
        assert jac == 0
        got = lie_bracket(a, b)
        if got != 0:
            assert got.degree() == a.degree() + b.degree()


def test_associative_round_trip():
    rng = random.Random(99)
    for _ in range(80):
        n = rng.randint(2, 3)
        a = rand_lie(rng, n, rng.randint(1, 5))
        assert lie_from_associative(lie_to_associative(a)) == a


def test_lie_from_associative_rejects_non_lie_input():
    with pytest.raises(ValueError):
        lie_from_associative({(1, 2): Fraction(1)})
    with pytest.raises(ValueError):
        lie_from_associative({(1, 1): Fraction(1)})
    assert lie_from_associative({}) == 0


def test_interrupted_rewrite_leaves_the_cache_usable(monkeypatch):
    # (x1x2, x3) is not a standard factorization, so the rewrite recurses
    # through the Jacobi identity and accumulates; interrupt it once there
    table = freelie._basis_bracket
    table.cache_clear()
    real = freelie.accumulate
    failed = []

    def flaky(*args, **kwargs):
        if not failed:
            failed.append(True)
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(freelie, "accumulate", flaky)
    a, b = Lie({(1, 2): 1}), Lie({(3,): 1})
    with pytest.raises(KeyboardInterrupt):
        lie_bracket(a, b)
    assert failed
    kept = table.cache_info()
    assert kept.currsize == kept.misses - 1  # every bracket but the interrupted one was kept
    assert lie_bracket(a, b) == lie_bracket_oracle(a, b)
    assert table.cache_info().misses > kept.misses  # the interrupted pair is computed afresh
    assert lie_bracket(b, a) == lie_bracket_oracle(b, a)


def test_bracket_table_is_bounded(monkeypatch):
    assert freelie._basis_bracket.cache_info().maxsize == freelie._BRACKET_TABLE_SIZE
    # with a table of 8 entries, entries are evicted and the rewriting
    # gives the same brackets
    small = lru_cache(maxsize=8)(freelie._basis_bracket.__wrapped__)
    monkeypatch.setattr(freelie, "_basis_bracket", small)
    rng = random.Random(5)
    for _ in range(20):
        a, b = rand_lie(rng, 3, 3), rand_lie(rng, 3, 3)
        assert lie_bracket(a, b) == lie_bracket_oracle(a, b)
    assert small.cache_info().currsize == 8
