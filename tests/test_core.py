import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from freepoisson.core import (
    ONE,
    ZERO,
    graded_lex_key,
    mi_factorial,
    mi_norm,
    mi_swap,
)
from freepoisson.env import Env
from freepoisson.freelie import Lie
from freepoisson.poisson import Poly
from freepoisson.sampling import rand_env_nonzero, rand_exponents, rand_poly_nonzero, rand_spoly, rand_weyl
from freepoisson.symplectic import PnEnv, SPoly, Weyl


def test_scalar_constants():
    assert ZERO == 0
    assert ONE == 1
    assert isinstance(ONE, Fraction)


def test_graded_lex_key_orders_by_length_first():
    # shorter words always come first, regardless of letters
    assert graded_lex_key((3,)) < graded_lex_key((1, 1))
    assert graded_lex_key((2, 2)) < graded_lex_key((1, 1, 1))


def test_graded_lex_key_ties_broken_lexicographically():
    assert graded_lex_key((1, 2)) < graded_lex_key((2, 1))
    assert graded_lex_key((1, 1, 2)) < graded_lex_key((1, 2, 1))
    assert graded_lex_key(()) < graded_lex_key((1,))


def test_graded_lex_sorting_round_trip():
    words = [(2, 1), (1,), (1, 2), (2,), (), (1, 1)]
    ordered = sorted(words, key=graded_lex_key)
    assert ordered == [(), (1,), (2,), (1, 1), (1, 2), (2, 1)]


def test_mi_norm():
    assert mi_norm(()) == 0
    assert mi_norm((0, 0, 0)) == 0
    assert mi_norm((2, 3)) == 5
    assert mi_norm((1, 0, 4)) == 5


def test_mi_factorial():
    assert mi_factorial(()) == 1
    assert mi_factorial((0,)) == 1
    assert mi_factorial((2, 3)) == 12
    assert mi_factorial((1, 1, 1)) == 1
    assert mi_factorial((4,)) == 24
    assert isinstance(mi_factorial((2, 3)), Fraction)


def test_mi_factorial_rejects_negative_entries():
    with pytest.raises(ValueError):
        mi_factorial((1, -1))


def test_mi_swap_exchanges_halves():
    assert mi_swap((1, 2, 3, 4)) == (3, 4, 1, 2)
    assert mi_swap((5, 7)) == (7, 5)
    assert mi_swap(()) == ()


def test_mi_swap_is_an_involution():
    for mi in [(1, 0, 0, 2), (3, 1, 4, 1), (0, 0), (2, 2, 2, 2, 2, 2)]:
        assert mi_swap(mi_swap(mi)) == mi


def test_mi_swap_rejects_odd_length():
    with pytest.raises(ValueError):
        mi_swap((1, 2, 3))


# --- the operator contract shared by the six algebra classes ----------------

ALGEBRAS = {
    "Lie": (Lie.zero(), Lie.generator(1)),
    "Poly": (Poly.zero(), Poly.generator(1)),
    "Env": (Env.zero(), Env.h_generator(1)),
    "SPoly": (SPoly.zero(1), SPoly.x(1, 1)),
    "Weyl": (Weyl.zero(1), Weyl.X(1, 1)),
    "PnEnv": (PnEnv.zero(1), PnEnv.h_x(1, 1)),
}
WITH_UNIT = [name for name in ALGEBRAS if name != "Lie"]


@pytest.mark.parametrize("name", ALGEBRAS)
def test_zero_is_falsy(name):
    zero, x = ALGEBRAS[name]
    assert not zero and zero.is_zero() and zero == 0
    assert x and not x.is_zero()
    assert not (x - x) and x - x == zero
    assert not (0 * x) and not (x * Fraction(0))


@pytest.mark.parametrize("name", ALGEBRAS)
def test_arithmetic(name):
    zero, x = ALGEBRAS[name]
    assert x + x == 2 * x == x * 2
    assert -x == x * -1 == zero - x
    assert x + zero == x == 0 + x
    assert (x * Fraction(1, 2)).terms == {k: c * Fraction(1, 2) for k, c in x.terms.items()}


@pytest.mark.parametrize("name", WITH_UNIT)
def test_powers(name):
    _, x = ALGEBRAS[name]
    assert x**0 == 1
    assert x**1 == x
    assert x**5 == x * x * x * x * x
    with pytest.raises(ValueError):
        x**-1
    for k in (Fraction(2), 2.0):
        with pytest.raises(TypeError):
            x**k


@pytest.mark.parametrize("name", WITH_UNIT)
def test_scalars_lift(name):
    _, x = ALGEBRAS[name]
    assert x + 2 == 2 + x
    assert (x + 2) - x == 2
    assert 2 - x == -(x - 2)


@pytest.mark.parametrize("name", ALGEBRAS)
@pytest.mark.parametrize("operand", [1.5, "x1", None])
def test_unsupported_operands_raise_type_error(name, operand):
    _, x = ALGEBRAS[name]
    for op in (
        lambda: x + operand,
        lambda: operand + x,
        lambda: x - operand,
        lambda: operand - x,
        lambda: x * operand,
        lambda: operand * x,
    ):
        with pytest.raises(TypeError):
            op()
    assert x != operand


def test_the_free_lie_algebra_has_no_unit():
    x = Lie.generator(1)
    for op in (lambda: x + 1, lambda: 1 - x, lambda: x * x, lambda: x**0, lambda: x**2, lambda: x ** Fraction(1)):
        with pytest.raises(TypeError):
            op()
    assert x != 1 and x + 0 == x and x**1 is x


@pytest.mark.parametrize("name", ALGEBRAS)
def test_equal_elements_hash_equal(name):
    zero, x = ALGEBRAS[name]
    pairs = [(zero, 0), (zero, Fraction(0)), (x + x, 2 * x), (x - x, zero)]
    if name in WITH_UNIT:
        pairs += [(x**0, 1), (x**0 * 3, 3), (x**0 * Fraction(1, 2), Fraction(1, 2))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b), (a, b)


def test_no_equality_across_algebras():
    assert Poly.constant(2) != Env.from_poly(Poly.constant(2))
    assert Env.from_poly(Poly.constant(2)) != Poly.constant(2)
    assert SPoly.constant(1, 2) != PnEnv.from_poly(SPoly.constant(1, 2))
    assert SPoly.zero(1) != SPoly.zero(2)
    with pytest.raises(ValueError):
        SPoly.x(1, 1) + SPoly.x(2, 1)
    with pytest.raises(ValueError):
        PnEnv(1, {(0, 0): SPoly.x(2, 1)})


# One-term elements of the six algebras with the coefficient c.
ONE_TERM = {
    "Lie": lambda c: Lie({(1,): c}),
    "Poly": lambda c: Poly({(): c}),
    "Env": lambda c: Env({(): c}),
    "SPoly": lambda c: SPoly(1, {(0, 0): c}),
    "Weyl": lambda c: Weyl(1, {((0,), (0,)): c}),
    "PnEnv": lambda c: PnEnv(1, {(0, 0): c}),
}


@pytest.mark.parametrize("name", ALGEBRAS)
@pytest.mark.parametrize("c", [0.1, 0.5, 2.0, Decimal("0.5"), "1/2", None])
def test_constructors_refuse_inexact_coefficients(name, c):
    # Fraction(0.1) is 3602879701896397/2**55, not 1/10: a float is never taken
    with pytest.raises(TypeError):
        ONE_TERM[name](c)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_constructors_take_ints_and_fractions(name):
    make = ONE_TERM[name]
    assert make(2) == make(Fraction(2)) == make(1) * 2
    assert make(Fraction(1, 2)) == make(1) * Fraction(1, 2)


# --- powers ---------------------------------------------------------------


def squaring_power(x, k):
    """x**k by binary squaring, the reference for **."""
    out, base = x._lift(1), x
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def power_inputs():
    rng = random.Random(5)
    X1, X2 = Poly.generator(1), Poly.generator(2)
    polys = [Poly.constant(Fraction(-3, 2)), Poly.from_basis((1, 2)) - Fraction(1, 2) * X1 + 3, X2 - 2 * X1]
    for n in (1, 2, 3):
        polys += [rand_poly_nonzero(rng, n, 2, terms=3), rand_poly_nonzero(rng, n, 3, terms=1)]
    pn_envs = [
        PnEnv(n, {rand_exponents(rng, 2 * n, 1): rand_spoly(rng, n, 1, terms=2), (0,) * 2 * n: rand_spoly(rng, n, 1)})
        for n in (1, 2)
    ]
    return [
        *polys,
        rand_spoly(rng, 1, 2),
        rand_spoly(rng, 2, 2),
        rand_weyl(rng, 1, 2),
        rand_weyl(rng, 2, 1),
        Env.h_generator(1) * X2 - Env.from_poly(X1),
        rand_env_nonzero(rng, 1, 2, 2),
        *pn_envs,
    ]


@pytest.mark.parametrize("x", power_inputs(), ids=lambda x: type(x).__name__)
def test_powers_match_repeated_squaring(x):
    for k in range(13):
        assert x**k == squaring_power(x, k), k


def test_one_term_powers_in_closed_form(monkeypatch):
    # Poly and SPoly raise a single term c*m to the k-th power as c**k at m
    # with its exponents times k, without a product: a constant, a fraction
    # and a bracket word give what binary squaring gives, with Poly's
    # integral coefficients kept as ints
    X1, x1, y2 = Poly.generator(1), SPoly.x(2, 1), SPoly.y(2, 2)
    singles = [Poly.constant(-3), Poly.constant(Fraction(2, 3)), Fraction(-1, 2) * X1 * X1 * Poly.from_basis((1, 2))]
    singles += [Poly.from_basis((1, 1, 2)), SPoly.constant(2, 5), Fraction(3, 4) * x1 * y2 * y2]
    want = {(x, k): squaring_power(x, k) for x in singles for k in (0, 1, 1000)}
    for cls in (Poly, SPoly):
        monkeypatch.setattr(cls, "_mul", lambda a, b: pytest.fail("a product was made"))
    for (x, k), power in want.items():
        got = x**k
        assert got == power and [type(c) for c in got.terms.values()] == [type(c) for c in power.terms.values()]
    assert (Poly.generator(1) ** 100000).terms == {(((1,), 100000),): 1}
    assert (Fraction(1, 2) * x1) ** 20000 == SPoly(2, {(20000, 0, 0, 0): Fraction(1, 2**20000)})


def test_a_power_multiplies_the_base_into_the_product(monkeypatch):
    # (x1 + x2 + x3)**k has C(k + 2, 2) terms; multiplying the base in k - 1
    # times makes 3 * C(j + 2, 2) term products at step j, under 3 * C(k + 2, 3)
    # in all, where squaring makes 22,005 and 284,337 for k = 30 and 60
    counted, mul = [], Poly._mul

    def counting(a, b):
        counted.append(len(a.terms) * len(b.terms))
        return mul(a, b)

    monkeypatch.setattr(Poly, "_mul", counting)
    s = Poly.generator(1) + Poly.generator(2) + Poly.generator(3)
    for k in (30, 60):
        counted.clear()
        assert len((s**k).terms) == math.comb(k + 2, 2)
        assert sum(counted) <= 3 * math.comb(k + 2, 3), k
