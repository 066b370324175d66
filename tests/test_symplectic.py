import math
import random
from fractions import Fraction

import pytest

from freepoisson.checks import moyal_by_derivatives, rho_w_by_derivatives, symmetrize_by_permutations, theta_by_letters
from freepoisson.symplectic import (
    _unsymmetrize,
    PnEnv,
    SPoly,
    Weyl,
    moyal,
    pn_commutator,
    pn_env_mul,
    rho_w,
    sp_bracket,
    symmetrize,
    theta_left,
    theta_right,
    weyl_mul,
)
from freepoisson.sampling import rand_exponents, rand_spoly, rand_weyl

X1 = SPoly.x(1, 1)
Y1 = SPoly.y(1, 1)


def test_spoly_arithmetic():
    assert X1 * Y1 == Y1 * X1
    assert X1 - X1 == 0
    assert SPoly.zero(1) == 0
    assert (X1 + Y1) * (X1 - Y1) == X1 * X1 - Y1 * Y1
    assert (X1 * Y1).deg() == 2
    assert SPoly.constant(1, Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert (X1 * X1 * Y1).max_exponents() == (2, 1)


def test_spoly_derivatives():
    assert X1.derive(0) == SPoly.one(1)
    assert X1.derive(1) == 0
    assert (X1 * X1).derive(0) == 2 * X1
    assert (X1 * Y1).derive_multi((1, 1)) == SPoly.one(1)
    assert (X1 * Y1).derive_multi((2, 0)) == 0


def test_sp_bracket_canonical_relations():
    for n in (1, 2):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                xi, yj = SPoly.x(n, i), SPoly.y(n, j)
                expected = SPoly.one(n) if i == j else SPoly.zero(n)
                assert sp_bracket(xi, yj) == expected
                assert sp_bracket(SPoly.x(n, i), SPoly.x(n, j)) == 0
                assert sp_bracket(SPoly.y(n, i), SPoly.y(n, j)) == 0


def test_generators_are_unit_vectors_and_check_their_index():
    n = 2
    assert SPoly.y(n, 2) == SPoly(n, {(0, 0, 0, 1): 1})
    assert Weyl.X(n, 2) == Weyl(n, {((0, 1), (0, 0)): 1})
    assert PnEnv.h_y(n, 1) == PnEnv(n, {(0, 0, 1, 0): SPoly.one(n)})
    makers = [(SPoly.x, "x index"), (SPoly.y, "y index"), (Weyl.X, "X index"), (Weyl.Y, "Y index"), (PnEnv.h_x, "index"), (PnEnv.h_y, "index")]
    for make, what in makers:
        for i in (0, n + 1):
            with pytest.raises(ValueError, match=f"^{what} out of range$"):
                make(n, i)


def test_sp_bracket_axioms_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 2)
        f = rand_spoly(rng, n, 3)
        g = rand_spoly(rng, n, 3)
        h = rand_spoly(rng, n, 2)
        assert sp_bracket(f, g) == -sp_bracket(g, f)
        assert sp_bracket(f, g * h) == sp_bracket(f, g) * h + g * sp_bracket(f, h)
        jac = (
            sp_bracket(f, sp_bracket(g, h))
            + sp_bracket(g, sp_bracket(h, f))
            + sp_bracket(h, sp_bracket(f, g))
        )
        assert jac == 0


def test_weyl_mul_known_values():
    X, Y = Weyl.X(1, 1), Weyl.Y(1, 1)
    XY = weyl_mul(X, Y)
    YX = weyl_mul(Y, X)
    assert XY == Weyl(1, {((1,), (1,)): Fraction(1)})
    assert YX == XY - Weyl.one(1)
    assert XY - YX == Weyl.one(1)
    assert weyl_mul(X, X) == Weyl(1, {((2,), (0,)): Fraction(1)})


def test_weyl_mul_is_associative():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 2)
        a = rand_weyl(rng, n, 2)
        b = rand_weyl(rng, n, 2)
        c = rand_weyl(rng, n, 2)
        assert weyl_mul(weyl_mul(a, b), c) == weyl_mul(a, weyl_mul(b, c))


def _act(w, p):
    """w in A_m acting on p in k[t_1..t_m] (a dict exponent -> coefficient)
    with X_i = d/dt_i and Y_i = t_i: X^a Y^b p = d^a (t^b p)."""
    out = {}
    for (a, b), c in w.terms.items():
        for e, q in p.items():
            e = [i + j for i, j in zip(e, b)]
            coeff = c * q
            for i, k in enumerate(a):
                coeff *= math.perm(e[i], k)
                e[i] -= k
            if coeff:
                out[tuple(e)] = out.get(tuple(e), 0) + coeff
    return {e: c for e, c in out.items() if c}


def _rand_weyl(rng, m, max_deg, dens, terms=3):
    out = {}
    for _ in range(terms):
        key = (rand_exponents(rng, m, max_deg), rand_exponents(rng, m, max_deg))
        out[key] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice(dens))
    return Weyl(m, out)


def _rand_t_poly(rng, m, max_deg, terms=4):
    return {rand_exponents(rng, m, max_deg): Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2])) for _ in range(terms)}


def _unit(m, i, k):
    """The exponent tuple of length m with k at the 1-based place i."""
    return tuple(k if j == i else 0 for j in range(1, m + 1))


def test_weyl_mul_matches_the_action_on_polynomials():
    # (u*v).p == u.(v.p) for the action of A_m on k[t_1..t_m], which
    # uses neither weyl_mul nor symmetrize
    rng = random.Random(53)
    cases = []
    for m in (1, 2, 3):
        for _ in range(12):
            u = _rand_weyl(rng, m, 3, (1, 2, 4))
            v = _rand_weyl(rng, m, 3, (3, 5, 7))
            cases += [(u, v), (v, u)]
        z = (0,) * m
        cases += [
            (Weyl.zero(m), _rand_weyl(rng, m, 3, (2, 3))),
            (_rand_weyl(rng, m, 3, (2, 3)), Weyl.zero(m)),
            (Weyl.one(m) * Fraction(-2, 3), _rand_weyl(rng, m, 3, (5,))),
            (_rand_weyl(rng, m, 3, (5,)), Weyl.one(m) * Fraction(7, 2)),
            # one term sets the radix: y_m^9 * x_m^9 beside low-degree terms
            (
                Weyl(m, {(z, _unit(m, m, 9)): 1, (_unit(m, 1, 1), z): Fraction(-1, 3)}),
                Weyl(m, {(_unit(m, m, 9), z): 1, (z, _unit(m, 1, 2)): Fraction(2, 5)}),
            ),
        ]
        # exponents of the product reach E_u + E_v = 18 in the top digits
        top = (_unit(m, m, 9), _unit(m, m, 9))
        u = Weyl(m, {top: 1, (_unit(m, 1, 1), z): Fraction(-1, 3), (z, z): Fraction(2, 7)})
        v = Weyl(m, {top: -1, (z, _unit(m, 1, 2)): Fraction(2, 5), (z, z): -1})
        assert max(max(a + b) for a, b in weyl_mul(u, v).terms) == 18
        cases.append((u, v))
    for u, v in cases:
        m = u.n
        tests = [_rand_t_poly(rng, m, 4), _rand_t_poly(rng, m, 12), {_unit(m, m, 20): Fraction(1, 3)}]
        for p in tests:
            assert _act(weyl_mul(u, v), p) == _act(u, _act(v, p)), (u, v, p)


def test_symmetrize_known_values():
    X, Y = Weyl.X(1, 1), Weyl.Y(1, 1)
    assert symmetrize(X1 * Y1) == weyl_mul(X, Y) - Fraction(1, 2) * Weyl.one(1)
    assert symmetrize(X1) == X
    assert symmetrize(X1 * X1) == weyl_mul(X, X)
    assert symmetrize(SPoly.one(1)) == Weyl.one(1)
    assert symmetrize(SPoly.zero(1)) == 0


def test_symmetrize_is_linear():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 2)
        f = rand_spoly(rng, n, 3)
        g = rand_spoly(rng, n, 3)
        assert symmetrize(f + g) == symmetrize(f) + symmetrize(g)
        assert symmetrize(3 * f) == 3 * symmetrize(f)


def test_symmetrize_matches_the_permutation_average():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 2)
        f = rand_spoly(rng, n, rng.randint(0, 6), terms=rng.randint(1, 2))
        assert symmetrize(f) == symmetrize_by_permutations(f)


def test_rho_w_worked_value():
    assert rho_w(X1 * Y1) == PnEnv(
        1,
        {
            (0, 0): X1 * Y1,
            (1, 0): Fraction(1, 2) * Y1,
            (0, 1): Fraction(1, 2) * X1,
            (1, 1): SPoly.constant(1, Fraction(1, 4)),
        },
    )


def test_rho_w_properties():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 2)
        f = rand_spoly(rng, n, 4)
        img = rho_w(f)
        assert img.p_part() == f
        assert img == theta_left(symmetrize(f))


def test_theta_images():
    X = Weyl.X(1, 1)
    hx, hy = PnEnv.h_x(1, 1), PnEnv.h_y(1, 1)
    assert theta_left(X) == PnEnv.from_poly(X1) + Fraction(1, 2) * hx
    assert theta_right(X) == PnEnv.from_poly(X1) - Fraction(1, 2) * hx
    assert theta_left(Weyl.Y(1, 1)) == PnEnv.from_poly(Y1) + Fraction(1, 2) * hy
    assert theta_right(Weyl.Y(1, 1)) == PnEnv.from_poly(Y1) - Fraction(1, 2) * hy
    assert theta_left(Weyl.one(1)) == PnEnv.one(1)


def test_theta_maps_are_homomorphisms():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 2)
        a = rand_weyl(rng, n, 2)
        b = rand_weyl(rng, n, 2)
        assert theta_left(weyl_mul(a, b)) == pn_env_mul(theta_left(a), theta_left(b))
        assert theta_right(weyl_mul(a, b)) == pn_env_mul(theta_right(b), theta_right(a))


def test_theta_images_commute():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 2)
        a = rand_weyl(rng, n, 2)
        b = rand_weyl(rng, n, 2)
        assert pn_commutator(theta_left(a), theta_right(b)) == 0


def test_theta_maps_match_the_letter_by_letter_products():
    # zero, a constant, distinct denominators, and X1*Y1 - 1/2, whose
    # images lose their constant term to cancellation between monomials;
    # then the symmetrized _sp_cases, on which W^-1 must undo symmetrize
    cancels = Weyl(2, {((1, 0), (1, 0)): 1, ((0, 0), (0, 0)): Fraction(-1, 2)})
    cases = [Weyl.zero(1), Weyl.zero(2), Fraction(-3, 4) * Weyl.one(2), cancels]
    cases.append(Weyl(2, {((2, 1), (0, 3)): Fraction(1, 3), ((0, 2), (1, 0)): Fraction(5, 7), ((1, 1), (1, 1)): Fraction(-2, 9)}))
    rng = random.Random(53)
    cases += [rand_weyl(rng, rng.randint(1, 2), 3, terms=rng.randint(1, 4)) for _ in range(40)]
    polys = [h for pair in _sp_cases(random.Random(59)) for h in pair]
    for h in polys:
        assert _unsymmetrize(symmetrize(h)) == h, h
    cases += [symmetrize(h) for h in polys]
    for a in cases:
        back = _unsymmetrize(a)
        assert symmetrize(back) == a == symmetrize_by_permutations(back), a.terms
        for sign, theta in ((1, theta_left), (-1, theta_right)):
            img = theta(a)
            assert img == theta_by_letters(a, sign), (a.terms, sign)
            assert all(p.terms and all(p.terms.values()) for p in img.terms.values()), (a.terms, sign)
    x1y1 = SPoly(2, {(1, 0, 1, 0): 1})
    assert theta_left(cancels).p_part() == x1y1 == theta_right(cancels).p_part()
    assert theta_left(Weyl.zero(2)) == PnEnv.zero(2) and not theta_right(Weyl.zero(1)).terms


def test_pn_env_mul_known_value():
    hx = PnEnv.h_x(1, 1)
    assert pn_env_mul(hx, PnEnv.from_poly(Y1)) == PnEnv(
        1, {(1, 0): Y1, (0, 0): SPoly.one(1)}
    )
    assert pn_env_mul(hx, PnEnv.from_poly(X1)) == PnEnv(1, {(1, 0): X1})


def rand_pn_env(rng, n, hdeg, coeff_deg):
    from freepoisson.sampling import rand_exponents, rand_spoly

    out = PnEnv.zero(n)
    for _ in range(2):
        out = out + PnEnv(n, {rand_exponents(rng, 2 * n, hdeg): rand_spoly(rng, n, coeff_deg)})
    return out


def test_pn_env_mul_is_associative():
    rng = random.Random(37)
    for _ in range(25):
        n = rng.randint(1, 2)
        a = rand_pn_env(rng, n, 2, 2)
        b = rand_pn_env(rng, n, 2, 2)
        c = rand_pn_env(rng, n, 1, 1)
        assert pn_env_mul(pn_env_mul(a, b), c) == pn_env_mul(a, pn_env_mul(b, c))


def test_relabeling_round_trips():
    # the codes of pn_env_mul decode back to the keys they were packed from
    rng = random.Random(47)
    for n in (1, 2):
        one = PnEnv.one(n)
        assert pn_env_mul(PnEnv.zero(n), one) == PnEnv.zero(n) == pn_env_mul(one, PnEnv.zero(n))
        for _ in range(20):
            u = rand_pn_env(rng, n, 3, 3)
            assert pn_env_mul(u, one) == u == pn_env_mul(one, u)


def test_canonical_commutators():
    for n in (1, 2):
        zx = [PnEnv.from_poly(SPoly.x(n, i)) for i in range(1, n + 1)] + [
            PnEnv.from_poly(SPoly.y(n, i)) for i in range(1, n + 1)
        ]
        zy = [PnEnv.h_y(n, i) for i in range(1, n + 1)] + [
            -1 * PnEnv.h_x(n, i) for i in range(1, n + 1)
        ]
        for a in range(2 * n):
            for b in range(2 * n):
                assert pn_commutator(zx[a], zx[b]) == 0
                assert pn_commutator(zy[a], zy[b]) == 0
                expected = PnEnv.one(n) if a == b else PnEnv.zero(n)
                assert pn_commutator(zx[a], zy[b]) == expected


def test_moyal_known_values():
    assert moyal(X1, Y1) == X1 * Y1 + SPoly.constant(1, Fraction(1, 2))
    assert moyal(Y1, X1) == X1 * Y1 - SPoly.constant(1, Fraction(1, 2))
    assert moyal(X1, Y1) - moyal(Y1, X1) == SPoly.one(1)
    assert moyal(X1, X1) == X1 * X1


def test_moyal_matches_rho_w_products():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 2)
        f = rand_spoly(rng, n, 3)
        g = rand_spoly(rng, n, 3)
        prod = pn_env_mul(rho_w(f), rho_w(g))
        star = moyal(f, g)
        assert prod.p_part() == star
        assert prod == rho_w(star)


def test_moyal_is_associative():
    rng = random.Random(43)
    for _ in range(15):
        n = rng.randint(1, 2)
        f = rand_spoly(rng, n, 3)
        g = rand_spoly(rng, n, 3)
        h = rand_spoly(rng, n, 2)
        assert moyal(moyal(f, g), h) == moyal(f, moyal(g, h))


def _rand_sp(rng, n, max_deg, dens, terms=3):
    return SPoly(n, {rand_exponents(rng, 2 * n, max_deg): Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice(dens)) for _ in range(terms)})


def _sp_cases(rng):
    """Seeded pairs for the symplectic kernels: n <= 2, degree <= 6,
    distinct denominators, zero and constant factors, and pure-x by pure-y
    pairs whose exponents all contract fully."""
    cases = []
    for n in (1, 2):
        for _ in range(10):
            cases.append((_rand_sp(rng, n, 6, (1, 2, 4)), _rand_sp(rng, n, 6, (3, 5, 7))))
        cases += [
            (SPoly.zero(n), _rand_sp(rng, n, 4, (3,))),
            (_rand_sp(rng, n, 4, (3,)), SPoly.zero(n)),
            (SPoly.constant(n, Fraction(-2, 3)), _rand_sp(rng, n, 5, (5,))),
            (_rand_sp(rng, n, 5, (5,)), SPoly.constant(n, Fraction(7, 2))),
        ]
        for k in (1, 3, 6):
            x, y = _unit(2 * n, 1, k), _unit(2 * n, n + 1, k)
            cases += [(SPoly(n, {x: Fraction(2, 3)}), SPoly(n, {y: Fraction(-5, 7)}))]
            cases += [(SPoly(n, {y: Fraction(1, 5)}), SPoly(n, {x: 3, (0,) * 2 * n: Fraction(1, 2)}))]
        if n == 2:
            cases += [(SPoly(n, {(3, 3, 0, 0): Fraction(1, 3)}), SPoly(n, {(0, 0, 3, 3): Fraction(3, 4)}))]
    return cases


def test_rho_w_matches_the_derivative_series_and_the_permutation_average():
    rng = random.Random(59)
    for f, g in _sp_cases(rng):
        for h in (f, g):
            assert rho_w(h) == rho_w_by_derivatives(h) == theta_left(symmetrize_by_permutations(h)), h


def test_moyal_matches_the_derivative_series():
    rng = random.Random(61)
    for f, g in _sp_cases(rng):
        assert moyal(f, g) == moyal_by_derivatives(f, g), (f, g)
        assert moyal(g, f) == moyal_by_derivatives(g, f), (g, f)
    # full contraction: x1^k * y1^k reaches the constant k!/2^k
    for k in range(7):
        star = moyal(SPoly(1, {(k, 0): 1}), SPoly(1, {(0, k): 1}))
        assert star.constant_value() == Fraction(math.factorial(k), 2**k)


def _act_pn(u, p):
    """u in P_n^e acting on p in P_n, by derivatives of SPoly alone: a
    coefficient multiplies, h_{x_i} is d/dy_i and h_{y_i} is -d/dx_i."""
    n = u.n
    out = SPoly.zero(n)
    for g, c in u.terms.items():
        out = out + (-1) ** sum(g[n:]) * c * p.derive_multi(g[n:] + g[:n])
    return out


def test_pn_env_mul_matches_the_series_and_the_action_on_polynomials():
    rng = random.Random(67)
    for f, g in _sp_cases(rng):
        prod = pn_env_mul(rho_w(f), rho_w(g))
        assert prod == rho_w_by_derivatives(moyal_by_derivatives(f, g)), (f, g)
    for n in (1, 2):
        tests = [_rand_sp(rng, n, 8, (1, 3)) for _ in range(3)] + [SPoly(n, {(7,) * 2 * n: 1})]
        for _ in range(12):
            u = PnEnv(n, {rand_exponents(rng, 2 * n, 3): _rand_sp(rng, n, 3, (1, 2, 4)) for _ in range(3)})
            v = PnEnv(n, {rand_exponents(rng, 2 * n, 3): _rand_sp(rng, n, 3, (3, 5)) for _ in range(3)})
            for p in tests:
                assert _act_pn(pn_env_mul(u, v), p) == _act_pn(u, _act_pn(v, p)), (u, v, p)
