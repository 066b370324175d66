"""Seeded random element generators for the property suites."""

import itertools
from fractions import Fraction
from functools import lru_cache

from . import freelie
from .calculus import Endomorphism, compose
from .depend import monomials_up_to
from .env import Env
from .poisson import Poly, mono_deg
from .symplectic import SPoly, Weyl

# Far above the 18 (n, max_deg) pairs that the test suites and `fpa check` draw from.
_MONO_POOL_COUNT = 64


@lru_cache(maxsize=_MONO_POOL_COUNT)
def _mono_pool(n, max_deg):
    """The monomials of degree <= max_deg in n letters; must not be mutated."""
    return monomials_up_to(n, max_deg)


def rand_scalar(rng):
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 1, 1, 2])
    return Fraction(num, den)


def rand_poly(rng, n, max_deg, terms=2, allow_constant=True):
    pool = _mono_pool(n, max_deg)
    if not allow_constant:
        pool = [m for m in pool if m]
    chosen = rng.sample(pool, min(terms, len(pool)))
    return Poly({m: rand_scalar(rng) for m in chosen})


def rand_poly_nonzero(rng, n, max_deg, terms=2, allow_constant=True):
    while True:
        p = rand_poly(rng, n, max_deg, terms, allow_constant)
        if not p.is_zero():
            return p


def rand_homogeneous_poly(rng, n, deg, terms=2):
    pool = [m for m in _mono_pool(n, deg) if mono_deg(m) == deg]
    if not pool:
        raise ValueError("no monomials at this degree")
    chosen = rng.sample(pool, min(terms, len(pool)))
    return Poly({m: rand_scalar(rng) for m in chosen})


def rand_lie(rng, n, deg, terms=2):
    words = [w for w in freelie.lyndon_basis(n, deg) if len(w) == deg]
    if not words:
        raise ValueError("no basis words at this degree")
    chosen = rng.sample(words, min(terms, len(words)))
    return freelie.Lie({w: rand_scalar(rng) for w in chosen})


def rand_word(rng, n, max_len, min_len=0):
    length = rng.randint(min_len, max_len)
    return tuple(rng.randint(1, n) for _ in range(length))


def rand_env(rng, n, max_hdeg, coeff_deg, terms=2):
    out = {}
    for _ in range(terms):
        w = rand_word(rng, n, max_hdeg)
        p = rand_poly_nonzero(rng, n, coeff_deg, terms=rng.randint(1, 2))
        out[w] = out.get(w, Poly.zero()) + p
    return Env(out)


def rand_env_nonzero(rng, n, max_hdeg, coeff_deg, terms=2):
    while True:
        u = rand_env(rng, n, max_hdeg, coeff_deg, terms)
        if not u.is_zero():
            return u


def rand_exponents(rng, n2, max_deg):
    e = [0] * n2
    for _ in range(rng.randint(0, max_deg)):
        e[rng.randrange(n2)] += 1
    return tuple(e)


def rand_spoly(rng, n, max_deg, terms=3):
    out = {}
    for _ in range(terms):
        e = rand_exponents(rng, 2 * n, max_deg)
        out[e] = out.get(e, 0) + rand_scalar(rng)
    return SPoly(n, out)


def rand_weyl(rng, n, max_deg, terms=3):
    out = {}
    for _ in range(terms):
        a = rand_exponents(rng, n, max_deg)
        b = rand_exponents(rng, n, max_deg)
        out[(a, b)] = out.get((a, b), 0) + rand_scalar(rng)
    return Weyl(n, out)


def rand_weyl_monomial(rng, n, max_deg):
    a = rand_exponents(rng, n, max_deg)
    b = rand_exponents(rng, n, max_deg)
    return Weyl(n, {(a, b): 1})


def rand_linear_map(rng):
    while True:
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        if a * d - b * c != 0:
            x1, x2 = Poly.generator(1), Poly.generator(2)
            return Endomorphism(2, [a * x1 + b * x2, c * x1 + d * x2])


def rand_triangular_map(rng):
    x1 = Poly.generator(1)
    c = Poly.zero()
    for k in range(rng.randint(1, 3) + 1):
        if rng.random() < 0.6:
            c = c + rand_scalar(rng) * x1**k
    return Endomorphism(2, [x1, Poly.generator(2) + c])


def rand_tame_automorphism(rng, max_factors=3):
    psi = Endomorphism(2, [Poly.generator(1), Poly.generator(2)])
    for _ in range(rng.randint(1, max_factors)):
        step = rand_linear_map(rng) if rng.random() < 0.5 else rand_triangular_map(rng)
        psi = compose(step, psi)
    return psi


def multi_indices(n2, max_norm):
    """All multi-indices of the given length with norm at most max_norm."""
    out = []
    for total in range(max_norm + 1):
        for cuts in itertools.combinations(range(total + n2 - 1), n2 - 1):
            e = []
            prev = -1
            for c in cuts:
                e.append(c - prev - 1)
                prev = c
            e.append(total + n2 - 2 - prev)
            out.append(tuple(e))
    return out
