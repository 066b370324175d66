import random
from fractions import Fraction

import pytest

from freepoisson import calculus, depend, linalg
from freepoisson.calculus import (
    Endomorphism,
    EnvMatrix,
    _fit_box,
    compose,
    env_apply,
    fox,
    identity_matrix,
    invert_jacobian_bounded,
    jacobian,
    mat_mul,
    pair_status,
)
from freepoisson.env import Env, env_mul, ham
from freepoisson.linalg import SparseSolver
from freepoisson.poisson import Poly, p_bracket
from freepoisson.sampling import rand_env, rand_lie, rand_poly, rand_poly_nonzero, rand_scalar, rand_tame_automorphism

X1 = Poly.generator(1)
X2 = Poly.generator(2)
H1 = Env.h_generator(1)
H2 = Env.h_generator(2)


def test_fox_known_values():
    assert fox(X1 * X2, 1) == Env.from_poly(X2)
    assert fox(X1 * X2, 2) == Env.from_poly(X1)
    assert fox(p_bracket(X1, X2), 1) == -H2
    assert fox(p_bracket(X1, X2), 2) == H1
    assert fox(X1, 1) == Env.one()
    assert fox(X1, 2) == 0
    assert fox(Poly.constant(5), 1) == 0
    with pytest.raises(ValueError):
        fox(X1, 0)


def test_fox_reconstructs_ham():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 3)
        p = rand_poly(rng, n, 4)
        acc = Env.zero()
        for i in range(1, n + 1):
            acc = acc + env_mul(fox(p, i), Env.h_generator(i))
        assert acc == ham(p)


def test_fox_is_linear_in_p():
    rng = random.Random(19)
    for _ in range(40):
        p = rand_poly(rng, 2, 3)
        q = rand_poly(rng, 2, 3)
        for i in (1, 2):
            assert fox(p + q, i) == fox(p, i) + fox(q, i)


def test_endomorphism():
    psi = Endomorphism(2, [X1, X2 + X1 * X1])
    assert psi(X2) == X2 + X1 * X1
    assert psi(p_bracket(X1, X2)) == p_bracket(X1, X2 + X1 * X1)
    with pytest.raises(ValueError):
        Endomorphism(2, [X1])
    assert psi.is_polynomial_map()
    assert not Endomorphism(2, [p_bracket(X1, X2), X2]).is_polynomial_map()


def test_compose():
    psi = Endomorphism(2, [X1 + X2 * X2, X2])
    phi = Endomorphism(2, [X1, X2 + X1 * X1])
    comp = compose(psi, phi)
    # comp(x_i) = psi(phi(x_i))
    assert comp.images[0] == X1 + X2 * X2
    assert comp.images[1] == X2 + (X1 + X2 * X2) ** 2
    ident = Endomorphism(2, [X1, X2])
    assert compose(psi, ident).images == psi.images
    assert compose(ident, psi).images == psi.images


def test_jacobian_known_value():
    J = jacobian(Endomorphism(2, [X1, X2 + X1 * X1]))
    assert J == EnvMatrix(
        [
            [Env.one(), Env.zero()],
            [Env.from_poly(2 * X1), Env.one()],
        ]
    )


def test_jacobian_chain_rule():
    # J(psi o phi) = psi_e(J(phi)) * J(psi), psi_e acting entrywise
    rng = random.Random(43)
    for _ in range(15):
        psi = rand_tame_automorphism(rng, 2)
        phi = rand_tame_automorphism(rng, 2)
        comp = compose(psi, phi)
        mapped = EnvMatrix(
            [[env_apply(psi, e) for e in row] for row in jacobian(phi).entries]
        )
        assert jacobian(comp) == mat_mul(mapped, jacobian(psi))
        assert jacobian(comp).entries == [[fox(img, j) for j in (1, 2)] for img in comp.images]


def test_env_apply_is_multiplicative():
    rng = random.Random(61)
    from freepoisson.sampling import rand_env

    for _ in range(30):
        psi = rand_tame_automorphism(rng, 2)
        a = rand_env(rng, 2, 2, 2)
        b = rand_env(rng, 2, 2, 2)
        assert env_apply(psi, env_mul(a, b)) == env_mul(env_apply(psi, a), env_apply(psi, b))
        p = rand_poly(rng, 2, 3)
        assert env_apply(psi, ham(p)) == ham(psi(p))


def test_matrix_helpers():
    ident = identity_matrix(2)
    J = jacobian(Endomorphism(2, [X1, X2 + X1 * X1]))
    assert mat_mul(J, ident) == J
    assert mat_mul(ident, J) == J
    assert ident.n == 2


def test_invert_triangular_map():
    J = jacobian(Endomorphism(2, [X1, X2 + X1 * X1]))
    res = invert_jacobian_bounded(J, 3, 6)
    assert res.status == "invertible"
    assert res.box == (3, 6)
    assert res.V == EnvMatrix(
        [
            [Env.one(), Env.zero()],
            [Env.from_poly(-2 * X1), Env.one()],
        ]
    )
    assert mat_mul(res.V, J) == identity_matrix(2)
    assert mat_mul(J, res.V) == identity_matrix(2)


def test_invert_elementary_product_with_rational_entries():
    # J = E12(u) E21(v) with u = 2/3 h(x1) and v = -5/7 x2 has the inverse
    # E21(-v) E12(-u); the search runs on 21*J against the right side 21*I
    one = Env.one()
    u = Env({(1,): Poly.constant(Fraction(2, 3))})
    v = Env.from_poly(Fraction(-5, 7) * X2)
    J = EnvMatrix([[one + env_mul(u, v), u], [v, one]])
    res = invert_jacobian_bounded(J, 3, 6)
    assert res.status == "invertible" and res.box == (3, 6)
    assert res.V == EnvMatrix([[one, -u], [-v, one + env_mul(v, u)]])


def test_invert_searches_letters_of_coefficients():
    # x3 occurs only in a coefficient; the inverse [[1, -h(x1)], [-x3,
    # 1 + x3*h(x1)]] lies in the box (1, 1) over the letters x1..x3
    one, u, v = Env.one(), H1, Env.from_poly(Poly.generator(3))
    J = EnvMatrix([[one + env_mul(u, v), u], [v, one]])
    for bounds in ((1, 1), (3, 6)):
        res = invert_jacobian_bounded(J, *bounds)
        assert (res.status, res.box) == ("invertible", bounds)
        assert res.V == EnvMatrix([[one, -u], [-v, one + env_mul(v, u)]])


def test_invert_random_tame_maps():
    rng = random.Random(67)
    for _ in range(5):
        psi = rand_tame_automorphism(rng, 2)
        J = jacobian(psi)
        res = invert_jacobian_bounded(J, 3, 12)
        assert res.status == "invertible", psi.images
        assert mat_mul(res.V, J) == identity_matrix(2)
        assert mat_mul(J, res.V) == identity_matrix(2)


def test_invert_non_automorphism_is_unknown():
    J = jacobian(Endomorphism(2, [X1 * X1, X2]))
    res = invert_jacobian_bounded(J, 3, 6)
    assert res.status == "unknown"
    assert res.box == (3, 6)
    assert res.V is None
    with pytest.raises(ValueError):
        invert_jacobian_bounded(J, -1, 2)


def test_invert_shrinks_the_box_by_counting(monkeypatch):
    # the shrink counts the box in closed form; enumerating (3, 24) used to
    # exhaust the stack, and a bound far above the budget returns at once
    J = jacobian(Endomorphism(2, [X1 * X1, X2]))
    monkeypatch.setattr(depend, "BOX_BUDGET", 2000)
    res = invert_jacobian_bounded(J, 3, 24)
    assert (res.status, res.box) == ("unknown", (3, 4))
    monkeypatch.setattr(depend, "BOX_BUDGET", 100)
    res = invert_jacobian_bounded(J, 10**9, 10**9)
    assert (res.status, res.box) == ("unknown", (1, 2))
    # below the size of the box (0, 0) nothing is searched
    monkeypatch.setattr(depend, "BOX_BUDGET", 3)
    assert invert_jacobian_bounded(J, 3, 24) == ("unknown", None, None)


def two_sided_search(J, hb, cb, n_vars):
    """Exact solve of V*J = I and J*V = I with V confined to the box, as
    _search_box made it before it solved V*J = I alone: the reference for
    the left-only search.

    The unknown (a, b, w, m) is the coefficient of m * h_w in V[a][b]; its
    column holds m * (h_w * J[b][k]) at the rows ("L", a, k, word, mono)
    and (J[i][a] * m) * h_w at the rows ("R", i, b, word, mono).  The rows
    are tuples here, not the ColumnBuilder ints, and J is not scaled to
    integers; neither changes a solution (see linalg).
    """
    n = J.n
    words = depend.words_up_to(n_vars, hb)
    monos = depend.monomials_up_to(n_vars, cb)
    left = [[{w: env_mul(Env({w: Poly.one()}), u) for w in words} for u in row] for row in J.entries]
    right = {
        (i, a, m): env_mul(J.entries[i][a], Env.from_poly(Poly({m: 1})))
        for i in range(n)
        for a in range(n)
        for m in monos
    }
    solver = SparseSolver()
    for a in range(n):
        for b in range(n):
            for w in words:
                for m in monos:
                    col = {}
                    for k in range(n):
                        for word, p in left[b][k][w].terms.items():
                            for mono, c in (Poly({m: 1}) * p).terms.items():
                                col["L", a, k, word, mono] = c
                    for i in range(n):
                        for word, p in right[i, a, m].terms.items():
                            for mono, c in p.terms.items():
                                col["R", i, b, word + w, mono] = c
                    solver.add((a, b, w, m), col)
    combo = solver.solve({(side, i, i, (), ()): 1 for side in "LR" for i in range(n)})
    if combo is None:
        return None
    entries = [[Env.zero() for _ in range(n)] for _ in range(n)]
    for (a, b, w, m), c in combo.items():
        entries[a][b] = entries[a][b] + Env({w: Poly({m: c})})
    return EnvMatrix(entries)


def elementary_pair(rng):
    """E12(c1 h(x_i)) E21(c2 x_j), which has an h-term and an inverse in the box (1, 1)."""
    i, j = rng.randint(1, 2), rng.randint(1, 2)
    u = Env({(i,): Poly.constant(rand_scalar(rng))})
    v = Env.from_poly(rand_scalar(rng) * Poly.generator(j))
    return EnvMatrix([[Env.one() + env_mul(u, v), u], [v, Env.one()]])


def test_left_search_matches_the_two_sided_search(monkeypatch):
    rng = random.Random(71)
    pairs = [elementary_pair(rng) for _ in range(6)]
    one = Env.one()
    u = Env({(1,): Poly.constant(Fraction(2, 3))})
    v = Env.from_poly(Fraction(-5, 7) * X2)
    X3 = Poly.generator(3)
    cases = [(J, 2, 4) for J in pairs]
    cases += [(mat_mul(a, b), 2, 4) for a, b in zip(pairs[::2], pairs[1::2])]
    cases.append((EnvMatrix([[one + env_mul(u, v), u], [v, one]]), 2, 4))
    for images in ([X1 * X1, X2], [X1 * X1], [X1 + p_bracket(X2, X3), X2, X3], [X1, X2 * X3, X3]):
        cases += [(jacobian(Endomorphism(len(images), images)), hb, cb) for hb, cb in ((1, 1), (1, 2))]
    cases += [(EnvMatrix([[rand_env(rng, 2, 1, 1) for _ in range(n)] for _ in range(n)]), 1, 2) for n in (1, 2) * 5]
    searched = []

    def reference(*args):
        searched.append(args)
        return two_sided_search(*args)

    statuses = []
    for J, hb, cb in cases:
        got = invert_jacobian_bounded(J, hb, cb)
        with monkeypatch.context() as m:
            m.setattr(calculus, "_search_box", reference)
            want = invert_jacobian_bounded(J, hb, cb)
        assert got == want
        statuses.append(got.status)
    # every case reaches the box search, and both outcomes occur
    assert len(searched) == len(cases)
    assert statuses.count("invertible") >= 12 and statuses.count("unknown") >= 16


def test_a_wrong_left_inverse_raises(monkeypatch):
    J = jacobian(Endomorphism(2, [X1 * X1, X2]))
    monkeypatch.setattr(calculus, "_search_box", lambda *args: identity_matrix(2))
    with pytest.raises(AssertionError):
        invert_jacobian_bounded(J, 1, 1)


def test_a_left_inverse_that_is_not_right_is_unknown(monkeypatch):
    # on these inputs J*V = I holds, so the product J*V is made to miss I:
    # the V of either path, adjugate or box search, is then "unknown"
    product = calculus.mat_mul
    elementary = EnvMatrix([[Env.one() + env_mul(H1, Env.from_poly(X2)), H1], [Env.from_poly(X2), Env.one()]])
    for J in (jacobian(Endomorphism(2, [X1, X2 + X1 * X1])), elementary):
        assert invert_jacobian_bounded(J, 1, 1).status == "invertible"
        with monkeypatch.context() as m:
            m.setattr(calculus, "mat_mul", lambda a, b, J=J: J if a is J else product(a, b))
            assert invert_jacobian_bounded(J, 1, 1) == ("unknown", None, (1, 1))


def fed_pair(fed, cid):
    """The pair (column, {cid: 1}) of the unbuilt id cid among the runs
    (base, offsets, first id) fed to add_shifted."""
    ((base, off),) = [(base, offs[cid - first]) for base, offs, first in fed if first <= cid < first + len(offs)]
    return {r + off: c for r, c in base.entries}, {cid: 1}


def test_search_box_adds_every_column_after_a_kernel(monkeypatch):
    # J[1] = x1 * J[0], so (x1, -1) * J = 0: the column (1, w, m) depends
    # on (0, w, m*x1) while other columns of the same base do not, and
    # the solver must hold what adding every built column one at a time holds
    row = [Env.one() + H1, Env.from_poly(X2)]
    J = EnvMatrix([row, [Env.from_poly(X1) * u for u in row]])
    made = []

    class Recording(SparseSolver):
        def __init__(self):
            super().__init__()
            self.fed, self.kernels, self.held_at_kernel = [], [], []
            made.append(self)

        def add_shifted(self, base, offs, first):
            self.fed.append((base, offs, first))
            for kernel in super().add_shifted(base, offs, first):
                self.kernels.append((kernel, first + len(offs) - 1))
                self.held_at_kernel.append(len(self.pivots))
                yield kernel

    monkeypatch.setattr(linalg, "SparseSolver", Recording)
    assert calculus._search_box(J, 1, 2, 2) is None
    (solver,) = made
    reference, kernels = SparseSolver(), []
    for base, offs, first in solver.fed:
        for cid, off in enumerate(offs, first):
            kernel = reference.add(cid, {r + off: c for r, c in base.entries})
            if kernel is not None:
                kernels.append(kernel)
    assert [k for k, _ in solver.kernels] == kernels
    assert list(solver.pivots) == list(reference.pivots)
    for k, piv in solver.pivots.items():
        assert (fed_pair(solver.fed, piv) if type(piv) is int else piv) == reference.pivots[k]
    # the ids run on from base to base, a kernel arose before the last
    # column of its base, and columns added after the first kernel became
    # pivots
    assert [first for _, _, first in solver.fed] == [b * len(offs) for b, (_, offs, _) in enumerate(solver.fed)]
    assert any(max(kernel) != last for kernel, last in solver.kernels)
    assert len(solver.pivots) > solver.held_at_kernel[0]


def tuple_id_left_search(J, hb, cb, n_vars):
    """_search_box with its columns m * (h_w * J[b][k]), made by env_mul,
    unscaled and at the tuple rows (k, word, mono), fed one at a time to
    add with the ids (b, w, m): the reference for the int column ids."""
    n = J.n
    words, monos = depend.words_up_to(n_vars, hb), depend.monomials_up_to(n_vars, cb)
    solver = SparseSolver()
    for b in range(n):
        for w in words:
            products = [env_mul(Env({w: Poly.one()}), u) for u in J.entries[b]]
            for m in monos:
                col = {}
                for k, u in enumerate(products):
                    for word, p in u.terms.items():
                        col.update(((k, word, mono), c) for mono, c in (Poly({m: 1}) * p).terms.items())
                solver.add((b, w, m), col)
    entries = []
    for a in range(n):
        combo = solver.solve({(a, (), ()): 1})
        if combo is None:
            return None
        row = [Env.zero() for _ in range(n)]
        for (b, w, m), c in combo.items():
            row[b] = row[b] + Env({w: Poly({m: c})})
        entries.append(row)
    return EnvMatrix(entries)


def test_search_box_column_ids_decode_to_the_tuple_id_inverse():
    rng = random.Random(59)
    pairs = [elementary_pair(rng) for _ in range(8)]
    row = [Env.one() + H1, Env.from_poly(X2)]
    cases = pairs + [mat_mul(a, b) for a, b in zip(pairs[::2], pairs[1::2])]
    cases += [EnvMatrix([row, [Env.from_poly(X1) * u for u in row]]), jacobian(Endomorphism(2, [X1 * X1, X2]))]
    cases += [EnvMatrix([[rand_env(rng, 2, 1, 1) for _ in range(n)] for _ in range(n)]) for n in (1, 2) * 3]
    solved = last = 0
    words, monos = depend.words_up_to(2, 1), depend.monomials_up_to(2, 1)
    for J in cases:
        want = tuple_id_left_search(J, 1, 1, 2)
        assert calculus._search_box(J, 1, 1, 2) == want
        if want is not None:
            solved += 1
            # the last column of the last base, (n - 1, words[-1], monos[-1])
            last += any(monos[-1] in r[-1].terms.get(words[-1], Poly.zero()).terms for r in want.entries)
    assert solved >= 8 and last >= 1


def one_step_shrink(n, n_vars, hb, cb, budget):
    """The box shrinking of invert_jacobian_bounded one bound at a time,
    as it was before the bisection: the reference for _fit_box."""
    hb, cb = min(hb, budget), min(cb, budget)
    while True:
        if n * n * depend.box_size(n_vars, hb, cb, budget) <= budget:
            return hb, cb
        if cb > hb and cb > 0:
            cb -= 1
        elif hb > 0:
            hb -= 1
        else:
            return None


def test_fit_box_matches_the_one_step_shrink():
    # the box of `fpa jacobian -n 1 --invert --hdeg-bound 1000000000
    # --coeff-bound 1000000000 x1^2`, 399,108 steps one at a time
    assert _fit_box(1, 1, 10**9, 10**9, depend.BOX_BUDGET) == one_step_shrink(1, 1, 10**9, 10**9, depend.BOX_BUDGET)
    bounds = [0, 1, 2, 3, 5, 8, 13, 40, 10**9]
    fitted = 0
    for n, n_vars in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
        for budget in (0, 1, 4, 9, 50, 700, 2000):
            for hb in bounds:
                for cb in bounds:
                    want = one_step_shrink(n, n_vars, hb, cb, budget)
                    assert _fit_box(n, n_vars, hb, cb, budget) == want, (n, n_vars, hb, cb, budget)
                    fitted += want is not None and want != (hb, cb)
    assert fitted > 1000


def test_pair_status_free():
    ps = pair_status(X1, X2)
    assert ps.status == "free"
    assert ps.lam is None and ps.mu is None and ps.witness is None
    assert pair_status(X1 + X2, X1 * X2).status == "free"


def test_pair_status_dependent():
    ps = pair_status(X1, X1 * X1)
    assert ps.status == "dependent"
    assert ps.lam == 2 * X1
    assert ps.mu == Poly.one()
    assert ps.lam * ham(X1) == ps.mu * ham(X1 * X1)
    assert ps.witness is not None

    a = X1 + X2 * X2
    ps = pair_status(a, a * a)
    assert ps.status == "dependent"
    assert ps.lam == 2 * a and ps.mu == Poly.one()

    ps = pair_status(X1, X1)
    assert ps.status == "dependent"
    assert ps.lam == Poly.one() and ps.mu == Poly.one()

    with pytest.raises(ValueError):
        pair_status(Poly.zero(), X1)


def test_pair_status_on_lie_elements():
    rng = random.Random(89)
    for _ in range(20):
        f = Poly.from_lie(rand_lie(rng, 2, rng.randint(1, 3)))
        g = Poly.from_lie(rand_lie(rng, 2, rng.randint(1, 3)))
        if f.is_zero() or g.is_zero():
            continue
        ps = pair_status(f, g)
        if ps.status == "free":
            assert not p_bracket(f, g).is_zero()
        else:
            assert p_bracket(f, g).is_zero()
            assert ps.witness is not None
            assert ps.lam is not None and ps.lam * ham(f) == ps.mu * ham(g)


def test_pair_status_witness_in_k_a_is_polynomial():
    # Commuting f, g lie in one k[a], so ham(f) and ham(g) share the leading
    # word of ham(a), and the first reduction leaves a witness of h-degree 0;
    # a constant input gives a unit witness.  The decision procedure on the
    # two Hamiltonians is the reference: at most one step, the same witness.
    rng = random.Random(101)
    constant = bracket_words = 0
    for r in range(220):
        n = rng.randint(1, 3)
        a = rand_poly_nonzero(rng, n, rng.randint(1, 4), allow_constant=False)
        c = [rand_scalar(rng) for _ in range(6)]
        f = c[0] + c[1] * a + (c[2] * a * a if rng.random() < 0.5 else 0)
        g = c[3] + c[4] * a + c[5] * a * a
        if r % 10 == 0:
            f, g = (Poly.constant(c[0]), g) if r % 20 else (f, Poly.constant(c[3]))
        constant += f.is_constant() or g.is_constant()
        bracket_words += any(len(w) > 1 for w in a.variables())
        ps = pair_status(f, g)
        assert ps.status == "dependent"
        assert ps.lam is not None and ps.mu is not None
        assert ps.lam * ham(f) == ps.mu * ham(g)
        assert all(set(w.terms) <= {()} for w in ps.witness)
        ref = depend.decide_left_dependence([ham(f), ham(g)])
        assert len(ref.trace) <= 1 and ref.witness == ps.witness
    assert constant == 22 and bracket_words > 20
