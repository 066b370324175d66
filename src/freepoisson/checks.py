"""Named property suites, shared by ``fpa check`` and the test suite.

REGISTRY names each suite and its default seed, in the order ``fpa
check`` runs them.  A suite is a function (rng, fail) -> detail: it draws
its elements from rng, so a given seed always examines the same
elements, calls fail(text) for each property that does not hold and
returns what it examined.  run_check gives a CheckResult instead of
raising, which lets the CLI print one line per suite and the tests
assert on .passed.
"""

import contextlib
import io
import itertools
import random
from fractions import Fraction
from typing import NamedTuple

from . import calculus, depend, sampling, syntax
from .core import accumulate, graded_lex_key, mi_factorial, mi_norm, mi_swap
from .env import (
    Env,
    commutator,
    env_mul,
    graded_mul,
    ham,
    hdeg,
    ldc,
    ldm,
    top,
    word_right_divides,
)
from .poisson import Poly, p_bracket, p_deg
from .symplectic import (
    PnEnv,
    SPoly,
    Weyl,
    moyal,
    pn_commutator,
    pn_env_mul,
    rho_w,
    symmetrize,
    theta_left,
    theta_right,
    weyl_mul,
)
from .syntax import DomainError


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def check_poisson_axioms(rng, fail):
    for t in range(500):
        n = rng.randint(1, 3)
        da = rng.randint(1, 5)
        db = rng.randint(1, min(5, max(1, 8 - da)))
        dc = rng.randint(1, min(5, max(1, 10 - da - db)))
        a = sampling.rand_poly(rng, n, da)
        b = sampling.rand_poly(rng, n, db)
        c = sampling.rand_poly(rng, n, dc)
        if p_bracket(a, b * c) != p_bracket(a, b) * c + b * p_bracket(a, c):
            fail(f"Leibniz at triple {t}")
        jac = (
            p_bracket(a, p_bracket(b, c))
            + p_bracket(b, p_bracket(c, a))
            + p_bracket(c, p_bracket(a, b))
        )
        if not jac.is_zero():
            fail(f"Jacobi at triple {t}")
    nonzero = 0
    for t in range(200):
        n = rng.randint(1, 3)
        df, dg = rng.randint(1, 4), rng.randint(1, 4)
        f = sampling.rand_homogeneous_poly(rng, n, df)
        g = sampling.rand_homogeneous_poly(rng, n, dg)
        br = p_bracket(f, g)
        if not br.is_zero():
            nonzero += 1
            if p_deg(br) != df + dg:
                fail(f"degree additivity at pair {t}")
    return f"500 triples, 200 homogeneous pairs ({nonzero} nonzero brackets)"


def check_env_canonical(rng, fail):
    for t in range(300):
        n = rng.randint(1, 3)
        u, v, w = (
            sampling.rand_env(
                rng, n, rng.randint(0, 3), rng.randint(0, 3), terms=rng.randint(1, 2)
            )
            for _ in range(3)
        )
        if env_mul(env_mul(u, v), w) != env_mul(u, env_mul(v, w)):
            fail(f"associativity at triple {t}")
    for t in range(300):
        n = rng.randint(1, 3)
        p = sampling.rand_poly(rng, n, rng.randint(1, 3))
        q = sampling.rand_poly(rng, n, rng.randint(1, 3))
        if ham(p * q) != q * ham(p) + p * ham(q):
            fail(f"derivation at pair {t}")
        if ham(p_bracket(p, q)) != commutator(ham(p), ham(q)):
            fail(f"bracket morphism at pair {t}")
    return "300 associativity triples, 300 ham pairs"


def check_leading_terms(rng, fail):
    for t in range(300):
        n = rng.randint(1, 3)
        u = sampling.rand_env_nonzero(rng, n, 2, 2, terms=rng.randint(1, 2))
        v = sampling.rand_env_nonzero(rng, n, 2, 2, terms=rng.randint(1, 2))
        uv = env_mul(u, v)
        if uv.is_zero():
            fail(f"zero divisor at pair {t}")
            continue
        if ldm(uv) != ldm(u) + ldm(v):
            fail(f"ldm at pair {t}")
        if ldc(uv) != ldc(u) * ldc(v):
            fail(f"ldc at pair {t}")
        if hdeg(uv) != hdeg(u) + hdeg(v):
            fail(f"hdeg at pair {t}")
    return "300 nonzero pairs"


def check_graded_top(rng, fail):
    for t in range(200):
        n = rng.randint(1, 3)
        u = sampling.rand_env_nonzero(rng, n, 2, 2, terms=rng.randint(1, 2))
        v = sampling.rand_env_nonzero(rng, n, 2, 2, terms=rng.randint(1, 2))
        if top(env_mul(u, v)) != graded_mul(top(u), top(v)):
            fail(f"top at pair {t}")
    return "200 nonzero pairs"


def check_lambda_shift(rng, fail):
    for t in range(200):
        n = rng.randint(1, 3)
        lam = sampling.rand_poly_nonzero(rng, n, rng.randint(0, 2))
        u = sampling.rand_env_nonzero(rng, n, 3, 2, terms=rng.randint(1, 2))
        m = hdeg(u)
        v = depend.lambda_shift(lam, u)
        if lam ** (m + 1) * u != env_mul(v, Env.from_poly(lam)):
            fail(f"shift identity at pair {t}")
    return "200 pairs, hdeg <= 3"


def check_dependence_corpus(_rng, fail):
    systems = depend.load_corpus()
    if len(systems) < 60:
        fail(f"corpus too small: {len(systems)}")
    n_dep = n_indep = 0
    for idx, (n, elems, expected) in enumerate(systems):
        verdict = depend.decide_left_dependence(elems)
        if verdict.status == "dependent":
            n_dep += 1
            if not depend.verify_witness(verdict.witness, elems):
                fail(f"bad witness at system {idx}")
        else:
            n_indep += 1
            for a, b in itertools.combinations(verdict.final_words, 2):
                if word_right_divides(a, b) or word_right_divides(b, a):
                    fail(f"comparable final words at system {idx}")
        witness = depend.brute_force_dependence(elems, 4, 6, n=n)
        if (witness is not None) != (verdict.status == "dependent"):
            fail(f"oracle disagreement at system {idx}")
        if expected is not None and verdict.status != expected:
            fail(f"label mismatch at system {idx}")
    return f"{len(systems)} systems ({n_dep} dependent, {n_indep} independent), oracle bounds (4, 6)"


def check_pair_classifier(rng, fail):
    for t in range(50):
        a = sampling.rand_poly_nonzero(
            rng, 2, 3, terms=rng.randint(1, 2), allow_constant=False
        )
        cs = [
            [sampling.rand_scalar(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(3)]
            for _ in range(2)
        ]
        for row in cs:
            if row[1] == 0 and row[2] == 0:
                row[1] = Fraction(1)
        f = Poly.constant(cs[0][0]) + cs[0][1] * a + cs[0][2] * (a * a)
        g = Poly.constant(cs[1][0]) + cs[1][1] * a + cs[1][2] * (a * a)
        ps = calculus.pair_status(f, g)
        if ps.status != "dependent":
            fail(f"k[a] pair {t} not dependent")
        elif ps.lam is None:
            fail(f"k[a] pair {t} has no scalar relation")
        elif ps.lam * ham(f) != ps.mu * ham(g):
            fail(f"k[a] pair {t} relation fails")
    checked = 0
    while checked < 50:
        f = sampling.rand_poly_nonzero(rng, 2, 3, terms=rng.randint(1, 2))
        g = sampling.rand_poly_nonzero(rng, 2, 3, terms=rng.randint(1, 2))
        if p_bracket(f, g).is_zero():
            continue
        checked += 1
        ps = calculus.pair_status(f, g)
        if ps.status != "free":
            fail(f"free pair {checked} misclassified")
        verdict = depend.decide_left_dependence([ham(f), ham(g)])
        if verdict.status != "independent":
            fail(f"free pair {checked} hams not independent")
    return "50 dependent + 50 free pairs"


def check_jacobian_inversion(rng, fail):
    ident = calculus.identity_matrix(2)
    for t in range(30):
        psi = sampling.rand_tame_automorphism(rng)
        jac = calculus.jacobian(psi)
        res = calculus.invert_jacobian_bounded(jac, 3, 12)
        if res.status != "invertible":
            fail(f"tame map {t} not inverted")
            continue
        if calculus.mat_mul(res.V, jac) != ident or calculus.mat_mul(jac, res.V) != ident:
            fail(f"tame map {t} inverse not two-sided")
    bad = calculus.Endomorphism(2, [Poly.generator(1) ** 2, Poly.generator(2)])
    res = calculus.invert_jacobian_bounded(calculus.jacobian(bad), 3, 6)
    if res.status != "unknown" or res.box != (3, 6):
        fail("square example not unknown at the full box")
    return "30 tame maps at bounds (3, 12) + 1 unknown"


def theta_by_letters(a, sign):
    """Image of a under X_i -> x_i + sign*h_{x_i}/2, Y_i -> y_i + sign*h_{y_i}/2,
    each normal-order monomial multiplied out letter by letter with
    pn_env_mul, in reverse order for sign -1: the reference for theta_left
    (sign 1) and theta_right (sign -1)."""
    n = a.n
    half = Fraction(sign, 2)
    im_x = [PnEnv.from_poly(SPoly.x(n, i)) + half * PnEnv.h_x(n, i) for i in range(1, n + 1)]
    im_y = [PnEnv.from_poly(SPoly.y(n, i)) + half * PnEnv.h_y(n, i) for i in range(1, n + 1)]
    out = PnEnv.zero(n)
    for (al, be), c in a.terms.items():
        letters = [im_x[i] for i in range(n) for _ in range(al[i])] + [im_y[i] for i in range(n) for _ in range(be[i])]
        prod = PnEnv.one(n) * c
        for im in letters[::sign]:
            prod = pn_env_mul(prod, im)
        out = out + prod
    return out


def _commutation(fail, n, sides, kinds):
    """Check canonical commutation relations in P_n^e.  Each side (prefix,
    xs, ys, c) gives images xs[i], ys[i] of X_{i+1}, Y_{i+1}; each kind PQ
    of kinds ("XY", "XX" or "YY") asks that [P_{i+1}, Q_{j+1}] be c at
    i == j for XY and 0 otherwise.  Runs over (i, j), then the sides, then
    the kinds, in order, and fails with "<prefix>[Pi,Qj] (n=n)"."""
    for i, j in itertools.product(range(len(sides[0][1])), repeat=2):
        for prefix, xs, ys, c in sides:
            images = {"X": xs, "Y": ys}
            for p, q in kinds:
                expected = c if p + q == "XY" and i == j else 0
                if pn_commutator(images[p][i], images[q][j]) != expected:
                    fail(f"{prefix}[{p}{i + 1},{q}{j + 1}] (n={n})")


def check_weyl_embedding(rng, fail):
    for n in (1, 2):
        xs, ys = [Weyl.X(n, i) for i in range(1, n + 1)], [Weyl.Y(n, i) for i in range(1, n + 1)]
        sides = [
            ("left ", [theta_left(a) for a in xs], [theta_left(a) for a in ys], 1),
            ("right ", [theta_right(a) for a in xs], [theta_right(a) for a in ys], -1),
        ]
        _commutation(fail, n, sides, ("XY", "XX", "YY"))
    for t in range(100):
        n = rng.randint(1, 2)
        a = sampling.rand_weyl_monomial(rng, n, 3)
        b = sampling.rand_weyl_monomial(rng, n, 3)
        left, right = theta_left(a), theta_right(b)
        if pn_env_mul(left, right) != pn_env_mul(right, left):
            fail(f"left/right images fail to commute at pair {t}")
    for t in range(100):
        n = rng.randint(1, 2)
        a = sampling.rand_weyl(rng, n, 4, terms=rng.randint(1, 3))
        if theta_left(a) != theta_by_letters(a, 1) or theta_right(a) != theta_by_letters(a, -1):
            fail(f"closed forms against the letter-by-letter products at element {t}")
    return "commutator identities (n=1,2) + 100 monomial pairs + 100 elements by letters"


def symmetrize_by_permutations(f):
    """The average of all letter orderings of each monomial, multiplied
    out in the Weyl algebra: the reference for `symmetrize`."""
    n = f.n
    gens = [Weyl.X(n, i) for i in range(1, n + 1)] + [Weyl.Y(n, i) for i in range(1, n + 1)]
    out = Weyl.zero(n)
    for e, c in f.terms.items():
        perms = set(itertools.permutations([var for var, k in enumerate(e) for _ in range(k)]))
        for perm in perms:
            prod = Weyl.one(n)
            for var in perm:
                prod = weyl_mul(prod, gens[var])
            out = out + c / len(perms) * prod
    return out


def _sub_indices(gamma):
    return itertools.product(*(range(g + 1) for g in gamma))


def rho_w_by_derivatives(f):
    """The derivative series sum over gamma of d^gamma(f) h^gamma /
    (gamma! 2^|gamma|): the reference for `rho_w`."""
    gammas = _sub_indices(f.max_exponents())
    return PnEnv(f.n, {g: f.derive_multi(g) * Fraction(1, mi_factorial(g) * 2 ** mi_norm(g)) for g in gammas})


def moyal_by_derivatives(f, g):
    """The derivative series sum over alpha of (-1)^|alpha_y| d^alpha(f)
    d^(alpha*)(g) / (alpha! 2^|alpha|), alpha* being alpha with its x and y
    halves swapped: the reference for `moyal`."""
    n = f.n
    out = SPoly.zero(n)
    for a in _sub_indices(f.max_exponents()):
        out = out + Fraction((-1) ** mi_norm(a[n:]), mi_factorial(a) * 2 ** mi_norm(a)) * f.derive_multi(a) * g.derive_multi(mi_swap(a))
    return out


def check_symmetrization(rng, fail):
    for t in range(200):
        n = rng.randint(1, 2)
        f = sampling.rand_spoly(rng, n, 4, terms=rng.randint(1, 3))
        w = symmetrize(f)
        if w != symmetrize_by_permutations(f):
            fail(f"closed form against the permutation average at element {t}")
        if not rho_w(f) == theta_left(w) == rho_w_by_derivatives(f):
            fail(f"factorization at element {t}")
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    expected = PnEnv(
        1,
        {
            (0, 0): SPoly(1, {(1, 1): 1}),
            (1, 0): SPoly(1, {(0, 1): half}),
            (0, 1): SPoly(1, {(1, 0): half}),
            (1, 1): SPoly(1, {(0, 0): quarter}),
        },
    )
    if rho_w(SPoly(1, {(1, 1): 1})) != expected:
        fail("worked value rho_w(x1*y1)")
    return "200 elements + worked value"


def check_h_commutation(rng, fail):
    gammas = {n: sampling.multi_indices(2 * n, 3) for n in (1, 2)}
    for t in range(100):
        n = rng.randint(1, 2)
        f = sampling.rand_spoly(rng, n, 4, terms=rng.randint(1, 3))
        fe = PnEnv.from_poly(f)
        for gamma in gammas[n]:
            scale = Fraction(1, mi_factorial(gamma))
            lhs = pn_env_mul(PnEnv(n, {gamma: SPoly.constant(n, scale)}), fe)
            terms = {}
            for alpha in _sub_indices(gamma):
                beta = tuple(g - a for g, a in zip(gamma, alpha))
                coeff = Fraction((-1) ** mi_norm(alpha[n:]), mi_factorial(alpha) * mi_factorial(beta))
                accumulate(terms, [(beta, coeff * f.derive_multi(mi_swap(alpha)))])
            if lhs != PnEnv(n, terms):
                fail(f"gamma {gamma} at element {t}")
    return "all |gamma| <= 3 against 100 elements (n <= 2)"


def check_moyal(rng, fail):
    for t in range(200):
        n = rng.randint(1, 2)
        f = sampling.rand_spoly(rng, n, 4, terms=rng.randint(1, 2))
        g = sampling.rand_spoly(rng, n, 4, terms=rng.randint(1, 2))
        m = moyal(f, g)
        if m != moyal_by_derivatives(f, g):
            fail(f"derivative series at pair {t}")
        prod = pn_env_mul(rho_w(f), rho_w(g))
        if prod.p_part() != m:
            fail(f"constant term at pair {t}")
        if prod != rho_w(m):
            fail(f"product transport at pair {t}")
    for t in range(100):
        n = rng.randint(1, 2)
        f, g, h = (sampling.rand_spoly(rng, n, 3, terms=rng.randint(1, 2)) for _ in range(3))
        if moyal(moyal(f, g), h) != moyal(f, moyal(g, h)):
            fail(f"associativity at triple {t}")
    x1, y1 = SPoly.x(1, 1), SPoly.y(1, 1)
    if moyal(x1, y1) - moyal(y1, x1) != SPoly.one(1):
        fail("canonical commutation value")
    return "200 transport pairs, 100 associativity triples"


def check_weyl_relations(_rng, fail):
    for n in (1, 2):
        zx = [PnEnv.from_poly(SPoly.x(n, i)) for i in range(1, n + 1)]
        zx += [PnEnv.from_poly(SPoly.y(n, i)) for i in range(1, n + 1)]
        zy = [PnEnv.h_y(n, i) for i in range(1, n + 1)]
        zy += [-PnEnv.h_x(n, i) for i in range(1, n + 1)]
        _commutation(fail, n, [("", zx, zy, 1)], ("XX", "YY", "XY"))
    return "defining relations for n = 1, 2"


def check_last_letter(rng, fail):
    n = 3
    nontrivial = 0
    for t in range(100):
        p = Poly.zero()
        while p.is_zero():
            d = rng.randint(2, 5)
            p = Poly.from_lie(sampling.rand_lie(rng, n, d, terms=rng.randint(1, 2)))
        parts = {i: calculus.fox(p, i) for i in range(1, n + 1)}
        total = Env.zero()
        for i, part in parts.items():
            total = total + env_mul(part, Env({(i,): Poly.one()}))
        if total != ham(p):
            fail(f"decomposition at element {t}")
        fn = parts[n]
        if fn.is_zero():
            continue
        nontrivial += 1
        key_n = graded_lex_key(ldm(fn))
        if not any(
            not parts[i].is_zero() and graded_lex_key(ldm(parts[i])) > key_n
            for i in range(1, n)
        ):
            fail(f"no dominating part at element {t}")
    return f"100 Lie elements (n=3), {nontrivial} with an x3 part"


def _run_cli(argv):
    from . import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def check_cli_roundtrip(rng, fail):
    for t in range(200):
        n = rng.randint(1, 3)
        p = sampling.rand_poly(rng, n, 4, terms=rng.randint(1, 3))
        if syntax.parse_element(syntax.render(p), n, "poisson") != p:
            fail(f"poisson round-trip at {t}")
        u = sampling.rand_env(rng, n, 2, 2, terms=rng.randint(1, 2))
        if syntax.parse_element(syntax.render(u), n, "env") != u:
            fail(f"env round-trip at {t}")
        m = rng.randint(1, 2)
        f = sampling.rand_spoly(rng, m, 4, terms=rng.randint(1, 3))
        if syntax.parse_element(syntax.render(f), m, "symplectic") != f:
            fail(f"symplectic round-trip at {t}")
        a = sampling.rand_weyl(rng, m, 3, terms=rng.randint(1, 3))
        if syntax.parse_element(syntax.render(a), m, "weyl") != a:
            fail(f"weyl round-trip at {t}")
    documented = [
        (["bracket", "-n", "3", "{x1, x2*x3}"], "[x1,x2]*x3 + x2*[x1,x3]\n"),
        (["moyal", "-n", "1", "x1", "y1"], "x1*y1 + 1/2\n"),
        (
            ["depend", "-n", "2", "h(x1)", "x1*h(x1)"],
            '{"status":"dependent","witness":["x1","-1"]}\n',
        ),
    ]
    for argv, expected in documented:
        code, out, _ = _run_cli(argv)
        if code != 0 or out != expected:
            fail(f"documented output for {argv[0]}")
    cases = [
        (["bracket", "-n", "2", "{x1,"], 1),
        (["bracket", "-n", "2", "x5"], 2),
        (["depend", "-n", "2", "h(x1)", "x1*h(x1)", "--max-steps", "0"], 3),
    ]
    for argv, want in cases:
        code, out, _ = _run_cli(argv)
        if code != want:
            fail(f"exit code for {argv}")
        if want == 3 and out:
            fail("undecided run wrote to stdout")
    return "200 round-trips per type + documented invocations"


REGISTRY = {
    "poisson-axioms": (check_poisson_axioms, 101),
    "env-canonical": (check_env_canonical, 202),
    "leading-terms": (check_leading_terms, 303),
    "graded-top": (check_graded_top, 404),
    "lambda-shift": (check_lambda_shift, 505),
    "dependence-corpus": (check_dependence_corpus, None),
    "pair-classifier": (check_pair_classifier, 707),
    "jacobian-inversion": (check_jacobian_inversion, 808),
    "weyl-embedding": (check_weyl_embedding, 909),
    "symmetrization": (check_symmetrization, 1010),
    "h-commutation": (check_h_commutation, 1111),
    "moyal": (check_moyal, 1212),
    "weyl-relations": (check_weyl_relations, None),
    "last-letter": (check_last_letter, 1414),
    "cli-roundtrip": (check_cli_roundtrip, 1515),
}


def run_check(name, seed=None):
    """Run the suite `name` at `seed`, or at its default seed when None."""
    if name not in REGISTRY:
        raise DomainError(f"unknown check suite: {name}")
    suite, default_seed = REGISTRY[name]
    failures = []
    detail = suite(random.Random(default_seed if seed is None else seed), failures.append)
    if failures:
        detail += f"; first failure: {failures[0]}"
    return CheckResult(name, not failures, detail)
