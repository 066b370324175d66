"""The four workloads: inputs made from a seed, their operations and checks.

`setup(name, seed)` builds one round: a fixed list of operations that a
run repeats, whole, until its time is up.  Each operation is one
computation a user asks for and carries its own check.  The inputs
depend only on the seed; the program receives nothing else.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import oracles
from freepoisson import calculus, depend, env, freelie, poisson, sampling, symplectic, syntax
from freepoisson.calculus import EnvMatrix
from freepoisson.env import Env
from freepoisson.freelie import Lie
from freepoisson.poisson import Poly

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# search: corpus systems drawn as one of each twin.  The twins of a pair
# have the same label and about the same oracle cost at (4, 6) (their pivot
# nonzeros differ by at most 6 %), so that every seed draws the same amount
# of work.  16 of the 71 systems without a zero element take part; the 5
# costliest (3.3 to 7.6 s each) do not.
SEARCH_TWINS = [
    ("dependent", (34, 0)),
    ("independent", (12, 11)),
    ("dependent", (8, 26)),
    ("independent", (14, 9)),
    ("independent", (47, 65)),
    ("dependent", (29, 39)),
    ("independent", (48, 49)),
    ("dependent", (37, 71)),
]
SEARCH_BOUNDS = (4, 6)
INVERT_BOUNDS = (3, 6)

# decide: random systems (n = 2, 2-3 elements, h-degree <= 3, coefficient
# degree <= 2).  A system is left out when a leading coefficient handed to
# p_gcd passes SCREEN_TERMS terms or when it needs more than SCREEN_STEPS
# reductions: rows are never reduced to their primitive parts, so such
# coefficients keep growing and one divexact call can run for minutes.
# The cost of a system grows with its number of reductions, so the round
# takes DECIDE_QUOTAS[s] systems that need s reductions (the last entry
# counting 6 or more).  Within one reduction count the cost still varies
# with coefficient size, so of at least twice the quota of candidates the
# round keeps those in the middle of the order by counted work (see
# `counted_work`).  Pairs built in k[a] are chosen the same way, per degree
# of a.  Every seed then decides about the same mix.
SCREEN_TERMS = 20
SCREEN_STEPS = 8
DECIDE_CANDIDATES = 240
DECIDE_QUOTAS = [4, 14, 12, 10, 6, 3, 2]
DECIDE_PAIRS_PER_DEGREE = 10
DECIDE_FREE_PAIRS = 10
INDEPENDENT_CHECK_BOUNDS = (1, 2)

# quantize: pairs per (n, degree) stratum, and n = 1 pairs f(x1), g(y1)
# whose Moyal product has a closed form.  The cost of a pair follows the
# term counts of rho_w(f) and rho_w(g), which vary tenfold between pairs of
# one stratum, so each stratum draws QUANTIZE_CANDIDATES pairs and keeps the
# QUANTIZE_PAIRS in the middle of the order by the product of those counts.
QUANTIZE_STRATA = [(n, d) for n in (1, 2) for d in range(2, 7)]
QUANTIZE_PAIRS = 8
QUANTIZE_CANDIDATES = 128
QUANTIZE_CLOSED = [2, 4, 6]


class Op:
    """One operation: `run()` computes, `check(output)` returns None or a reason."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


class Workload:
    def __init__(self, name, ops, in_process=True):
        self.name = name
        self.ops = ops
        self.in_process = in_process
        self.child_peak_kib = 0
        self.trace_dir = None  # set for a traced fpa run
        self.trace_calls = 0


def warm_caches(n, degree):
    """Fill the bracket cache for basis pairs and the ham cache for basis words."""
    words = freelie.lyndon_basis(n, degree)
    for u in words:
        for v in words:
            if len(u) + len(v) <= degree:
                freelie.lie_bracket(Lie({u: 1}), Lie({v: 1}))
    for w in words:
        env.ham(Poly.from_basis(w))


def probe_polys(rng, count=2):
    """Test polynomials for the action checks: degree <= 2, both variables."""
    out = []
    while len(out) < count:
        m = sampling.rand_poly_nonzero(rng, 2, 2, terms=2, allow_constant=False)
        if len(m.variables()) == 2:
            out.append(m)
    return out


def setup(name, seed):
    """The workload `name` with its round built from `seed`."""
    setups = {"search": setup_search, "decide": setup_decide, "quantize": setup_quantize, "fpa": setup_fpa}
    return setups[name](random.Random(seed))


# --- search ---------------------------------------------------------------


def _oracle_op(elems, n, label, tests):
    def run():
        return depend.brute_force_dependence(elems, *SEARCH_BOUNDS, n=n)

    def check(witness):
        if label == "independent":
            return None if witness is None else "witness found for an independent system"
        if witness is None:
            return "no witness for a dependent system"
        return oracles.check_witness(witness, elems, tests)

    return Op("brute_force_dependence", run, check)


def _invert_op(kind, make_jacobian, expected, tests):
    def run():
        return calculus.invert_jacobian_bounded(make_jacobian(), *INVERT_BOUNDS)

    def check(res):
        if expected is None:
            return None if res.status != "invertible" else "inverse reported for a non-invertible map"
        if res.status != "invertible":
            return f"status {res.status} for an invertible matrix"
        return oracles.check_inverse(make_jacobian(), res.V, expected, tests)

    return Op(kind, run, check)


def elementary_pair(rng):
    """J = E12(u) E21(v) over P^e and its inverse E21(-v) E12(-u).

    u = c1 h(x_i) and v = c2 x_j, so J has an h-term (no polynomial
    shortcut) and its inverse lies inside the box.
    """
    i, j = rng.randint(1, 2), rng.randint(1, 2)
    u = Env({(i,): Poly.constant(sampling.rand_scalar(rng))})
    v = Env({(): sampling.rand_scalar(rng) * Poly.generator(j)})
    one = Env.one()
    J = EnvMatrix([[one + env.env_mul(u, v), u], [v, one]])
    V = EnvMatrix([[one, -u], [-v, one + env.env_mul(v, u)]])
    return J, V


def setup_search(rng):
    corpus = depend.load_corpus()
    tests = probe_polys(rng)
    vec_tests = [[sampling.rand_poly_nonzero(rng, 2, 2, terms=2) for _ in range(2)] for _ in range(2)]
    ops = []
    for label, twins in SEARCH_TWINS:
        n, elems, expected = corpus[rng.choice(twins)]
        assert expected == label
        ops.append(_oracle_op(elems, n, label, tests))
    for _ in range(2):
        J, V = elementary_pair(rng)
        ops.append(_invert_op("invert_jacobian_bounded", lambda J=J: J, V, vec_tests))
    x1, x2 = Poly.generator(1), Poly.generator(2)
    square = calculus.Endomorphism(2, [x1 * x1, x2])
    ops.append(_invert_op("jacobian+invert", lambda: calculus.jacobian(square), None, vec_tests))
    rng.shuffle(ops)
    warm_caches(2, 8)
    return Workload("search", ops)


# --- decide ---------------------------------------------------------------


def counted_work(fn):
    """fn() and the coefficient products made by its Poly multiplications.

    A count of work that, unlike a time, is the same on every machine.
    """
    mul = Poly.__mul__
    count = [0]

    def counting(a, b):
        if isinstance(b, Poly):
            count[0] += len(a.terms) * len(b.terms)
        return mul(a, b)

    Poly.__mul__ = counting
    try:
        return fn(), count[0]
    finally:
        Poly.__mul__ = mul


def middle(cands, q):
    """The q candidates (work, item) in the middle of the order by work."""
    cands = sorted(cands, key=lambda c: c[0])
    lo = (len(cands) - q) // 2
    return [item for _, item in cands[lo : lo + q]]


class _Screened(Exception):
    pass


def _screen(elems):
    """(reductions, work) of deciding the system, or None when it is left out."""
    gcd = poisson.p_gcd

    def guarded(a, b):
        if len(a.terms) > SCREEN_TERMS or len(b.terms) > SCREEN_TERMS:
            raise _Screened
        return gcd(a, b)

    poisson.p_gcd = guarded
    try:
        verdict, work = counted_work(lambda: depend.decide_left_dependence(elems, max_steps=SCREEN_STEPS))
    except (_Screened, depend.StepBudgetExceeded):
        return None
    finally:
        poisson.p_gcd = gcd
    return len(verdict.trace), work


def random_systems(rng):
    """Screened seeded systems: DECIDE_QUOTAS[s] of them with s reductions."""
    buckets = [[] for _ in DECIDE_QUOTAS]
    drawn = 0
    while drawn < DECIDE_CANDIDATES or any(len(b) < 2 * q for b, q in zip(buckets, DECIDE_QUOTAS)):
        elems = [
            sampling.rand_env_nonzero(rng, 2, 3, 2, terms=rng.randint(1, 3))
            for _ in range(rng.randint(2, 3))
        ]
        drawn += 1
        got = _screen(elems)
        if got is not None:
            steps, work = got
            buckets[min(steps, len(buckets) - 1)].append((work, elems))
    return [elems for b, q in zip(buckets, DECIDE_QUOTAS) for elems in middle(b, q)]


def _decide_op(elems, n, label, tests):
    def run():
        return depend.decide_left_dependence(elems)

    def check(verdict):
        if label is not None and verdict.status != label:
            return f"verdict {verdict.status} against corpus label {label}"
        if verdict.status == "dependent":
            return oracles.check_witness(verdict.witness, elems, tests)
        return oracles.check_independent(verdict.final_words, elems, n, INDEPENDENT_CHECK_BOUNDS)

    return Op("decide_left_dependence", run, check)


def _pair_op(f, g, dependent, tests):
    def run():
        return calculus.pair_status(f, g)

    def check(ps):
        return oracles.check_pair(f, g, ps.status, ps.lam, ps.mu, tests, dependent)

    return Op("pair_status", run, check)


def k_a_pair(rng, degree):
    """f = c0 + c1 a and g = d0 + d1 a + d2 a^2 for a seeded a of the given
    degree with two terms: always a dependent pair."""
    pool = [m for m in depend.monomials_up_to(2, degree) if m]
    while True:
        a = sampling.rand_homogeneous_poly(rng, 2, degree, terms=1) + Poly(
            {rng.choice(pool): sampling.rand_scalar(rng)}
        )
        if len(a.terms) == 2:
            break
    c = [sampling.rand_scalar(rng) for _ in range(5)]
    return c[0] + c[1] * a, c[2] + c[3] * a + c[4] * (a * a)


def dependent_pairs(rng):
    """DECIDE_PAIRS_PER_DEGREE pairs in k[a] per degree of a, chosen by work."""
    out = []
    for degree in (1, 2, 3):
        cands = []
        for _ in range(2 * DECIDE_PAIRS_PER_DEGREE):
            f, g = k_a_pair(rng, degree)
            cands.append((counted_work(lambda: calculus.pair_status(f, g))[1], (f, g)))
        out += middle(cands, DECIDE_PAIRS_PER_DEGREE)
    return out


def free_pair(rng):
    while True:
        f = sampling.rand_poly_nonzero(rng, 2, 3, terms=rng.randint(1, 2))
        g = sampling.rand_poly_nonzero(rng, 2, 3, terms=rng.randint(1, 2))
        if not poisson.p_bracket(f, g).is_zero():
            return f, g


def setup_decide(rng):
    import sympy  # noqa: F401  (p_gcd imports it on first use)

    tests = probe_polys(rng)
    ops = [_decide_op(elems, n, label, tests) for n, elems, label in depend.load_corpus()]
    ops += [_decide_op(elems, 2, None, tests) for elems in random_systems(rng)]
    ops += [_pair_op(f, g, True, tests) for f, g in dependent_pairs(rng)]
    ops += [_pair_op(*free_pair(rng), False, tests) for _ in range(DECIDE_FREE_PAIRS)]
    rng.shuffle(ops)
    warm_caches(2, 8)
    return Workload("decide", ops)


# --- quantize -------------------------------------------------------------


def rand_spoly(rng, n, degree, terms=3, letters=None):
    """Seeded SPoly with one term of total degree exactly `degree`."""
    letters = list(range(2 * n)) if letters is None else letters
    out = {}
    for t in range(terms):
        e = [0] * (2 * n)
        for _ in range(degree if t == 0 else rng.randint(0, degree)):
            e[rng.choice(letters)] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + sampling.rand_scalar(rng)
    f = symplectic.SPoly(n, out)
    return f if not f.is_zero() else rand_spoly(rng, n, degree, terms, letters)


def weyl_tests(rng, n):
    """Polynomials in k[t_1..t_n] on which the Weyl action is compared."""
    out = [{(0,) * n: Fraction(1)}]
    for _ in range(2):
        p = {}
        for _ in range(3):
            e = tuple(rng.randint(0, 4) for _ in range(n))
            p[e] = sampling.rand_scalar(rng)
        out.append(p)
    return out


def _quantize_ops(f, g, tests):
    """The quantization chain on one pair; later steps use earlier outputs."""
    out = {}
    steps = [
        ("moyal", "moyal", lambda: symplectic.moyal(f, g)),
        ("rho_w_f", "rho_w", lambda: symplectic.rho_w(f)),
        ("rho_w_g", "rho_w", lambda: symplectic.rho_w(g)),
        ("symmetrize_f", "symmetrize", lambda: symplectic.symmetrize(f)),
        ("symmetrize_g", "symmetrize", lambda: symplectic.symmetrize(g)),
        ("theta_left", "theta_left", lambda: symplectic.theta_left(out["symmetrize_f"])),
        ("pn_env_mul", "pn_env_mul", lambda: symplectic.pn_env_mul(out["rho_w_f"], out["rho_w_g"])),
        ("weyl_mul", "weyl_mul", lambda: symplectic.weyl_mul(out["symmetrize_f"], out["symmetrize_g"])),
    ]
    ops = []
    for key, kind, fn in steps:

        def run(key=key, fn=fn):
            out[key] = fn()
            return out[key]

        ops.append(Op(kind, run, lambda _value: None))

    def check_chain(_value):
        return oracles.check_quantize(f, g, out, tests)

    ops[-1].check = check_chain
    return ops


def rho_w_terms(f):
    """Terms of rho_w(f), those of d^gamma f over all gamma: sum_e prod(e_i + 1)."""
    return sum(math.prod(k + 1 for k in e) for e in f.terms)


def setup_quantize(rng):
    import sympy  # noqa: F401  (symmetrize imports it on first use)

    pairs = []
    for n, d in QUANTIZE_STRATA:
        cands = [(rand_spoly(rng, n, d), rand_spoly(rng, n, d)) for _ in range(QUANTIZE_CANDIDATES)]
        pairs += middle([(rho_w_terms(f) * rho_w_terms(g), (f, g)) for f, g in cands], QUANTIZE_PAIRS)
    for d in QUANTIZE_CLOSED:
        pairs.append((rand_spoly(rng, 1, d, letters=[0]), rand_spoly(rng, 1, d, letters=[1])))
    rng.shuffle(pairs)
    ops = []
    for f, g in pairs:
        ops += _quantize_ops(f, g, weyl_tests(rng, f.n))
    return Workload("quantize", ops)


# --- fpa ------------------------------------------------------------------


def fmt_poly(terms, names):
    """Text of a commutative polynomial {exponents: Fraction} for the CLI."""
    parts = []
    for e, c in sorted(terms.items()):
        factors = [f"{v}^{k}" if k > 1 else v for v, k in zip(names, e) if k]
        parts.append("*".join([str(c)] + factors))
    return " + ".join(parts) if parts else "0"


def rand_cp(rng, n, degree, terms):
    """Seeded commutative polynomial with one term of total degree `degree`."""
    out = {}
    for t in range(terms):
        e = [0] * n
        for _ in range(degree if t == 0 else rng.randint(0, degree)):
            e[rng.randrange(n)] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + sampling.rand_scalar(rng)
    out = {e: c for e, c in out.items() if c}
    return out if out else rand_cp(rng, n, degree, terms)


def _matrix_rows(text, n):
    rows = []
    for line in text.strip().splitlines():
        if not (line.startswith("[") and line.endswith("]")):
            raise ValueError("matrix row not in brackets")
        rows.append([syntax.parse_element(s, n, "env") for s in line[1:-1].split(", ")])
    return rows


def _fpa_check(parse, expected):
    """Check of one CLI call: exit code 0 and the parsed output as expected."""

    def check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        try:
            value = parse(out)
        except Exception as exc:  # the output did not parse back
            return f"output does not parse: {exc!r}"
        return expected(value)

    return check


def _equals(want):
    return lambda value: None if value == want else "output differs from the expected value"


def fpa_cases(rng):
    """One call of each subcommand: (argv, parse, expected) with seeded inputs.

    "--" ends the options: without it argparse takes an expression that
    starts with "-" for an option and the call fails with a usage error.
    """
    xs = ["x1", "x2"]
    cases = []

    f, g = rand_cp(rng, 2, 3, 2), rand_cp(rng, 2, 3, 2)
    cases.append(
        (
            ["bracket", "-n", "2", "--", "{" + fmt_poly(f, xs) + ", " + fmt_poly(g, xs) + "}"],
            lambda out: syntax.parse_element(out.strip(), 2, "poisson"),
            _equals(oracles.cp_bracket(f, g)),
        )
    )
    f, g = rand_cp(rng, 2, 3, 3), rand_cp(rng, 2, 3, 3)
    cases.append(
        (
            ["mul", "-n", "2", "--mode", "poisson", "--", fmt_poly(f, xs), fmt_poly(g, xs)],
            lambda out: syntax.parse_element(out.strip(), 2, "poisson"),
            _equals(oracles.cp_to_poly(oracles.cp_mul(f, g))),
        )
    )
    f = rand_cp(rng, 2, 4, 3)
    cases.append(
        (
            ["ham", "-n", "2", "--", fmt_poly(f, xs)],
            lambda out: syntax.parse_element(out.strip(), 2, "env"),
            _equals(Env({(i + 1,): oracles.cp_to_poly(oracles.cp_diff(f, i)) for i in range(2)})),
        )
    )
    f, i = rand_cp(rng, 2, 4, 3), rng.randint(1, 2)
    cases.append(
        (
            ["fox", "-n", "2", "--", fmt_poly(f, xs), str(i)],
            lambda out: syntax.parse_element(out.strip(), 2, "env"),
            _equals(Env({(): oracles.cp_to_poly(oracles.cp_diff(f, i - 1))})),
        )
    )
    a, b, h = rand_cp(rng, 2, 2, 2), rand_cp(rng, 2, 2, 2), rng.randint(1, 2)
    system = [Env({(h,): oracles.cp_to_poly(p)}) for p in (a, b)]
    tests = probe_polys(rng)

    def depend_expected(obj):
        if obj.get("status") != "dependent":
            return f"status {obj.get('status')} for a dependent system"
        witness = [syntax.parse_element(w, 2, "env") for w in obj["witness"]]
        return oracles.check_witness(witness, system, tests)

    cases.append(
        (
            ["depend", "-n", "2", "--"] + [f"({fmt_poly(p, xs)})*h(x{h})" for p in (a, b)],
            json.loads,
            depend_expected,
        )
    )
    base = rand_cp(rng, 2, 2, 2)
    c1, c2 = sampling.rand_scalar(rng), sampling.rand_scalar(rng)
    f = base
    g = oracles.cp_add(oracles.cp_mul({(0, 0): c1}, base), oracles.cp_mul({(0, 0): c2}, oracles.cp_mul(base, base)))

    def pair_expected(obj, f=f, g=g):
        if obj.get("status") != "dependent" or "lambda" not in obj:
            return f"pair built in k[a] reported {obj}"
        lam = syntax.parse_element(obj["lambda"], 2, "poisson")
        mu = syntax.parse_element(obj["mu"], 2, "poisson")
        for i in range(2):
            if lam * oracles.cp_to_poly(oracles.cp_diff(f, i)) != mu * oracles.cp_to_poly(oracles.cp_diff(g, i)):
                return "lambda*ham(f) != mu*ham(g)"
        return None

    cases.append((["pair-status", "-n", "2", "--", fmt_poly(f, xs), fmt_poly(g, xs)], json.loads, pair_expected))
    c = rand_cp(rng, 1, 3, 3)
    dc = oracles.cp_to_poly(oracles.cp_diff(c, 0))
    cases.append(
        (
            ["jacobian", "-n", "2", "--invert", "--", "x1", "x2 + " + fmt_poly(c, ["x1"])],
            lambda out: _matrix_rows(out, 2),
            _equals([[Env.one(), Env.zero()], [Env.from_poly(-dc), Env.one()]]),
        )
    )
    f = symplectic.SPoly(1, {(e[0], 0): v for e, v in rand_cp(rng, 1, 4, 3).items()})
    g = symplectic.SPoly(1, {(0, e[0]): v for e, v in rand_cp(rng, 1, 4, 3).items()})
    fx = {(e[0],): v for e, v in f.terms.items()}
    gy = {(e[1],): v for e, v in g.terms.items()}
    cases.append(
        (
            ["moyal", "-n", "1", "--", fmt_poly(fx, ["x1"]), fmt_poly(gy, ["y1"])],
            lambda out: syntax.parse_element(out.strip(), 1, "symplectic"),
            _equals(oracles.moyal_closed_n1(f, g)),
        )
    )
    s = rand_cp(rng, 4, 4, 2)
    sp = symplectic.SPoly(2, s)
    cases.append(
        (
            ["symmetrize", "-n", "2", "--", fmt_poly(s, ["x1", "x2", "y1", "y2"])],
            lambda out: syntax.parse_element(out.strip(), 2, "weyl"),
            _equals(oracles.symmetrize_closed(sp)),
        )
    )
    u, v = rand_cp(rng, 4, 3, 2), rand_cp(rng, 4, 3, 2)
    wu = symplectic.Weyl(2, {(e[:2], e[2:]): c for e, c in u.items()})
    wv = symplectic.Weyl(2, {(e[:2], e[2:]): c for e, c in v.items()})
    wtests = weyl_tests(rng, 2)
    cases.append(
        (
            ["weyl-mul", "-n", "2", "--", fmt_poly(u, ["x1", "x2", "y1", "y2"]), fmt_poly(v, ["x1", "x2", "y1", "y2"])],
            lambda out: syntax.parse_element(out.strip(), 2, "weyl"),
            lambda w: oracles.check_weyl_product(w, wu, wv, wtests),
        )
    )
    return cases


def run_child(argv, env_vars):
    """Run one process to its end: (exit code, stdout, its peak RSS in KiB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env_vars)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), usage.ru_maxrss


def setup_fpa(rng):
    src = os.path.dirname(os.path.dirname(os.path.abspath(syntax.__file__)))
    env_vars = dict(os.environ, PYTHONPATH=src)
    workload = Workload("fpa", [], in_process=False)

    def make_run(args):
        def run():
            if workload.trace_dir is None:
                argv = [sys.executable, "-m", "freepoisson.cli"] + args
            else:
                workload.trace_calls += 1
                trace_file = os.path.join(workload.trace_dir, f"child-{workload.trace_calls}.json")
                child = os.path.join(BENCH_DIR, "fpa_child.py")
                argv = [sys.executable, child, trace_file, repr(time.perf_counter())] + args
            code, out, peak = run_child(argv, env_vars)
            workload.child_peak_kib = max(workload.child_peak_kib, peak)
            return code, out

        return run

    for args, parse, expected in fpa_cases(rng):
        workload.ops.append(Op(args[0], make_run(args), _fpa_check(parse, expected)))
    rng.shuffle(workload.ops)
    return workload
