import importlib
import importlib.util
import os
import random
import subprocess
import sys

import pytest

import freepoisson

# The public names and their order, as the package has always listed them.
PUBLIC = [
    "Scalar",
    "graded_lex_key",
    "mi_factorial",
    "mi_norm",
    "mi_swap",
    "Lie",
    "is_lyndon",
    "lie_bracket",
    "lyndon_basis",
    "Poly",
    "evaluate",
    "p_add",
    "p_bracket",
    "p_deg",
    "p_deg_var",
    "p_gcd",
    "p_mul",
    "Env",
    "env_mul",
    "ham",
    "hdeg",
    "ldc",
    "ldm",
    "ldt",
    "split",
    "top",
    "DependencyVerdict",
    "StepBudgetExceeded",
    "brute_force_dependence",
    "composition",
    "decide_left_dependence",
    "lambda_shift",
    "verify_witness",
    "Endomorphism",
    "EnvMatrix",
    "fox",
    "invert_jacobian_bounded",
    "jacobian",
    "pair_status",
    "PnEnv",
    "SPoly",
    "Weyl",
    "moyal",
    "pn_env_mul",
    "rho_w",
    "sp_bracket",
    "symmetrize",
    "theta_left",
    "theta_right",
    "weyl_mul",
    "DomainError",
    "ParseError",
    "parse",
    "parse_element",
    "render",
    "clear_caches",
]


def test_all_keeps_its_names_and_order():
    assert freepoisson.__all__ == PUBLIC


def test_every_public_name_resolves():
    star = {}
    exec("from freepoisson import *", star)
    listed = dir(freepoisson)
    for name in PUBLIC:
        value = getattr(freepoisson, name)
        assert star[name] is value, name
        assert name in listed, name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        freepoisson.no_such_name
    assert not hasattr(freepoisson, "Terms")  # core defines it, but it is not public
    with pytest.raises(ImportError):
        exec("from freepoisson import no_such_name", {})


def test_clear_caches_before_any_module_has_run():
    script = (
        "import sys, types\n"
        "import freepoisson\n"
        "lazy = [n for n, m in sys.modules.items() if n.startswith('freepoisson.') and type(m) is not types.ModuleType]\n"
        "assert 'freepoisson.freelie' in lazy and 'freepoisson.env' in lazy, lazy\n"
        "assert freepoisson.clear_caches() == {'bracket': 0}\n"
        "print(freepoisson.render(freepoisson.ham(freepoisson.Poly.generator(1))))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(freepoisson.__file__))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "h(x1)\n"), proc.stderr


_STATEFUL = ("core", "freelie", "poisson", "env", "depend", "linalg", "calculus", "symplectic", "syntax", "cli", "sampling")


def _module_tables():
    """Size of every module-level dict, list and set of the algebra modules."""
    sizes = {}
    for name in _STATEFUL:
        module = importlib.import_module(f"freepoisson.{name}")
        for attr, value in vars(module).items():
            if isinstance(value, (dict, list, set)) and not attr.startswith("__"):
                sizes[f"{name}.{attr}"] = len(value)
    return sizes


def test_only_the_bracket_table_outlives_a_call():
    # every table that lives longer than one call needs a bound; the
    # bracket table and sampling's monomial pools, lru_caches, are the
    # only such tables, and no module dict, list or set may grow
    from freepoisson import calculus, depend, freelie, poisson, sampling, symplectic
    from freepoisson.env import ham

    freepoisson.clear_caches()
    before = _module_tables()
    rng = random.Random(11)
    for _ in range(3):
        p, q = (sampling.rand_poly_nonzero(rng, 3, 4, terms=3) for _ in range(2))
        ham(p)
        poisson.p_bracket(p, q)
        for i in (1, 2, 3):
            calculus.fox(q, i)
    for n, elems, _ in depend.load_corpus()[:5]:
        depend.decide_left_dependence(elems)
        depend.brute_force_dependence(elems, 1, 1, n=n)
    X1, X2 = poisson.Poly.generator(1), poisson.Poly.generator(2)
    calculus.invert_jacobian_bounded(calculus.jacobian(calculus.Endomorphism(2, [X1 * X1, X2])), 2, 2)
    f, g = (sampling.rand_spoly(rng, 1, 3) for _ in range(2))
    symplectic.moyal(f, g)
    symplectic.pn_env_mul(symplectic.rho_w(f), symplectic.rho_w(g))
    symplectic.theta_left(symplectic.symmetrize(f))
    after = _module_tables()
    grown = sorted(name for name, size in after.items() if size != before.get(name, 0))
    assert grown == [], (before, after)
    info = freelie._basis_bracket.cache_info()
    assert 0 < info.currsize <= info.maxsize == freelie._BRACKET_TABLE_SIZE
    info = sampling._mono_pool.cache_info()
    assert 0 < info.currsize <= info.maxsize == sampling._MONO_POOL_COUNT


def _bench_spans():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # bench/spans.py wraps these by name; a deleted or renamed one would
    # break traced benchmark runs while the rest of the suite stays green
    for module, path in _bench_spans().TARGETS:
        obj = importlib.import_module(f"freepoisson.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), (module, path)


def test_decide_calls_p_gcd_through_the_module_once_per_step(monkeypatch):
    # the decide benchmark screens systems by replacing poisson.p_gcd
    from freepoisson import depend, poisson

    calls = []
    gcd = poisson.p_gcd

    def counted(a, b):
        calls.append(None)
        return gcd(a, b)

    monkeypatch.setattr(poisson, "p_gcd", counted)
    steps = 0
    for idx, (_, elems, _) in enumerate(depend.load_corpus()):
        calls.clear()
        verdict = depend.decide_left_dependence(elems)
        assert len(calls) == len(verdict.trace), idx
        steps += len(calls)
    assert steps > 0
