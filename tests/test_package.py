import importlib
import importlib.util
import os
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
        "assert freepoisson.clear_caches() == {'bracket': 0, 'ham': 0}\n"
        "print(freepoisson.render(freepoisson.ham(freepoisson.Poly.generator(1))))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(freepoisson.__file__))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "h(x1)\n"), proc.stderr


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
