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
