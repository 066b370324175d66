"""Exact computation in free Poisson algebras and their enveloping algebras.

The package works over the rationals throughout.  `Poly` is the free
Poisson algebra on a Lyndon-Shirshov monomial basis, `Env` its
enveloping algebra in canonical form, and the `depend` / `calculus`
modules build the left-dependence decision procedure, Fox derivatives
and bounded Jacobian inversion on top of them.  The `symplectic` module
covers the Weyl-algebra embeddings and the Moyal star product, and
`syntax` + `cli` expose everything through the `fpa` command.

The submodules below are registered with `importlib.util.LazyLoader`:
each is in `sys.modules` and in this namespace from the start, and its
body runs when one of its attributes is first read.  A public name
resolves through its module the same way, so an `fpa` call executes
only the modules its subcommand uses.
"""

import importlib.util
import sys

# Public names by defining module, in the order of __all__.
_EXPORTS = {
    "core": ("Scalar", "graded_lex_key", "mi_factorial", "mi_norm", "mi_swap"),
    "freelie": ("Lie", "is_lyndon", "lie_bracket", "lyndon_basis"),
    "poisson": ("Poly", "evaluate", "p_add", "p_bracket", "p_deg", "p_deg_var", "p_gcd", "p_mul"),
    "env": ("Env", "env_mul", "ham", "hdeg", "ldc", "ldm", "ldt", "split", "top"),
    "depend": (
        "DependencyVerdict",
        "StepBudgetExceeded",
        "brute_force_dependence",
        "composition",
        "decide_left_dependence",
        "lambda_shift",
        "verify_witness",
    ),
    "calculus": ("Endomorphism", "EnvMatrix", "fox", "invert_jacobian_bounded", "jacobian", "pair_status"),
    "symplectic": (
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
    ),
    "syntax": ("DomainError", "ParseError", "parse", "parse_element", "render"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def _register_lazily(modules):
    for module in modules:
        spec = importlib.util.find_spec(f"{__name__}.{module}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        lazy = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = lazy
        spec.loader.exec_module(lazy)
        globals()[module] = lazy


_register_lazily((*_EXPORTS, "linalg"))

from . import freelie  # noqa: E402  (the lazy modules registered above)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})


def clear_caches():
    """Empty the bracket table of `freelie`, the one (bounded) table of the
    algebra that lives across calls (`sampling` keeps bounded monomial
    pools for the test generators).  Results do not depend on it.
    Returns its size before clearing, as {"bracket": int}.
    """
    sizes = {"bracket": freelie._basis_bracket.cache_info().currsize}
    freelie._basis_bracket.cache_clear()
    return sizes


__all__ = [*_HOME, "clear_caches"]

__version__ = "0.1.0"
