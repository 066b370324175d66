"""Exact computation in free Poisson algebras and their enveloping algebras.

The package works over the rationals throughout.  `Poly` is the free
Poisson algebra on a Lyndon-Shirshov monomial basis, `Env` its
enveloping algebra in canonical form, and the `depend` / `calculus`
modules build the left-dependence decision procedure, Fox derivatives
and bounded Jacobian inversion on top of them.  The `symplectic` module
covers the Weyl-algebra embeddings and the Moyal star product, and
`syntax` + `cli` expose everything through the `fpa` command.
"""

from . import env, freelie
from .core import Scalar, graded_lex_key, mi_factorial, mi_norm, mi_swap
from .depend import (
    DependencyVerdict,
    StepBudgetExceeded,
    brute_force_dependence,
    composition,
    decide_left_dependence,
    lambda_shift,
    verify_witness,
)
from .env import Env, env_mul, ham, hdeg, ldc, ldm, ldt, split, top
from .freelie import Lie, is_lyndon, lie_bracket, lyndon_basis
from .calculus import (
    Endomorphism,
    EnvMatrix,
    fox,
    invert_jacobian_bounded,
    jacobian,
    pair_status,
)
from .poisson import Poly, evaluate, p_add, p_bracket, p_deg, p_deg_var, p_gcd, p_mul
from .symplectic import (
    PnEnv,
    SPoly,
    Weyl,
    moyal,
    pn_env_mul,
    rho_w,
    sp_bracket,
    symmetrize,
    theta_left,
    theta_right,
    weyl_mul,
)
from .syntax import DomainError, ParseError, parse, parse_element, render


def clear_caches():
    """Empty the bracket cache of `freelie` and the ham cache of `env`.

    Both caches only grow, and results do not depend on them.  Returns
    their sizes before clearing, as {"bracket": int, "ham": int}.
    """
    sizes = {"bracket": len(freelie._BRACKET_CACHE), "ham": len(env._HAM_CACHE)}
    freelie._BRACKET_CACHE.clear()
    env._HAM_CACHE.clear()
    return sizes


__all__ = [
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

__version__ = "0.1.0"
