"""Command-line front end (installed as ``fpa``).

Exit codes: 0 success, 1 parse error, 2 domain error or failed check
suite, 3 undecided (step budget, bounded search or exponent limit
exhausted).
"""

import argparse
import itertools
import operator
import sys

from . import calculus, depend, env, symplectic, syntax
from .syntax import BudgetError, DomainError, ParseError, parse_element


def _dumps(obj):
    import json

    return json.dumps(obj, separators=(",", ":"))


def _emit(args, value):
    if args.format == "json":
        print(_dumps(syntax.to_json(value)))
    else:
        print(syntax.render(value))
    return 0


# The subcommands that parse their operands in one mode, apply one function
# and print the result, as (name, help, mode, operands, module, function).
# A mode of None is chosen by --mode; a function of None prints the one
# operand.  The function is read from its module by name on each call, so
# building the parser executes no module and a rebound attribute is seen.
_APPLY = (
    ("bracket", "evaluate a bracket expression", "poisson", ("expr",), None, None),
    ("mul", "multiply two elements", None, ("lhs", "rhs"), operator, "mul"),
    ("ham", "Hamiltonian of a bracket polynomial", "poisson", ("expr",), env, "ham"),
    ("moyal", "Moyal star product", "symplectic", ("f", "g"), symplectic, "moyal"),
    ("symmetrize", "symmetrization into the Weyl algebra", "symplectic", ("f",), symplectic, "symmetrize"),
    ("theta-left", "left Weyl embedding", "weyl", ("a",), symplectic, "theta_left"),
    ("theta-right", "right Weyl embedding", "weyl", ("a",), symplectic, "theta_right"),
    ("weyl-mul", "product in the Weyl algebra", "weyl", ("lhs", "rhs"), symplectic, "weyl_mul"),
)


def _cmd_apply(args):
    mode, operands, module, function = args.apply
    values = [parse_element(getattr(args, name), args.n, mode or args.mode) for name in operands]
    if function is not None:
        values = [getattr(module, function)(*values)]
    return _emit(args, values[0])


def _cmd_fox(args):
    p = parse_element(args.expr, args.n, "poisson")
    if not 1 <= args.index <= args.n:
        raise DomainError(f"variable index {args.index} out of range 1..{args.n}")
    return _emit(args, calculus.fox(p, args.index))


def _check_bounds(args):
    if args.hdeg_bound < 0 or args.coeff_bound < 0:
        raise DomainError("--hdeg-bound and --coeff-bound must be nonnegative")


def _matrix_out(args, mat):
    if args.format == "json":
        rows = [[syntax.to_json(e) for e in row] for row in mat.entries]
        print(_dumps({"rows": rows}))
    else:
        for row in mat.entries:
            print("[" + ", ".join(syntax.render(e) for e in row) + "]")
    return 0


def _cmd_jacobian(args):
    if len(args.images) != args.n:
        raise DomainError(f"expected {args.n} images, got {len(args.images)}")
    images = [parse_element(s, args.n, "poisson") for s in args.images]
    psi = calculus.Endomorphism(args.n, images)
    jac = calculus.jacobian(psi)
    if not args.invert:
        return _matrix_out(args, jac)
    _check_bounds(args)
    res = calculus.invert_jacobian_bounded(jac, args.hdeg_bound, args.coeff_bound)
    if res.status != "invertible":
        box = "hdeg {}, coefficient degree {}"
        msg = "no box fits the budget" if res.box is None else "searched " + box.format(*res.box)
        if res.box != (args.hdeg_bound, args.coeff_bound):
            msg += f" (requested {box.format(args.hdeg_bound, args.coeff_bound)})"
        print(f"inverse not found: {msg}", file=sys.stderr)
        return 3
    return _matrix_out(args, res.V)


def _cmd_depend(args):
    elems = [parse_element(s, args.n, "env") for s in args.elements]
    if args.oracle:
        _check_bounds(args)
        witness = depend.brute_force_dependence(
            elems, args.hdeg_bound, args.coeff_bound, n=args.n
        )
        if witness is None:
            obj = {
                "status": "no_witness",
                "hdeg_bound": args.hdeg_bound,
                "coeff_deg_bound": args.coeff_bound,
            }
        else:
            obj = {"status": "dependent", "witness": [syntax.render(w) for w in witness]}
        print(_dumps(obj))
        return 0
    verdict = depend.decide_left_dependence(elems, max_steps=args.max_steps)
    if verdict.status == "dependent":
        obj = {
            "status": "dependent",
            "witness": [syntax.render(w) for w in verdict.witness],
        }
    else:
        obj = {"status": "independent"}
    print(_dumps(obj))
    return 0


def _cmd_pair_status(args):
    f = parse_element(args.f, args.n, "poisson")
    g = parse_element(args.g, args.n, "poisson")
    if f.is_zero() or g.is_zero():
        raise DomainError("pair-status requires nonzero f and g")
    ps = calculus.pair_status(f, g)
    obj = {"status": ps.status}
    if ps.status == "dependent":
        obj["lambda"] = syntax.render(ps.lam)
        obj["mu"] = syntax.render(ps.mu)
    print(_dumps(obj))
    return 0


def _cmd_check(args):
    from . import checks

    names = args.suites or list(checks.REGISTRY)
    all_ok = True
    for name in names:
        result = checks.run_check(name, seed=args.seed)
        print(("ok   " if result.passed else "FAIL ") + f"{result.name}: {result.detail}")
        all_ok = all_ok and result.passed
    return 0 if all_ok else 2


def _build_parser():
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--format", choices=("text", "json"), default="text")
    base.add_argument("--seed", type=int, default=None)
    base.add_argument("--max-steps", type=int, default=100_000)
    common = argparse.ArgumentParser(add_help=False, parents=[base])
    common.add_argument("-n", type=int, required=True, help="number of x-variables")

    top = argparse.ArgumentParser(prog="fpa", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_apply(rows):
        for name, summary, mode, operands, module, function in rows:
            p = sub.add_parser(name, parents=[common], help=summary)
            if mode is None:
                p.add_argument("--mode", choices=("poisson", "env", "symplectic", "weyl"), default="env")
            for operand in operands:
                p.add_argument(operand)
            p.set_defaults(func=_cmd_apply, apply=(mode, operands, module, function))

    # help lists the subcommands in the order they are added here
    add_apply(_APPLY[:3])

    p = sub.add_parser("fox", parents=[common], help="partial derivative into the enveloping algebra")
    p.add_argument("expr")
    p.add_argument("index", type=int)
    p.set_defaults(func=_cmd_fox)

    p = sub.add_parser("jacobian", parents=[common], help="Jacobian matrix of an endomorphism")
    p.add_argument("images", nargs="+")
    p.add_argument("--invert", action="store_true")
    p.add_argument("--hdeg-bound", type=int, default=3)
    p.add_argument("--coeff-bound", type=int, default=6)
    p.set_defaults(func=_cmd_jacobian)

    p = sub.add_parser("depend", parents=[common], help="decide left dependence")
    p.add_argument("elements", nargs="+")
    p.add_argument("--oracle", action="store_true", help="bounded brute-force search")
    p.add_argument("--hdeg-bound", type=int, default=2)
    p.add_argument("--coeff-bound", type=int, default=2)
    p.set_defaults(func=_cmd_depend)

    p = sub.add_parser("pair-status", parents=[common], help="classify a pair as free or dependent")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_pair_status)

    add_apply(_APPLY[3:])

    p = sub.add_parser("check", parents=[base], help="run property suites")
    p.add_argument("-n", type=int, help="ignored: each suite draws its own n")
    p.add_argument("suites", nargs="*")
    p.set_defaults(func=_cmd_check)

    return top


def _is_option(tok, takes_value):
    """True iff tok is an option of the subcommand (and not an expression)."""
    if tok.startswith("--"):
        return True
    return tok in takes_value or takes_value.get(tok[:2], False)


def _expressions_last(parser, argv):
    """argv with the subcommand's positional arguments moved after "--".

    argparse takes an argument such as "-1/2*x1" or "-h(x1)" for an
    unknown option.  An argument of a subcommand that starts with a
    single "-" and is not one of its options is an expression; when one
    occurs before any "--", the options are put first and every
    positional argument, in order, after "--".  Other argument lists are
    returned unchanged.
    """
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    cmd = sub.choices.get(argv[0]) if argv else None
    if cmd is None:
        return argv
    takes_value = {s: a.nargs != 0 for a in cmd._actions for s in a.option_strings}
    long_opts = [s for s in takes_value if s.startswith("--")]
    options, positionals, dashed = [], [], False
    rest = iter(argv[1:])
    for tok in rest:
        if tok == "--":
            positionals.extend(rest)
        elif _is_option(tok, takes_value):
            options.append(tok)
            name = tok
            if tok.startswith("--") and tok not in takes_value:
                prefixed = [s for s in long_opts if s.startswith(tok)]
                name = prefixed[0] if len(prefixed) == 1 else tok
            if takes_value.get(name) and "=" not in tok:
                options.extend(itertools.islice(rest, 1))
        else:
            dashed = dashed or tok.startswith("-")
            positionals.append(tok)
    if not dashed:
        return argv
    return [argv[0]] + options + ["--"] + positionals


def _check_counts(args):
    if args.command != "check" and args.n < 1:
        raise DomainError(f"-n must be at least 1, got {args.n}")
    if args.max_steps < 0:
        raise DomainError(f"--max-steps must be nonnegative, got {args.max_steps}")


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(_expressions_last(parser, argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        _check_counts(args)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:  # depend's --max-steps, the oracle's box, an exponent limit
        print(f"undecided: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
