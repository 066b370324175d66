"""Fuzz tests drawn by hypothesis: parse(render(v)) == v in all four
modes, for drawn elements and for the products made of them, and
`cli.run` on drawn argv (grammar-drawn expressions, arbitrary text and
any option of any subcommand), which must end in a documented exit code
(0, 1, 2 or 3) without raising."""

import contextlib
import io
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from freepoisson import sampling  # noqa: E402
from freepoisson.cli import run  # noqa: E402
from freepoisson.env import env_mul  # noqa: E402
from freepoisson.poisson import p_bracket  # noqa: E402
from freepoisson.symplectic import SPoly, Weyl, moyal, weyl_mul  # noqa: E402
from freepoisson.syntax import parse_element, render  # noqa: E402

SCALARS = st.fractions(min_value=-50, max_value=50, max_denominator=30)


def _terms(keys):
    return st.dictionaries(keys, SCALARS, max_size=4)


def _exponents(length):
    return st.tuples(*[st.integers(0, 4)] * length)


@st.composite
def pairs(draw):
    n = draw(st.integers(1, 2))
    f, g = (SPoly(n, draw(_terms(_exponents(2 * n)))) for _ in range(2))
    u, v = (Weyl(n, draw(_terms(st.tuples(_exponents(n), _exponents(n))))) for _ in range(2))
    return n, f, g, u, v


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(pairs())
def test_render_then_parse_is_the_identity(drawn):
    n, f, g, u, v = drawn
    for value, mode in [(f, "symplectic"), (moyal(f, g), "symplectic"), (u, "weyl"), (weyl_mul(u, v), "weyl")]:
        assert parse_element(render(value), n, mode) == value


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_render_then_parse_is_the_identity_in_poisson_and_env_modes(n, seed):
    rng = random.Random(seed)
    p, q = (sampling.rand_poly(rng, n, 3, terms=rng.randint(0, 3)) for _ in range(2))
    u, v = (sampling.rand_env(rng, n, 2, 2, terms=rng.randint(0, 3)) for _ in range(2))
    for value, mode in [(p, "poisson"), (p * q, "poisson"), (p_bracket(p, q), "poisson"), (u, "env"), (env_mul(u, v), "env")]:
        assert parse_element(render(value), n, mode) == value


# --- cli.run on drawn argv -------------------------------------------------

# Exponents stay at most 3, groups nest at most 2 deep and the total degree
# of an expression stays at most DEGREE: nested powers of sums have no work
# bound yet, so larger draws can run for minutes.
DEGREE = 6
NUMBERS = st.sampled_from(["0", "1", "2", "3", "1/2", "-2/3", "5/7"])


@st.composite
def expressions(draw, mode, n, depth=2, budget=DEGREE):
    """(text, degree bound) of a well-formed expression of the mode, with
    variable indices up to n."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors, left = [], budget
        for _ in range(draw(st.integers(1, 2))):
            text, deg = draw(_atoms(mode, n, depth, left))
            top = min(3, left // deg) if deg else 3
            k = draw(st.integers(1, top))
            if k > 1:
                text, deg = f"{text}^{k}", deg * k
            factors.append(text)
            left -= deg
        terms.append(("*".join(factors), budget - left))
    signs = draw(st.lists(st.sampled_from([" + ", " - "]), min_size=len(terms), max_size=len(terms)))
    text = terms[0][0] if signs[0] == " + " else "-" + terms[0][0]
    text += "".join(s + t for s, (t, _) in zip(signs[1:], terms[1:]))
    return text, max(d for _, d in terms)


@st.composite
def _atoms(draw, mode, n, depth, budget):
    kinds = ["num"] + ["var"] * (budget >= 1)
    if depth:
        kinds += ["group"] + ["bracket"] * (mode != "weyl" and budget >= 2) + ["h"] * (mode == "env")
    kind = draw(st.sampled_from(kinds))
    if kind == "num":
        return draw(NUMBERS), 0
    if kind == "var":
        letter = draw(st.sampled_from("xy" if mode in ("symplectic", "weyl") else "x"))
        return f"{letter}{draw(st.integers(1, n))}", 1
    if kind == "bracket":
        a, da = draw(expressions(mode, n, depth - 1, budget // 2))
        b, db = draw(expressions(mode, n, depth - 1, budget // 2))
        return draw(st.sampled_from(["{%s, %s}", "[%s,%s]"])) % (a, b), da + db
    text, deg = draw(expressions(mode, n, depth - 1, budget))
    return (f"({text})" if kind == "group" else f"h({text})"), deg


MODES = {
    "bracket": ["poisson"],
    "ham": ["poisson"],
    "fox": ["poisson"],
    "pair-status": ["poisson", "poisson"],
    "depend": ["env", "env"],
    "moyal": ["symplectic", "symplectic"],
    "symmetrize": ["symplectic"],
    "theta-left": ["weyl"],
    "theta-right": ["weyl"],
    "weyl-mul": ["weyl", "weyl"],
}


# Every option of fpa with a few values each, the bounds small enough that
# a search stays short.  Drawn on any subcommand, whether it takes the
# option or not.
OPTIONS = {
    "-n": ["-1", "0", "1", "2", "x1"],
    "--format": ["text", "json", "xml"],
    "--mode": ["poisson", "env", "symplectic", "weyl"],
    "--max-steps": ["-1", "0", "3"],
    "--seed": ["0", "7"],
    "--hdeg-bound": ["-1", "0", "1"],
    "--coeff-bound": ["-1", "0", "1"],
    "--invert": [],
    "--oracle": [],
}
# the grammar's characters, digits that are not ASCII, and any other character
TEXT = st.text(st.sampled_from("0123456789xyh+-*/^(){}[], ") | st.sampled_from("\u00b2\u00b3\u0661\u0663") | st.characters(), max_size=8)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(MODES) + ["mul", "jacobian", "check"]))
    # one call in three has one or two options drawn from OPTIONS
    extra = []
    if draw(st.integers(0, 2)) == 0:
        for option in draw(st.lists(st.sampled_from(sorted(OPTIONS)), min_size=1, max_size=2)):
            values = OPTIONS[option]
            extra += [option, draw(st.sampled_from(values))] if values else [option]
    if command == "check":
        return [command] + extra + draw(st.lists(st.sampled_from(["graded-top", "weyl-relations", "no-such-suite"]), min_size=1, max_size=2))
    # one call in ten has -n 0 or variable indices up to n + 1
    n, k = draw(st.sampled_from([(1, 1), (2, 2)] * 9 + [(0, 1), (1, 2)]))
    argv = [command] + extra + ["-n", str(n)]
    if command not in ("depend", "pair-status") and draw(st.booleans()):
        argv += ["--format", "json"]
    if command == "mul":
        mode = draw(st.sampled_from(["poisson", "env", "symplectic", "weyl"]))
        argv += ["--mode", mode]
        modes = [mode, mode]
    elif command == "jacobian":
        argv += ["--invert"] * draw(st.booleans()) + ["--hdeg-bound", "1", "--coeff-bound", "1"]
        modes = ["poisson"] * draw(st.sampled_from([k] * 9 + [k + 1]))
    else:
        modes = MODES[command]
    if command == "depend":
        argv += ["--max-steps", "3"] + ["--oracle"] * draw(st.booleans()) + ["--hdeg-bound", "1", "--coeff-bound", "1"]
    # one operand in three is arbitrary text
    argv += [draw(TEXT) if draw(st.integers(0, 2)) == 0 else draw(expressions(mode, k))[0] for mode in modes]
    if command == "fox":
        argv.append(str(draw(st.integers(0, k + 1))))
    return argv


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(argvs())
def test_cli_run_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
