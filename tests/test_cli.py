import argparse
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import freepoisson
from freepoisson.cli import _build_parser, run


SRC = os.path.dirname(os.path.dirname(freepoisson.__file__))
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def fresh(*args, **kwargs):
    """Run `python ARGS` in a new process that imports freepoisson from SRC."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, **kwargs)


def cap(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.jsonl")


def golden_cases(first_per_command=False):
    """The recorded calls of the golden transcript, or the first of each subcommand."""
    with open(GOLDEN) as fh:
        cases = [json.loads(line) for line in fh if line.strip()]
    if not first_per_command:
        return cases
    firsts = {}
    for case in cases:
        firsts.setdefault(case["argv"][0], case)
    return list(firsts.values())


def test_bracket():
    assert cap(["bracket", "-n", "3", "{x1, x2*x3}"]) == (
        0,
        "[x1,x2]*x3 + x2*[x1,x3]\n",
        "",
    )
    assert cap(["bracket", "-n", "2", "{x1,x1}"]) == (0, "0\n", "")


def test_mul_modes():
    assert cap(["mul", "-n", "2", "h(x1)", "x2"]) == (0, "x2*h(x1) + [x1,x2]\n", "")
    assert cap(["mul", "-n", "2", "--mode", "poisson", "x1+x2", "x1-x2"])[1] == (
        "-1*x2^2 + x1^2\n"
    )
    assert cap(["mul", "-n", "1", "--mode", "symplectic", "x1*y1", "x1"]) == (
        0,
        "x1^2*y1\n",
        "",
    )
    assert cap(["mul", "-n", "1", "--mode", "weyl", "y1", "x1"]) == (
        0,
        "x1*y1 - 1\n",
        "",
    )


def test_ham_and_fox():
    assert cap(["ham", "-n", "2", "x1*x2"]) == (0, "x1*h(x2) + x2*h(x1)\n", "")
    assert cap(["fox", "-n", "2", "{x1,x2}", "1"]) == (0, "-1*h(x2)\n", "")
    assert cap(["fox", "-n", "2", "{x1,x2}", "2"]) == (0, "h(x1)\n", "")
    # index out of range is a domain error
    code, out, err = cap(["fox", "-n", "2", "x1", "3"])
    assert code == 2 and out == "" and err


def test_jacobian():
    assert cap(["jacobian", "-n", "2", "x1", "x2 + x1^2"]) == (
        0,
        "[1, 0]\n[2*x1, 1]\n",
        "",
    )
    assert cap(["jacobian", "-n", "2", "--invert", "x1", "x2 + x1^2"]) == (
        0,
        "[1, 0]\n[-2*x1, 1]\n",
        "",
    )
    code, out, err = cap(["jacobian", "-n", "2", "--invert", "x1^2", "x2"])
    assert code == 3 and out == ""
    assert "inverse not found" in err
    # image count must match n
    code, out, err = cap(["jacobian", "-n", "2", "x1"])
    assert code == 2 and out == ""


def test_jacobian_invert_names_the_box_it_searched():
    # (3, 24) in two letters is over the unknown budget, so the search
    # runs in the smaller box (3, 10); the default (3, 6) fits as asked
    code, out, err = cap(["jacobian", "-n", "2", "--invert", "--coeff-bound", "24", "x1^2", "x2"])
    assert (code, out) == (3, "")
    assert "searched hdeg 3, coefficient degree 10" in err and "requested hdeg 3, coefficient degree 24" in err
    code, out, err = cap(["jacobian", "-n", "2", "--invert", "x1^2", "x2"])
    assert (code, out) == (3, "")
    assert "searched hdeg 3, coefficient degree 6" in err and "requested" not in err


def test_depend():
    assert cap(["depend", "-n", "1", "h(x1)", "x1*h(x1)"]) == (
        0,
        '{"status":"dependent","witness":["x1","-1"]}\n',
        "",
    )
    assert cap(["depend", "-n", "2", "h(x1)", "h(x2)"]) == (
        0,
        '{"status":"independent"}\n',
        "",
    )
    code, out, err = cap(["depend", "-n", "1", "--max-steps", "0", "h(x1)", "x1*h(x1)"])
    assert code == 3 and out == "" and err


def test_depend_oracle():
    assert cap(["depend", "-n", "1", "--oracle", "h(x1)", "x1*h(x1)"]) == (
        0,
        '{"status":"dependent","witness":["-1*x1","1"]}\n',
        "",
    )
    assert cap(["depend", "-n", "2", "--oracle", "h(x1)", "h(x2)"]) == (
        0,
        '{"status":"no_witness","hdeg_bound":2,"coeff_deg_bound":2}\n',
        "",
    )


def test_pair_status():
    assert cap(["pair-status", "-n", "1", "x1", "x1^2"]) == (
        0,
        '{"status":"dependent","lambda":"2*x1","mu":"1"}\n',
        "",
    )
    assert cap(["pair-status", "-n", "2", "x1", "x2"]) == (0, '{"status":"free"}\n', "")
    # one reduction step decides a commuting pair, so it takes no step budget
    code, out, err = cap(["pair-status", "-n", "1", "--max-steps", "0", "x1", "x1^2"])
    assert (code, out) == (2, "") and "unrecognized arguments: --max-steps" in err
    assert "Traceback" not in err


def test_quantization_commands():
    assert cap(["moyal", "-n", "1", "x1", "y1"]) == (0, "x1*y1 + 1/2\n", "")
    assert cap(["symmetrize", "-n", "1", "x1*y1"]) == (0, "x1*y1 - 1/2\n", "")
    assert cap(["theta-left", "-n", "1", "x1"]) == (0, "x1 + 1/2*h(x1)\n", "")
    assert cap(["theta-right", "-n", "1", "x1"]) == (0, "x1 - 1/2*h(x1)\n", "")
    assert cap(["weyl-mul", "-n", "1", "y1", "x1"]) == (0, "x1*y1 - 1\n", "")


def test_json_format():
    code, out, err = cap(["bracket", "-n", "2", "--format", "json", "{x1,x2}"])
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "terms": [{"coeff": "1", "pmono": [{"basis": "[x1,x2]", "exp": 1}]}]
    }
    code, out, _ = cap(["ham", "-n", "1", "--format", "json", "x1^2"])
    assert json.loads(out) == {
        "terms": [
            {"coeff": "2", "pmono": [{"basis": "x1", "exp": 1}], "hword": [1]}
        ]
    }


def test_exit_codes():
    # parse error
    code, out, err = cap(["bracket", "-n", "2", "{x1,"])
    assert code == 1 and out == "" and err
    code, out, err = cap(["bracket", "-n", "1", "x1^\u00b2"])  # a digit, but not ASCII
    assert (code, out) == (1, "") and err == "parse error: unexpected character '\u00b2' (line 1, col 4)\n"
    # domain error
    code, out, err = cap(["bracket", "-n", "2", "x5"])
    assert code == 2 and out == "" and err
    # argparse usage errors
    assert cap(["bracket", "x1"])[0] == 2  # missing -n
    assert cap([])[0] == 2
    assert cap(["frobnicate", "-n", "2", "x1"])[0] == 2


def test_out_of_range_inputs_are_domain_errors():
    for argv in (
        ["depend", "-n", "2", "--oracle", "--hdeg-bound", "-1", "h(x1)"],
        ["jacobian", "-n", "2", "--invert", "--hdeg-bound", "-1", "x1", "x2+x1*[x1,x2]"],
        ["pair-status", "-n", "2", "0", "x1"],
        ["moyal", "-n", "-1", "1", "1"],
        ["weyl-mul", "-n", "-2", "1", "1"],
        ["symmetrize", "-n", "-1", "1"],
        ["mul", "-n", "0", "1", "1"],
        ["depend", "-n", "1", "--max-steps", "-1", "h(x1)", "x1*h(x1)"],
        ["depend", "-n", "1", "--max-steps", "-1", "--oracle", "h(x1)", "x1*h(x1)"],
    ):
        code, out, err = cap(argv)
        assert code == 2 and out == "", argv
        assert err.startswith("domain error:") and "Traceback" not in err, argv
    # pair-status takes no --max-steps at all: a usage error
    code, out, err = cap(["pair-status", "-n", "1", "--max-steps", "-1", "x1", "x1^2"])
    assert (code, out) == (2, "") and err.startswith("usage:") and "Traceback" not in err


def test_expressions_starting_with_minus():
    want = cap(["weyl-mul", "-n", "2", "--", "1/2*y1", "-1/2*x1*x2*y2"])
    assert want[0] == 0 and want[1]
    assert cap(["weyl-mul", "-n", "2", "1/2*y1", "-1/2*x1*x2*y2"]) == want
    assert cap(["bracket", "-n", "2", "-x1"]) == (0, "-1*x1\n", "")
    assert cap(["depend", "-n", "1", "-h(x1)", "x1*h(x1)"]) == cap(
        ["depend", "-n", "1", "--", "-h(x1)", "x1*h(x1)"]
    )
    # options keep their values, wherever they stand
    assert cap(["fox", "-x1*x2", "-n", "2", "2"]) == (0, "-1*x1\n", "")
    assert cap(["jacobian", "-n2", "x1", "-x2", "--invert"]) == (0, "[1, 0]\n[0, -1]\n", "")
    assert cap(["bracket", "-n", "2", "-h"])[0] == 0  # -h alone is still help


def test_deep_nesting_is_a_parse_error():
    code, out, err = cap(["mul", "-n", "2", "(" * 1000 + "x1" + ")" * 1000, "x2"])
    assert code == 1 and out == "" and err.startswith("parse error: expression nested")
    assert cap(["bracket", "-n", "2", "(" * 100 + "x1" + ")" * 100]) == (0, "x1\n", "")
    assert cap(["bracket", "-n", "2", "--", "-" * 101 + "x1"])[0] == 1
    assert cap(["bracket", "-n", "2", "+".join(["x1"] * 3000)]) == (0, "3000*x1\n", "")


def test_commands_do_not_import_sympy():
    script = (
        "import sys\n"
        "from freepoisson.cli import run\n"
        "for argv in sys.argv[1:]:\n"
        "    assert run(argv.split()) == 0, argv\n"
        "assert 'sympy' not in sys.modules\n"
    )
    argvs = [
        "depend -n 2 x1*h(x1) x1*x2*h(x1)+x2",
        "pair-status -n 2 x1+x2 x1^2+2*x1*x2+x2^2",
        "symmetrize -n 2 x1^2*y1*y2",
    ]
    proc = fresh("-c", script, *argvs)
    assert proc.returncode == 0, proc.stderr


# What a subcommand must leave unexecuted: the submodules are registered
# lazily, so a module counts as executed only once its type is no longer
# the lazy one.  `vars()` or any attribute read would execute it.
UNUSED_BY = {
    "bracket": {"env", "linalg", "depend", "calculus", "symplectic"},
    "moyal": {"env", "linalg", "depend", "calculus"},
    "symmetrize": {"env", "linalg", "depend", "calculus"},
    "weyl-mul": {"env", "linalg", "depend", "calculus"},
    "depend": {"calculus", "symplectic"},
    "fox": {"depend", "linalg", "symplectic"},
    "jacobian": {"depend", "linalg", "symplectic"},
}


@pytest.mark.parametrize("argv", [c["argv"] for c in golden_cases(first_per_command=True)], ids=lambda a: a[0])
def test_commands_execute_only_the_modules_they_use(argv):
    script = (
        "import sys, types\n"
        "from freepoisson.cli import run\n"
        "code = run(sys.argv[1:])\n"
        "print(' '.join(name for name, mod in sys.modules.items() if type(mod) is types.ModuleType))\n"
        "sys.exit(code)\n"
    )
    proc = fresh("-c", script, *argv)
    assert proc.returncode == 0, proc.stderr
    executed = set(proc.stdout.splitlines()[-1].split())
    assert "freepoisson.syntax" in executed
    unused = {"freepoisson." + m for m in UNUSED_BY.get(argv[0], ())}
    if argv[0] != "check":
        unused |= {"dataclasses", "inspect"}
    assert not unused & executed


def test_tracer_finds_every_traced_module_after_importing_the_cli():
    # bench/spans.py wraps only the freepoisson modules in sys.modules and
    # reads freepoisson.depend from there: a lazily registered module must
    # be present after `import freepoisson.cli`, and install executes it
    script = (
        "import sys\n"
        "import freepoisson.cli\n"
        "present = set(sys.modules)\n"
        f"sys.path.insert(0, {BENCH!r})\n"
        "import spans\n"
        "missing = sorted({'freepoisson.' + m for m, _ in spans.TARGETS} - present)\n"
        "assert not missing, missing\n"
        "tracer = spans.Tracer()\n"
        "spans.install(tracer)\n"
        "tracer.active = True\n"
        "assert freepoisson.cli.run(['depend', '-n', '1', 'h(x1)', 'x1*h(x1)']) == 0\n"
        "totals = tracer.layer_totals()\n"
        "assert totals['cli.run.calls'] == 1 and totals['depend.decide_left_dependence.calls'] == 1, totals\n"
        "assert totals['depend.reduction_steps'] > 0, totals\n"
    )
    proc = fresh("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_check_command():
    code, out, err = cap(["check", "graded-top"])
    assert code == 0
    assert out.startswith("ok   graded-top:")
    code, out, err = cap(["check", "no-such-suite"])
    assert code == 2 and err
    # each suite draws its own n, so check takes no -n
    code, out, err = cap(["check", "-n", "2", "graded-top"])
    assert (code, out) == (2, "") and err.startswith("usage:") and "Traceback" not in err


# The options each subcommand takes (besides -h); every other option of
# fpa is a usage error there.
FORMATTED = {"--format", "-n"}
OPTIONS = {
    "bracket": FORMATTED,
    "mul": FORMATTED | {"--mode"},
    "ham": FORMATTED,
    "fox": FORMATTED,
    "jacobian": FORMATTED | {"--invert", "--hdeg-bound", "--coeff-bound"},
    "depend": {"--max-steps", "-n", "--oracle", "--hdeg-bound", "--coeff-bound"},
    "pair-status": {"-n"},
    "moyal": FORMATTED,
    "symmetrize": FORMATTED,
    "theta-left": FORMATTED,
    "theta-right": FORMATTED,
    "weyl-mul": FORMATTED,
    "check": {"--seed"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(OPTIONS)
    for name, parser in sub.choices.items():
        taken = {s for a in parser._actions for s in a.option_strings[-1:] if s != "--help"}
        assert taken == OPTIONS[name], name
    value = {"--format": "json", "--mode": "env", "--seed": "1"}
    for name in OPTIONS:
        for option in sorted(set().union(*OPTIONS.values()) - OPTIONS[name]):
            argv = [name, option, value.get(option, "1")] + ["-n", "1"] * (name != "check") + ["x1"]
            code, out, err = cap(argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("usage:") and "Traceback" not in err, argv


def test_installed_entry_point():
    exe = shutil.which("fpa")
    if exe is None:
        pytest.skip("fpa is not on PATH")
    proc = subprocess.run(
        [exe, "bracket", "-n", "2", "{x1,x2}"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == "[x1,x2]\n"


def test_golden_transcript():
    # stdout and exit code of a fixed set of calls covering every
    # subcommand, recorded once; output must stay byte-identical
    cases = golden_cases()
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {c["argv"][0] for c in cases} == set(sub.choices)
    for case in cases:
        code, out, _ = cap(case["argv"])
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help recorded with the argparse of Python 3.11")
def test_help_texts(monkeypatch):
    # `fpa --help` and `fpa CMD --help` for all 13 subcommands at 80
    # columns, recorded once; the parser must print them byte for byte.
    # argparse words help differently in other versions (3.10 heads the
    # options "optional arguments:")
    monkeypatch.setenv("COLUMNS", "80")
    with open(os.path.join(os.path.dirname(__file__), "data", "cli_help.jsonl")) as fh:
        cases = [json.loads(line) for line in fh if line.strip()]
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert [c["argv"] for c in cases] == [["--help"]] + [[cmd, "--help"] for cmd in sub.choices]
    for case in cases:
        assert cap(case["argv"]) == (case["exit"], case["stdout"], ""), case["argv"]


@pytest.mark.parametrize("case", golden_cases(first_per_command=True), ids=lambda c: c["argv"][0])
def test_golden_transcript_in_a_fresh_process(case):
    # this session has executed every module by now; a new process starts
    # with all of them unexecuted, as each fpa call does
    proc = fresh("-m", "freepoisson.cli", *case["argv"])
    assert (proc.returncode, proc.stdout) == (case["exit"], case["stdout"]), proc.stderr


def test_identity_jacobian_of_twelve_variables_is_inverted_at_once():
    # a cofactor expansion that also expanded the minors of zero entries
    # would take factorial time here
    names = [f"x{i}" for i in range(1, 13)]
    proc = fresh("-m", "freepoisson.cli", "jacobian", "-n", "12", "--invert", *names, timeout=10)
    rows = ["[" + ", ".join("1" if i == j else "0" for j in range(12)) + "]" for i in range(12)]
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n".join(rows) + "\n", "")


def test_oracle_over_budget_is_undecided():
    # --coeff-bound 13 used to end in a RecursionError while enumerating
    code, out, err = cap(["depend", "-n", "2", "--oracle", "--coeff-bound", "13", "h(x1)", "x2"])
    assert (code, out) == (3, "")
    assert err.startswith("undecided:") and "Traceback" not in err


def test_long_h_words_do_not_exhaust_the_stack():
    code, out, err = cap(["mul", "-n", "1", "*".join(["h(x1)"] * 1500), "x1"])
    assert code == 0 and "Traceback" not in err
    assert out == "x1*" + "*".join(["h(x1)"] * 1500) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "-n", "2", "x1^99999999999", "x2"],
        ["bracket", "-n", "2", "x1^99999999999*x2"],
        ["mul", "-n", "1", "--mode", "weyl", "y1^99999999999", "x1^99999999999"],
    ],
)
def test_exponents_above_the_limit_are_undecided(argv):
    script = "import sys\nfrom freepoisson.cli import run\nsys.exit(run(sys.argv[1:]))\n"
    proc = fresh("-c", script, *argv, timeout=2)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("undecided: exponent") and "Traceback" not in proc.stderr


def test_exponent_limit():
    from freepoisson.syntax import MAX_EXPONENT

    corpus = os.path.join(os.path.dirname(freepoisson.__file__), "data", "depend_corpus.jsonl")
    with open(corpus) as fh:
        assert max(int(e) for e in re.findall(r"\^(\d+)", fh.read())) <= MAX_EXPONENT
    assert cap(["bracket", "-n", "1", f"x1^{MAX_EXPONENT}"]) == (0, f"x1^{MAX_EXPONENT}\n", "")
    assert cap(["bracket", "-n", "1", f"x1^{MAX_EXPONENT + 1}"])[0] == 3


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["bracket", "-n", "1", "(9^1000)^5"], 3, "undecided: a coefficient has more than"),
        (["bracket", "-n", "1", "--format", "json", "(9^1000)^5"], 3, "undecided: a coefficient has more than"),
        (["jacobian", "-n", "2", "x1", "(9^1000)^5*x2"], 3, "undecided: a coefficient has more than"),
        (["bracket", "-n", "1", "1" * 5000], 3, "undecided: number of 5000 digits"),
        (["bracket", "-n", "1", "x" + "1" * 5000], 2, "domain error: variable index x of 5000 digits"),
    ],
)
def test_numbers_past_the_digit_limit_have_an_exit_code(argv, code, err):
    # int() and str() refuse more than sys.get_int_max_str_digits() digits
    # (4,300 by default); 9^5000 has 4,772
    proc = fresh("-m", "freepoisson.cli", *argv, timeout=10)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith(err) and "Traceback" not in proc.stderr
