"""Acceptance gate: one test per shipped property suite, all exact.

Each test drives the corresponding suite in freepoisson.checks at its
default seed, so `pytest -v tests/test_acceptance.py` prints one
pass/fail line per suite.  Failure messages carry the suite's own
detail string, including the first failing case.
"""

import contextlib
import io

from freepoisson import checks, cli
from freepoisson.checks import run_check
from freepoisson.symplectic import PnEnv


def _gate(name):
    res = run_check(name)
    assert res.passed, f"{name}: {res.detail}"


def test_c01_poisson_axioms():
    _gate("poisson-axioms")


def test_c02_env_canonical():
    _gate("env-canonical")


def test_c03_leading_terms():
    _gate("leading-terms")


def test_c04_graded_top():
    _gate("graded-top")


def test_c05_lambda_shift():
    _gate("lambda-shift")


def test_c06_dependence_corpus():
    _gate("dependence-corpus")


def test_c07_pair_classifier():
    _gate("pair-classifier")


def test_c08_jacobian_inversion():
    _gate("jacobian-inversion")


def test_c09_weyl_embedding():
    _gate("weyl-embedding")


def test_c10_symmetrization():
    _gate("symmetrization")


def test_c11_h_commutation():
    _gate("h-commutation")


def test_c12_moyal():
    _gate("moyal")


def test_c13_weyl_relations():
    _gate("weyl-relations")


def test_c14_last_letter():
    _gate("last-letter")


def test_c15_cli_roundtrip():
    _gate("cli-roundtrip")


def test_a_failing_suite_reports_its_first_failure(monkeypatch):
    monkeypatch.setattr(checks, "pn_commutator", lambda a, b: PnEnv.zero(a.n))
    assert run_check("weyl-relations") == (
        "weyl-relations",
        False,
        "defining relations for n = 1, 2; first failure: [X1,Y1] (n=1)",
    )
    assert run_check("weyl-embedding") == (
        "weyl-embedding",
        False,
        "commutator identities (n=1,2) + 100 monomial pairs + 100 elements by letters;"
        " first failure: left [X1,Y1] (n=1)",
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["check", "weyl-relations"])
    assert code == 2
    assert out.getvalue() == "FAIL weyl-relations: defining relations for n = 1, 2; first failure: [X1,Y1] (n=1)\n"
    monkeypatch.setattr(checks, "pn_env_mul", lambda u, v: PnEnv.zero(u.n))
    assert run_check("h-commutation") == (
        "h-commutation",
        False,
        "all |gamma| <= 3 against 100 elements (n <= 2); first failure: gamma (0, 0) at element 0",
    )
