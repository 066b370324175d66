"""Each benchmark check accepts a correct output and rejects a corrupted one.

    PYTHONPATH=src python3 -m pytest -q bench/test_oracles.py
"""

import contextlib
import io
import random
from fractions import Fraction

import pytest

import oracles
import run
import workloads
from freepoisson import calculus, cli, depend, symplectic
from freepoisson.calculus import EnvMatrix
from freepoisson.env import Env
from freepoisson.poisson import Poly

TESTS = workloads.probe_polys(random.Random(3))


def _first(status):
    for n, elems, label in depend.load_corpus():
        if label == status and all(not e.is_zero() for e in elems):
            return n, elems
    raise AssertionError(status)


def test_witness_check():
    n, elems = _first("dependent")
    witness = depend.decide_left_dependence(elems).witness
    assert oracles.check_witness(witness, elems, TESTS) is None
    scaled = (witness[0] * 2,) + tuple(witness[1:])
    assert oracles.check_witness(scaled, elems, TESTS) is not None
    zero = tuple(Env.zero() for _ in witness)
    assert oracles.check_witness(zero, elems, TESTS) is not None
    oracle = depend.brute_force_dependence(elems, 4, 6, n=n)
    assert oracles.check_witness(oracle, elems, TESTS) is None
    shifted = tuple(u + Env.one() for u in oracle)
    assert oracles.check_witness(shifted, elems, TESTS) is not None


def test_independent_check():
    n, elems = _first("independent")
    verdict = depend.decide_left_dependence(elems)
    assert oracles.check_independent(verdict.final_words, elems, n) is None
    if len(elems) >= 2:
        words = (verdict.final_words[0],) * len(elems)
        assert oracles.check_independent(words, elems, n) is not None
    # A dependent system dressed up with incomparable final words.
    x1 = Poly.generator(1)
    system = [Env({(1,): Poly.one()}), Env({(1,): x1})]
    assert oracles.check_independent(((1,), (2,)), system, 2) is not None


def test_pair_check():
    rng = random.Random(5)
    f, g = workloads.k_a_pair(rng, 2)
    ps = calculus.pair_status(f, g)
    assert oracles.check_pair(f, g, ps.status, ps.lam, ps.mu, TESTS, True) is None
    assert oracles.check_pair(f, g, ps.status, ps.lam + 1, ps.mu, TESTS, True) is not None
    assert oracles.check_pair(f, g, "free", None, None, TESTS, True) is not None
    f, g = workloads.free_pair(rng)
    assert oracles.check_pair(f, g, "free", None, None, TESTS, False) is None
    assert oracles.check_pair(f, g, "dependent", Poly.one(), Poly.one(), TESTS, False) is not None


def test_inverse_check():
    J, V = workloads.elementary_pair(random.Random(7))
    vecs = [[Poly.generator(1), Poly.generator(2) + 1], [Poly.generator(2) * Poly.generator(1), Poly.one()]]
    res = calculus.invert_jacobian_bounded(J, 3, 6)
    assert oracles.check_inverse(J, res.V, V, vecs) is None
    bad = EnvMatrix([row[:] for row in res.V.entries])
    bad.entries[1][0] = bad.entries[1][0] + Env({(2,): Poly.one()})
    assert oracles.check_inverse(J, bad, V, vecs) is not None
    assert oracles.check_inverse(J, J, V, vecs) is not None


def _chain(f, g):
    m = symplectic.moyal(f, g)
    sf, sg = symplectic.symmetrize(f), symplectic.symmetrize(g)
    rf, rg = symplectic.rho_w(f), symplectic.rho_w(g)
    return {
        "moyal": m,
        "rho_w_f": rf,
        "rho_w_g": rg,
        "symmetrize_f": sf,
        "symmetrize_g": sg,
        "theta_left": symplectic.theta_left(sf),
        "pn_env_mul": symplectic.pn_env_mul(rf, rg),
        "weyl_mul": symplectic.weyl_mul(sf, sg),
    }


@pytest.mark.parametrize("key", ["moyal", "rho_w_f", "symmetrize_f", "theta_left", "pn_env_mul", "weyl_mul"])
def test_quantize_check(key):
    rng = random.Random(11)
    f, g = workloads.rand_spoly(rng, 2, 3), workloads.rand_spoly(rng, 2, 3)
    tests = workloads.weyl_tests(rng, 2)
    out = _chain(f, g)
    assert oracles.check_quantize(f, g, out, tests) is None
    out[key] = out[key] + out[key]
    assert oracles.check_quantize(f, g, out, tests) is not None


def test_moyal_closed_form():
    rng = random.Random(13)
    f = workloads.rand_spoly(rng, 1, 5, letters=[0])
    g = workloads.rand_spoly(rng, 1, 5, letters=[1])
    assert symplectic.moyal(f, g) == oracles.moyal_closed_n1(f, g)
    out = _chain(f, g)
    out["moyal"] = out["moyal"] + symplectic.SPoly.one(1)
    out["pn_env_mul"] = symplectic.rho_w(out["moyal"])
    reason = oracles.check_quantize(f, g, out, workloads.weyl_tests(rng, 1))
    assert reason is not None and "closed form" in reason


def _cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(args)
    return code, buf.getvalue()


def _corrupt(text):
    text = text.strip()
    if text.startswith("{"):
        return text.replace('"dependent"', '"independent"').replace("x1", "x2", 1)
    if text.startswith("["):
        return text.replace("1]", "2]", 1)
    return "(" + text + ") + 1"


@pytest.mark.parametrize("index", range(10))
def test_fpa_check(index):
    op = workloads.setup_fpa(random.Random(17)).ops[index]
    args = [case[0] for case in workloads.fpa_cases(random.Random(17))]
    args = next(a for a in args if a[0] == op.kind)
    code, out = _cli(args)
    assert op.check((code, out)) is None
    assert op.check((code, _corrupt(out))) is not None
    assert op.check((1, out)) is not None


def test_run_reports_corrupted_output(monkeypatch):
    workload = workloads.setup("decide", 19)
    workload.ops = workload.ops[:40]
    exact = depend.decide_left_dependence

    def corrupted(elems, max_steps=100_000):
        verdict = exact(elems, max_steps)
        if verdict.witness is not None:
            verdict.witness = tuple(u * Fraction(2) if k == 0 else u for k, u in enumerate(verdict.witness))
        return verdict

    _, _, first, mismatched, rounds, _, _ = run.timed_loop(workload, 0, None)
    assert run.check_outputs(workload, first, mismatched, rounds) == (0, [])
    monkeypatch.setattr(depend, "decide_left_dependence", corrupted)
    _, _, first, mismatched, rounds, _, _ = run.timed_loop(workload, 0, None)
    failed, wrong = run.check_outputs(workload, first, mismatched, rounds)
    assert failed == 0 and wrong
