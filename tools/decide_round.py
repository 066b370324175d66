"""Digests of the inputs of the `decide` benchmark round, per seed, and
the CPU time of one round in two trees.

    python3 tools/decide_round.py TREE [SEED ...]
    python3 tools/decide_round.py TREE --against OTHER [SEED ...]

TREE and OTHER are checkouts of the repository (their `src` and
`bench`).  For each seed (1 2 3 when none is given) a fresh Python
process imports the package from TREE/src and `workloads` from
TREE/bench, builds `workloads.setup("decide", seed)`, and prints the
seed, the number of operations and a sha1 over the `repr` of the closure
inputs of every operation's `run`, in round order.

`workloads.setup` picks the random systems and pairs of the round by
counted work (`Poly.__mul__` term products), so a change to the program
can change which inputs a round runs.  Two trees that print the same
digests run the same `decide` inputs.

With --against, the same process also records TREE's round as text: per
operation its kind and its inputs as `syntax.render` gives them, which a
tree with another representation can parse again.  Then fresh processes,
alternating TREE and OTHER three times, each parse that round
with their own tree's package, run it once to warm up and five times
timed, and print the median `time.process_time` of the five.  One line
per seed and tree lists those medians and their median.  Only files
under TREE and OTHER are read.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile

RECORD = """
import hashlib, json, re, sys
import workloads
from freepoisson import syntax
ops = workloads.setup("decide", int(sys.argv[1])).ops
h = hashlib.sha1()
for op in ops:
    h.update(repr([cell.cell_contents for cell in op.run.__closure__]).encode())
print(sys.argv[1], len(ops), h.hexdigest())
if len(sys.argv) > 2:
    out = []
    for op in ops:
        cells = [cell.cell_contents for cell in op.run.__closure__]
        values = cells[0] if op.kind == "decide_left_dependence" else cells
        texts = [syntax.render(v) for v in values]
        n = max((int(a) for text in texts for a in re.findall(r"x(\\d+)", text)), default=1)
        mode = "env" if op.kind == "decide_left_dependence" else "poisson"
        assert [syntax.parse_element(text, n, mode) for text in texts] == list(values)
        out.append([op.kind, texts])
    with open(sys.argv[2], "w") as fh:
        json.dump(out, fh)
"""

RUNS = 3  # timing processes per tree

TIME = """
import json, re, statistics, sys, time
from freepoisson import calculus, depend, syntax
calls = []
for kind, texts in json.load(open(sys.argv[1])):
    n = max((int(a) for text in texts for a in re.findall(r"x(\\d+)", text)), default=1)
    if kind == "decide_left_dependence":
        elems = [syntax.parse_element(text, n, "env") for text in texts]
        calls.append(lambda elems=elems: depend.decide_left_dependence(elems))
    else:
        f, g = (syntax.parse_element(text, n, "poisson") for text in texts)
        calls.append(lambda f=f, g=g: calculus.pair_status(f, g))
times = []
for _ in range(6):
    start = time.process_time()
    for call in calls:
        call()
    times.append(time.process_time() - start)
print(statistics.median(times[1:]))
"""


def _child(tree, code, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(tree, "src"), os.path.join(tree, "bench")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(done.returncode)
    return done.stdout


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", help="a checkout of the repository")
    ap.add_argument("seeds", nargs="*", type=int, default=[1, 2, 3])
    ap.add_argument("--against", metavar="OTHER", help="a second checkout to time TREE's round in")
    args = ap.parse_intermixed_args(argv)  # seeds may follow --against OTHER
    tree = os.path.abspath(args.tree)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            path = os.path.join(tmp, f"decide-{seed}.json")
            sys.stdout.write(_child(tree, RECORD, [str(seed)] + ([path] if args.against else [])))
            if not args.against:
                continue
            medians = {tree: [], os.path.abspath(args.against): []}
            for _ in range(RUNS):
                for t, got in medians.items():
                    got.append(float(_child(t, TIME, [path])))
            for t, got in medians.items():
                print(f"{seed} {t} runs {' '.join(f'{x:.3f}' for x in got)} median {statistics.median(got):.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
