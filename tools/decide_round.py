"""Digests of the inputs of the `decide` benchmark round, per seed.

    python3 tools/decide_round.py TREE [SEED ...]

TREE is a checkout of the repository (its `src` and `bench`).  For each
seed (1 2 3 when none is given) a fresh Python process imports the
package from TREE/src and `workloads` from TREE/bench, builds
`workloads.setup("decide", seed)`, and prints the seed, the number of
operations and a sha1 over the `repr` of the closure inputs of every
operation's `run`, in round order.

`workloads.setup` picks the random systems and pairs of the round by
counted work (`Poly.__mul__` term products), so a change to the program
can change which inputs a round runs.  Two trees that print the same
digests run the same `decide` inputs.  Only files under TREE are read.
"""

import argparse
import os
import subprocess
import sys

CHILD = """
import hashlib, sys
import workloads
ops = workloads.setup("decide", int(sys.argv[1])).ops
h = hashlib.sha1()
for op in ops:
    h.update(repr([cell.cell_contents for cell in op.run.__closure__]).encode())
print(sys.argv[1], len(ops), h.hexdigest())
"""


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", help="a checkout of the repository")
    ap.add_argument("seeds", nargs="*", type=int, default=[1, 2, 3])
    args = ap.parse_args(argv)
    tree = os.path.abspath(args.tree)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(tree, "src"), os.path.join(tree, "bench")]))
    for seed in args.seeds:
        done = subprocess.run([sys.executable, "-c", CHILD, str(seed)], env=env, cwd=tree, capture_output=True, text=True)
        if done.returncode:
            sys.stderr.write(done.stderr)
            return done.returncode
        sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
