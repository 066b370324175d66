"""One traced `fpa` call: time the import, wrap the layers, call cli.run.

    python3 bench/fpa_child.py OUT_FILE SPAWN_TIME ARGS...

SPAWN_TIME is the parent's time.perf_counter() just before it started
this process (the clock is system-wide), so fpa.import_s runs from
interpreter start until freepoisson.cli and any sympy it pulls in are
imported.  A lazy sympy import inside a command is its own span, so it
is not charged to the function that triggered it.  The per-layer totals
and the spans go to OUT_FILE.
"""

import sys
import time


def main():
    out_file, spawn = sys.argv[1], float(sys.argv[2])
    import freepoisson.cli

    import_s = time.perf_counter() - spawn

    import builtins

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    sympy_kind = tracer.names.index("import.sympy")
    real_import = builtins.__import__
    sympy_s = [0.0]

    def timed_import(name, globals=None, locals=None, fromlist=(), level=0):
        if level == 0 and name.split(".")[0] == "sympy" and "sympy" not in sys.modules:
            frame = tracer.enter()
            try:
                return real_import(name, globals, locals, fromlist, level)
            finally:
                tracer.leave(sympy_kind, frame)
                sympy_s[0] += time.perf_counter() - frame[1]
        return real_import(name, globals, locals, fromlist, level)

    builtins.__import__ = timed_import
    tracer.active = True
    code = tracer.run_op(0, lambda: freepoisson.cli.run(sys.argv[3:]))
    tracer.active = False
    builtins.__import__ = real_import
    sys.stdout.flush()
    totals = tracer.layer_totals()
    totals["fpa.import_s"] = import_s + sympy_s[0]
    tracer.write(out_file, {"totals": totals, "self_sum_s": tracer.self_sum()})
    return code


if __name__ == "__main__":
    sys.exit(main())
