"""Span tracing of freepoisson's public functions, installed from outside.

`install` replaces each traced function by a wrapper, both at its
defining module attribute and at every binding that `from ... import`
made of it in other freepoisson modules, so calls through any name are
seen.  A wrapper records one span (id, parent, operation, name, start,
end) per call and adds the call's self time, its duration minus the
time its child spans cover, to per-name totals.  Spans live in memory
and are written out when the run ends.
"""

import json
import sys
import time
from array import array

# Traced public functions, as (module, attribute path).  The names of the
# per-layer metrics are "<module>.<path>.calls" and "<module>.<path>.self_s",
# with "Poly.__mul__" reported as "Poly.mul".
TARGETS = [
    ("freelie", "lie_bracket"),
    ("poisson", "Poly.__mul__"),
    ("poisson", "p_bracket"),
    ("poisson", "p_gcd"),
    ("poisson", "divexact"),
    ("env", "env_mul"),
    ("env", "ham"),
    ("linalg", "SparseSolver.add"),
    ("linalg", "SparseSolver.solve"),
    ("depend", "brute_force_dependence"),
    ("depend", "decide_left_dependence"),
    ("depend", "verify_witness"),
    ("calculus", "invert_jacobian_bounded"),
    ("calculus", "jacobian"),
    ("calculus", "pair_status"),
    ("symplectic", "symmetrize"),
    ("symplectic", "weyl_mul"),
    ("symplectic", "pn_env_mul"),
    ("symplectic", "moyal"),
    ("symplectic", "rho_w"),
    ("symplectic", "theta_left"),
    ("syntax", "parse_element"),
    ("syntax", "render"),
    ("cli", "run"),
]

# Counters kept beside the spans: solver size and fill-in, reduction steps,
# and the import time of an fpa process.
COUNTERS = [
    ("linalg.pivots", "count"),
    ("linalg.pivot_nnz", "count"),
    ("depend.reduction_steps", "count"),
    ("fpa.import_s", "s"),
]

# Spans kept for the trace file; later ones are counted but not stored.
SPAN_CAP = 200_000


def metric_name(module, path):
    return f"{module}.{path.replace('__mul__', 'mul')}"


def layer_names():
    """Every per-layer metric as (name, unit)."""
    out = []
    for module, path in TARGETS:
        base = metric_name(module, path)
        out += [(base + ".calls", "count"), (base + ".self_s", "s")]
    return out + COUNTERS


class Tracer:
    def __init__(self):
        self.active = False
        self.names = [metric_name(m, p) for m, p in TARGETS] + ["op", "import.sympy"]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters = {name: 0 for name, _ in COUNTERS}
        self.stack = []  # open spans as [id, start, child time]
        self.next_id = 0
        self.op = -1
        self.dropped = 0
        self.ids = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.kinds = array("h")
        self.starts = array("d")
        self.ends = array("d")

    def enter(self):
        frame = [self.next_id, time.perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def leave(self, kind, frame):
        end = time.perf_counter()
        self.stack.pop()
        span_id, start, child = frame
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
        self.calls[kind] += 1
        self.self_s[kind] += dur - child
        if len(self.ids) < SPAN_CAP:
            self.ids.append(span_id)
            self.parents.append(self.stack[-1][0] if self.stack else -1)
            self.ops.append(self.op)
            self.kinds.append(kind)
            self.starts.append(start)
            self.ends.append(end)
        else:
            self.dropped += 1

    def run_op(self, index, fn):
        """Run one benchmark operation as a root span."""
        self.op = index
        frame = self.enter()
        try:
            return fn()
        finally:
            self.leave(self.names.index("op"), frame)

    def wrapper(self, kind, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(kind, frame)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def layer_totals(self):
        """Totals of every per-layer metric."""
        out = {}
        for kind, (module, path) in enumerate(TARGETS):
            base = metric_name(module, path)
            out[base + ".calls"] = self.calls[kind]
            out[base + ".self_s"] = self.self_s[kind]
        out.update(self.counters)
        return out

    def self_sum(self):
        return sum(self.self_s)

    def write(self, path, extra):
        """Write the stored spans as JSON lines, after one header line."""
        with open(path, "w") as fh:
            head = dict(extra, names=self.names, spans=len(self.ids), dropped=self.dropped)
            fh.write(json.dumps(head) + "\n")
            for i in range(len(self.ids)):
                fh.write(
                    json.dumps(
                        [
                            self.ids[i],
                            self.parents[i],
                            self.ops[i],
                            self.names[self.kinds[i]],
                            self.starts[i],
                            self.ends[i],
                        ]
                    )
                    + "\n"
                )


def _rebind(old, new):
    """Point every freepoisson module binding of `old` at `new`."""
    for name, mod in list(sys.modules.items()):
        if name != "freepoisson" and not name.startswith("freepoisson."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer):
    """Wrap every traced function of the freepoisson modules already imported."""
    import freepoisson.linalg

    for kind, (module, path) in enumerate(TARGETS):
        mod = sys.modules.get("freepoisson." + module)
        if mod is None:
            continue
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, attr, tracer.wrapper(kind, getattr(cls, attr)))
        else:
            old = getattr(mod, path)
            _rebind(old, tracer.wrapper(kind, old))
    _count_solver(tracer, freepoisson.linalg.SparseSolver)
    _count_reductions(tracer)


def _count_solver(tracer, solver_cls):
    """Count pivots and their stored nonzeros, which no later step changes."""
    traced_add = solver_cls.add

    def add(self, col_id, vec):
        before = len(self.pivots)
        out = traced_add(self, col_id, vec)
        if tracer.active and len(self.pivots) > before:
            pvec, pcombo = next(reversed(self.pivots.values()))
            tracer.counters["linalg.pivots"] += 1
            tracer.counters["linalg.pivot_nnz"] += len(pvec) + len(pcombo)
        return out

    solver_cls.add = add


def _count_reductions(tracer):
    depend = sys.modules["freepoisson.depend"]
    traced = depend.decide_left_dependence

    def decide(*args, **kwargs):
        verdict = traced(*args, **kwargs)
        if tracer.active:
            tracer.counters["depend.reduction_steps"] += len(verdict.trace)
        return verdict

    _rebind(traced, decide)
