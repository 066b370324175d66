import gc
import math
import random
from fractions import Fraction

from freepoisson.linalg import Base, SparseSolver


def combine(columns, combo):
    """sum(coeff * columns[id]) as a dict without zero entries."""
    out = {}
    for cid, c in combo.items():
        for k, v in columns[cid].items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def dense_rank(columns, rows):
    """Rank over Fraction by plain row reduction of the dense matrix."""
    mat = [[Fraction(col.get(r, 0)) for col in columns] for r in rows]
    rank = 0
    for j in range(len(columns)):
        piv = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][j]:
                f = mat[i][j] / mat[rank][j]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_kernel_of_a_dependent_column():
    columns = {"a": {0: 2, 1: 1}, "b": {1: 3, 2: Fraction(1, 2)}}
    columns["c"] = combine(columns, {"a": 2, "b": Fraction(-3, 4)})
    solver = SparseSolver()
    assert solver.add("a", columns["a"]) is None
    assert solver.add("b", columns["b"]) is None
    kernel = solver.add("c", columns["c"])
    assert kernel["c"] == 1
    assert kernel == {"a": -2, "b": Fraction(3, 4), "c": 1}
    assert combine(columns, kernel) == {}
    # a dependent column is not registered as a pivot
    assert len(solver.pivots) == 2


def test_solve_inside_and_outside_the_span():
    columns = {"a": {(1, 0): 1, (0, 1): 2}, "b": {(0, 1): 5, (0, 0): -1}}
    solver = SparseSolver()
    for cid, col in columns.items():
        assert solver.add(cid, col) is None
    rhs = combine(columns, {"a": Fraction(2, 3), "b": -4})
    got = solver.solve(rhs)
    assert got == {"a": Fraction(2, 3), "b": -4}
    assert combine(columns, got) == rhs
    assert solver.solve({(1, 0): 1}) is None
    assert solver.solve({}) == {}


def test_int_and_fraction_inputs():
    ints, fracs = SparseSolver(), SparseSolver()
    cols = [{0: 3, 1: 6}, {0: 1, 2: 4}, {1: 6, 2: -12}]
    results = []
    for solver, conv in ((ints, int), (fracs, Fraction)):
        got = [solver.add(i, {k: conv(v) for k, v in col.items()}) for i, col in enumerate(cols)]
        results.append(got)
        for piv_vec, piv_combo in solver.pivots.values():
            # pivots are primitive int pairs: the gcd of all their entries is 1
            entries = [*piv_vec.values(), *piv_combo.values()]
            assert all(type(v) is int for v in entries)
            assert math.gcd(*entries) == 1
    assert results[0] == results[1]
    assert ints.pivots == fracs.pivots
    assert results[0][:2] == [None, None]
    kernel = results[0][2]
    assert kernel == {0: -1, 1: 3, 2: 1}
    assert combine(dict(enumerate(cols)), kernel) == {}
    # zero entries are dropped, not stored
    solver = SparseSolver()
    solver.add("z", {0: 0, 1: Fraction(0), 2: 5})
    assert list(solver.pivots) == [2] and solver.pivots[2][0] == {2: 5}


def test_rank_matches_dense_elimination():
    rng = random.Random(2024)
    for _ in range(40):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 9)
        rows = [(rng.randint(0, 2), r) for r in range(n_rows)]
        columns = []
        for _ in range(n_cols):
            col = {}
            for r in rows:
                if rng.random() < 0.5:
                    col[r] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if columns and rng.random() < 0.3:
                # a combination of earlier columns, so that kernels occur
                a, b = rng.randrange(len(columns)), rng.randrange(len(columns))
                col = combine(dict(enumerate(columns)), {a: rng.randint(-2, 2)})
                col = combine({0: col, 1: columns[b]}, {0: 1, 1: Fraction(1, 3)})
            columns.append(col)
        kernels = []
        # scaling every column by the same nonzero rational changes no kernel
        for scale in (1, Fraction(7, 3)):
            scaled = [{r: scale * c for r, c in col.items()} for col in columns]
            solver = SparseSolver()
            independent = 0
            got = []
            for cid, col in enumerate(scaled):
                kernel = solver.add(cid, col)
                got.append(kernel)
                if kernel is None:
                    independent += 1
                else:
                    assert kernel[cid] == 1
                    assert combine(dict(enumerate(scaled)), kernel) == {}
            assert independent == len(solver.pivots) == dense_rank(scaled, rows)
            kernels.append(got)
        assert kernels[0] == kernels[1]


def test_kernels_and_solutions_do_not_depend_on_the_row_order():
    # the pivot columns are the greedy independent prefix of the columns,
    # a kernel with the new column at coefficient 1 is unique, and so is a
    # solution in independent columns; only the fill-in depends on the order
    rng = random.Random(12)
    dependent = outside = 0
    for _ in range(30):
        rows = list(range(rng.randint(2, 9)))
        columns = []
        for _ in range(rng.randint(2, 12)):
            col = {r: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for r in rows if rng.random() < 0.4}
            if len(columns) > 1 and rng.random() < 0.4:
                a, b = rng.sample(range(len(columns)), 2)
                col = combine(dict(enumerate(columns)), {a: rng.randint(-3, 3), b: Fraction(rng.randint(1, 4), 3)})
            columns.append(col)
        rhs_in = combine(dict(enumerate(columns)), {c: rng.randint(-2, 2) for c in range(len(columns))})
        rhs_out = {r: rng.randint(-2, 2) for r in rows}
        labels = rng.sample(range(100), len(rows))
        if labels == sorted(labels):
            labels.reverse()
        relabel = dict(zip(rows, labels))
        results = []
        for label in (lambda r: r, relabel.__getitem__):
            solver = SparseSolver()
            kernels = [solver.add(cid, {label(r): c for r, c in col.items()}) for cid, col in enumerate(columns)]
            solved = [solver.solve({label(r): c for r, c in rhs.items()}) for rhs in (rhs_in, rhs_out)]
            results.append((kernels, solved))
        assert results[0] == results[1]
        kernels, (inside, out) = results[0]
        assert inside is not None and combine(dict(enumerate(columns)), inside) == rhs_in
        dependent += sum(k is not None for k in kernels)
        outside += out is None
    assert dependent > 10 and outside > 5


def build(base, off):
    """The column {row + off: c} of a shared base."""
    return {row + off: c for row, c in base.entries}


def column_of(runs, cid):
    """The column of id cid among the runs (base, offsets, first id) fed to
    add_shifted, found from the runs alone."""
    (column,) = [build(base, offs[cid - first]) for base, offs, first in runs if first <= cid < first + len(offs)]
    return column


def built(solver, runs):
    """The pivots of a solver fed `runs` with every column built into a
    dict, and every unbuilt int col_id into its pair with the combination
    {col_id: 1}."""
    return {k: (column_of(runs, piv), {piv: 1}) if type(piv) is int else piv for k, piv in solver.pivots.items()}


def add_one_at_a_time(runs):
    """A solver fed the built columns of `runs` with `add`, and its kernels in order."""
    solver, kernels = SparseSolver(), []
    for base, offs, first in runs:
        for cid, off in enumerate(offs, first):
            kernel = solver.add(cid, build(base, off))
            if kernel is not None:
                kernels.append(kernel)
    return solver, kernels


def shifted_system(rng):
    """Seeded runs of columns over a few shared bases: a list of
    (base, offsets, first column id) with col ids 0, 1, ... in order.  Rows
    are 0..11, so that kernels and shared leads occur, and an offset may
    repeat within a run, so that a kernel can arise in the middle of one."""
    bases = []
    for _ in range(rng.randint(2, 4)):
        rows = rng.sample(range(8), rng.randint(1, 4))
        coefficient = lambda: rng.choice([-3, -2, -1, 1, 2, 5]) if rng.random() < 0.9 else Fraction(rng.randint(1, 4), 3)
        bases.append(Base([(r, coefficient()) for r in rows]))
    bases.append(Base([]))  # shifts of it are zero columns
    runs, cid = [], 0
    for _ in range(rng.randint(2, 6)):
        base = rng.choice(bases[:-1]) if rng.random() < 0.9 else bases[-1]
        count = rng.randint(1, 4)
        runs.append((base, [rng.randint(0, 4) for _ in range(count)], cid))
        cid += count
    return bases, runs


def test_shifted_columns_match_dict_columns():
    # add_shifted registers the columns of a run as add registers their
    # built dicts one at a time: the same kernels in order, the same pivot
    # keys, and every pivot built is the same vector and combination
    rng = random.Random(7)
    built_on_use = kept_unbuilt = dependent = fraction_bases = empty_bases = held = mid_run = 0
    for _ in range(200):
        bases, runs = shifted_system(rng)
        fraction_bases += sum(not b.integral for b, _, _ in runs)
        empty_bases += sum(not b.entries for b, _, _ in runs)
        dicts = [build(base, off) for base, offs, _ in runs for off in offs]
        entries = [list(b.entries) for b in bases]
        given = [dict(d) for d in dicts]
        rhs_in = combine(dict(enumerate(dicts)), {c: rng.randint(-2, 2) for c in range(len(dicts))})
        rhs_out = {r: rng.randint(-2, 2) for r in range(12)}
        rhs_given = [dict(rhs_in), dict(rhs_out)]
        reference, want = add_one_at_a_time(runs)
        solver, kernels = SparseSolver(), []
        for base, offs, first in runs:
            unbuilt = {k: cid for k, cid in solver.pivots.items() if type(cid) is int}
            held += sum(base.top is not None and base.top + off in solver.pivots for off in offs)
            for kernel in solver.add_shifted(base, offs, first):
                kernels.append(kernel)
                mid_run += max(kernel) != first + len(offs) - 1
            for k, cid in unbuilt.items():
                if type(solver.pivots[k]) is tuple:
                    # a pivot stored unbuilt was read by a reduction: it is
                    # built in place, to the dict pair elimination would
                    # hold, with the combination {col_id: 1}
                    assert solver.pivots[k] == (column_of(runs, cid), {cid: 1})
                    built_on_use += 1
        assert kernels == want
        assert list(solver.pivots) == list(reference.pivots)
        assert built(solver, runs) == built(reference, runs)
        solved = [s.solve(rhs) for s in (reference, solver) for rhs in (rhs_in, rhs_out)]
        assert solved[:2] == solved[2:]
        kept_unbuilt += sum(type(piv) is int for piv in solver.pivots.values())
        dependent += len(kernels)
        inside = solved[0]
        assert inside is not None and combine(dict(enumerate(dicts)), inside) == rhs_in
        for kernel in kernels:
            assert kernel[max(kernel)] == 1 and combine(dict(enumerate(dicts)), kernel) == {}
        # no column handed in, no shared base and no right-hand side changed
        assert dicts == given and [b.entries for b in bases] == entries
        assert [rhs_in, rhs_out] == rhs_given
    assert built_on_use > 100 and kept_unbuilt > 20 and dependent > 100
    assert fraction_bases > 10 and empty_bases > 10 and held > 100 and mid_run > 20


def test_add_shifted_registers_a_column_only_when_asked():
    solver = SparseSolver()
    columns = solver.add_shifted(Base([(0, 1), (1, 2)]), [0, 0, 3], 5)
    assert solver.pivots == {}
    assert next(columns) == {5: -1, 6: 1}
    assert list(solver.pivots) == [1]
    assert list(columns) == [] and list(solver.pivots) == [1, 4]
    assert solver.pivots[4] == 7


def test_zero_shifted_column_gives_the_unit_kernel():
    for add in (lambda s: s.add(1, {}), lambda s: next(s.add_shifted(Base([]), [7], 1))):
        solver = SparseSolver()
        assert solver.add(0, {3: 2}) is None
        assert add(solver) == {1: 1}
        assert list(solver.pivots) == [3]


def test_stored_pivot_nonzeros_match_the_built_pair():
    # the nonzeros of a stored pivot, read from solver.pivots (the entries
    # of its column and the one column id for an int col_id), are those of
    # the built pair
    rng = random.Random(8)
    unbuilt = 0
    for _ in range(100):
        _, runs = shifted_system(rng)
        solver = SparseSolver()
        for base, offs, first in runs:
            for _ in solver.add_shifted(base, offs, first):
                pass
        for k, (vec, combo) in built(solver, runs).items():
            piv = solver.pivots[k]
            stored = len(column_of(runs, piv)) + 1 if type(piv) is int else len(piv[0]) + len(piv[1])
            assert stored == sum(1 for c in [*vec.values(), *combo.values()] if c)
            unbuilt += type(piv) is int
        # add stores dicts only, so the newest pivot after add counts its own entries
        reference, _ = add_one_at_a_time(runs)
        assert all(type(vec) is dict for vec, _ in reference.pivots.values())
    assert unbuilt > 100


def test_fresh_columns_are_stored_without_an_object_each():
    # a fresh column is stored as its int id: registering 6,000 of them adds
    # almost no gc-tracked object, where a tuple per column would add 6,000
    solver, offs = SparseSolver(), list(range(0, 12000, 2))
    gc.collect()
    before = len(gc.get_objects())
    assert next(solver.add_shifted(Base([(0, 1), (1, -2)]), offs, 0), None) is None
    assert len(gc.get_objects()) - before < 50
    assert len(solver.pivots) == 6000 and all(type(piv) is int for piv in solver.pivots.values())


def test_runs_registered_out_of_id_order_resolve_to_their_columns():
    # the run with the higher ids goes in first, and an empty run shares a
    # first id with another: each unbuilt id is still built from its own
    # run when a reduction reads it
    runs = [(Base([(0, 1), (1, 2)]), [10, 20], 10), (Base([(0, 3), (2, -1)]), [0, 5], 0), (Base([(0, 1)]), [], 0)]
    solver = SparseSolver()
    for base, offs, first in runs:
        assert list(solver.add_shifted(base, offs, first)) == []
    assert sorted(solver.pivots.values()) == [0, 1, 10, 11]
    combo = {10: 2, 11: 1, 0: -1, 1: 3}
    rhs = combine({cid: column_of(runs, cid) for cid in combo}, combo)
    assert solver.solve(rhs) == combo
    assert all(type(piv) is tuple for piv in solver.pivots.values())
    assert built(solver, runs) == built(add_one_at_a_time(runs)[0], runs)
