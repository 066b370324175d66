import math
import random
from fractions import Fraction

from freepoisson.linalg import SparseSolver


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
