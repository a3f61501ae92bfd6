#!/usr/bin/env python3
"""Benchmark the compiled counting kernels against the pure-Python
reference implementations.  Each case's compiled result is checked
against the Python result before it is timed.  Counts run through
homcert.kernels on either backend: it hands the walk the pattern's plan
and symmetry analysis (each cached per pattern) and multiplies by
|Aut(h)|.

Run:  python3 benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import timeit

from homcert import _pykernels, kernels
from homcert.graphs import (
    Graph,
    cartesian_product,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    petersen,
)

try:
    from homcert import _kernels
except ImportError:
    _kernels = None


def generalized_petersen(n, k):
    """Outer cycle 0..n-1, spokes i -- n + i, inner edges n + i -- n + i + k."""
    edges = []
    for i in range(n):
        edges += [(i, (i + 1) % n), (i, n + i), (n + i, n + (i + k) % n)]
    return Graph(2 * n, [tuple(sorted(e)) for e in edges])


def cases():
    c16 = circulant(16, (1, 2, 3))
    cubic64 = generalized_petersen(32, 2)
    rook8 = cartesian_product(complete(8), complete(8))
    # K_{6,6} in its max-lex labelling (sides {0, 7..11} and {1..6}), so
    # the canonicity test has to prove it: a search over twins.
    k66 = Graph(12, [(a, b) for a in (0, 7, 8, 9, 10, 11) for b in range(1, 7)])
    two_petersen = disjoint_union(petersen(), petersen())
    c4c4k2 = cartesian_product(cartesian_product(cycle(4), cycle(4)), complete(2))
    return [
        ("hom  C5 -> Petersen", "hom_count", (cycle(5).rows, petersen().rows)),
        ("inj  C5 -> Petersen", "inj_count", (cycle(5).rows, petersen().rows)),
        ("hom  C6 -> C16(1,2,3)", "hom_count", (cycle(6).rows, c16.rows)),
        ("inj  K4 -> K12", "inj_count", (complete(4).rows, complete(12).rows)),
        # The symmetric patterns whose count one map per Aut(h)-orbit cuts.
        ("inj  C5 -> GP(32,2)", "inj_count", (cycle(5).rows, cubic64.rows)),
        ("inj  C8 -> GP(32,2)", "inj_count", (cycle(8).rows, cubic64.rows)),
        ("inj  C7 -> rook 8x8", "inj_count", (cycle(7).rows, rook8.rows)),
        ("inj  K6 -> K24", "inj_count", (complete(6).rows, complete(24).rows)),
        (
            "inj  P5 -> K_{6,6}",
            "inj_count",
            (
                tuple(
                    sum(1 << u for u in (i - 1, i + 1) if 0 <= u < 5)
                    for i in range(5)
                ),
                complete_bipartite(6, 6).rows,
            ),
        ),
        (
            "canonical  Petersen",
            "canonical_min_rows",
            (petersen().rows,),
        ),
        (
            "canonical  K_{5,5}",
            "canonical_min_rows",
            (complete_bipartite(5, 5).rows,),
        ),
        ("max-lex  K_{6,6}", "is_canonical_max", (k66.rows,)),
        (
            "label  K_{6,6}",
            "canonical_max_rows",
            (complete_bipartite(6, 6).rows,),
        ),
        ("label  2xPetersen", "canonical_max_rows", (two_petersen.rows,)),
        ("label  C4xC4xK2", "canonical_max_rows", (c4c4k2.rows,)),
        ("enumerate  (10, 3)", "enumerate_regular_rows", (10, 3, False)),
        ("enumerate  (12, 3)", "enumerate_regular_rows", (12, 3, False)),
        ("enumerate connected (12, 3)", "enumerate_regular_rows", (12, 3, True)),
        ("enumerate  (12, 4)", "enumerate_regular_rows", (12, 4, False)),
        ("enumerate  (14, 3)", "enumerate_regular_rows", (14, 3, False)),
        ("enumerate connected (14, 3)", "enumerate_regular_rows", (14, 3, True)),
    ]


def measure(fn, args, repeat):
    timer = timeit.Timer(lambda: fn(*args))
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=repeat, number=number)) / number


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeat", type=int, default=3, help="timing repetitions (best-of)"
    )
    args = parser.parse_args()

    if _kernels is None:
        print("compiled backend not available; timing pure Python only")
    header = f"{'case':<28} {'python':>12} {'compiled':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, op, op_args in cases():
        # Counts go through the dispatcher, pointed at one backend at a time.
        counting = op in ("hom_count", "inj_count")
        kernels._compiled = None
        python = getattr(kernels if counting else _pykernels, op)
        py = measure(python, op_args, args.repeat)
        if _kernels is not None:
            expected = python(*op_args)
            kernels._compiled = _kernels
            compiled = getattr(kernels if counting else _kernels, op)
            if compiled(*op_args) != expected:
                raise SystemExit(f"{name}: compiled result differs from Python")
            cc = measure(compiled, op_args, args.repeat)
            print(
                f"{name:<28} {py * 1e3:>10.3f}ms {cc * 1e3:>10.3f}ms "
                f"{py / cc:>8.1f}x"
            )
        else:
            print(f"{name:<28} {py * 1e3:>10.3f}ms {'-':>12} {'-':>9}")


if __name__ == "__main__":
    main()
