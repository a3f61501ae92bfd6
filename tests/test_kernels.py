"""Backend parity: the compiled counting kernels must agree exactly with
the pure-Python reference implementations on every exposed operation.

When homcert._kernels is not importable, the module builds
src/homcert/_kernels.c with setuptools into a temporary directory and
loads it without registering it, so the rest of the session keeps the
backend it started with.  A build failure errors these tests; it never
skips them."""

import functools
import importlib
import importlib.util
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import oracles
from homcert import _pykernels, kernels
from homcert.graphs import (
    Graph,
    cartesian_product,
    circulant,
    complement,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    disjoint_union,
    is_connected,
    path,
    petersen,
)

SOURCE = Path(__file__).resolve().parents[1] / "src" / "homcert" / "_kernels.c"
BACKEND_AT_IMPORT = kernels.BACKEND


def _build_and_load(workdir):
    script = (
        "from setuptools import Extension, setup\n"
        "setup(name='homcert-kernels', ext_modules=["
        f"Extension('homcert._kernels', [{str(SOURCE)!r}])])"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, "-q", "build_ext", "--build-lib", "lib",
         "--build-temp", "tmp"],
        cwd=workdir,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        pytest.fail(
            f"building {SOURCE} failed:\n{result.stdout}\n{result.stderr}",
            pytrace=False,
        )
    (so_path,) = (workdir / "lib" / "homcert").glob("_kernels*")
    spec = importlib.util.spec_from_file_location("homcert._kernels", so_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    try:
        return importlib.import_module("homcert._kernels")
    except ImportError:
        return _build_and_load(tmp_path_factory.mktemp("kernels"))


C64 = circulant(64, (1, 2))

SAMPLE_PAIRS = [
    (cycle(5), petersen()),
    (cycle(3), complete(4)),
    (complete(4), complete(6)),
    (path(4), complete_bipartite(3, 3)),
    (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]), petersen()),
    (cycle(4), disjoint_union(complete(4), cycle(5))),
    (Graph(1), complete(3)),
    (cycle(3), Graph(2, [(0, 1)])),  # no homomorphisms
    (cycle(4), C64),  # 64-vertex target: the all-ones candidate mask
    (cycle(5), complete(4)),  # pattern larger than target: inj is 0
]

C64_COMPLEMENT = complement(cycle(64))

SAMPLE_GRAPHS = [
    complete(5),
    petersen(),
    cycle(7),
    complete_bipartite(2, 4),
    disjoint_union(cycle(3), path(3)),
    Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]),
    Graph(3),
    C64_COMPLEMENT,  # 64 vertices, few ties
    complete(64),
    # twin-rich: K_{3,3} with interleaved sides, a star centred last, K_6
    # minus a perfect matching
    Graph(6, [(i, j) for j in range(6) for i in range(j) if (i + j) % 2]),
    Graph(6, [(i, 5) for i in range(5)]),
    complete_multipartite(2, 2, 2),
]

# The greatest string of complement(C64) starts with a largest independent
# set of C64, which the max-lex labeller finds only by exponential search;
# enumerated_form labels such dense graphs through their complement.  The
# labeller meets 64 vertices on C64 itself.
MAX_LEX_GRAPHS = [cycle(64) if g is C64_COMPLEMENT else g for g in SAMPLE_GRAPHS]

# Graphs whose vertices fall into few twin classes, where twin pruning
# does the most.
TWIN_RICH = [
    complete_bipartite(2, 4),
    complete_bipartite(3, 4),
    complete_bipartite(1, 6),
    complete_multipartite(2, 2, 2),
    complete_multipartite(1, 2, 3),
    complement(Graph(7, [(0, 1), (2, 3), (4, 5)])),  # K_7 minus a matching
    Graph(7, [(2, 4)]),  # an edge plus isolated vertices
    disjoint_union(complete(3), Graph(3)),
]

OUT_OF_RANGE = [
    ("hom_count", ((0,) * 49, (0,)), ValueError),
    ("inj_count", ((0,), (0,) * 65), ValueError),
    ("canonical_min_rows", ((0,) * 65,), ValueError),
    ("is_canonical_max", ((0,) * 65,), ValueError),
    ("enumerate_regular_rows", (65, 4, False), ValueError),
    ("enumerate_regular_rows", (0, 0, False), ValueError),
    ("hom_count", ((0,), (1 << 64,)), OverflowError),
    ("inj_count", ((-1,), (0,)), OverflowError),
    ("canonical_min_rows", ((0, -2),), OverflowError),
    ("is_canonical_max", ((1 << 70, 0),), OverflowError),
    ("canonical_max_rows", ((0,) * 65,), ValueError),
    ("canonical_max_rows", ((0, -1, 0),), OverflowError),
    # inj_count's level bounds: below[i] < i, i + above[i] < k, one per level
    ("inj_count", ((0, 0), (0, 0), (-1, 1), (0, 0)), ValueError),
    ("inj_count", ((0, 0), (0, 0), (-1, -2), (0, 0)), ValueError),
    ("inj_count", ((0, 0), (0, 0), (-1, 0), (2, 0)), ValueError),
    ("inj_count", ((0, 0), (0, 0), (-1,), (0, 0)), ValueError),
    ("inj_count", ((0,), (0,), (-1,)), TypeError),
]


class TestBackendSelection:
    def test_loading_kernel_keeps_session_backend(self, compiled):
        assert kernels.BACKEND == BACKEND_AT_IMPORT
        assert (kernels._compiled is None) == (kernels.BACKEND == "python")

    def test_counting_size_guard(self, compiled, monkeypatch):
        monkeypatch.setattr(kernels, "_compiled", compiled)
        small = complete(4).rows
        assert kernels._fits_counting(small, petersen().rows)
        # 64-vertex masks are the hard limit for targets
        assert kernels._fits_counting(small, C64.rows)
        assert not kernels._fits_counting(small, (0,) * 65)
        # large pattern over a large target overflows the count bound
        assert not kernels._fits_counting((0,) * 20, (0,) * 60)
        # the count bound alone caps patterns at 31 vertices
        assert kernels._fits_counting((0,) * 31, (0,) * 2)
        assert not kernels._fits_counting((0,) * 32, (0,) * 2)
        assert kernels._fits_counting(cycle(8).rows, C64.rows)

    def test_oversized_target_routed_to_python(self, compiled, monkeypatch):
        monkeypatch.setattr(kernels, "_compiled", compiled)
        big = cycle(65).rows
        with pytest.raises(ValueError):
            compiled.hom_count(cycle(4).rows, big)
        assert kernels.hom_count(cycle(4).rows, big) == 65 * 6

    def test_python_fallback_used_when_compiled_absent(self, monkeypatch):
        h, g = cycle(5), petersen()
        monkeypatch.setattr(kernels, "_compiled", None)
        assert not kernels._fits_counting(h.rows, g.rows)
        assert kernels.hom_count(h.rows, g.rows) == 120
        assert kernels.inj_count(h.rows, g.rows) == 120


class TestCountingParity:
    @pytest.mark.parametrize("h,g", SAMPLE_PAIRS)
    def test_hom_count(self, compiled, h, g):
        assert compiled.hom_count(h.rows, g.rows) == _pykernels.hom_count(
            h.rows, g.rows
        )

    @pytest.mark.parametrize("h,g", SAMPLE_PAIRS)
    def test_inj_count(self, compiled, h, g):
        assert compiled.inj_count(h.rows, g.rows) == _pykernels.inj_count(
            h.rows, g.rows
        )

    def test_dispatcher_matches_both(self, compiled, monkeypatch):
        monkeypatch.setattr(kernels, "_compiled", compiled)
        h, g = cycle(5), petersen()
        assert (
            kernels.hom_count(h.rows, g.rows)
            == compiled.hom_count(h.rows, g.rows)
            == _pykernels.hom_count(h.rows, g.rows)
            == 120
        )


@pytest.fixture(params=["python", "c"])
def backend(request, compiled, monkeypatch):
    """homcert.kernels with the given backend live."""
    monkeypatch.setattr(
        kernels, "_compiled", compiled if request.param == "c" else None
    )
    return kernels


@functools.cache
def _golden_automorphisms():
    """(pattern, |Aut|) for the 131 patterns of the golden bound digests:
    every connected non-tree graph on 3-6 vertices, then C7 and C8."""
    pats = [
        g
        for n in range(3, 7)
        for g in oracles.all_connected_graphs(n)
        if g.size >= g.order
    ]
    pats += [cycle(7), cycle(8)]
    return tuple((h, oracles.automorphism_count(h)) for h in pats)


Q3 = cartesian_product(cartesian_product(complete(2), complete(2)), complete(2))

SYMMETRIC_PATTERNS = {
    "K4": complete(4),
    "K33": complete_bipartite(3, 3),
    "C8": cycle(8),
    "Q3": Q3,
    "2K2": disjoint_union(complete(2), complete(2)),
    "K1+C4": disjoint_union(Graph(1), cycle(4)),
}

SMALL_TARGETS = {
    "K7": complete(7),
    "K44": complete_bipartite(4, 4),
    "Q3": Q3,
    "C8(1,2)": circulant(8, (1, 2)),
    "K4+C4": disjoint_union(complete(4), cycle(4)),
}


@functools.cache
def _brute_inj(h_name, g_name):
    return oracles.brute_inj(SYMMETRIC_PATTERNS[h_name], SMALL_TARGETS[g_name])


@functools.cache
def _brute_petersen_into_itself():
    return oracles.brute_inj(petersen(), petersen())


class TestSymmetryBreaking:
    """inj_count counts one map per automorphism orbit and multiplies by
    |Aut(h)|; each check runs on both backends through the dispatcher."""

    def test_self_count_is_automorphism_count(self, backend):
        pats = _golden_automorphisms()
        assert len(pats) == 131
        for h, aut in pats:
            assert backend.inj_count(h.rows, h.rows) == aut
            assert _pykernels._symmetry(h.rows)[0] == aut

    @pytest.mark.parametrize("h_name", sorted(SYMMETRIC_PATTERNS))
    def test_symmetric_and_disconnected_patterns(self, backend, h_name):
        h = SYMMETRIC_PATTERNS[h_name]
        for g_name, g in SMALL_TARGETS.items():
            assert backend.inj_count(h.rows, g.rows) == _brute_inj(h_name, g_name)

    def test_petersen_as_pattern(self, backend):
        p = petersen()
        assert backend.inj_count(p.rows, p.rows) == _brute_petersen_into_itself()
        assert backend.inj_count(p.rows, complete(10).rows) == math.factorial(10)
        assert backend.inj_count(p.rows, Q3.rows) == 0

    def test_cliques_into_cliques(self, backend):
        for k in range(1, 9):
            for n in range(8, 17):
                got = backend.inj_count(complete(k).rows, complete(n).rows)
                assert got == math.perm(n, k)

    @pytest.mark.parametrize("h", [complete(31), Graph(31)], ids=["K31", "E31"])
    def test_31_vertex_patterns_on_the_routing_edge(self, backend, h):
        # 31 pattern vertices still fit the compiled count rule on a
        # target of at most 3 vertices; the 31- and 32-vertex targets
        # do not, and go to Python.
        assert _pykernels._symmetry(h.rows)[0] == math.factorial(31)
        assert backend.inj_count(h.rows, complete(3).rows) == 0
        for n in (31, 32):
            assert backend.inj_count(h.rows, complete(n).rows) == math.factorial(n)
            assert backend.inj_count(h.rows, Graph(n).rows) == (
                0 if h.size else math.factorial(n)
            )

    @pytest.mark.parametrize("h,g", SAMPLE_PAIRS)
    def test_compiled_counts_one_map_per_orbit(self, compiled, h, g):
        if h.order > g.order:
            return
        aut, below, above = _pykernels._symmetry(h.rows)
        assert aut * compiled.inj_count(h.rows, g.rows, below, above) == (
            _pykernels.inj_count(h.rows, g.rows)
        )


def relabel(rows, perm):
    """rows with vertex v renamed perm[v]."""
    out = [0] * len(rows)
    for v, r in enumerate(rows):
        for u in range(len(rows)):
            if (r >> u) & 1:
                out[perm[v]] |= 1 << perm[u]
    return tuple(out)


class TestCanonicalParity:
    @pytest.mark.parametrize("g", SAMPLE_GRAPHS)
    def test_canonical_min_rows(self, compiled, g):
        assert tuple(compiled.canonical_min_rows(g.rows)) == tuple(
            _pykernels.canonical_min_rows(g.rows)
        )

    @pytest.mark.parametrize("g", SAMPLE_GRAPHS)
    def test_canonical_invariant_under_relabeling(self, compiled, g):
        # the compiled form of reversed and seeded relabelings of g is the
        # pure-Python form of g
        want = _pykernels.canonical_min_rows(g.rows)
        rng = random.Random(g.order * 1000 + g.size)
        perms = [range(g.order - 1, -1, -1)]
        for _ in range(3):
            perms.append(list(range(g.order)))
            rng.shuffle(perms[-1])
        for perm in perms:
            assert compiled.canonical_min_rows(relabel(g.rows, perm)) == want

    @pytest.mark.parametrize("g", MAX_LEX_GRAPHS)
    def test_canonical_max_rows(self, compiled, g):
        # parity on g, then invariance under reversed and seeded relabelings
        want = _pykernels.canonical_max_rows(g.rows)
        rng = random.Random(g.order * 1000 + g.size)
        perms = [range(g.order), range(g.order - 1, -1, -1)]
        for _ in range(3):
            perms.append(list(range(g.order)))
            rng.shuffle(perms[-1])
        for perm in perms:
            rows = relabel(g.rows, perm)
            assert tuple(compiled.canonical_max_rows(rows)) == want
            assert _pykernels.canonical_max_rows(rows) == want

    @pytest.mark.parametrize("g", SAMPLE_GRAPHS)
    def test_is_canonical_max(self, compiled, g):
        assert compiled.is_canonical_max(g.rows) == _pykernels.is_canonical_max(
            g.rows
        )


class TestCanonicalMaxOracle:
    """is_canonical_max, canonical_max_rows and canonical_min_rows against
    brute force over all n! relabelings, on both backends."""

    def check(self, compiled, rows):
        want = oracles.brute_is_canonical_max(rows)
        assert _pykernels.is_canonical_max(rows) == want, rows
        assert compiled.is_canonical_max(rows) == want, rows
        top = oracles.brute_max_labelling(rows)
        assert _pykernels.canonical_max_rows(rows) == top, rows
        assert compiled.canonical_max_rows(rows) == top, rows
        least = oracles.brute_canonical_min(Graph.from_rows(rows)).rows
        assert _pykernels.canonical_min_rows(rows) == least, rows
        assert compiled.canonical_min_rows(rows) == least, rows

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_labelled_graph(self, compiled, n):
        for rows in oracles.labelled_graphs(n):
            self.check(compiled, rows)

    @settings(max_examples=100, deadline=None)
    @given(oracles.graph_strategy(min_order=6, max_order=7))
    def test_sampled_graphs(self, compiled, g):
        self.check(compiled, g.rows)

    @pytest.mark.parametrize("g", TWIN_RICH)
    def test_twin_rich(self, compiled, g):
        top = oracles.brute_max_labelling(g.rows)
        assert _pykernels.is_canonical_max(top)
        assert compiled.is_canonical_max(top)
        rng = random.Random(g.order * 1000 + g.size)
        for _ in range(6):
            perm = list(range(g.order))
            rng.shuffle(perm)
            self.check(compiled, relabel(top, perm))

    def test_shuffled_k88_min_lex(self, compiled):
        # Compiled only: the pure-Python min-lex search takes over 15 s here.
        g = complete_bipartite(8, 8)
        perm = list(range(16))
        random.Random(88).shuffle(perm)
        assert compiled.canonical_min_rows(relabel(g.rows, perm)) == g.rows


class TestEnumerationParity:
    @pytest.mark.parametrize(
        "n,d",
        [
            (8, 3),
            (6, 2),
            (4, 0),
            (7, 3),  # odd degree sum: no graphs
            (9, 4),
            # where the degree look-ahead cuts most
            (10, 3),
            (10, 4),
            (11, 4),
            (12, 3),
            # where the first-neighbour look-ahead cuts most
            (14, 3),
        ],
    )
    def test_enumerate_regular_rows(self, compiled, n, d):
        a = compiled.enumerate_regular_rows(n, d, False)
        b = _pykernels.enumerate_regular_rows(n, d, False)
        assert [tuple(rows) for rows in a] == b
        assert len(b) == len(set(b))

    @pytest.mark.parametrize(
        "n,d,raw",
        [(10, 3, 21), (10, 4, 60), (11, 4, 266), (12, 3, 94), (14, 3, 540)],
    )
    def test_raw_lengths(self, compiled, n, d, raw):
        for kernel in (compiled, _pykernels):
            assert len(kernel.enumerate_regular_rows(n, d, False)) == raw

    # Too slow for the pure-Python backend in Tier-1.
    @pytest.mark.parametrize("n,d,raw", [(12, 4, 1547), (16, 3, 4207)])
    def test_compiled_raw_lengths(self, compiled, n, d, raw):
        """One max-lex representative per class: the raw list is as long as
        the class count and each row is its own max-lex form."""
        reps = compiled.enumerate_regular_rows(n, d, False)
        assert len(set(reps)) == len(reps) == raw
        assert all(compiled.canonical_max_rows(rows) == rows for rows in reps)


def _sparse_degrees(n):
    """The degrees d with 2d <= n - 1, the side orderly generation covers."""
    return range((n + 1) // 2)


class TestDegreeLookahead:
    """Every partial graph the look-ahead cuts during orderly generation has
    no d-regular completion in the cells after its last edge."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cuts_only_dead_partial_graphs(self, monkeypatch, n):
        check = _pykernels.degree_lookahead
        cut = []

        def recording(deg, d, i0, j0):
            ok = check(deg, d, i0, j0)
            if not ok:
                cut.append((tuple(deg), d, i0, j0))
            return ok

        monkeypatch.setattr(_pykernels, "degree_lookahead", recording)
        cells = [(i, j) for j in range(n) for i in range(j)]
        for d in _sparse_degrees(n):
            raw = _pykernels.enumerate_regular_rows(n, d, False)
            assert oracles.has_regular_completion([0] * n, d, cells) == bool(raw)
        for deg, d, i0, j0 in cut:
            after = cells[cells.index((i0, j0)) + 1 :]
            assert not oracles.has_regular_completion(deg, d, after), (deg, i0, j0)
        if n >= 6:
            assert cut


class TestCanonicityCalls:
    """The look-aheads, the connected cut and the test schedule (once per
    partial graph, before its first extension into a later column that
    passes the look-aheads unless that lies in the last column, and at
    every leaf) fix how many canonicity tests run; a change to any of them
    that alters the search changes these counts."""

    @pytest.mark.parametrize(
        "n,d,connected_only,calls",
        [(12, 3, False, 976), (12, 3, True, 881), (9, 4, True, 211)],
    )
    def test_counts(self, monkeypatch, n, d, connected_only, calls):
        check = _pykernels.is_canonical_max
        count = 0

        def counting(*args):
            nonlocal count
            count += 1
            return check(*args)

        monkeypatch.setattr(_pykernels, "is_canonical_max", counting)
        _pykernels.enumerate_regular_rows(n, d, connected_only)
        assert count == calls


class TestDeferredCanonicity:
    """A partial graph is tested only before its first extension into a
    later column that passes the look-aheads, never before one in the last
    column, and every complete graph at the leaf.  Where a test rejects, no
    completion by the cells after the graph's last edge is a max-lex
    canonical d-regular graph, and every graph returned is canonical."""

    @pytest.mark.parametrize("connected_only", [False, True])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_partial_graphs_tested_only_before_a_live_extension(
        self, monkeypatch, n, connected_only
    ):
        check = _pykernels.is_canonical_max
        tested = []

        def recording(rows):
            if sum(r.bit_count() for r in rows) < n * d:
                tested.append(tuple(rows))
            return check(rows)

        def live(rows, u, i, j):
            # rows plus the edge (i, j) passes the look-aheads.
            child = list(rows)
            child[i] |= 1 << j
            child[j] |= 1 << i
            deg = [r.bit_count() for r in child]
            if d + 1 in (deg[i], deg[j]):
                return False
            if connected_only and _pykernels.connected_cut(child, deg, d, u):
                return False
            return _pykernels.degree_lookahead(deg, d, i, j)

        monkeypatch.setattr(_pykernels, "is_canonical_max", recording)
        cells = [(i, j) for j in range(n) for i in range(j)]
        seen = 0
        for d in _sparse_degrees(n):
            tested.clear()
            _pykernels.enumerate_regular_rows(n, d, connected_only)
            seen += len(tested)
            for rows in tested:
                u = min(v for v in range(n) if rows[v].bit_count() < d)
                last = max(
                    p for p, (i, j) in enumerate(cells) if (rows[j] >> i) & 1
                )
                assert any(
                    live(rows, u, i, j)
                    for i, j in cells[last + 1 :]
                    if cells[last][1] < j < n - 1
                ), (rows, d)
        if n >= 7:
            assert seen

    @pytest.mark.parametrize("connected_only", [False, True])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_rejects_only_non_canonical_completions(
        self, monkeypatch, n, connected_only
    ):
        check = _pykernels.is_canonical_max
        rejected = []

        def recording(rows):
            canonical = check(rows)
            if not canonical:
                rejected.append((tuple(rows), d))
            return canonical

        monkeypatch.setattr(_pykernels, "is_canonical_max", recording)
        cells = [(i, j) for j in range(n) for i in range(j)]
        for d in _sparse_degrees(n):
            for rows in _pykernels.enumerate_regular_rows(n, d, connected_only):
                assert check(rows), (rows, d)
        for rows, d in rejected:
            # edges are added in cell order, so the last one is the latest
            last = max(p for p, (i, j) in enumerate(cells) if (rows[j] >> i) & 1)
            found = oracles.has_canonical_regular_completion(
                rows, d, cells[last + 1 :]
            )
            assert not found, (rows, d)
        if n >= 7:
            assert rejected


class TestFirstNeighbourCut:
    """Where the first-neighbour look-ahead ends the loop over a partial
    graph's cells, no completion by that cell and the cells after it is a
    max-lex canonical d-regular graph."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cuts_only_non_canonical_completions(self, monkeypatch, n):
        check = _pykernels.first_neighbour_cut
        cut = []

        def recording(rows, u, i, j):
            stop = check(rows, u, i, j)
            if stop:
                cut.append((tuple(rows), d, i, j))
            return stop

        monkeypatch.setattr(_pykernels, "first_neighbour_cut", recording)
        cells = [(i, j) for j in range(n) for i in range(j)]
        for d in _sparse_degrees(n):
            _pykernels.enumerate_regular_rows(n, d, False)
        for rows, d, i, j in cut:
            after = cells[cells.index((i, j)) :]
            found = oracles.has_canonical_regular_completion(rows, d, after)
            assert not found, (rows, d, i, j)
        if n >= 6:
            assert cut


class TestConnectedCut:
    """Where connected_cut skips a partial graph, no completion by the cells
    after its last edge is a connected max-lex canonical d-regular graph."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cuts_only_disconnected_completions(self, monkeypatch, n):
        check = _pykernels.connected_cut
        cut = []

        def recording(rows, deg, d, u):
            skip = check(rows, deg, d, u)
            if skip:
                cut.append((tuple(rows), d))
            return skip

        monkeypatch.setattr(_pykernels, "connected_cut", recording)
        cells = [(i, j) for j in range(n) for i in range(j)]
        for d in _sparse_degrees(n):
            _pykernels.enumerate_regular_rows(n, d, True)
        for rows, d in cut:
            # edges are added in cell order, so the last one is the latest
            last = max(p for p, (i, j) in enumerate(cells) if (rows[j] >> i) & 1)
            found = oracles.has_canonical_regular_completion(
                rows, d, cells[last + 1 :], connected_only=True
            )
            assert not found, (rows, d)
        if n >= 4:
            assert cut


# (n, d) pairs checked on both backends, the dense side included.
CONNECTED_CASES = [(n, d) for n in range(1, 12) for d in range(n)]
CONNECTED_CASES += [(12, 3), (14, 3)]


def _connected(reps):
    return [rows for rows in reps if is_connected(Graph.from_rows(rows))]


class TestConnectedOnly:
    """On the sparse side 2d <= n - 1, the raw list with connected_only is
    the connected subset of the full list, in order.  The dense side, which
    enumerate_regular reaches through the complement, raises ValueError."""

    @pytest.mark.parametrize("n,d", CONNECTED_CASES)
    def test_connected_subset_on_both_backends(self, compiled, n, d):
        if 2 * d > n - 1:
            for kernel in (compiled, _pykernels):
                for connected_only in (False, True):
                    with pytest.raises(ValueError):
                        kernel.enumerate_regular_rows(n, d, connected_only)
            return
        want = _pykernels.enumerate_regular_rows(n, d, False)
        got = _pykernels.enumerate_regular_rows(n, d, True)
        assert got == _connected(want)
        assert compiled.enumerate_regular_rows(n, d, False) == want
        assert compiled.enumerate_regular_rows(n, d, True) == got

    # Too slow for the pure-Python backend in Tier-1.
    @pytest.mark.parametrize("n,d,count", [(12, 4, 1544), (16, 3, 4060)])
    def test_compiled_connected_subset(self, compiled, n, d, count):
        want = compiled.enumerate_regular_rows(n, d, False)
        got = compiled.enumerate_regular_rows(n, d, True)
        assert got == _connected(want)
        assert len(got) == count


class TestLimits:
    @pytest.mark.parametrize("op,args,exc", OUT_OF_RANGE)
    def test_out_of_range_input_raises(self, compiled, op, args, exc):
        with pytest.raises(exc):
            getattr(compiled, op)(*args)

    @pytest.mark.parametrize("op", ["hom_count", "inj_count"])
    def test_empty_pattern_raises_the_same_on_both_backends(self, compiled, op):
        for module in (compiled, _pykernels, kernels):
            with pytest.raises(ValueError, match="at least one vertex"):
                getattr(module, op)((), petersen().rows)
