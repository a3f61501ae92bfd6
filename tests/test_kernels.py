"""Backend parity: the compiled counting kernels must agree exactly with
the pure-Python reference implementations on every exposed operation.

When homcert._kernels is not importable, the module builds
src/homcert/_kernels.c with setuptools into a temporary directory and
loads it without registering it, so the rest of the session keeps the
backend it started with.  A build failure errors these tests; it never
skips them."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from homcert import _pykernels, kernels
from homcert.graphs import (
    Graph,
    circulant,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    path,
    petersen,
)

SOURCE = Path(__file__).resolve().parents[1] / "src" / "homcert" / "_kernels.c"
BACKEND_AT_IMPORT = kernels.BACKEND
BUDGET = _pykernels.CANON_BUDGET


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

SAMPLE_GRAPHS = [
    complete(5),
    petersen(),
    cycle(7),
    complete_bipartite(2, 4),
    disjoint_union(cycle(3), path(3)),
    Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]),
    Graph(3),
    complement(cycle(64)),  # 64 vertices, few ties
    complete(64),
]

OUT_OF_RANGE = [
    ("hom_count", ((0,) * 49, (0,)), ValueError),
    ("inj_count", ((0,), (0,) * 65), ValueError),
    ("canonical_min_rows", ((0,) * 65,), ValueError),
    ("is_canonical_max", ((0,) * 65, BUDGET), ValueError),
    ("enumerate_regular_rows", (65, 4, BUDGET), ValueError),
    ("enumerate_regular_rows", (0, 0, BUDGET), ValueError),
    ("hom_count", ((0,), (1 << 64,)), OverflowError),
    ("inj_count", ((-1,), (0,)), OverflowError),
    ("canonical_min_rows", ((0, -2),), OverflowError),
    ("is_canonical_max", ((1 << 70, 0), BUDGET), OverflowError),
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


class TestCanonicalParity:
    @pytest.mark.parametrize("g", SAMPLE_GRAPHS)
    def test_canonical_min_rows(self, compiled, g):
        assert tuple(compiled.canonical_min_rows(g.rows)) == tuple(
            _pykernels.canonical_min_rows(g.rows)
        )

    @pytest.mark.parametrize("g", SAMPLE_GRAPHS)
    def test_canonical_invariant_under_relabeling(self, compiled, g):
        # reverse-relabel and compare canonical forms across backends
        n = g.order
        perm = tuple(range(n - 1, -1, -1))
        rows = [0] * n
        for v in range(n):
            r = g.rows[v]
            while r:
                u = (r & -r).bit_length() - 1
                r &= r - 1
                rows[perm[v]] |= 1 << perm[u]
        assert tuple(compiled.canonical_min_rows(tuple(rows))) == tuple(
            _pykernels.canonical_min_rows(g.rows)
        )

    @pytest.mark.parametrize("budget", [BUDGET, 1])
    @pytest.mark.parametrize("g", SAMPLE_GRAPHS)
    def test_is_canonical_max(self, compiled, g, budget):
        assert compiled.is_canonical_max(
            g.rows, budget
        ) == _pykernels.is_canonical_max(g.rows, budget)


class TestEnumerationParity:
    @pytest.mark.parametrize(
        "n,d,budget",
        [
            (6, 3, BUDGET),
            (7, 4, BUDGET),
            (8, 3, BUDGET),
            (6, 2, BUDGET),
            (5, 4, BUDGET),
            (4, 0, BUDGET),
            (5, 3, BUDGET),  # odd degree sum: no graphs
            (6, 3, 1),  # budget runs out: spurious representatives kept
            (7, 4, 1),
        ],
    )
    def test_enumerate_regular_rows(self, compiled, n, d, budget):
        a = [tuple(rows) for rows in compiled.enumerate_regular_rows(n, d, budget)]
        b = [tuple(rows) for rows in _pykernels.enumerate_regular_rows(n, d, budget)]
        assert a == b
        assert len(a) == len(set(a))


class TestLimits:
    @pytest.mark.parametrize("op,args,exc", OUT_OF_RANGE)
    def test_out_of_range_input_raises(self, compiled, op, args, exc):
        with pytest.raises(exc):
            getattr(compiled, op)(*args)
