"""Exact spectral moments, closed walks, reported eigenvalues."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from homcert import graphs as hg
from homcert import homomorphism as hm
from homcert import spectral as sp
from homcert.poly import BivarPoly


class TestTracePower:
    def test_frozen_values(self):
        k4 = hg.complete(4)
        assert sp.trace_power(k4, 3) == 24
        assert sp.trace_power(k4, 5) == 240
        pet = hg.petersen()
        # spectrum 3 (x1), 1 (x5), -2 (x4): tr A^4 = 81 + 5 + 64
        assert sp.trace_power(pet, 2) == 30
        assert sp.trace_power(pet, 3) == 0
        assert sp.trace_power(pet, 4) == 150
        assert sp.trace_power(pet, 5) == 120

    def test_low_powers(self):
        g = hg.cycle(7)
        assert sp.trace_power(g, 0) == 7
        assert sp.trace_power(g, 1) == 0
        assert sp.trace_power(g, 2) == 14  # twice the edge count

    @settings(max_examples=40, deadline=None)
    @given(oracles.graph_strategy(min_order=1, max_order=6))
    def test_matches_numpy_eigenvalues(self, g):
        a = np.array(
            [[1.0 if g.has_edge(u, v) else 0.0 for u in range(g.order)]
             for v in range(g.order)]
        )
        vals = np.linalg.eigvalsh(a)
        for k in range(7):
            assert sp.trace_power(g, k) == round(float((vals**k).sum()))

    def test_equals_cycle_homomorphisms(self):
        for g in [hg.petersen(), hg.complete(5), hg.complete_bipartite(3, 3)]:
            for k in range(3, 9):
                assert sp.trace_power(g, k) == hm.hom_count(hg.cycle(k), g)

    def test_guards(self):
        with pytest.raises(ValueError):
            sp.trace_power(hg.complete(3), 17)
        with pytest.raises(ValueError):
            sp.trace_power(hg.complete(3), -1)


class TestClosedWalks:
    def test_complete_graph(self):
        k4 = hg.complete(4)
        for v in range(4):
            assert sp.closed_walks_at_vertex(k4, v, 3) == 6
            assert sp.closed_walks_at_vertex(k4, v, 5) == 60

    def test_sums_to_trace(self):
        for g in [hg.petersen(), hg.cycle(6), hg.disjoint_union(hg.complete(4), hg.cycle(5))]:
            for k in (2, 3, 4, 5):
                assert sum(
                    sp.closed_walks_at_vertex(g, v, k) for v in range(g.order)
                ) == sp.trace_power(g, k)

    def test_walks_zero_and_one(self):
        g = hg.path(3)
        assert sp.closed_walks_at_vertex(g, 0, 0) == 1
        assert sp.closed_walks_at_vertex(g, 0, 1) == 0
        assert sp.closed_walks_at_vertex(g, 1, 2) == 2

    def test_vertex_range(self):
        with pytest.raises(ValueError):
            sp.closed_walks_at_vertex(hg.complete(3), 3, 2)


class TestSpectralMoments:
    def test_moments_vector(self):
        m = sp.spectral_moments(hg.complete(4), 5)
        assert m.order == 4
        assert m.traces == (4, 0, 12, 24, 84, 240)


class TestWalkTable:
    """Every exact spectral quantity of a graph comes from one table of
    the diagonals of A^0 ... A^16."""

    @staticmethod
    def dense_powers(g, kmax):
        n = g.order
        a = [[int(g.has_edge(u, v)) for u in range(n)] for v in range(n)]
        m = [[int(u == v) for u in range(n)] for v in range(n)]
        out = [m]
        for _ in range(kmax):
            m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)]
                 for row in m]
            out.append(m)
        return out

    @pytest.mark.parametrize(
        "g",
        [hg.petersen(), hg.complete_bipartite(3, 3),
         hg.circulant(64, (1, 2, 3)), hg.Graph(1)],
        ids=["petersen", "k33", "circulant64", "k1"],
    )
    def test_matches_dense_powers(self, g):
        kmax = sp.MAX_TRACE_POWER
        for k, m in enumerate(self.dense_powers(g, kmax)):
            diag = [m[v][v] for v in range(g.order)]
            assert [
                sp.closed_walks_at_vertex(g, v, k) for v in range(g.order)
            ] == diag
            assert sp.trace_power(g, k) == sum(diag)
        assert sp.spectral_moments(g, kmax).traces == tuple(
            sp.trace_power(g, k) for k in range(kmax + 1)
        )

    def test_one_table_per_graph(self):
        g = hg.circulant(32, (1, 3, 7))
        p = BivarPoly({(16, 0): 1, (5, 2): -3, (0, 1): 2})
        table = sp._power_diag_and_trace
        table.cache_clear()
        sp.spectral_moments(g, sp.MAX_TRACE_POWER)
        sp.eval_poly_sum(p, g)
        sp.closed_walks_at_vertex(g, 5, 9)
        info = table.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestEigenvalues:
    def test_complete_graph(self):
        meas = sp.eigenvalues(hg.complete(4))
        assert [(round(v), m) for v, m in meas.values] == [(3, 1), (-1, 3)]
        assert meas.order == 4

    def test_bipartite_symmetric(self):
        meas = sp.eigenvalues(hg.complete_bipartite(3, 3))
        assert [(round(v), m) for v, m in meas.values] == [(3, 1), (0, 4), (-3, 1)]

    def test_petersen(self):
        meas = sp.eigenvalues(hg.petersen())
        assert [(round(v), m) for v, m in meas.values] == [(3, 1), (1, 5), (-2, 4)]

    def test_cycle_clustering(self):
        meas = sp.eigenvalues(hg.cycle(5))
        assert [m for _, m in meas.values] == [1, 2, 2]
        assert meas.values[0][0] == pytest.approx(2.0)


class TestEvalPolySum:
    def test_k8_quintic(self):
        # the quintic certificate lam^5 + (5 - 5d) lam^3 summed over K8's
        # spectrum (7 once, -1 seven times) recovers inj(C5, K8) = 8.7.6.5.4
        p = BivarPoly({(5, 0): 1, (3, 0): 5, (3, 1): -5})
        assert sp.eval_poly_sum(p, hg.complete(8)) == 6720

    def test_petersen_quintic(self):
        # inj(C5, Petersen) recovered spectrally: lam^5 + (5 - 5d) lam^3
        p = BivarPoly({(5, 0): 1, (3, 0): 5, (3, 1): -5})
        assert sp.eval_poly_sum(p, hg.petersen()) == 120
        assert sp.eval_poly_sum(p, hg.petersen(), d=3) == 120

    def test_c4_poly_on_k33(self):
        p = BivarPoly({(4, 0): 1, (0, 2): -2, (0, 1): 1})
        assert sp.eval_poly_sum(p, hg.complete_bipartite(3, 3)) == 72

    def test_exact_rational(self):
        p = BivarPoly({(2, 0): Fraction(1, 3)})
        assert sp.eval_poly_sum(p, hg.cycle(6)) == 4

    def test_requires_regular(self):
        with pytest.raises(ValueError):
            sp.eval_poly_sum(BivarPoly({(1, 0): 1}), hg.path(3))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            sp.eval_poly_sum(BivarPoly({(1, 0): 1}), hg.cycle(5), d=3)

    def test_lambda_degree_guard(self):
        with pytest.raises(ValueError):
            sp.eval_poly_sum(BivarPoly({(17, 0): 1}), hg.cycle(5))

    def test_matches_float_spectrum(self):
        p = BivarPoly({(4, 0): 1, (2, 1): -1, (0, 0): 2})
        for g in [hg.petersen(), hg.cycle(8), hg.complete(5)]:
            exact = sp.eval_poly_sum(p, g)
            d = hg.metrics(g).regularity
            approx = sum(
                mult * (v**4 - d * v**2 + 2)
                for v, mult in sp.eigenvalues(g).values
            )
            assert math.isclose(float(exact), approx, abs_tol=1e-6)


class TestDoubleCoverSpectrum:
    """The double cover's spectrum is the union of the spectrum and its
    negation, so odd traces vanish and even traces double."""

    @settings(max_examples=25, deadline=None)
    @given(oracles.graph_strategy(min_order=1, max_order=6))
    def test_trace_relations(self, g):
        cover = hg.bipartite_double_cover(g)
        for k in range(0, 9):
            t = sp.trace_power(cover, k)
            if k % 2:
                assert t == 0
            else:
                assert t == 2 * sp.trace_power(g, k)
