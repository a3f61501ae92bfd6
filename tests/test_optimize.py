"""Tests for y-domain transforms, Sturm positivity, and majorant certificates."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcert import optimize
from homcert.graphs import complete, complete_bipartite, enumerate_regular
from homcert.optimize import (
    MajorantCertificate,
    certify_threshold,
    extremal_measure,
    isolate_roots,
    majorant_check,
    measure_expectation,
    sturm_nonneg_on_interval,
    transform,
)
from homcert.poly import BivarPoly, UniPoly
from homcert.spectral import eval_poly_sum

from oracles import fraction_sturm_chain


def mono(k, j, c=1):
    return BivarPoly({(k, j): c})


C5_POLY = BivarPoly({(5, 0): 1, (3, 0): 5, (3, 1): -5})
C4_POLY = BivarPoly({(4, 0): 1, (0, 2): -2, (0, 1): 1})


def frac(s):
    num, den = s.split("/")
    return Fraction(int(num), int(den))


class TestTransforms:
    def test_even_frozen(self):
        assert transform(mono(4, 0), "bipartite", 5) == UniPoly((0, 0, 1))
        assert transform(mono(2, 2), "bipartite", 9) == UniPoly((0, 1))
        q = transform(C4_POLY, "bipartite", 3)
        assert q == UniPoly((Fraction(-5, 27), 0, 1))

    def test_odd_frozen(self):
        assert transform(mono(3, 0), "non-bipartite", 4) == UniPoly((0, 0, 0, 1))
        assert transform(mono(1, 2), "non-bipartite", 6) == UniPoly((0, 1))
        q = transform(C5_POLY, "non-bipartite", 7)
        assert q == UniPoly.from_terms({5: 1, 3: Fraction(-30, 49)})

    def test_odd_transform_general_d(self):
        for d in range(2, 10):
            q = transform(C5_POLY, "non-bipartite", d)
            want = UniPoly.from_terms(
                {5: 1, 3: Fraction(5 * (1 - d), d * d)}
            )
            assert q == want

    def test_transform_scales_by_spectral_substitution(self):
        # q(x/d) * d^n == p(x, d) for the odd transform
        d = 5
        n = C5_POLY.total_degree()
        q = transform(C5_POLY, "non-bipartite", d)
        for x in (Fraction(3), Fraction(-1), Fraction(7, 2)):
            assert q(x / d) * d**n == C5_POLY.evaluate(x, d)

    def test_even_requires_even_exponents(self):
        with pytest.raises(ValueError, match="even"):
            transform(mono(3, 0), "bipartite", 3)

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            transform(mono(4, 0), "bipartite", 1)
        with pytest.raises(ValueError):
            transform(mono(3, 0), "non-bipartite", 1)


class TestSturm:
    def test_irrational_root_isolated(self):
        (lo, hi), = isolate_roots(UniPoly((-2, 0, 1)), 0, 2)
        assert hi - lo < Fraction(1, 2**20)
        assert lo * lo < 2 < hi * hi

    def test_two_rational_roots(self):
        p = UniPoly((-Fraction(1, 3), 1)) * UniPoly((-Fraction(2, 3), 1))
        roots = isolate_roots(p, 0, 1)
        assert len(roots) == 2
        (a1, b1), (a2, b2) = roots
        assert a1 <= Fraction(1, 3) <= b1
        assert a2 <= Fraction(2, 3) <= b2
        assert b1 < a2

    def test_dyadic_root_found_exactly(self):
        p = UniPoly((-Fraction(1, 2), 1))
        assert isolate_roots(p, 0, 1) == [(Fraction(1, 2), Fraction(1, 2))]

    def test_multiple_root_counted_once(self):
        p = UniPoly((-Fraction(1, 2), 1))
        assert isolate_roots(p * p * p, 0, 1) == [
            (Fraction(1, 2), Fraction(1, 2))
        ]

    def test_no_roots(self):
        assert isolate_roots(UniPoly((1, 0, 1)), -5, 5) == []

    @pytest.mark.parametrize("a, b", [(1, 0), (0, 0)])
    def test_empty_interval_rejected(self, a, b):
        with pytest.raises(ValueError):
            isolate_roots(UniPoly((-Fraction(1, 3), 1)), a, b)

    @given(
        st.dictionaries(
            st.fractions(
                min_value=Fraction(1, 50),
                max_value=Fraction(49, 50),
                max_denominator=50,
            ),
            st.integers(min_value=1, max_value=3),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_isolation_recovers_planted_roots(self, roots):
        # most planted roots are not dyadic, so bisection meets a repeated
        # one only through the counts of a non-squarefree chain
        p = UniPoly((1,))
        for r, mult in roots.items():
            for _ in range(mult):
                p = p * UniPoly((-r, 1))
        found = isolate_roots(p, 0, 1)
        assert len(found) == len(roots)
        for (lo, hi), r in zip(found, sorted(roots)):
            assert lo <= r <= hi

    @pytest.mark.parametrize("case", ["C5 at d = 3", "dyadic root deflated"])
    def test_each_point_evaluated_once_per_chain(self, monkeypatch, case):
        """isolate_roots carries each interval's left-end variation count,
        so no (chain, point) pair is evaluated twice in one call; after a
        rational root is deflated, the new chain is evaluated afresh."""
        seen = []
        repeats = []
        variations = optimize._variations

        def counting(chain, x):
            key = (tuple(q.coeffs for q in chain), x)
            if key in seen:
                repeats.append(key)
            seen.append(key)
            return variations(chain, x)

        monkeypatch.setattr(optimize, "_variations", counting)
        if case == "C5 at d = 3":
            cert = majorant_check(C5_POLY, "non-bipartite", 3)
            assert not cert.passed
        else:
            # bisection of (0, 1) meets the root 1/2 first, then isolates
            # 1/sqrt(3) with the deflated chain
            p = UniPoly((-Fraction(1, 2), 1)) * UniPoly((-Fraction(1, 3), 0, 1))
            roots = isolate_roots(p, 0, 1)
            assert roots[0] == (Fraction(1, 2), Fraction(1, 2))
            lo, hi = roots[1]
            assert 3 * lo * lo < 1 < 3 * hi * hi
        assert len(seen) > 20  # the roots were refined
        assert repeats == []

    def test_strict_positive_on_open(self):
        assert sturm_nonneg_on_interval(UniPoly((1,)), 0, 1).ok
        # y - y^2 vanishes only at the endpoints
        v = sturm_nonneg_on_interval(UniPoly((0, 1, -1)), 0, 1)
        assert v.ok

    def test_negative_square_detected(self):
        half = UniPoly((-Fraction(1, 2), 1))
        r = -(half * half)
        v = sturm_nonneg_on_interval(r, 0, 1)
        assert not v.ok
        assert r(v.witness_point) < 0

    def test_touching_square_fails(self):
        half = UniPoly((-Fraction(1, 2), 1))
        r = half * half
        v = sturm_nonneg_on_interval(r, 0, 1)
        assert not v.ok
        lo, hi = v.witness_interval
        assert lo <= Fraction(1, 2) <= hi
        assert v.witness_point is None

    def test_touching_square_at_non_dyadic_point_fails(self):
        third = UniPoly((-Fraction(1, 3), 1))
        v = sturm_nonneg_on_interval(third * third, 0, 1)
        assert not v.ok
        assert v.witness_point is None
        lo, hi = v.witness_interval
        assert lo <= Fraction(1, 3) <= hi
        assert hi - lo < Fraction(1, 2**20)

    def test_interior_sign_change_witnessed(self):
        r = UniPoly((-Fraction(1, 3), 1))  # negative below 1/3
        v = sturm_nonneg_on_interval(r, 0, 1)
        assert not v.ok
        assert r(v.witness_point) < 0
        assert v.witness_interval is not None
        lo, hi = v.witness_interval
        assert hi - lo < Fraction(1, 2**20)

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            sturm_nonneg_on_interval(UniPoly(()), 0, 1)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            sturm_nonneg_on_interval(UniPoly((1,)), 1, 0)


@st.composite
def factored_polys(draw):
    """(p, roots): p a rational multiple of a product of integer factors
    of degree 1 to 3, some squared, of degree at most 8; roots are the
    exact rational roots of its linear factors."""
    p = UniPoly((draw(st.fractions(max_denominator=12).filter(bool)),))
    roots = []
    factors = st.lists(st.integers(-9, 9), min_size=1, max_size=3)
    for low, lead, mult in draw(
        st.lists(
            st.tuples(factors, st.integers(-9, 9).filter(bool),
                      st.integers(1, 2)),
            max_size=5,
        )
    ):
        f = UniPoly((*low, lead))
        if p.degree + mult * f.degree > 8:
            continue
        if f.degree == 1:
            roots.append(Fraction(-low[0], lead))
        for _ in range(mult):
            p = p * f
    return p, roots


class TestIntegerSigns:
    """Every sign of the positivity layer is read in integers, from the
    primitive part of a rational polynomial."""

    @given(
        factored_polys(),
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=64),
            max_size=8,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_sign_matches_rational_value(self, case, points):
        p, roots = case
        prim = optimize._primitive(p.coeffs)
        assert all(type(c) is int for c in prim.coeffs)
        for x in points + roots:
            v = p(x)
            assert prim.sign_at(x) == (v > 0) - (v < 0)
        for x in roots:
            assert prim.sign_at(x) == 0

    @given(factored_polys())
    @settings(max_examples=150, deadline=None)
    def test_pseudo_remainder_chain_is_the_rational_chain(self, case):
        p, _ = case
        chain = optimize._sturm_chain(optimize._primitive(p.coeffs))
        assert [q.coeffs for q in chain] == [
            q.coeffs for q in fraction_sturm_chain(p)
        ]
        assert all(type(c) is int for q in chain for c in q.coeffs)

    @given(factored_polys())
    @settings(max_examples=100, deadline=None)
    def test_deflation_is_the_primitive_exact_quotient(self, case):
        p, roots = case
        for x in roots:
            want = p
            while want(x) == 0:
                want = want.divexact(UniPoly((-x, 1)))
            got = optimize._deflate_at(optimize._primitive(p.coeffs), x)
            assert got.coeffs == want.content_primitive()[1].coeffs
            assert all(type(c) is int for c in got.coeffs)

    @pytest.mark.parametrize("parity", ["bipartite", "non-bipartite"])
    def test_contact_factor_is_the_product_of_contact_factors(self, parity):
        _, (lo, hi), contacts_at = optimize._PARITY[parity]
        for d in range(2, 13):
            want = UniPoly((1,))
            for point, mult in contacts_at(d):
                factor = UniPoly((hi, -1) if point == hi else (-point, 1))
                for _ in range(mult):
                    want = want * factor
            assert optimize._contact_factor_poly(parity, d) == want


class TestMajorantEven:
    def test_monomials_pass_all_d(self):
        for k in (2, 4, 6, 8):
            for d in range(2, 13):
                cert = majorant_check(mono(k, 0), "bipartite", d)
                assert cert.passed, (k, d)

    def test_quadratic_monomial_is_flat(self):
        cert = majorant_check(mono(2, 0), "bipartite", 5)
        assert cert.passed and cert.flat
        cert = majorant_check(mono(2, 2), "bipartite", 3)
        assert cert.passed and cert.flat
        assert cert.q == UniPoly((0, 1))

    def test_c4_poly_passes_and_constants_cancel(self):
        for d in (2, 3, 9):
            cert = majorant_check(C4_POLY, "bipartite", d)
            assert cert.passed
            pure = majorant_check(mono(4, 0), "bipartite", d)
            # additive constants shift q and L together, leaving L - q alone
            assert cert.residual == pure.residual

    def test_contacts_exact(self):
        cert = majorant_check(C4_POLY, "bipartite", 3)
        assert cert.majorant(0) == cert.q(0)
        assert cert.majorant(1) == cert.q(1)
        assert cert.majorant.degree <= 1

    def test_factorization_identity(self):
        for d in (2, 3, 7):
            cert = majorant_check(C4_POLY, "bipartite", d)
            assert (
                cert.contact_factor_poly() * cert.residual + cert.q
                == cert.majorant
            )

    def test_concave_violation_fails_with_witness(self):
        cert = majorant_check(mono(4, 0, -1), "bipartite", 3)
        assert not cert.passed
        assert cert.witness["type"] == "strict"
        y = frac(cert.witness["y"])
        assert cert.q(y) > cert.majorant(y)
        assert 0 < y < 1

    def test_odd_exponent_rejected(self):
        with pytest.raises(ValueError):
            majorant_check(C5_POLY, "bipartite", 3)


class TestMajorantOdd:
    def test_monomials_pass_all_d(self):
        for k in (1, 3, 5, 7):
            for d in range(2, 13):
                cert = majorant_check(mono(k, 0), "non-bipartite", d)
                assert cert.passed, (k, d)

    def test_linear_is_flat(self):
        cert = majorant_check(mono(1, 2), "non-bipartite", 3)
        assert cert.passed and cert.flat
        assert cert.q == UniPoly((0, 1))

    def test_cubic_residual_is_one(self):
        cert = majorant_check(mono(3, 0), "non-bipartite", 4)
        assert cert.residual == UniPoly((1,))
        assert cert.passed and not cert.flat

    def test_c5_poly_verdicts(self):
        for d in range(2, 13):
            cert = majorant_check(C5_POLY, "non-bipartite", d)
            assert cert.passed == (d >= 7), d

    def test_c5_failures_have_exact_strict_witnesses(self):
        for d in (2, 3, 4, 5, 6):
            cert = majorant_check(C5_POLY, "non-bipartite", d)
            assert cert.witness["type"] == "strict"
            y = frac(cert.witness["y"])
            assert -1 <= y <= 1
            assert cert.q(y) > cert.majorant(y)

    def test_contacts_exact(self):
        for d in (3, 7):
            cert = majorant_check(C5_POLY, "non-bipartite", d)
            y0 = Fraction(-1, d)
            assert cert.majorant(y0) == cert.q(y0)
            assert cert.majorant.derivative()(y0) == cert.q.derivative()(y0)
            assert cert.majorant(1) == cert.q(1)
            assert cert.majorant.degree <= 2
            assert cert.designed_contacts == ((y0, 2), (Fraction(1), 1))

    def test_factorization_identity(self):
        for d in (2, 5, 7, 12):
            cert = majorant_check(C5_POLY, "non-bipartite", d)
            assert (
                cert.contact_factor_poly() * cert.residual + cert.q
                == cert.majorant
            )

    def test_dispatch(self):
        assert majorant_check(C5_POLY, "non-bipartite", 7).passed
        assert majorant_check(C4_POLY, "bipartite", 2).passed
        with pytest.raises(ValueError, match="parity"):
            majorant_check(C5_POLY, "odd", 7)

    def test_json_roundtrip(self):
        for cert in (
            majorant_check(C5_POLY, "non-bipartite", 7),
            majorant_check(C5_POLY, "non-bipartite", 3),
            majorant_check(mono(2, 2), "bipartite", 3),
        ):
            blob = json.dumps(cert.to_json_dict(), sort_keys=True)
            back = MajorantCertificate.from_json_dict(json.loads(blob))
            assert back.q == cert.q
            assert back.majorant == cert.majorant
            assert back.residual == cert.residual
            assert back.passed == cert.passed
            assert back.flat == cert.flat
            assert back.witness == cert.witness
            assert back.designed_contacts == cert.designed_contacts
            assert back.to_json_dict() == cert.to_json_dict()

    def test_schema_1_rejected(self):
        doc = majorant_check(C5_POLY, "non-bipartite", 7).to_json_dict()
        doc.update(schema="majorant-certificate/1", parity="odd")
        with pytest.raises(ValueError, match="majorant-certificate/2"):
            MajorantCertificate.from_json_dict(doc)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("d", 3.9),
            ("d", True),
            ("d", "3"),
            ("parity", "odd"),
            ("flat", "no"),
            ("flat", 0),
            ("verdict", "ok"),
            ("designed_contacts", [["-1/3", 2.7], ["1/1", True]]),
            ("designed_contacts", [["-1/3", 2.0], ["1/1", True]]),
            ("designed_contacts", [["-2/6", 2], ["1/1", 1]]),
            ("designed_contacts", [["0/1", 1], ["1/1", 1]]),
            ("witness", "none"),
            ("witness", {"type": "strict", "y": 0.5}),
            ("witness", {"type": "strict", "y": "1/2", "z": "1/2"}),
            ("witness", {"type": "contact", "y": "1/2"}),
            ("witness", {"type": "contact", "interval": ["0/1"]}),
            ("witness", {"type": "touch", "y": "1/2"}),
        ],
    )
    def test_tampered_field_rejected(self, field, value):
        doc = majorant_check(C5_POLY, "non-bipartite", 3).to_json_dict()
        doc[field] = value
        with pytest.raises(ValueError, match=field):
            MajorantCertificate.from_json_dict(doc)

    @pytest.mark.parametrize(
        "field",
        [
            "source",
            "d",
            "parity",
            "q",
            "majorant",
            "designed_contacts",
            "residual",
            "verdict",
            "flat",
            "witness",
        ],
    )
    def test_missing_field_rejected(self, field):
        doc = majorant_check(C5_POLY, "non-bipartite", 3).to_json_dict()
        del doc[field]
        with pytest.raises(ValueError, match=f"missing field '{field}'"):
            MajorantCertificate.from_json_dict(doc)

    @pytest.mark.parametrize(
        "witness,field",
        [
            ({"y": "1/2"}, "type"),
            ({"type": "strict"}, "y"),
            ({"type": "contact"}, "interval"),
        ],
    )
    def test_witness_missing_field_rejected(self, witness, field):
        doc = majorant_check(C5_POLY, "non-bipartite", 3).to_json_dict()
        doc["witness"] = witness
        with pytest.raises(ValueError, match=f"missing field '{field}'"):
            MajorantCertificate.from_json_dict(doc)

    def test_contact_witness_loads(self):
        doc = majorant_check(C5_POLY, "non-bipartite", 3).to_json_dict()
        doc["witness"] = {"type": "contact", "interval": ["-1/4", "1/4"]}
        assert MajorantCertificate.from_json_dict(doc).to_json_dict() == doc


    def test_free_endpoint_witness(self):
        # r(-1) < 0 at the end of [-1, 1] that is not a designed contact
        cert = majorant_check(mono(3, 0, -1), "non-bipartite", 3)
        assert not cert.passed
        assert cert.residual(-1) < 0
        assert cert.witness == {"type": "strict", "y": "-1/1"}


def parity_polys():
    """(parity, p, d) with p's lambda-exponents matching the parity."""

    def build(parity, terms):
        step = 2 if parity == "bipartite" else 1
        return BivarPoly({(step * i, j): c for (i, j), c in terms.items()})

    parity = st.sampled_from(("bipartite", "non-bipartite"))
    terms = st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 3)),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        max_size=6,
    )
    return st.tuples(
        parity, terms, st.integers(2, 30)
    ).map(lambda t: (t[0], build(t[0], t[1]), t[2]))


class TestMajorantConstruction:
    """L = q mod F and r = -(q div F), for both parities."""

    @given(parity_polys())
    @settings(max_examples=80, deadline=None)
    def test_remainder_construction(self, case):
        parity, p, d = case
        cert = majorant_check(p, parity, d)
        factor = cert.contact_factor_poly()
        ell, q = cert.majorant, cert.q
        assert ell.degree < factor.degree
        assert factor * cert.residual + q == ell
        for point, mult in cert.designed_contacts:
            assert ell(point) == q(point)
            if mult == 2:
                assert ell.derivative()(point) == q.derivative()(point)
        assert cert.flat == cert.residual.is_zero()
        if cert.passed:
            lo, hi = cert.domain()
            for i in range(17):
                y = lo + (hi - lo) * Fraction(i, 16)
                assert ell(y) >= q(y)


class TestExtremalMeasures:
    def test_moment_feasibility(self):
        for parity in ("bipartite", "non-bipartite"):
            for d in range(2, 13):
                meas = extremal_measure(parity, d)
                assert sum(w for _, w in meas) == 1
                assert sum(w * v for v, w in meas) == 0
                assert sum(w * v * v for v, w in meas) == d

    def test_expectation_matches_clique_density(self):
        for d in (3, 5, 7):
            want = Fraction(eval_poly_sum(C5_POLY, complete(d + 1), d), d + 1)
            assert measure_expectation(C5_POLY, "non-bipartite", d) == want
        for d in (2, 3, 5):
            want = Fraction(
                eval_poly_sum(C4_POLY, complete_bipartite(d, d), d), 2 * d
            )
            assert measure_expectation(C4_POLY, "bipartite", d) == want

    def test_counting_consistency_odd(self):
        # lam^3 passes at d=3, so its spectral sum density must peak at K4
        p = mono(3, 0)
        assert majorant_check(p, "non-bipartite", 3).passed
        best = measure_expectation(p, "non-bipartite", 3)
        corpus = [g for n in (4, 6, 8) for g in enumerate_regular(n, 3, True)]
        values = {g: Fraction(eval_poly_sum(p, g, 3), g.order) for g in corpus}
        assert max(values.values()) == best
        winners = [g for g, v in values.items() if v == best]
        assert winners == [complete(4)]

    def test_counting_consistency_even(self):
        cert = majorant_check(C4_POLY, "bipartite", 3)
        assert cert.passed
        best = measure_expectation(C4_POLY, "bipartite", 3)
        corpus = [g for n in (4, 6, 8) for g in enumerate_regular(n, 3, True)]
        values = {g: Fraction(eval_poly_sum(C4_POLY, g, 3), g.order) for g in corpus}
        assert max(values.values()) == best
        winners = [
            g for g, v in values.items() if v == best
        ]
        assert winners == [complete_bipartite(3, 3)]


class TestCertifyThreshold:
    def test_c5_threshold_seven(self):
        rep = certify_threshold(C5_POLY, "non-bipartite", 2, 12)
        assert rep.threshold == 7
        assert rep.failures == (2, 3, 4, 5, 6)
        assert all(rep.certificates[d].passed for d in range(7, 13))

    def test_cubic_monomial_threshold_two(self):
        rep = certify_threshold(mono(3, 0), "non-bipartite", 2, 12)
        assert rep.threshold == 2
        assert rep.failures == ()

    def test_quartic_monomial_threshold_two(self):
        rep = certify_threshold(mono(4, 0), "bipartite", 2, 12)
        assert rep.threshold == 2
        assert rep.failures == ()

    def test_all_fail_range_has_no_threshold(self):
        rep = certify_threshold(C5_POLY, "non-bipartite", 2, 6)
        assert rep.threshold is None
        assert rep.failures == (2, 3, 4, 5, 6)

    def test_report_json(self):
        rep = certify_threshold(C5_POLY, "non-bipartite", 2, 12)
        doc = rep.to_json_dict()
        assert doc["schema"] == "threshold-report/2"
        assert doc["scanned_range_only"] is True
        assert doc["threshold"] == 7
        assert doc["failures"] == [2, 3, 4, 5, 6]
        assert doc["d_range"] == [2, 12]
        assert [v["d"] for v in doc["verdicts"]] == list(range(2, 13))
        assert [v["verdict"] for v in doc["verdicts"]] == (
            ["fail"] * 5 + ["pass"] * 6
        )

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            certify_threshold(C5_POLY, "non-bipartite", 5, 4)
        with pytest.raises(ValueError):
            certify_threshold(C5_POLY, "non-bipartite", 1, 4)
