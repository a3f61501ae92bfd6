"""Exact polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcert.poly import BivarPoly, UniPoly, frac_str, parse_frac


def rational():
    return st.fractions(
        min_value=-10, max_value=10, max_denominator=12
    )


def unipoly(max_deg=6):
    return st.lists(rational(), min_size=0, max_size=max_deg + 1).map(UniPoly)


class TestFracCodec:
    @given(rational())
    def test_roundtrip(self, x):
        assert parse_frac(frac_str(x)) == x

    def test_integers_keep_denominator(self):
        assert frac_str(3) == "3/1"
        assert frac_str(Fraction(-4, 6)) == "-2/3"

    @pytest.mark.parametrize(
        "text",
        ["1", "1/2/3", "0.5/1", "a/b", "1/0", "0/0",
         " 1/2", "1_0/3", "+1/2", "1/-2"],
    )
    def test_parse_is_strict(self, text):
        with pytest.raises(ValueError):
            parse_frac(text)


class TestBivarPoly:
    def test_construction_drops_zeros(self):
        p = BivarPoly({(1, 0): 0, (2, 1): 3})
        assert p.coeffs == {(2, 1): Fraction(3)}
        assert BivarPoly().coeffs == {}

    def test_degrees(self):
        p = BivarPoly({(5, 0): 1, (3, 1): -5})
        assert p.lambda_degree() == 5
        assert p.total_degree() == 5
        assert BivarPoly({(2, 4): 1}).total_degree() == 6
        assert BivarPoly().total_degree() == -1

    def test_evaluate(self):
        # lam^4 - 2 d^2 + d at (lam, d) = (3, 3)
        p = BivarPoly({(4, 0): 1, (0, 2): -2, (0, 1): 1})
        assert p.evaluate(3, 3) == 81 - 18 + 3
        assert p.evaluate(Fraction(1, 2), 2) == Fraction(1, 16) - 8 + 2

    def test_serialization_roundtrip(self):
        p = BivarPoly({(5, 0): 1, (3, 1): Fraction(-5, 2), (3, 0): 5})
        items = p.coefficient_list()
        assert items == [[3, 0, 5, 1], [3, 1, -5, 2], [5, 0, 1, 1]]
        assert BivarPoly.from_coefficient_list(items) == p

    def test_from_coefficient_list_validation(self):
        with pytest.raises(ValueError):
            BivarPoly.from_coefficient_list([[1, 0, 1]])
        with pytest.raises(ValueError):
            BivarPoly.from_coefficient_list([[1, 0, 1, 1], [1, 0, 2, 1]])
        with pytest.raises(ValueError, match="zero denominator"):
            BivarPoly.from_coefficient_list([[5, 0, 1, 0]])
        # no entry may be truncated or coerced into an int
        for row in ([5, 0, 1.5, 1], [1.9, 0, 3, 2], [True, 0, 1, 1],
                    [1, 0, 1, True], [1, 0, "1", 1]):
            with pytest.raises(ValueError, match="must be ints"):
                BivarPoly.from_coefficient_list([row])

    def test_validation(self):
        with pytest.raises(ValueError):
            BivarPoly({(-1, 0): 1})
        with pytest.raises(TypeError):
            BivarPoly({(1, 0): 0.5})

    def test_immutable(self):
        p = BivarPoly({(1, 1): 1})
        with pytest.raises(AttributeError):
            p.coeffs = {}


class TestUniPoly:
    def test_construction_strips_leading_zeros(self):
        assert UniPoly((1, 2, 0, 0)).degree == 1
        assert UniPoly(()).is_zero()
        assert UniPoly((0,)).is_zero()

    def test_horner_evaluation(self):
        p = UniPoly((1, -2, 3))  # 3x^2 - 2x + 1
        assert p(2) == 9
        assert p(Fraction(1, 3)) == Fraction(1, 3) - Fraction(2, 3) + 1

    def test_algebra(self):
        p = UniPoly((1, 1))  # 1 + x
        q = UniPoly((-1, 1))  # x - 1
        assert p * q == UniPoly((-1, 0, 1))
        assert p + q == UniPoly((0, 2))
        assert p - p == UniPoly(())
        assert 2 * p == UniPoly((2, 2))

    def test_derivative(self):
        p = UniPoly((5, 0, 0, 2))  # 2x^3 + 5
        assert p.derivative() == UniPoly((0, 0, 6))
        assert UniPoly((3,)).derivative().is_zero()

    def test_divmod(self):
        p = UniPoly((-1, 0, 1))  # x^2 - 1
        q = UniPoly((1, 1))  # x + 1
        quo, rem = p.divmod(q)
        assert quo == UniPoly((-1, 1)) and rem.is_zero()
        assert p.divexact(q) == quo
        with pytest.raises(ValueError):
            UniPoly((1, 0, 1)).divexact(q)
        with pytest.raises(ZeroDivisionError):
            p.divmod(UniPoly(()))

    @settings(max_examples=80)
    @given(unipoly(4), unipoly(3))
    def test_divmod_identity(self, a, b):
        if b.is_zero():
            return
        quo, rem = a.divmod(b)
        assert quo * b + rem == a
        assert rem.degree < b.degree or rem.is_zero()

    @settings(max_examples=60)
    @given(unipoly(3), unipoly(3))
    def test_product_division_recovers(self, a, b):
        if b.is_zero():
            return
        assert (a * b).divexact(b) == a

    def test_content_primitive(self):
        p = UniPoly((Fraction(2, 3), Fraction(4, 3)))
        content, prim = p.content_primitive()
        assert content == Fraction(2, 3)
        assert prim == UniPoly((1, 2))
        assert content * prim == p

    def test_from_terms(self):
        p = UniPoly.from_terms({5: 1, 3: -5})
        assert p.degree == 5
        assert p.coeffs[3] == -5
        assert UniPoly.from_terms({}).is_zero()


class TestQuotientExpansionIdentity:
    """y^k - y0^k - k y0^(k-1) (y - y0) factors as (y - y0)^2 * w(y) with
    w(y) = sum_{a=0}^{k-2} (a + 1) y0^a y^(k-2-a); the certificates' odd
    tangent-line construction relies on this closed form."""

    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("d", [2, 3, 5, 9])
    def test_identity(self, k, d):
        y0 = Fraction(-1, d)
        lhs = (
            UniPoly.from_terms({k: 1})
            - UniPoly((y0**k,))
            - UniPoly((-y0, 1)) * (k * y0 ** (k - 1))
        )
        w = UniPoly.from_terms(
            {k - 2 - a: (a + 1) * y0**a for a in range(k - 1)}
        )
        square = UniPoly((-y0, 1)) * UniPoly((-y0, 1))
        assert lhs == square * w
