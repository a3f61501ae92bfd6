"""Exact polynomials over the rationals, and the JSON rational codec.

BivarPoly is a polynomial in (lam, d): lam ranges over adjacency
eigenvalues, d over the regularity degree.  It is a value type, not an
algebra: a validated, immutable coefficient map with its degrees,
coefficient lookup, exact evaluation and JSON rows.  Its terms are summed
in one place, the bound builder (bounds._Builder), in integers.
UniPoly is a single-variable dense polynomial with the ring operations
and division that the majorization certificates use (their positivity
proofs read signs in integers, in homcert.optimize).  All coefficients
are fractions.Fraction; nothing here ever touches floats.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_FRAC = re.compile(r"(-?[0-9]+)/([0-9]+)")


def frac_str(x):
    """Exact "p/q" form of a rational; every JSON document uses it."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _ratio(num, den):
    """Fraction(num, den) of two ints; a zero denominator is a ValueError."""
    if den == 0:
        raise ValueError(f"zero denominator in {num}/{den}")
    return Fraction(num, den)


def parse_frac(s):
    """Inverse of frac_str: accepts exactly what it writes,
    -?[0-9]+/[0-9]+."""
    m = _FRAC.fullmatch(s) if isinstance(s, str) else None
    if m is None:
        raise ValueError(f"not an exact fraction 'p/q': {s!r}")
    return _ratio(int(m[1]), int(m[2]))


def json_get(data, key):
    """data[key]; a missing field is a ValueError, as a malformed one is."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"missing field {key!r}") from None


def json_field(data, key, kind):
    """data[key] if its type is exactly kind (so a bool is no int);
    document loaders validate fields rather than coerce them."""
    value = json_get(data, key)
    if type(value) is not kind:
        raise ValueError(f"{key} must be a JSON {kind.__name__}: {value!r}")
    return value


def json_choice(data, key, choices):
    """data[key] if its JSON text is that of one of choices (so true is no
    1 and 2.0 no 2), else ValueError."""
    value = json_get(data, key)
    text = json.dumps(value, sort_keys=True)
    if all(text != json.dumps(c, sort_keys=True) for c in choices):
        raise ValueError(f"{key} must be one of {choices}: {value!r}")
    return value


def _coerce(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class BivarPoly:
    """Polynomial in (lam, d) with exact rational coefficients.

    Stored sparsely as {(k, j): coefficient} for the monomial lam^k d^j;
    zero coefficients are never kept.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for (k, j), c in coeffs.items():
                if k < 0 or j < 0:
                    raise ValueError("exponents must be nonnegative")
                c = _coerce(c)
                if c:
                    clean[(int(k), int(j))] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BivarPoly is immutable")

    def __eq__(self, other):
        return isinstance(other, BivarPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def total_degree(self):
        """Max of k + j over monomials; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(k + j for k, j in self.coeffs)

    def lambda_degree(self):
        if not self.coeffs:
            return -1
        return max(k for k, _ in self.coeffs)

    def coefficient(self, k, j):
        return self.coeffs.get((k, j), Fraction(0))

    def evaluate(self, lam, d):
        lam = Fraction(lam)
        d = Fraction(d)
        total = Fraction(0)
        for (k, j), c in self.coeffs.items():
            total += c * lam**k * d**j
        return total

    def coefficient_list(self):
        """Sorted [k, j, numerator, denominator] rows; JSON-ready."""
        return [
            [k, j, c.numerator, c.denominator]
            for (k, j), c in sorted(self.coeffs.items())
        ]

    @classmethod
    def from_coefficient_list(cls, items):
        """Inverse of coefficient_list; every entry must be an int (not a
        bool, float or str), so no row is silently truncated."""
        out = {}
        for row in items:
            if len(row) != 4:
                raise ValueError("coefficient rows must be [k, j, num, den]")
            if any(type(x) is not int for x in row):
                raise ValueError(
                    f"coefficient row entries must be ints: {row}"
                )
            k, j, num, den = row
            key = (k, j)
            if key in out:
                raise ValueError(f"duplicate monomial {key}")
            out[key] = _ratio(num, den)
        return cls(out)

    def __repr__(self):
        if not self.coeffs:
            return "BivarPoly(0)"
        parts = []
        for (k, j), c in sorted(self.coeffs.items(), reverse=True):
            term = str(c)
            if k:
                term += f"*lam^{k}" if k > 1 else "*lam"
            if j:
                term += f"*d^{j}" if j > 1 else "*d"
            parts.append(term)
        return "BivarPoly(" + " + ".join(parts) + ")"


class UniPoly:
    """Dense univariate polynomial; coeffs[i] multiplies x**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [_coerce(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def from_terms(cls, terms):
        """terms: {exponent: coefficient}."""
        if not terms:
            return cls(())
        deg = max(terms)
        out = [Fraction(0)] * (deg + 1)
        for k, c in terms.items():
            out[k] = _coerce(c)
        return cls(out)

    @property
    def degree(self):
        """-1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        x = Fraction(x)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            return UniPoly([v * c for v in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def derivative(self):
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly(()), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for i in range(dq, -1, -1):
            c = rem[i + other.degree] / lead
            if c:
                quo[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return UniPoly(quo), UniPoly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def divexact(self, other):
        quo, rem = self.divmod(other)
        if not rem.is_zero():
            raise ValueError("division is not exact")
        return quo

    def content_primitive(self):
        """(content, primitive): positive rational content, integer-primitive
        polynomial with the same sign pattern."""
        if self.is_zero():
            return Fraction(0), self
        from math import gcd, lcm

        den = lcm(*[c.denominator for c in self.coeffs]) if self.coeffs else 1
        nums = [int(c * den) for c in self.coeffs]
        g = 0
        for v in nums:
            g = gcd(g, abs(v))
        content = Fraction(g, den)
        return content, UniPoly([Fraction(v // g) for v in nums])

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return "UniPoly(" + " + ".join(parts) + ")"
