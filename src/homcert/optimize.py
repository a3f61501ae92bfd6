"""Majorization certificates for spectral bounding polynomials.

For a d-regular graph G on n_G vertices, (1/n_G) * sum_lam p(lam, d) is the
expectation of p(X, d) under the uniform spectral measure X of G — a
probability measure on [-d, d] with mean 0 and second moment d.  The
certification question is whether, among all such measures, the expectation
is maximized by the spectral measure of the extremal clique:

  bipartite parity, even transform y = (x/d)^2:
      q(y) = p(d*sqrt(y), d) / d^n on [0, 1];
      the chord L through (0, q(0)) and (1, q(1)) majorizes q, so
      E[q(Y)] <= L(E[Y]) = L(1/d), attained exactly by Y supported on
      {0, 1} with mean 1/d — the spectral measure of K_{d,d};

  non-bipartite parity, odd transform y = x/d:
      q(y) = p(d*y, d) / d^n on [-1, 1];
      the parabola L with double contact at y0 = -1/d and contact at 1
      majorizes q, so E[q(Y)] <= E[L(Y)] which depends only on the first
      two moments, attained exactly by Y supported on {y0, 1} — the
      spectral measure of K_{d+1}.

Both cases are one construction.  With F the product of the designed
contact factors (y * (1 - y), or (y - y0)^2 * (1 - y)), the majorant is
L = q mod F, the unique polynomial of degree below deg F that meets q at
the contacts, and the residual is r = -(q div F), so that L - q = F * r
exactly.  A certificate is that factorization together with a proof that
r is strictly positive on the open interval (no roots by Sturm count,
positive sign at the midpoint), which also makes r >= 0 at the endpoints.
Everything is exact; verdicts are bit-reproducible.  q, the majorant and
the residual are rational polynomials, as a certificate stores them.  The
proof decides every sign in integers: it works on r divided by its
positive content, which has the same roots and signs, builds its Sturm
chain from primitive pseudo-remainders (Collins 1967), and reads the sign
at a rational a/b (b > 0) as that of b^m r(a/b), an integer.
Certificates are per-d: certify_threshold scans an explicit range and
reports the scanned threshold, never an all-d claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from homcert.poly import (
    BivarPoly,
    UniPoly,
    frac_str,
    json_choice,
    json_field,
    json_get,
    parse_frac,
)

WITNESS_WIDTH = Fraction(1, 2**20)

PARITIES = ("bipartite", "non-bipartite")


def _unipoly_json(p):
    return [frac_str(c) for c in p.coeffs]


def _unipoly_from_json(items):
    return UniPoly([parse_frac(s) for s in items])


# parity -> (lambda-exponent step, domain, designed contacts at degree d).
# Bipartite spectra are symmetric, so y = (x/d)^2 on [0, 1] with contacts
# at the K_{d,d} support {0, 1}; otherwise y = x/d on [-1, 1] with a double
# contact at the K_{d+1} eigenvalue -1/d and a single one at 1.
_PARITY = {
    "bipartite": (
        2,
        (Fraction(0), Fraction(1)),
        lambda d: ((Fraction(0), 1), (Fraction(1), 1)),
    ),
    "non-bipartite": (
        1,
        (Fraction(-1), Fraction(1)),
        lambda d: ((Fraction(-1, d), 2), (Fraction(1), 1)),
    ),
}


def _parity_row(parity):
    try:
        return _PARITY[parity]
    except KeyError:
        raise ValueError(f"parity must be one of {PARITIES}") from None


def transform(p, parity, d):
    """q(y) = p(x, d) / d^n at x = d*y^(1/s), with n the total degree of p
    and s the parity's lambda-exponent step: lam^k d^j becomes
    y^(k/s) d^(k+j-n).  The bipartite step 2 needs even lambda-exponents."""
    step = _parity_row(parity)[0]
    if d < 2:
        raise ValueError("d must be at least 2")
    if any(k % step for k, _ in p.coeffs):
        raise ValueError("even transform requires even lambda-exponents")
    n = p.total_degree()
    d = Fraction(d)
    terms = {}
    for (k, j), c in p.coeffs.items():
        e = k // step
        terms[e] = terms.get(e, Fraction(0)) + c * d ** (k + j - n)
    return UniPoly.from_terms(terms)


# ---------------------------------------------------------------------------
# Exact positivity via Sturm sequences, in integers


class _IntPoly:
    """A primitive integer polynomial: coeffs[i] multiplies y**i, the
    coefficients are ints with no common factor, and the last is nonzero.
    Only _primitive and _deflate_at build one."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def sign_at(self, x):
        """Sign (-1, 0 or 1) of the polynomial at the rational x = a/b,
        b > 0: the sign of b^m p(a/b) = sum c_i a^i b^(m-i), m the degree,
        summed by homogeneous Horner in integers."""
        a, b = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * a + c * scale
            scale *= b
        return (acc > 0) - (acc < 0)


def _primitive(coeffs):
    """The exact rational (or integer) polynomial coeffs divided by its
    positive content: the same roots and signs, in integers."""
    den = lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*nums)
    return _IntPoly(tuple(v // g for v in nums))


def _neg_pseudo_remainder(a, b):
    """A positive multiple of -(a mod b), for integer coefficient lists a
    and b with deg a >= deg b >= 1.  Each step scales the running remainder
    by |lead(b)| > 0 before it cancels the top term (a pseudo-remainder,
    Collins 1967), so no step leaves the integers or changes a sign."""
    lead = b[-1]
    scale = abs(lead)
    n = len(b) - 1
    rem = list(a)
    for top in range(len(rem) - 1, n - 1, -1):
        c = rem.pop()
        if not c:
            continue
        if lead < 0:
            c = -c
        if scale != 1:
            rem = [scale * v for v in rem]
        shift = top - n
        for j in range(n):
            rem[shift + j] -= c * b[j]
    while rem and not rem[-1]:
        rem.pop()
    return [-v for v in rem]


def _sturm_chain(p):
    """Canonical Sturm chain of the primitive integer polynomial p, each
    element primitive.  Each remainder is a pseudo-remainder scaled by a
    power of |lead| > 0, so its primitive part is exactly the
    content-normalized remainder over the rationals: the chain, and every
    variation count read from it, is the one exact division would give.
    When p has repeated roots the chain ends at gcd(p, p'), and its sign
    variations at points that are not roots of p still count the distinct
    roots."""
    chain = [p]
    deriv = [i * c for i, c in enumerate(p.coeffs)][1:]
    if deriv:
        chain.append(_primitive(deriv))
        while len(chain[-1].coeffs) > 1:
            rem = _neg_pseudo_remainder(chain[-2].coeffs, chain[-1].coeffs)
            if not rem:
                break
            chain.append(_primitive(rem))
    return chain


def _variations(chain, x):
    signs = [s for s in (q.sign_at(x) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _deflate_at(p, x):
    """Divide the primitive integer polynomial p by (b*y - a), x = a/b in
    lowest terms, as long as x is a root.  The factor is primitive, so by
    Gauss's lemma each quotient is again a primitive integer polynomial."""
    a, b = x.numerator, x.denominator
    while p.coeffs and not p.sign_at(x):
        out, carry = [], 0
        for c in reversed(p.coeffs[1:]):
            carry = (c + a * carry) // b
            out.append(carry)
        p = _IntPoly(tuple(reversed(out)))
    return p


def isolate_roots(p, a, b):
    """Disjoint isolating intervals, each holding exactly one distinct root
    of p in the open interval (a, b), refined to width < WITNESS_WIDTH.  Exact
    rational roots come back as degenerate [m, m] intervals.  Requires
    a < b, and neither endpoint may be a root.

    p is any polynomial with exact coefficients in p.coeffs; the search
    runs on its primitive integer part, which has the same roots, and reads
    every sign in integers."""
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    p = _primitive(p.coeffs)
    if not p.sign_at(a) or not p.sign_at(b):
        raise ValueError("isolate_roots requires non-root endpoints")
    roots = []
    chain = _sturm_chain(p)
    # Each interval carries its root count and V(x), the variation count
    # at its left end, with the chain V(x) was taken with; V at a split
    # point serves both halves, so each point is evaluated once per chain.
    va = _variations(chain, a)
    work = [(a, b, va - _variations(chain, b), va, chain)]
    while work:
        x, y, cnt, vx, vchain = work.pop()
        if cnt == 0:
            continue
        if cnt == 1 and y - x < WITNESS_WIDTH:
            roots.append((x, y))
            continue
        m = (x + y) / 2
        if not p.sign_at(m):
            # pending intervals are disjoint from m: their counts stand,
            # but variation counts taken with the old chain do not
            roots.append((m, m))
            p = _deflate_at(p, m)
            chain = _sturm_chain(p)
            cnt -= 1
        if vchain is not chain:
            vx = _variations(chain, x)
        vm = _variations(chain, m)
        work.append((x, m, vx - vm, vx, chain))
        work.append((m, y, cnt - vx + vm, vm, chain))
    return sorted(roots)


@dataclass(frozen=True)
class PositivityVerdict:
    ok: bool
    witness_point: Fraction | None  # exact point with r < 0, when one exists
    witness_interval: tuple | None  # isolating interval of an offending root


def sturm_nonneg_on_interval(r, a, b):
    """Exact strict positivity of r on the open interval (a, b): no roots
    inside, positive sign representative.  On failure the verdict carries
    an exact negative point and/or an isolating root interval refined to
    width < 2^-20.
    """
    if r.is_zero():
        raise ValueError("positivity of the zero polynomial is undefined")
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    r = _primitive(r.coeffs)
    roots = isolate_roots(_deflate_at(_deflate_at(r, a), b), a, b)

    # sample points between consecutive root intervals (and the margins)
    cuts = [a] + [x for lo, hi in roots for x in (lo, hi)] + [b]
    samples = [(lo + hi) / 2 for lo, hi in zip(cuts[::2], cuts[1::2])]
    negative = [s for s in samples if r.sign_at(s) < 0]
    return PositivityVerdict(
        not roots and not negative,
        negative[0] if negative else None,
        roots[0] if roots else None,
    )


# ---------------------------------------------------------------------------
# Majorant certificates


@dataclass(frozen=True)
class MajorantCertificate:
    """Exact certificate that the chord/parabola majorizes q on its domain.

    The factorization majorant - q = (designed contact factors) * residual
    is an exact polynomial identity; `passed` certifies the residual is
    strictly positive on the open domain.  `flat` marks the degenerate
    majorant == q case, which passes without any uniqueness claim.  On
    failure, `witness` locates the defect: a rational y with
    q(y) > majorant(y) when the gap goes strictly negative, else an
    isolating interval of an interior residual root (a non-designed
    contact)."""

    source: BivarPoly
    d: int
    parity: str
    q: UniPoly
    majorant: UniPoly
    designed_contacts: tuple  # of (point, multiplicity)
    residual: UniPoly
    passed: bool
    flat: bool
    witness: dict | None

    @property
    def verdict(self):
        return "pass" if self.passed else "fail"

    def domain(self):
        return _parity_row(self.parity)[1]

    def contact_factor_poly(self):
        """The exact divisor F of majorant - q (see _contact_factor_poly)."""
        return _contact_factor_poly(self.parity, self.d)

    def to_json_dict(self):
        return {
            "schema": "majorant-certificate/2",
            "source": self.source.coefficient_list(),
            "d": self.d,
            "parity": self.parity,
            "q": _unipoly_json(self.q),
            "majorant": _unipoly_json(self.majorant),
            "designed_contacts": [
                [frac_str(pt), mult] for pt, mult in self.designed_contacts
            ],
            "residual": _unipoly_json(self.residual),
            "verdict": self.verdict,
            "flat": self.flat,
            "witness": self.witness,
        }

    @classmethod
    def from_json_dict(cls, data):
        if data.get("schema") != "majorant-certificate/2":
            raise ValueError("not a majorant-certificate/2 document")
        d = json_field(data, "d", int)
        if d < 2:
            raise ValueError("d must be at least 2")
        parity = json_choice(data, "parity", PARITIES)
        contacts = _parity_row(parity)[2](d)
        written = [[frac_str(pt), m] for pt, m in contacts]
        json_choice(data, "designed_contacts", [written])
        return cls(
            source=BivarPoly.from_coefficient_list(json_field(data, "source", list)),
            d=d,
            parity=parity,
            q=_unipoly_from_json(json_field(data, "q", list)),
            majorant=_unipoly_from_json(json_field(data, "majorant", list)),
            designed_contacts=contacts,
            residual=_unipoly_from_json(json_field(data, "residual", list)),
            passed=json_choice(data, "verdict", ("pass", "fail")) == "pass",
            flat=json_field(data, "flat", bool),
            witness=_witness_from_json(json_get(data, "witness")),
        )


def _witness_from_json(w):
    """w itself when it is null or a witness as majorant_check writes it,
    {"type": "strict", "y": p/q} or {"type": "contact", "interval": [a, b]}
    with a and b in p/q form."""
    if w is None:
        return None
    try:
        if json_get(w, "type") == "strict":
            y = parse_frac(json_get(w, "y"))
            written = {"type": "strict", "y": frac_str(y)}
        else:
            lo, hi = map(parse_frac, json_get(w, "interval"))
            ends = [frac_str(lo), frac_str(hi)]
            written = {"type": "contact", "interval": ends}
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad witness {w!r}: {exc}") from None
    if w != written:
        raise ValueError(f"bad witness {w!r}: majorant_check writes {written}")
    return w


def _strict_witness(diff, lo, hi, start):
    """Rational y in (lo, hi) with diff(y) < 0, found by shrinking toward
    `start` (a point where negativity is known to occur nearby); diff is
    the primitive integer form of the gap."""
    span = (hi - lo) / 4
    y = start
    while span >= WITNESS_WIDTH / 16:
        for cand in (y, y - span, y + span):
            if lo < cand < hi and diff.sign_at(cand) < 0:
                return cand
        span /= 2
    return None


def _make_witness(diff, verdict, lo, hi):
    """Failure evidence: prefer an exact point where the majorant gap diff
    (in primitive integer form) is strictly negative; otherwise report the
    isolating interval of the offending interior residual root (a
    touch-contact)."""
    if verdict.witness_point is not None:
        y = verdict.witness_point
        if diff.sign_at(y) < 0:
            return {"type": "strict", "y": frac_str(y)}
        y2 = _strict_witness(diff, lo, hi, y)
        if y2 is not None:
            return {"type": "strict", "y": frac_str(y2)}
    if verdict.witness_interval is not None:
        a, b = verdict.witness_interval
        # probe beyond the root for a strict sign change
        for probe in (b + (b - a), (a + b) / 2, a - (b - a)):
            if lo < probe < hi and diff.sign_at(probe) < 0:
                return {"type": "strict", "y": frac_str(probe)}
        return {
            "type": "contact",
            "interval": [frac_str(a), frac_str(b)],
        }
    return None


def _contact_factor_poly(parity, d):
    """F = product of the designed contact factors at degree d, each
    nonnegative on the open domain: y (1 - y) for bipartite parity, and
    (y + 1/d)^2 (1 - y) = t^2 + (2t - t^2) y + (1 - 2t) y^2 - y^3 with
    t = 1/d otherwise."""
    if parity == "bipartite":
        return UniPoly((0, 1, -1))
    t = Fraction(1, d)
    return UniPoly((t * t, 2 * t - t * t, 1 - 2 * t, -1))


def majorant_check(p, parity, d):
    """Majorization of q = transform(p, parity, d) on the parity's domain.

    L = q mod F is the unique polynomial of degree below deg F that meets q
    at the designed contacts, and r = -(q div F) gives L - q = F * r.  The
    check is flat iff r == 0 and passes iff r > 0 on the open domain.  A
    pass certifies: over d-regular spectra, (1/n)*sum p(lam, d) is uniquely
    maximized by the K_{d,d} (bipartite) or K_{d+1} (non-bipartite)
    spectral measure."""
    _, domain, contacts_at = _parity_row(parity)
    q = transform(p, parity, d)
    contacts = contacts_at(d)
    quo, ell = q.divmod(_contact_factor_poly(parity, d))
    r = -quo
    flat = r.is_zero()
    passed, witness = True, None
    if not flat:
        verdict = sturm_nonneg_on_interval(r, *domain)
        passed = verdict.ok
        if not passed:
            touched = {point for point, _ in contacts}
            r_int = _primitive(r.coeffs)
            ends = [
                y for y in domain if y not in touched and r_int.sign_at(y) < 0
            ]
            if ends:
                # F(-1) > 0 at the free end of [-1, 1], so the gap is
                # negative there too
                witness = {"type": "strict", "y": frac_str(ends[0])}
            else:
                diff = _primitive((ell - q).coeffs)
                witness = _make_witness(diff, verdict, *domain)
    return MajorantCertificate(
        source=p, d=d, parity=parity, q=q, majorant=ell,
        designed_contacts=contacts, residual=r,
        passed=passed, flat=flat, witness=witness,
    )


def extremal_measure(parity, d):
    """The conjectured-extremal spectral measure as ((value, weight), ...):
    K_{d,d} for bipartite parity, K_{d+1} for non-bipartite."""
    d = Fraction(d)
    if parity == "bipartite":
        return (
            (d, Fraction(1, 2 * int(d))),
            (-d, Fraction(1, 2 * int(d))),
            (Fraction(0), 1 - 1 / d),
        )
    if parity == "non-bipartite":
        return ((d, 1 / (d + 1)), (Fraction(-1), d / (d + 1)))
    raise ValueError(f"parity must be one of {PARITIES}")


def measure_expectation(p, parity, d):
    """E[p(X, d)] under the extremal measure — the certified maximum of
    (1/n_G) * sum_lam p(lam, d) whenever majorant_check passes."""
    return sum(
        w * p.evaluate(v, d) for v, w in extremal_measure(parity, d)
    )


@dataclass(frozen=True)
class ThresholdReport:
    """Scanned-range certification: verdicts for every d in [lo, hi] and
    the least d* whose suffix is all-pass.  This is explicitly a
    scanned-range certificate, not an all-d proof."""

    source: BivarPoly
    parity: str
    lo: int
    hi: int
    certificates: dict  # d -> MajorantCertificate
    threshold: int | None
    failures: tuple

    def to_json_dict(self):
        return {
            "schema": "threshold-report/2",
            "source": self.source.coefficient_list(),
            "parity": self.parity,
            "d_range": [self.lo, self.hi],
            "scanned_range_only": True,
            "threshold": self.threshold,
            "failures": list(self.failures),
            "verdicts": [
                {
                    "d": d,
                    "verdict": cert.verdict,
                    "flat": cert.flat,
                    "witness": cert.witness,
                }
                for d, cert in sorted(self.certificates.items())
            ],
        }


def certify_threshold(p, parity, lo, hi):
    """Run the parity-appropriate majorant check for every d in [lo, hi];
    the threshold is the smallest d in range such that every scanned
    d' >= d passes (None when the top of the range fails)."""
    if lo > hi:
        raise ValueError("empty d range")
    if lo < 2:
        raise ValueError("d must be at least 2")
    certs = {d: majorant_check(p, parity, d) for d in range(lo, hi + 1)}
    failures = tuple(d for d in range(lo, hi + 1) if not certs[d].passed)
    threshold = None
    if not failures:
        threshold = lo
    elif failures[-1] < hi:
        threshold = failures[-1] + 1
    return ThresholdReport(
        source=p,
        parity=parity,
        lo=lo,
        hi=hi,
        certificates=certs,
        threshold=threshold,
        failures=failures,
    )
