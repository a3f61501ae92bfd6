"""Spectral quantities of graphs: exact moments and reported eigenvalues.

Identity-critical paths (traces, closed-walk counts, polynomial sums over
the spectrum) read one exact walk table per graph, the diagonals of
A^0 ... A^MAX_TRACE_POWER: sum over the spectrum of lam^k equals tr(A^k),
so a polynomial summed over all eigenvalues of a d-regular graph needs
only traces and powers of d.  Floating-point eigenvalues are computed
only for human-facing reports and never feed a certificate.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from homcert.graphs import regularity

MAX_TRACE_POWER = 16
EIG_TOL = 1e-9


@lru_cache(maxsize=16)
def _power_diag_and_trace(rows):
    """Walk table of a graph: (diagonals, traces) with diagonals[k][v] =
    (A^k)_{vv} and traces[k] = tr(A^k) for k = 0 ... MAX_TRACE_POWER.

    Row v of A^k is the sum of the rows of A^(k-1) at v's neighbours,
    each row packed into one int of `width`-bit entries; an entry is at
    most maxdeg^k < 2^(width - 1), so no sum carries into the next.
    """
    n = len(rows)
    adj = [[u for u in range(n) if (rows[v] >> u) & 1] for v in range(n)]
    width = MAX_TRACE_POWER * max(map(len, adj)).bit_length() + 1
    mask = (1 << width) - 1
    packed = [1 << (v * width) for v in range(n)]
    diagonals = [tuple([1] * n)]
    for _ in range(MAX_TRACE_POWER):
        packed = [sum([packed[u] for u in nbrs]) for nbrs in adj]
        diagonals.append(
            tuple((packed[v] >> (v * width)) & mask for v in range(n))
        )
    return tuple(diagonals), tuple(map(sum, diagonals))


def _check_power(k):
    if k < 0:
        raise ValueError("power must be nonnegative")
    if k > MAX_TRACE_POWER:
        raise ValueError(
            f"trace power {k} exceeds the supported limit {MAX_TRACE_POWER}"
        )


def trace_power(g, k):
    """tr(A^k) as an exact integer; equals hom(C_k, g) for k >= 3."""
    _check_power(k)
    return _power_diag_and_trace(g.rows)[1][k]


def closed_walks_at_vertex(g, v, k):
    """(A^k)_{vv}: closed k-walks based at v, exact."""
    _check_power(k)
    if not 0 <= v < g.order:
        raise ValueError(f"vertex {v} out of range")
    return _power_diag_and_trace(g.rows)[0][k][v]


@dataclass(frozen=True, slots=True)
class SpectralMoments:
    order: int
    traces: tuple  # traces[k] = tr(A^k), k = 0..kmax


def spectral_moments(g, kmax):
    _check_power(kmax)
    return SpectralMoments(
        order=g.order,
        traces=_power_diag_and_trace(g.rows)[1][: kmax + 1],
    )


@dataclass(frozen=True, slots=True)
class SpectralMeasure:
    """Reported (floating) eigenvalues with multiplicities, descending,
    in two flat arrays: a quarter of the memory of a tuple of pairs."""

    means: array  # array("d")
    multiplicities: array  # array("l")

    @property
    def values(self):
        """((value, multiplicity), ...)."""
        return tuple(zip(self.means, self.multiplicities))

    @property
    def order(self):
        return sum(self.multiplicities)


def eigenvalues(g):
    """Adjacency eigenvalues for reports: clustered floats, never certified.

    Eigenvalues closer than 10*EIG_TOL are merged into one value (their mean)
    with summed multiplicity.
    """
    import numpy as np  # only reports need it; keeps `import homcert` light

    a = np.zeros((g.order, g.order))
    for v in range(g.order):
        r = g.rows[v]
        while r:
            u = (r & -r).bit_length() - 1
            r &= r - 1
            a[v, u] = 1.0
    vals = sorted(np.linalg.eigvalsh(a), reverse=True)
    clusters = []
    for x in vals:
        if clusters and clusters[-1][-1] - x <= 10 * EIG_TOL:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    return SpectralMeasure(
        means=array("d", [sum(c) / len(c) for c in clusters]),
        multiplicities=array("l", map(len, clusters)),
    )


def eval_poly_sum(p, g, d=None):
    """Exact sum over the spectrum of g of p(lam, d).

    g must be d-regular (d inferred when omitted).  Expands to
    sum_{(k,j)} c_{k,j} * tr(A^k) * d^j, entirely in rational arithmetic.
    """
    r = regularity(g)
    if r is None:
        raise ValueError("eval_poly_sum requires a regular graph")
    if d is None:
        d = r
    elif d != r:
        raise ValueError(f"graph is {r}-regular, not {d}-regular")
    if p.lambda_degree() > MAX_TRACE_POWER:
        raise ValueError(
            f"lambda degree {p.lambda_degree()} exceeds the supported "
            f"limit {MAX_TRACE_POWER}"
        )
    traces = _power_diag_and_trace(g.rows)[1]
    total = Fraction(0)
    for (k, j), c in p.coeffs.items():
        total += c * traces[k] * Fraction(d) ** j
    return total
