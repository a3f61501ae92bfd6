"""Spectral quantities of graphs: exact moments and reported eigenvalues.

Identity-critical paths (traces, closed-walk counts, polynomial sums over
the spectrum) run in exact integer/rational arithmetic via matrix powers:
sum over the spectrum of lam^k equals tr(A^k), so a polynomial evaluated
and summed over all eigenvalues of a d-regular graph needs only traces
and powers of d.  Floating-point eigenvalues are computed only for
human-facing reports and never feed a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from homcert.graphs import regularity

MAX_TRACE_POWER = 16
DEFAULT_EIG_TOL = 1e-9


def _adjacency_lists(rows, n):
    return [[u for u in range(n) if (rows[v] >> u) & 1] for v in range(n)]


@lru_cache(maxsize=256)
def _power_diag_and_trace(rows, k):
    """(diagonal tuple, trace) of A^k in exact integer arithmetic."""
    n = len(rows)
    if k == 0:
        return tuple([1] * n), n
    adj = _adjacency_lists(rows, n)
    # mat[v] = row v of A^j as a list of ints
    mat = [[1 if (rows[v] >> u) & 1 else 0 for u in range(n)] for v in range(n)]
    for _ in range(k - 1):
        nxt = [[0] * n for _ in range(n)]
        for v in range(n):
            rowv = mat[v]
            out = nxt[v]
            for w in range(n):
                c = rowv[w]
                if c:
                    for u in adj[w]:
                        out[u] += c
        mat = nxt
    diag = tuple(mat[v][v] for v in range(n))
    return diag, sum(diag)


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
    return _power_diag_and_trace(g.rows, k)[1]


def closed_walks_at_vertex(g, v, k):
    """(A^k)_{vv}: closed k-walks based at v, exact."""
    _check_power(k)
    if not 0 <= v < g.order:
        raise ValueError(f"vertex {v} out of range")
    return _power_diag_and_trace(g.rows, k)[0][v]


@dataclass(frozen=True)
class SpectralMoments:
    order: int
    traces: tuple  # traces[k] = tr(A^k), k = 0..kmax


def spectral_moments(g, kmax):
    _check_power(kmax)
    return SpectralMoments(
        order=g.order,
        traces=tuple(trace_power(g, k) for k in range(kmax + 1)),
    )


@dataclass(frozen=True)
class SpectralMeasure:
    """Reported (floating) eigenvalues with multiplicities, descending."""

    values: tuple  # of (value, multiplicity)
    tolerance: float

    @property
    def order(self):
        return sum(m for _, m in self.values)


def eigenvalues(g, tol=DEFAULT_EIG_TOL):
    """Adjacency eigenvalues for reports: clustered floats, never certified.

    Eigenvalues closer than 10*tol are merged into one value (their mean)
    with summed multiplicity.
    """
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
        if clusters and clusters[-1][-1] - x <= 10 * tol:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    return SpectralMeasure(
        values=tuple((float(sum(c) / len(c)), len(c)) for c in clusters),
        tolerance=tol,
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
    total = Fraction(0)
    for (k, j), c in p.coeffs.items():
        total += c * trace_power(g, k) * Fraction(d) ** j
    return total
