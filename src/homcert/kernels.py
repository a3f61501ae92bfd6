"""Backend selection for the counting and enumeration kernels.

The compiled extension homcert._kernels is used when it imported cleanly
and the arguments fit its fixed-width arithmetic (64-vertex masks, counts
provably below 2**63).  The count rule k * bits(max(n, 2)) <= 62 also caps
compiled patterns at 31 vertices.  Everything else falls back to the
pure-Python reference in homcert._pykernels, which has no size limits
beyond memory.

hom_count and inj_count hand either backend's walk the same arguments:
the pattern's plan, _pykernels._plan, and for an injective count the
order constraints of _pykernels._symmetry, both cached per pattern.  The
walk counts one map per automorphism orbit, and inj_count here multiplies
by |Aut(h)|, so the compiled count stays below 2**62.
"""

from __future__ import annotations

from homcert import _pykernels

try:
    from homcert import _kernels as _compiled
except ImportError:
    _compiled = None

BACKEND = "c" if _compiled is not None else "python"

_MASK_LIMIT = 64


def _fits_counting(h_rows, g_rows):
    if _compiled is None:
        return False
    n = len(g_rows)
    # n**k bounds both counts; staying under 2**62 leaves headroom.
    return n <= _MASK_LIMIT and len(h_rows) * max(n, 2).bit_length() <= 62


def hom_count(h_rows, g_rows):
    walk = _compiled if _fits_counting(h_rows, g_rows) else _pykernels
    return walk.hom_count(_pykernels._plan(tuple(h_rows))[1], g_rows)


def inj_count(h_rows, g_rows):
    h_rows = tuple(h_rows)
    if len(h_rows) > len(g_rows):
        return 0
    walk = _compiled if _fits_counting(h_rows, g_rows) else _pykernels
    aut, below, above = _pykernels._symmetry(h_rows)
    return aut * walk.inj_count(_pykernels._plan(h_rows)[1], g_rows, below, above)


def canonical_min_rows(rows):
    if _compiled is not None and len(rows) <= _MASK_LIMIT:
        return _compiled.canonical_min_rows(rows)
    return _pykernels.canonical_min_rows(rows)


def canonical_max_rows(rows):
    """As _pykernels.canonical_max_rows.  It has no node budget, so dense
    or highly symmetric inputs run long on both backends: Q6 takes 14.3 s
    in pure Python, and complement(C64) and the 8x8 rook's graph do not end
    in useful time (ROADMAP item 6)."""
    if _compiled is not None and len(rows) <= _MASK_LIMIT:
        return _compiled.canonical_max_rows(rows)
    return _pykernels.canonical_max_rows(rows)


def is_canonical_max(rows):
    if _compiled is not None and len(rows) <= _MASK_LIMIT:
        return _compiled.is_canonical_max(rows)
    return _pykernels.is_canonical_max(rows)


def enumerate_regular_rows(n, d, connected_only=False):
    """As _pykernels.enumerate_regular_rows."""
    if _compiled is not None and n <= _MASK_LIMIT:
        return _compiled.enumerate_regular_rows(n, d, connected_only)
    return _pykernels.enumerate_regular_rows(n, d, connected_only)
