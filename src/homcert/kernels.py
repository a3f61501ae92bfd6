"""Backend selection for the counting and enumeration kernels.

The compiled extension homcert._kernels is used when it imported cleanly
and the arguments fit its fixed-width arithmetic (64-vertex masks, counts
provably below 2**63).  The count rule k * bits(max(n, 2)) <= 62 also caps
compiled patterns at 31 vertices.  Everything else falls back to the
pure-Python reference in homcert._pykernels, which has no size limits
beyond memory.

An injective count takes the pattern's symmetry analysis,
_pykernels._symmetry, on both backends: the compiled walk counts the maps
that meet its order constraints, one per automorphism orbit, and
inj_count here multiplies them by |Aut(h)| in Python, so the compiled
count stays below 2**62.
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
    if _fits_counting(h_rows, g_rows):
        return _compiled.hom_count(h_rows, g_rows)
    return _pykernels.hom_count(h_rows, g_rows)


def inj_count(h_rows, g_rows):
    if not _fits_counting(h_rows, g_rows):
        return _pykernels.inj_count(h_rows, g_rows)
    if len(h_rows) > len(g_rows):
        return 0
    aut, below, above = _pykernels._symmetry(tuple(h_rows))
    return aut * _compiled.inj_count(h_rows, g_rows, below, above)


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
