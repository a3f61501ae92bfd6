"""Pure-Python counting and enumeration kernels.

Graphs are passed around as tuples of adjacency bitmasks: rows[v] has bit
u set iff uv is an edge.  homcert._kernels is a compiled twin of this
module with identical semantics; tests assert parity between the two.

hom_count and inj_count are one backtracking walk, _count_maps, in the
pattern's degeneracy order.  The injective walk differs in that placed
target vertices leave the candidate mask, and in that it counts one map
per orbit of the pattern's automorphism group: _symmetry reads order
constraints between the images off a stabilizer chain of Aut(h)
(Grochow and Kellis, RECOMB 2007), and the walk multiplies the maps that
meet them by |Aut(h)|.

All column/bit-string conventions are column-major (graph6 order): the
string of a labeled graph is the concatenation of column words, where
column p holds the adjacency bits of vertex p to vertices 0..p-1, most
significant bit first.  Sorting canonical forms therefore agrees with
sorting graph6 strings of equal order.
"""

from __future__ import annotations

from functools import lru_cache


def _plan(h_rows):
    """Degeneracy order of the pattern plus per-level earlier-neighbor masks."""
    k = len(h_rows)
    alive = (1 << k) - 1
    removal = []
    for _ in range(k):
        best_v = -1
        best_d = k + 1
        for v in range(k):
            if (alive >> v) & 1:
                dv = (h_rows[v] & alive).bit_count()
                if dv < best_d:
                    best_d = dv
                    best_v = v
        removal.append(best_v)
        alive ^= 1 << best_v
    order = removal[::-1]
    pmasks = []
    for idx, v in enumerate(order):
        m = 0
        for jdx in range(idx):
            if (h_rows[v] >> order[jdx]) & 1:
                m |= 1 << jdx
        pmasks.append(m)
    return order, pmasks


@lru_cache(maxsize=1024)
def _symmetry(h_rows):
    """(|Aut(h)|, below, above) for the levels of _plan(h_rows).

    A stabilizer chain of Aut(h) with the plan's vertices as bases: G_0 is
    Aut(h) and G_(i+1) fixes order[0..i] pointwise.  G_i fixes the
    earlier bases, so the orbit of order[i] under G_i lies in the later
    levels.  Choosing, for an injective map f, the one
    automorphism s for which f(s(order[i])) is least on the orbit at each
    i in turn leaves exactly one map of each orbit {f o s : s in Aut(h)}
    with f(order[i]) below the images of the rest of its orbit for every
    i (Grochow and Kellis).  So inj(h, g) is |Aut(h)| = prod_i |orbit_i|
    times the number of maps meeting those constraints.

    If w lies in the orbits at levels i < j, the orbit at j lies in the
    one at i, so order[j] does too: the constraints on w follow from the
    one at the last base whose orbit holds w, and those at that base from
    its own last one.  below[j] is that level, or -1; the constraints form
    a forest, and above[i] counts the levels whose images must lie above
    f(order[i]), the descendants of i.  An image therefore has at least
    above[i] target vertices above it.

    Each orbit comes from one automorphism search per (base, later vertex)
    pair, _moves_to, so the group is never listed: on K_31 and the empty
    31-vertex pattern, with 31! automorphisms each, the 465 pairs are all
    twins and need no search at all.
    """
    order, _ = _plan(h_rows)
    k = len(order)
    aut = 1
    fixed = 0
    below = [-1] * k
    for i, v in enumerate(order):
        orbit = 1
        for j in range(i + 1, k):
            if _moves_to(h_rows, fixed, v, order[j]):
                below[j] = i
                orbit += 1
        aut *= orbit
        fixed |= 1 << v
    above = [0] * k
    for j in range(k - 1, 0, -1):
        if below[j] >= 0:
            above[below[j]] += above[j] + 1
    return aut, tuple(below), tuple(above)


def _moves_to(rows, fixed, v, w):
    """Whether an automorphism of rows fixes every vertex in the mask fixed
    and takes v to w (neither of them in fixed).

    Twins (equal rows apart from each other's bit) are swapped by a
    transposition.  Otherwise the search extends the partial map, always
    at the unmapped vertex with most mapped neighbours, to images of equal
    degree whose adjacency to the mapped images matches.
    """
    bv, bw = 1 << v, 1 << w
    if (rows[v] & ~bw) == (rows[w] & ~bv):
        return True
    k = len(rows)
    full = (1 << k) - 1
    deg = [r.bit_count() for r in rows]
    img = list(range(k))  # the identity on fixed
    img[v] = w

    def image(mask):
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << img[low.bit_length() - 1]
            mask ^= low
        return out

    def rec(dom, ran):
        if dom == full:
            return True
        rest = full ^ dom
        u, most = -1, -1
        while rest:
            low = rest & -rest
            t = low.bit_length() - 1
            hits = (rows[t] & dom).bit_count()
            if hits > most:
                u, most = t, hits
            rest ^= low
        want = image(rows[u] & dom)
        c = full ^ ran
        while c:
            low = c & -c
            c ^= low
            x = low.bit_length() - 1
            if deg[x] == deg[u] and (rows[x] & ran) == want:
                img[u] = x
                if rec(dom | 1 << u, ran | low):
                    return True
        return False

    if deg[v] != deg[w] or (rows[w] & fixed) != (rows[v] & fixed):
        return False
    return rec(fixed | bv, fixed | bw)


def _count_maps(h_rows, g_rows, injective):
    """Number of edge-preserving maps V(h) -> V(g), only the one-to-one ones
    when injective: count_maps in _kernels.c.

    Level i of the walk places pattern vertex order[i] of _plan on a free
    target vertex adjacent to the images of its earlier neighbours
    (pmasks[i]); the last level adds its candidates with one popcount.
    Injectively, a placed vertex leaves the free mask, a pattern larger
    than the target gives 0 at once, and the walk counts one map per
    Aut(h)-orbit and multiplies by |Aut(h)|: with below and above from
    _symmetry, level i keeps only candidates above the image of level
    below[i] and with at least above[i] target vertices above them.
    """
    k = len(h_rows)
    n = len(g_rows)
    if k == 0:
        raise ValueError("pattern must have at least one vertex")
    if injective and k > n:
        return 0
    _, pmasks = _plan(h_rows)
    full = (1 << n) - 1
    aut = 1
    if injective:
        aut, below, above = _symmetry(tuple(h_rows))
        caps = [full >> a for a in above]
    last = k - 1
    assigned = [0] * k
    total = 0

    def rec(level, free):
        nonlocal total
        c = free
        if injective:
            c &= caps[level]
            j = below[level]
            if j >= 0:
                c &= -2 << assigned[j]
        m = pmasks[level]
        while m:
            c &= g_rows[assigned[(m & -m).bit_length() - 1]]
            m &= m - 1
        if level == last:
            total += c.bit_count()
            return
        while c:
            low = c & -c
            assigned[level] = low.bit_length() - 1
            rec(level + 1, free ^ low if injective else free)
            c ^= low

    rec(0, full)
    return aut * total


def hom_count(h_rows, g_rows):
    """Number of adjacency-preserving maps V(h) -> V(g)."""
    return _count_maps(h_rows, g_rows, False)


def inj_count(h_rows, g_rows):
    """Number of injective homomorphisms V(h) -> V(g)."""
    return _count_maps(h_rows, g_rows, True)


def _relabel(rows, perm):
    """rows relabeled so that the vertex at position t is perm[t]."""
    n = len(rows)
    out = [0] * n
    for t in range(n):
        rt = rows[perm[t]]
        for s in range(n):
            if (rt >> perm[s]) & 1:
                out[t] |= 1 << s
    return tuple(out)


def canonical_min_rows(rows):
    """Relabeling of the graph whose column bit-string is lexicographically least.

    Branch-and-bound over placements: at each position only vertices whose
    column word is minimal can extend an optimal prefix, so only ties are
    branched.  Leaves are compared whole against the best string found.
    """
    rows = tuple(rows)
    n = len(rows)
    if n == 1:
        return rows
    full = (1 << n) - 1
    if all(r == 0 for r in rows):
        return rows
    if all(r == (full ^ (1 << v)) for v, r in enumerate(rows)):
        return rows

    best_cols = None
    best_perm = None
    placed = []
    cur_cols = []

    def rec(words, tight):
        nonlocal best_cols, best_perm
        p = len(placed)
        if p == n:
            if best_cols is None or cur_cols < best_cols:
                best_cols = list(cur_cols)
                best_perm = list(placed)
            return
        w_min = None
        ties = []
        for v in range(n):
            w = words[v]
            if w is None:
                continue
            if w_min is None or w < w_min:
                w_min = w
                ties = [v]
            elif w == w_min:
                ties.append(v)
        if best_cols is not None and tight:
            if w_min > best_cols[p]:
                return
            tight = w_min == best_cols[p]
        cur_cols.append(w_min)
        for v in ties:
            words2 = list(words)
            words2[v] = None
            for u in range(n):
                if words2[u] is not None:
                    words2[u] = (words2[u] << 1) | ((rows[u] >> v) & 1)
            placed.append(v)
            rec(words2, tight)
            placed.pop()
        cur_cols.pop()

    rec([0] * n, True)
    return _relabel(rows, best_perm)


def _lower_twins(rows):
    """lower[v]: the twins of v with a smaller index.

    u and v are twins when their rows agree apart from each other's bit.
    False twins have equal rows; true twins have equal rows once each gets
    its own bit.
    """
    lower = [0] * len(rows)
    false_cls = {}
    true_cls = {}
    for v, r in enumerate(rows):
        bv = 1 << v
        lower[v] = false_cls.get(r, 0) | true_cls.get(r | bv, 0)
        false_cls[r] = false_cls.get(r, 0) | bv
        true_cls[r | bv] = true_cls.get(r | bv, 0) | bv
    return lower


def canonical_max_rows(rows):
    """Relabeling of the graph whose column bit-string is lexicographically
    greatest.

    Branch and bound over placements.  At position p the greatest word and
    its ties come from the rows nbr[t] of the placed vertices: walking
    t < p, the word takes a 1 and the ties shrink to nbr[t] wherever some
    tie lies in nbr[t].  Only ties can extend a greatest prefix, and of
    each twin class among them only the lowest-index member is branched
    (see is_canonical_max).  A prefix whose word falls below the best
    string found is cut; a leaf not tied with the best string is greater
    and replaces it.

    The greatest string starts with a largest clique, so sparse graphs are
    quick.  On a dense graph the search amounts to finding a largest
    independent set of its complement; graphs.enumerated_form labels those
    through the complement instead.
    """
    rows = tuple(rows)
    n = len(rows)
    lower = _lower_twins(rows)
    nbr = [0] * n
    placed = [0] * n
    cur_cols = [0] * n
    best_cols = None
    best_perm = None

    def rec(p, unused, tight):
        # tight: columns 0..p-1 equal best_cols[0..p-1].
        nonlocal best_cols, best_perm
        if p == n:
            if not tight:
                best_cols = list(cur_cols)
                best_perm = list(placed)
            return
        ties = unused
        w = 0
        for t in range(p):
            hit = ties & nbr[t]
            w <<= 1
            if hit:
                ties = hit
                w |= 1
        if tight:
            if w < best_cols[p]:
                return
            tight = w == best_cols[p]
        cur_cols[p] = w
        c = ties
        while c:
            bv = c & -c
            c ^= bv
            v = bv.bit_length() - 1
            if ties & lower[v]:
                continue
            placed[p] = v
            nbr[p] = rows[v]
            rec(p + 1, unused ^ bv, tight)
            # The best string now shares columns 0..p with this prefix.
            tight = True

    rec(0, (1 << n) - 1, False)
    return _relabel(rows, best_perm)


def is_canonical_max(rows):
    """Whether no relabeling produces a lexicographically larger column string.

    The search places vertices one position at a time, keeping only
    placements whose columns so far equal the identity's.  At position p
    the tie set comes from the neighbourhood masks nbr[t] of the vertices
    already placed: walking t < p, a 1 in identity column p keeps the
    candidates in nbr[t]; at a 0, a candidate in nbr[t] has a larger word,
    which is a witness.  Once the ties run out, every candidate's word is
    smaller than the identity's, so the walk stops there.

    Twins (u and v with equal neighbourhoods apart from each other) are
    branched once: transposing two unplaced twins is an automorphism that
    fixes the placed prefix, so their subtrees give the same strings.
    Among the ties only the lowest-index member of each twin class is
    tried.

    The search has no node limit.  On the partial graphs of sparse-side
    orderly generation it stays short (see the README); many isomorphic
    components without twins, such as a union of many equal cycles, still
    take exponential time.
    """
    rows = tuple(rows)
    n = len(rows)
    # From position z on, every identity column is zero.
    z = n
    while z > 0 and rows[z - 1] & ((1 << (z - 1)) - 1) == 0:
        z -= 1
    lower = _lower_twins(rows)
    nbr = []  # nbr[t] for the placed positions t < p

    def rec(p, unused):
        if p >= z:
            while unused:
                if rows[(unused & -unused).bit_length() - 1]:
                    return True
                unused &= unused - 1
            return False
        ties = unused
        col = rows[p]
        for nb in nbr:
            if col & 1:
                ties &= nb
                if not ties:
                    return False
            elif ties & nb:
                return True
            col >>= 1
        c = ties
        while c:
            bv = c & -c
            c ^= bv
            v = bv.bit_length() - 1
            if ties & lower[v]:
                continue
            nbr.append(rows[v])
            found = rec(p + 1, unused ^ bv)
            nbr.pop()
            if found:
                return True
        return False

    return not rec(0, (1 << n) - 1)


def degree_lookahead(deg, d, i0, j0):
    """Whether a partial graph can still be completed to a d-regular graph.

    deg holds the vertex degrees of a partial graph whose positionally last
    edge is the cell (i0, j0).  The cells after it are (i, j0) for
    i0 < i < j0, then every pair with a larger column.  So the old vertices
    A = 0..j0 gain only edges j0-i with i0 < i < j0 and edges to the new
    vertices B = j0+1..n-1, which are still isolated; b = |B|.  With
    need_v = d - deg[v], every completion satisfies:

    - need_v <= b for v <= i0, need_v <= b + 1 for i0 < v < j0, and
      need_j0 <= b + j0 - 1 - i0;
    - sum_A need - 2 min(k, need_j0) <= b d, where k counts the vertices
      i0 < v < j0 with need_v > 0: at most min(k, need_j0) edges stay
      inside A, and B takes at most b d edge ends;
    - each new vertex has at most b - 1 new neighbours, so at least
      lo = d - b + 1 old ones: if b > 0 and lo > 0, then
      sum_A need >= b lo and at least lo old vertices have need_v > 0.

    A False therefore cuts only subtrees that hold no d-regular graph.  The
    per-vertex bounds sum to b (j0 + 1) + 2 (j0 - 1 - i0), so with d <= n - 1
    they already keep the total need within twice the cells left.
    """
    b = len(deg) - 1 - j0
    need_a = 0
    open_a = 0
    k = 0
    for v in range(j0):
        need = d - deg[v]
        if need:
            if v > i0:
                if need > b + 1:
                    return False
                k += 1
            elif need > b:
                return False
            need_a += need
            open_a += 1
    need_j = d - deg[j0]
    if need_j:
        if need_j > b + j0 - 1 - i0:
            return False
        need_a += need_j
        open_a += 1
    if need_a - 2 * min(k, need_j) > b * d:
        return False
    lo = d - b + 1
    return not (b and lo > 0 and (need_a < b * lo or open_a < lo))


def first_neighbour_cut(rows, u, i, j):
    """Whether no max-lex canonical d-regular graph extends a partial graph
    by the cell (i, j) or by cells after it.

    rows is a partial graph of orderly generation whose edges all lie
    before the cell (i, j), and u its lowest vertex of degree below d.  If
    (i, j) would be the first edge of column j (rows[j] == 0) and i > u,
    every completion from (i, j) on gives u a neighbour k > j, since the
    cells (u, j') with j' <= j lie before (i, j).  Column j holds no bit
    below i, while k's word on 0..j-1 has bit u, so swapping j and k
    leaves columns 0..j-1 alone and makes column j greater.  The later
    cells of column j meet the same test, and a cell of a later column
    leaves column j empty, which k's word beats as well.
    """
    return i > u and not rows[j]


def connected_cut(rows, deg, d, u):
    """Whether no connected max-lex canonical d-regular graph extends a
    partial graph.

    rows is a partial graph of orderly generation, deg its degrees and u a
    vertex below which every degree is d.  Let w be the lowest vertex of
    degree below d.  If 0 < w < n and w has no edge yet, the vertices
    0..w-1 are saturated and column w is empty.  In a max-lex canonical
    graph none of them then has a neighbour k > w: k's word on 0..w-1
    would beat column w, and swapping w and k leaves columns 0..w-1 alone.
    So every completion of a canonical partial graph keeps 0..w-1 apart
    from w, and a partial graph that is not canonical has no canonical
    completion at all.
    """
    n = len(deg)
    w = u
    while w < n and deg[w] == d:
        w += 1
    return 0 < w < n and not rows[w]


def enumerate_regular_rows(n, d, connected_only=False):
    """The d-regular graphs on n vertices, one max-lex canonical labeled
    representative per class, for the sparse side 2d <= n - 1 only.

    Orderly generation: edges are added in increasing cell position (column
    major), and a partial graph is extended only while it stays max-lex
    canonical.  Removing the positionally last edge of a canonical graph
    leaves a canonical graph, so every class is reached once, and each
    representative is its own max-lex form, so no two are isomorphic.

    Two look-aheads run on every extension.  first_neighbour_cut ends the
    loop over a partial graph's cells where none of the remaining ones
    leads to a max-lex canonical d-regular graph, and degree_lookahead
    drops a partial graph that no choice of the remaining cells completes
    to a d-regular graph at all.  Both hold for any partial graph,
    canonical or not.  Every max-lex canonical d-regular graph is still
    reached, so the list is the one plain orderly generation gives.  The
    look-aheads also end the search once the lowest vertex u short of
    degree d can gain no edge, because the cells left are (i, n-1) with
    i > u: an empty column n-1 stops the loop, and otherwise
    degree_lookahead finds u short.

    A partial graph (the parent) is tested at most once, just before its
    first extension into a later column than that of its last edge that
    passes degree_lookahead and, with connected_only, connected_cut: a
    test with no such extension to guard prunes nothing.  Extensions
    within the parent's column run untested, and every complete graph is
    tested before it is kept.  When that first extension lies in column
    n-1, the parent goes untested: the cells of column n-1 complete it one
    way only, and the leaf test rejects that completion if the parent is
    not canonical.  Every prefix of a canonical graph is canonical, so a
    skipped test only lets a subtree with no canonical graph in it run on
    to the next column or the leaf, and the list is the one that a test
    after every edge gives.  At (12, 3) the search makes 976 canonicity
    tests, where a test after every edge makes 1,467, and one with
    degree_lookahead alone 12,427.

    With connected_only, connected_cut also drops partial graphs whose
    every canonical completion is disconnected.  The list is then the
    connected subset of the full list, in order; (12, 3) takes 881
    canonicity tests.

    The dense side 2d > n - 1 raises ValueError: its partial graphs hold
    large cliques, on which the canonicity test explodes.
    graphs.enumerate_regular enumerates the complement family instead.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    if 2 * d > n - 1:
        raise ValueError("orderly generation needs 2d <= n - 1")
    if d < 0 or (n * d) % 2 == 1:
        return []
    if d == 0:
        return [] if connected_only and n > 1 else [tuple([0] * n)]
    total_cells = n * (n - 1) // 2
    cells = []
    for j in range(n):
        for i in range(j):
            cells.append((i, j))
    rows = [0] * n
    deg = [0] * n
    out = []
    m_target = n * d // 2

    # tested: rows needs no canonicity test before its next extension into
    # a later column; the empty root needs none.
    def rec(last_pos, m, tested):
        if m == m_target:
            if is_canonical_max(rows):
                out.append(tuple(rows))
            return
        u = 0
        while deg[u] == d:
            u += 1
        last_col = cells[last_pos][1]
        for pos in range(last_pos + 1, total_cells):
            i, j = cells[pos]
            if first_neighbour_cut(rows, u, i, j):
                break
            if deg[i] == d or deg[j] == d:
                continue
            bi = 1 << i
            bj = 1 << j
            rows[i] |= bj
            rows[j] |= bi
            deg[i] += 1
            deg[j] += 1
            if (
                not (connected_only and connected_cut(rows, deg, d, u))
                and degree_lookahead(deg, d, i, j)
            ):
                if not tested and j > last_col:
                    tested = True
                    if j < n - 1:
                        # Test the parent: rows without this edge.
                        rows[i] ^= bj
                        rows[j] ^= bi
                        if not is_canonical_max(rows):
                            deg[i] -= 1
                            deg[j] -= 1
                            return
                        rows[i] |= bj
                        rows[j] |= bi
                rec(pos, m + 1, False)
            rows[i] ^= bj
            rows[j] ^= bi
            deg[i] -= 1
            deg[j] -= 1

    rec(-1, 0, True)
    return out
