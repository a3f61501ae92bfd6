/* Compiled twin of homcert._pykernels.
 *
 * Same results and the same algorithms on every input the dispatcher
 * routes here.  There is one labeller, canonical_max_rows: homcert.kernels
 * takes the least labelling as the complement of the greatest labelling
 * of the complement.  The counting walk computes nothing about the
 * pattern: homcert.kernels passes it, as the Python walk, the plan of
 * _pykernels._plan and, injectively, the order constraints of
 * _pykernels._symmetry, and multiplies the count of one map per
 * automorphism orbit by |Aut(h)|.  homcert.kernels routes targets of at
 * most 64 vertices, and sends a count here only when
 * k * bitlen(max(n, 2)) <= 62 for a k-vertex pattern and an n-vertex
 * target, so the count stays below 2**62 and the pattern has at most 31
 * vertices.  PATTERN_LIMIT (48) only sizes the buffers for direct calls.
 * Every entry point re-checks the vertex limits and raises ValueError
 * beyond them, as on the dense side 2d > n - 1 of enumerate_regular_rows.
 * Row and mask ints must fit in 64 unsigned bits: negative or wider ones
 * raise OverflowError instead of being truncated.
 *
 * enumerate_regular_rows returns its list in the order of the Python one:
 * strictly decreasing column string (the upper triangle read column by
 * column, graph6's bit order), since the search tries cells in increasing
 * position.  graphs.enumerate_regular relies on that order and sorts
 * nothing.
 *
 * Graphs arrive as sequences of adjacency bitmasks (rows[v] has bit u set
 * iff uv is an edge).  All per-call state lives on the stack or in a heap
 * block freed before returning; the module keeps no global mutable state.
 *
 * Build:  python setup.py build_ext --inplace
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define PATTERN_LIMIT 48
#define MASK_LIMIT 64
#define MAX_CELLS (MASK_LIMIT * (MASK_LIMIT - 1) / 2)

#define POPCOUNT(x) __builtin_popcountll(x)
#define CTZ(x) __builtin_ctzll(x)
#define BIT(v) ((uint64_t)1 << (v))

static const char COUNT_LIMIT_MSG[] =
    "compiled kernel limited to 48 pattern / 64 target vertices";
static const char ORDER_LIMIT_MSG[] = "compiled kernel limited to 64 vertices";
static const char SPARSE_SIDE_MSG[] = "orderly generation needs 2d <= n - 1";
static const char PLAN_MSG[] =
    "pmasks[i] may hold only bits of the earlier levels 0..i-1";
static const char LEVELS_MSG[] =
    "inj_count needs -1 <= below[i] < i and 0 <= above[i] < k - i "
    "at each of the k levels";

/* Mask of the vertices 0..n-1; n == 64 cannot be shifted. */
static uint64_t
full_mask(int n)
{
    return n == MASK_LIMIT ? UINT64_MAX : BIT(n) - 1;
}

/* Copy the row ints of seq into out[] and return how many there are, or
 * -1 with ValueError(msg) beyond `limit` rows or OverflowError on a row
 * outside 0..2**64-1. */
static Py_ssize_t
load_rows(PyObject *seq, Py_ssize_t limit, const char *msg, uint64_t *out)
{
    PyObject *fast = PySequence_Fast(seq, "rows must be an iterable of ints");
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    if (n > limit) {
        PyErr_SetString(PyExc_ValueError, msg);
        n = -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        unsigned long long r = PyLong_AsUnsignedLongLong(items[i]);
        if (r == (unsigned long long)-1 && PyErr_Occurred()) {
            n = -1;
            break;
        }
        out[i] = (uint64_t)r;
    }
    Py_DECREF(fast);
    return n;
}

static PyObject *
rows_to_tuple(const uint64_t *rows, int n)
{
    PyObject *t = PyTuple_New(n);
    if (t == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *r = PyLong_FromUnsignedLongLong(rows[i]);
        if (r == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, r);
    }
    return t;
}

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)",
                 name, want, nargs);
    return -1;
}

/* ------------------------------------------------------------------ */
/* hom_count / inj_count                                               */
/* ------------------------------------------------------------------ */

/* Iterative backtracking over the plan's levels.  The last level is
 * never branched: its candidate count is added with one popcount.
 * Injectively, level i also keeps only candidates within cap[i] and
 * above the image of level below[i] (none when below[i] is -1), the
 * order constraints of _pykernels._symmetry.  Inlined so that each
 * caller's constant `injective` folds away. */
static inline __attribute__((always_inline)) unsigned long long
count_maps(const uint64_t *g, int n, const uint64_t *pm, int k, int injective,
           const int *below, const uint64_t *cap)
{
    uint64_t cand[PATTERN_LIMIT], used[PATTERN_LIMIT + 1];
    int assigned[PATTERN_LIMIT];
    uint64_t full = full_mask(n);
    unsigned long long total = 0;
    int last = k - 1, level = 0;
    used[0] = 0;
    cand[0] = injective ? cap[0] : full;
    while (level >= 0) {
        if (level == last) {
            total += POPCOUNT(cand[level]);
            level--;
            continue;
        }
        if (cand[level] == 0) {
            level--;
            continue;
        }
        int v = CTZ(cand[level]);
        cand[level] &= cand[level] - 1;
        assigned[level] = v;
        level++;
        uint64_t c = full;
        if (injective) {
            used[level] = used[level - 1] | BIT(v);
            c = cap[level] & ~used[level];
            if (below[level] >= 0) /* BIT(63) << 1 wraps to 0: no room */
                c &= ~((BIT(assigned[below[level]]) << 1) - 1);
        }
        for (uint64_t m = pm[level]; m; m &= m - 1)
            c &= g[assigned[CTZ(m)]];
        cand[level] = c;
    }
    return total;
}

/* Copy the k level ints of seq into out[], or return -1 with ValueError
 * unless -1 <= out[i] < i for each level i (below) or
 * 0 <= out[i] < k - i (above). */
static int
load_levels(PyObject *seq, Py_ssize_t k, int is_below, int *out)
{
    PyObject *fast = PySequence_Fast(seq, "levels must be an iterable of ints");
    if (fast == NULL)
        return -1;
    int rc = 0;
    if (PySequence_Fast_GET_SIZE(fast) != k) {
        PyErr_SetString(PyExc_ValueError, LEVELS_MSG);
        rc = -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; rc == 0 && i < k; i++) {
        long x = PyLong_AsLong(items[i]);
        if (x == -1 && PyErr_Occurred())
            rc = -1;
        else if (is_below ? x < -1 || x >= i : x < 0 || x >= k - i) {
            PyErr_SetString(PyExc_ValueError, LEVELS_MSG);
            rc = -1;
        }
        else
            out[i] = (int)x;
    }
    Py_DECREF(fast);
    return rc;
}

/* hom_count(pmasks, g_rows) and inj_count(pmasks, g_rows, below, above),
 * the arguments of the Python walk.  pm[i] may name only levels below i:
 * the walk reads their images, and a later level is not placed yet. */
static inline __attribute__((always_inline)) PyObject *
count_entry(const char *name, PyObject *const *args, Py_ssize_t nargs,
            int injective)
{
    if (check_nargs(name, nargs, injective ? 4 : 2) < 0)
        return NULL;
    uint64_t pm[PATTERN_LIMIT], g[MASK_LIMIT], cap[PATTERN_LIMIT];
    int below[PATTERN_LIMIT], above[PATTERN_LIMIT];
    Py_ssize_t k = load_rows(args[0], PATTERN_LIMIT, COUNT_LIMIT_MSG, pm);
    if (k < 0)
        return NULL;
    Py_ssize_t n = load_rows(args[1], MASK_LIMIT, COUNT_LIMIT_MSG, g);
    if (n < 0)
        return NULL;
    if (k == 0) {
        PyErr_SetString(PyExc_ValueError, "pattern must have at least one vertex");
        return NULL;
    }
    for (Py_ssize_t i = 0; i < k; i++)
        if (pm[i] >> i) {
            PyErr_SetString(PyExc_ValueError, PLAN_MSG);
            return NULL;
        }
    if (injective) {
        if (load_levels(args[2], k, 1, below) < 0
            || load_levels(args[3], k, 0, above) < 0)
            return NULL;
        if (k > n)
            return PyLong_FromLong(0);
        for (Py_ssize_t i = 0; i < k; i++) /* k <= n: n - above[i] >= 1 */
            cap[i] = full_mask((int)n - above[i]);
    }
    return PyLong_FromUnsignedLongLong(
        count_maps(g, (int)n, pm, (int)k, injective, below, cap));
}

static PyObject *
hom_count(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return count_entry("hom_count", args, nargs, 0);
}

static PyObject *
inj_count(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return count_entry("inj_count", args, nargs, 1);
}

/* ------------------------------------------------------------------ */
/* Twins, shared by the labeller and is_canonical_max                  */
/* ------------------------------------------------------------------ */

/* lower[v]: the twins of v with a smaller index, u and v being twins when
 * their rows agree apart from each other's bit.  Twins fall into classes,
 * so the greatest lower twin u of v gives lower[v] = lower[u] plus u. */
static void
lower_twins(const uint64_t *rows, int n, uint64_t *lower)
{
    for (int v = 0; v < n; v++) {
        lower[v] = 0;
        for (int u = v - 1; u >= 0; u--)
            if ((rows[u] & ~BIT(v)) == (rows[v] & ~BIT(u))) {
                lower[v] = lower[u] | BIT(u);
                break;
            }
    }
}

/* ------------------------------------------------------------------ */
/* canonical_max_rows                                                  */
/* ------------------------------------------------------------------ */

/* nbr[t] is the row of the vertex placed at position t and cur_cols[t]
 * its column word; best_cols/best_perm hold the greatest string found. */
typedef struct {
    int n;
    uint64_t rows[MASK_LIMIT];
    uint64_t lower[MASK_LIMIT];
    uint64_t nbr[MASK_LIMIT];
    uint64_t cur_cols[MASK_LIMIT];
    uint64_t best_cols[MASK_LIMIT];
    int placed[MASK_LIMIT];
    int best_perm[MASK_LIMIT];
} CanonLab;

/* Branch and bound on the greatest column word.  Walking t < p, the word
 * at p takes a 1 and the ties shrink to nbr[t] whenever some tie is in
 * nbr[t].  Of each twin class among the ties only the lowest-index member
 * is branched.  `tight` means columns 0..p-1 equal the best string's: a
 * smaller word there is cut, and a leaf reached untight is greater and
 * replaces the best.  Once a child returns, the best string shares
 * columns 0..p with this prefix. */
static void
canon_lab_rec(CanonLab *cl, uint64_t unused, int p, int tight)
{
    int n = cl->n;
    if (p == n) {
        if (!tight) {
            memcpy(cl->best_cols, cl->cur_cols, n * sizeof(uint64_t));
            memcpy(cl->best_perm, cl->placed, n * sizeof(int));
        }
        return;
    }
    uint64_t ties = unused, w = 0;
    for (int t = 0; t < p; t++) {
        uint64_t hit = ties & cl->nbr[t];
        w <<= 1;
        if (hit) {
            ties = hit;
            w |= 1;
        }
    }
    if (tight) {
        if (w < cl->best_cols[p])
            return;
        tight = w == cl->best_cols[p];
    }
    cl->cur_cols[p] = w;
    for (uint64_t s = ties; s; s &= s - 1) {
        int v = CTZ(s);
        if (ties & cl->lower[v])
            continue;
        cl->placed[p] = v;
        cl->nbr[p] = cl->rows[v];
        canon_lab_rec(cl, unused & ~BIT(v), p + 1, tight);
        tight = 1;
    }
}

/* The graph relabeled by its max-lex labelling.  Empty and complete
 * graphs are one twin class, so they stay quick. */
static PyObject *
canonical_max_rows(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("canonical_max_rows", nargs, 1) < 0)
        return NULL;
    CanonLab *cl = PyMem_Malloc(sizeof(CanonLab));
    if (cl == NULL)
        return PyErr_NoMemory();
    Py_ssize_t n = load_rows(args[0], MASK_LIMIT, ORDER_LIMIT_MSG, cl->rows);
    if (n < 0) {
        PyMem_Free(cl);
        return NULL;
    }
    uint64_t full = full_mask((int)n), out[MASK_LIMIT];
    cl->n = (int)n;
    lower_twins(cl->rows, (int)n, cl->lower);
    canon_lab_rec(cl, full, 0, 0);
    int pos[MASK_LIMIT];
    for (int t = 0; t < n; t++)
        pos[cl->best_perm[t]] = t;
    for (int t = 0; t < n; t++) {
        uint64_t r = 0;
        for (uint64_t m = cl->rows[cl->best_perm[t]] & full; m; m &= m - 1)
            r |= BIT(pos[CTZ(m)]);
        out[t] = r;
    }
    PyMem_Free(cl);
    return rows_to_tuple(out, (int)n);
}

/* ------------------------------------------------------------------ */
/* is_canonical_max                                                    */
/* ------------------------------------------------------------------ */

/* nbr[t] is the row of the vertex placed at position t; lower[v] holds
 * the twins of v with a smaller index; from position z on, every column
 * of the identity labeling is zero. */
typedef struct {
    int n;
    int z;
    uint64_t rows[MASK_LIMIT];
    uint64_t nbr[MASK_LIMIT];
    uint64_t lower[MASK_LIMIT];
} CanonMax;

/* Whether some relabeling extending the placed prefix beats the identity.
 * The placements kept so far give the identity's columns 0..p-1.  The
 * ties at p come from the placed rows: walking t < p, a 1 in identity
 * column p keeps the candidates in nbr[t]; at a 0, a candidate in nbr[t]
 * has a larger word, which is a witness.  Once the ties run out, every
 * candidate's word is smaller, so the walk stops.  Transposing two
 * unplaced twins (equal rows apart from each other) fixes the prefix, so
 * their subtrees give the same strings: only the lowest-index tie of each
 * twin class is branched. */
static int
canon_max_rec(CanonMax *cm, uint64_t unused, int p)
{
    int n = cm->n;
    if (p == n)
        return 0;
    if (p >= cm->z) {
        for (uint64_t s = unused; s; s &= s - 1)
            if (cm->rows[CTZ(s)] != 0)
                return 1;
        return 0;
    }
    uint64_t ties = unused, col = cm->rows[p];
    for (int t = 0; t < p; t++) {
        if ((col >> t) & 1) {
            ties &= cm->nbr[t];
            if (ties == 0)
                return 0;
        } else if (ties & cm->nbr[t]) {
            return 1;
        }
    }
    for (uint64_t s = ties; s; s &= s - 1) {
        int v = CTZ(s);
        if (ties & cm->lower[v])
            continue;
        cm->nbr[p] = cm->rows[v];
        if (canon_max_rec(cm, unused & ~BIT(v), p + 1))
            return 1;
    }
    return 0;
}

/* Canonicity of cm->rows[0..n-1]. */
static int
canon_max_rows(CanonMax *cm, int n)
{
    const uint64_t *rows = cm->rows;
    int z = n;
    while (z > 0 && (rows[z - 1] & (BIT(z - 1) - 1)) == 0)
        z--;
    lower_twins(rows, n, cm->lower);
    cm->n = n;
    cm->z = z;
    return !canon_max_rec(cm, full_mask(n), 0);
}

static PyObject *
is_canonical_max(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("is_canonical_max", nargs, 1) < 0)
        return NULL;
    CanonMax *cm = PyMem_Malloc(sizeof(CanonMax));
    if (cm == NULL)
        return PyErr_NoMemory();
    Py_ssize_t n = load_rows(args[0], MASK_LIMIT, ORDER_LIMIT_MSG, cm->rows);
    if (n < 0) {
        PyMem_Free(cm);
        return NULL;
    }
    int canonical = canon_max_rows(cm, (int)n);
    PyMem_Free(cm);
    return PyBool_FromLong(canonical);
}

/* ------------------------------------------------------------------ */
/* enumerate_regular_rows                                              */
/* ------------------------------------------------------------------ */

/* The graph under construction lives in cm.rows, which the canonicity
 * test reads in place.  Cells are the vertex pairs in column-major order. */
typedef struct {
    int n, d, total_cells, m_target;
    int connected_only;
    int deg[MASK_LIMIT];
    int cell_i[MAX_CELLS];
    int cell_j[MAX_CELLS];
    PyObject *out;
    CanonMax cm;
} RegEnum;

/* Degree look-ahead, as degree_lookahead in _pykernels: whether the partial
 * graph whose positionally last edge is (i0, j0) can still be completed to
 * a d-regular graph.  Old vertices A = 0..j0 gain only edges j0-i with
 * i0 < i < j0 and edges to the b new vertices j0+1..n-1, still isolated.
 * A zero cuts only subtrees that hold no d-regular graph. */
static int
reg_feasible(const RegEnum *re, int i0, int j0)
{
    int d = re->d;
    int b = re->n - 1 - j0;
    int need_a = 0, open_a = 0, k = 0;
    for (int v = 0; v < j0; v++) {
        int need = d - re->deg[v];
        if (need == 0)
            continue;
        if (v > i0) {
            if (need > b + 1)
                return 0;
            k++;
        } else if (need > b) {
            return 0;
        }
        need_a += need;
        open_a++;
    }
    int need_j = d - re->deg[j0];
    if (need_j) {
        if (need_j > b + j0 - 1 - i0)
            return 0;
        need_a += need_j;
        open_a++;
    }
    /* At most min(k, need_j0) edges stay inside A; B takes b d edge ends. */
    if (need_a - 2 * (k < need_j ? k : need_j) > b * d)
        return 0;
    /* Each new vertex has at least lo = d - b + 1 old neighbours. */
    int lo = d - b + 1;
    return !(b > 0 && lo > 0 && (need_a < b * lo || open_a < lo));
}

/* Connected cut, as connected_cut in _pykernels: whether the lowest
 * vertex w of degree below d, found from u on, has 0 < w < n and no edge.
 * In a max-lex canonical graph the saturated vertices 0..w-1 then have
 * no neighbour k > w, whose word on 0..w-1 would beat the empty column w,
 * so every canonical completion is disconnected. */
static int
reg_split(const RegEnum *re, int u)
{
    int w = u;
    while (w < re->n && re->deg[w] == re->d)
        w++;
    return w > 0 && w < re->n && re->cm.rows[w] == 0;
}

/* Orderly generation: add edges in increasing cell position while the
 * partial graph can still become d-regular (reg_feasible) and stays max-lex
 * canonical.  The first-neighbour look-ahead, as first_neighbour_cut in
 * _pykernels, ends the loop at the first edge (i, j) of an empty column j
 * with i > u: u then gains a neighbour k > j, whose word on 0..j-1 has
 * bit u and beats column j, so no max-lex canonical graph lies at this
 * cell or any later one.  Once the cells left are (i, n-1) with i > u, an
 * empty column n-1 stops the loop this way and otherwise reg_feasible
 * finds u short.  With connected_only, reg_split skips partial
 * graphs with no connected canonical completion.  As in _pykernels, a
 * partial graph (the parent) is tested for canonicity at most once: just
 * before its first extension into a later column than its last edge's
 * that passes reg_split and reg_feasible, and not at all when that
 * extension lies in column n-1, whose cells complete the graph one way
 * only.  Every complete graph is tested before it is kept.  tested says
 * the parent needs no further test, and the empty graph needs none.
 * Every prefix of a canonical graph is canonical, so the list is the one
 * a test after every edge gives; at (12, 3) the search makes 976 tests
 * (881 connected) where that makes 1,467 (1,328).  Returns -1 on a
 * Python error. */
static int
reg_rec(RegEnum *re, int last_pos, int m, int tested)
{
    int n = re->n, d = re->d;
    uint64_t *rows = re->cm.rows;
    if (m == re->m_target) {
        if (!tested && !canon_max_rows(&re->cm, n))
            return 0;
        PyObject *t = rows_to_tuple(rows, n);
        if (t == NULL)
            return -1;
        int rc = PyList_Append(re->out, t);
        Py_DECREF(t);
        return rc;
    }
    int u = 0;
    while (re->deg[u] == d)
        u++;
    int last_col = last_pos < 0 ? 0 : re->cell_j[last_pos];
    for (int pos = last_pos + 1; pos < re->total_cells; pos++) {
        int i = re->cell_i[pos], j = re->cell_j[pos];
        if (i > u && rows[j] == 0)
            break;
        if (re->deg[i] == d || re->deg[j] == d)
            continue;
        rows[i] |= BIT(j);
        rows[j] |= BIT(i);
        re->deg[i]++;
        re->deg[j]++;
        int rc = 0;
        if (!(re->connected_only && reg_split(re, u)) && reg_feasible(re, i, j)) {
            if (!tested && j > last_col) {
                tested = 1;
                if (j < n - 1) {
                    /* Test the parent: rows without this edge. */
                    rows[i] ^= BIT(j);
                    rows[j] ^= BIT(i);
                    if (!canon_max_rows(&re->cm, n)) {
                        re->deg[i]--;
                        re->deg[j]--;
                        return 0;
                    }
                    rows[i] |= BIT(j);
                    rows[j] |= BIT(i);
                }
            }
            rc = reg_rec(re, pos, m + 1, 0);
        }
        rows[i] ^= BIT(j);
        rows[j] ^= BIT(i);
        re->deg[i]--;
        re->deg[j]--;
        if (rc < 0)
            return -1;
    }
    return 0;
}

static PyObject *
enumerate_regular_rows(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("enumerate_regular_rows", nargs, 3) < 0)
        return NULL;
    long n = PyLong_AsLong(args[0]);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    long d = PyLong_AsLong(args[1]);
    if (d == -1 && PyErr_Occurred())
        return NULL;
    int connected_only = PyObject_IsTrue(args[2]);
    if (connected_only < 0)
        return NULL;
    if (n < 1) {
        PyErr_SetString(PyExc_ValueError, "order must be at least 1");
        return NULL;
    }
    if (n > MASK_LIMIT) {
        PyErr_SetString(PyExc_ValueError, ORDER_LIMIT_MSG);
        return NULL;
    }
    if (d > (n - 1) / 2) { /* 2d > n - 1, without overflow */
        PyErr_SetString(PyExc_ValueError, SPARSE_SIDE_MSG);
        return NULL;
    }
    PyObject *out = PyList_New(0);
    if (out == NULL || d < 0 || (n * d) % 2 == 1
        || (d == 0 && connected_only && n > 1))
        return out;
    RegEnum *re = PyMem_Malloc(sizeof(RegEnum));
    if (re == NULL) {
        Py_DECREF(out);
        return PyErr_NoMemory();
    }
    re->n = n;
    re->d = d;
    re->connected_only = connected_only;
    re->m_target = n * d / 2;
    re->out = out;
    int idx = 0;
    for (int j = 0; j < n; j++)
        for (int i = 0; i < j; i++) {
            re->cell_i[idx] = i;
            re->cell_j[idx] = j;
            idx++;
        }
    re->total_cells = idx;
    memset(re->deg, 0, sizeof(re->deg));
    memset(re->cm.rows, 0, sizeof(re->cm.rows));
    int rc = reg_rec(re, -1, 0, 1);
    PyMem_Free(re);
    if (rc < 0) {
        Py_DECREF(out);
        return NULL;
    }
    return out;
}

/* ------------------------------------------------------------------ */

static PyMethodDef kernel_methods[] = {
    {"hom_count", (PyCFunction)(void (*)(void))hom_count, METH_FASTCALL,
     "hom_count(pmasks, g_rows)\n--\n\n"
     "Number of adjacency-preserving maps V(h) -> V(g), for the plan\n"
     "pmasks = _pykernels._plan(h_rows)[1]."},
    {"inj_count", (PyCFunction)(void (*)(void))inj_count, METH_FASTCALL,
     "inj_count(pmasks, g_rows, below, above)\n--\n\n"
     "Number of injective homomorphisms V(h) -> V(g) that meet the order "
     "constraints\n(below, above) of _pykernels._symmetry, one per "
     "Aut(h)-orbit, for the plan\npmasks = _pykernels._plan(h_rows)[1]."},
    {"canonical_max_rows", (PyCFunction)(void (*)(void))canonical_max_rows,
     METH_FASTCALL,
     "canonical_max_rows(rows)\n--\n\n"
     "Relabeling of the graph whose column bit-string is lexicographically "
     "greatest."},
    {"is_canonical_max", (PyCFunction)(void (*)(void))is_canonical_max,
     METH_FASTCALL,
     "is_canonical_max(rows)\n--\n\n"
     "Whether no relabeling produces a lexicographically larger column "
     "string."},
    {"enumerate_regular_rows", (PyCFunction)(void (*)(void))enumerate_regular_rows,
     METH_FASTCALL,
     "enumerate_regular_rows(n, d, connected_only)\n--\n\n"
     "The d-regular graphs on n vertices, one representative per class, "
     "each its own\nmax-lex form.  Only the sparse side 2d <= n - 1; "
     "the dense side raises\nValueError.  With connected_only, partial "
     "graphs whose every canonical\ncompletion is disconnected are "
     "dropped."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "homcert._kernels",
    .m_doc = "Compiled twin of homcert._pykernels.",
    .m_size = 0,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModuleDef_Init(&kernel_module);
}
