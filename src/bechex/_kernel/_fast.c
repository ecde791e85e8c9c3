/* Compiled kernel backend: one-cell growth that keeps each hole-free
 * child once, from its canonical parent, boundary tracing, the
 * convexity deficit and code filling.
 *
 * Mirrors bechex._kernel.pure, the reference that every entry point here
 * must agree with; bechex._kernel picks a backend at import.  Shapes
 * arrive as byte-packed keys (see bechex._kernel.common), codes as str.
 * The size limits are read from bechex._kernel.common at import, and a
 * key or code above them raises bechex.errors.ResourceLimit.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <string.h>

/* Buffer capacities.  The limits in common.py may not exceed them; the
 * cell buffers hold one cell more than the limit, for a grown child. */
#define CAP_CELLS 256
#define CAP_GRID 4624 /* 68 * 68 */
#define CAP_PERIMETER 1024

static long max_cells, max_grid, max_perimeter;
static PyObject *ResourceLimit;

/* Neighbour offsets of a cell, CCW.  They are also the unit steps of the
 * vertex lattice, and while tracing, N[k] is the offset of the hexagon
 * faced when the edge walked in direction k ends. */
static const int NQ[6] = {1, 0, -1, -1, 0, 1};
static const int NR[6] = {0, 1, 1, 0, -1, -1};
/* Offset of the cell across edge j (edge j is walked in direction j with
 * the cell on the left). */
static const int EQ[6] = {1, 1, 0, -1, -1, 0};
static const int ER[6] = {-1, 0, 1, 1, 0, -1};
/* The 12 point symmetries as row-major 2x2 integer matrices on (q, r):
 * the six powers of the rotation (q, r) -> (-r, q + r), then each of
 * them after the reflection (q, r) -> (q, -q - r). */
static const int MAT[12][4] = {
    {1, 0, 0, 1},   {0, -1, 1, 1},  {-1, -1, 1, 0},
    {-1, 0, 0, -1}, {0, 1, -1, -1}, {1, 1, -1, 0},
    {1, 0, -1, -1}, {1, 1, 0, -1},  {0, 1, 1, 0},
    {-1, 0, 1, 1},  {-1, -1, 0, 1}, {0, -1, -1, 0},
};

/* Write the canonical packed form of n cells into out (2n bytes): the
 * least sorted normalised cell list over the 12 symmetries.  When
 * attaining is not NULL, set bit t of *attaining for each row t of MAT
 * that reaches that form.  A sorted list starts with its least cell, so
 * only the transforms whose least cell ties the least of all are sorted.
 * Returns -1 with ValueError set when the form does not fit the key's
 * bytes. */
static int
canon(const int *q, const int *r, int n, unsigned char *out, int *attaining)
{
    int enc[12][CAP_CELLS], tq[CAP_CELLS], tr[CAP_CELLS], low[12], least = INT_MAX;
    for (int t = 0; t < 12; t++) {
        const int a0 = MAT[t][0], a1 = MAT[t][1], a2 = MAT[t][2], a3 = MAT[t][3];
        int minq = INT_MAX, minr = INT_MAX;
        for (int i = 0; i < n; i++) {
            tq[i] = a0 * q[i] + a1 * r[i];
            tr[i] = a2 * q[i] + a3 * r[i];
            if (tq[i] < minq)
                minq = tq[i];
            if (tr[i] < minr)
                minr = tr[i];
        }
        low[t] = INT_MAX;
        for (int i = 0; i < n; i++) {
            enc[t][i] = ((tq[i] - minq) << 16) | (tr[i] - minr);
            if (enc[t][i] < low[t])
                low[t] = enc[t][i];
        }
        if (low[t] < least)
            least = low[t];
    }
    int best = -1, mask = 0;
    for (int t = 0; t < 12; t++) {
        if (low[t] != least)
            continue;
        int *e = enc[t];
        for (int i = 1; i < n; i++) {
            int key = e[i], j = i - 1;
            while (j >= 0 && e[j] > key) {
                e[j + 1] = e[j];
                j--;
            }
            e[j + 1] = key;
        }
        int cmp = best < 0 ? -1 : 0;
        for (int i = 0; cmp == 0 && i < n; i++) {
            if (e[i] != enc[best][i])
                cmp = e[i] < enc[best][i] ? -1 : 1;
        }
        if (cmp < 0) {
            best = t;
            mask = 1 << t;
        }
        else if (cmp == 0)
            mask |= 1 << t;
    }
    for (int i = 0; i < n; i++) {
        int cq = enc[best][i] >> 16, cr = enc[best][i] & 0xFFFF;
        if (cq > 255 || cr > 255) {
            PyErr_SetString(PyExc_ValueError, "cell coordinates exceed the packed-key range");
            return -1;
        }
        out[2 * i] = (unsigned char)cq;
        out[2 * i + 1] = (unsigned char)cr;
    }
    if (attaining != NULL)
        *attaining = mask;
    return 0;
}

static PyObject *
key_from_cells(const int *q, const int *r, int n)
{
    unsigned char buf[2 * CAP_CELLS];
    if (canon(q, r, n, buf, NULL) < 0)
        return NULL;
    return PyBytes_FromStringAndSize((const char *)buf, 2 * n);
}

/* Read a packed key into q and r and return its cell count.  The
 * occupancy grid of the shape is its bounding box from (0, 0) plus a
 * one-cell margin: *width columns of *height slots, cell (q, r) at slot
 * (q + 1) * height + r + 1.  Returns -1 with an exception set for a key
 * that is not bytes, is malformed or is above the size limits. */
static int
decode(PyObject *key, int *q, int *r, int *width, int *height)
{
    if (!PyBytes_Check(key)) {
        PyErr_Format(PyExc_TypeError, "a cell key must be bytes, not %.100s", Py_TYPE(key)->tp_name);
        return -1;
    }
    Py_ssize_t length = PyBytes_GET_SIZE(key);
    if (length == 0 || length % 2) {
        PyErr_SetString(PyExc_ValueError, "malformed cell key");
        return -1;
    }
    if (length / 2 > max_cells) {
        PyErr_Format(ResourceLimit, "a key of %zd cells exceeds the limit of %ld",
                     length / 2, max_cells);
        return -1;
    }
    int n = (int)(length / 2), maxq = 0, maxr = 0;
    const unsigned char *src = (const unsigned char *)PyBytes_AS_STRING(key);
    for (int i = 0; i < n; i++) {
        q[i] = src[2 * i];
        r[i] = src[2 * i + 1];
        if (q[i] > maxq)
            maxq = q[i];
        if (r[i] > maxr)
            maxr = r[i];
    }
    *width = maxq + 3;
    *height = maxr + 3;
    if (*width * *height > max_grid) {
        PyErr_Format(ResourceLimit, "a key's grid of %d x %d slots exceeds the limit of %ld",
                     *width, *height, max_grid);
        return -1;
    }
    return n;
}

/* True when cell (q, r) of a decoded shape is occupied.  Cells off its
 * grid are free, so this may be asked up to two cells past the shape. */
static int
occupied(const unsigned char *occ, int width, int height, int q, int r)
{
    return q >= -1 && q < width - 1 && r >= -1 && r < height - 1
           && occ[(q + 1) * height + r + 1] == 1;
}

/* True when the occupied neighbours in ring form one arc of 1 to 5
 * cells, so exactly one of them is followed counter-clockwise by a free
 * one: the cell can join or leave a benzenoid and keep it one. */
static int
one_arc(int ring)
{
    int ends = ring & ~(ring >> 1 | ring << 5) & 63;
    return ends != 0 && (ends & (ends - 1)) == 0;
}

/* The canonical-parent test for the child of n cells whose last cell c,
 * with occupied-neighbour mask ring_c, was just added (occ marks all n).
 * T is the set of removable cells of the least rank, (degree, sum of the
 * occupied neighbours' degrees).  Returns 1 and writes the child's key
 * into out when c is in T and some transform reaching the key maps c
 * onto the greatest (q, r) of T's image; 0 when not; -1 with an
 * exception set. */
static int
canonical_child(const int *q, const int *r, int n, int ring_c, const unsigned char *occ,
                int height, unsigned char *out)
{
    unsigned char degree[CAP_GRID];
    int slot[CAP_CELLS], ring[CAP_CELLS], rank[CAP_CELLS], step[6];
    for (int k = 0; k < 6; k++)
        step[k] = NQ[k] * height + NR[k];
    /* the neighbours of the parent's cells, unlike c's, are on the grid */
    for (int i = 0; i < n - 1; i++) {
        slot[i] = (q[i] + 1) * height + r[i] + 1;
        ring[i] = 0;
        for (int k = 0; k < 6; k++)
            ring[i] |= (occ[slot[i] + step[k]] == 1) << k;
    }
    slot[n - 1] = (q[n - 1] + 1) * height + r[n - 1] + 1;
    ring[n - 1] = ring_c;
    for (int i = 0; i < n; i++) {
        degree[slot[i]] = 0;
        for (int k = 0; k < 6; k++)
            degree[slot[i]] += ring[i] >> k & 1;
    }
    /* c is removable, so it has a rank, which no other may undercut */
    int least = INT_MAX;
    for (int i = n - 1; i >= 0; i--) {
        rank[i] = INT_MAX;
        if (!one_arc(ring[i]))
            continue;
        rank[i] = degree[slot[i]] * 64;
        for (int k = 0; k < 6; k++) {
            if (ring[i] >> k & 1)
                rank[i] += degree[slot[i] + step[k]];
        }
        if (rank[i] < least) {
            if (i < n - 1)
                return 0;
            least = rank[i];
        }
    }
    int attaining;
    if (canon(q, r, n, out, &attaining) < 0)
        return -1;
    for (int t = 0; t < 12; t++) {
        if (!(attaining >> t & 1))
            continue;
        const int a0 = MAT[t][0], a1 = MAT[t][1], a2 = MAT[t][2], a3 = MAT[t][3];
        int cq = a0 * q[n - 1] + a1 * r[n - 1], cr = a2 * q[n - 1] + a3 * r[n - 1], top = 1;
        for (int i = 0; i < n - 1 && top; i++) {
            int tq = a0 * q[i] + a1 * r[i], tr = a2 * q[i] + a3 * r[i];
            top = rank[i] != least || tq < cq || (tq == cq && tr <= cr);
        }
        if (top)
            return 1;
    }
    return 0;
}

/* Append to out the canonical key of every hole-free one-cell extension
 * of key whose canonical parent is key, once each: a free neighbour whose
 * occupied neighbours form one arc, kept by canonical_child.  Distinct
 * parents never share a child, so only this parent's keys, from index
 * first on, are checked for repeats. */
static int
grow_one(PyObject *key, PyObject *out)
{
    int q[CAP_CELLS], r[CAP_CELLS], width, height;
    unsigned char occ[CAP_GRID], buf[2 * CAP_CELLS];
    int n = decode(key, q, r, &width, &height);
    if (n < 0)
        return -1;
    Py_ssize_t first = PyList_GET_SIZE(out);
    memset(occ, 0, width * height);
    for (int i = 0; i < n; i++)
        occ[(q[i] + 1) * height + r[i] + 1] = 1;
    for (int i = 0; i < n; i++) {
        for (int k = 0; k < 6; k++) {
            int nq = q[i] + NQ[k], nr = r[i] + NR[k];
            int slot = (nq + 1) * height + nr + 1;
            if (occ[slot])
                continue;
            occ[slot] = 2; /* tried */
            int ring = 0; /* bit j: neighbour j occupied */
            for (int j = 0; j < 6; j++)
                ring |= occupied(occ, width, height, nq + NQ[j], nr + NR[j]) << j;
            if (!one_arc(ring))
                continue;
            q[n] = nq;
            r[n] = nr;
            occ[slot] = 1;
            int rc = canonical_child(q, r, n + 1, ring, occ, height, buf);
            occ[slot] = 2;
            if (rc < 0)
                return -1;
            for (Py_ssize_t j = first; rc && j < PyList_GET_SIZE(out); j++)
                rc = memcmp(PyBytes_AS_STRING(PyList_GET_ITEM(out, j)), buf, 2 * (n + 1)) != 0;
            if (!rc)
                continue;
            PyObject *child = PyBytes_FromStringAndSize((const char *)buf, 2 * (n + 1));
            if (child == NULL)
                return -1;
            rc = PyList_Append(out, child);
            Py_DECREF(child);
            if (rc < 0)
                return -1;
        }
    }
    return 0;
}

static PyObject *
grow(PyObject *Py_UNUSED(module), PyObject *parents)
{
    PyObject *out = PyList_New(0), *it = NULL, *key;
    if (out == NULL)
        return NULL;
    it = PyObject_GetIter(parents);
    if (it == NULL)
        goto fail;
    while ((key = PyIter_Next(it)) != NULL) {
        int rc = grow_one(key, out);
        Py_DECREF(key);
        if (rc < 0)
            goto fail;
    }
    if (PyErr_Occurred())
        goto fail;
    Py_DECREF(it);
    return out;
fail:
    Py_XDECREF(it);
    Py_DECREF(out);
    return NULL;
}

static PyObject *
trace_code(PyObject *Py_UNUSED(module), PyObject *key)
{
    int q[CAP_CELLS], r[CAP_CELLS], width, height;
    unsigned char occ[CAP_GRID];
    unsigned char turns[CAP_PERIMETER];
    int sym[CAP_PERIMETER], dbl[2 * CAP_PERIMETER], best[CAP_PERIMETER];
    char digits[CAP_PERIMETER];
    int n = decode(key, q, r, &width, &height);
    if (n < 0)
        return NULL;
    if (n == 1)
        return PyUnicode_FromString("6");
    memset(occ, 0, width * height);
    for (int i = 0; i < n; i++)
        occ[(q[i] + 1) * height + r[i] + 1] = 1;
    /* keys are sorted, so cell 0 is the least cell, always on the boundary */
    int j0 = -1;
    for (int j = 0; j < 6; j++) {
        if (!occ[(q[0] + EQ[j] + 1) * height + r[0] + ER[j] + 1]) {
            j0 = j;
            break;
        }
    }
    if (j0 < 0) {
        PyErr_SetString(PyExc_ValueError, "start cell has no boundary edge");
        return NULL;
    }
    /* State (cell, k): the boundary edge walked in direction k with the
     * cell on the left.  A cell straight ahead at the edge's far vertex
     * means a right turn (a degree-3 vertex), no cell a left turn. */
    int cq = q[0], cr = r[0], k = j0, m = 0;
    for (;;) {
        int aq = cq + NQ[k], ar = cr + NR[k];
        if (occ[(aq + 1) * height + ar + 1]) {
            turns[m] = 1;
            cq = aq;
            cr = ar;
            k = (k + 5) % 6;
        }
        else {
            turns[m] = 0;
            k = (k + 1) % 6;
        }
        m++;
        if (cq == q[0] && cr == r[0] && k == j0)
            break;
        if (m >= CAP_PERIMETER) {
            PyErr_SetString(PyExc_ValueError, "perimeter walk failed to terminate");
            return NULL;
        }
    }
    /* cut the cyclic turn sequence right after a right turn, then read the
     * symbols off as run lengths ending at right turns */
    int f = 0, ns = 0, run = 0;
    while (f < m && turns[f] == 0)
        f++;
    if (f == m) {
        PyErr_SetString(PyExc_ValueError, "start cell touches no other cell");
        return NULL;
    }
    for (int i = 0; i < m; i++) {
        run++;
        if (turns[(f + 1 + i) % m]) {
            if (run > 5) {
                PyErr_SetString(PyExc_ValueError, "run longer than 5: input is not a benzenoid");
                return NULL;
            }
            sym[ns++] = run;
            run = 0;
        }
    }
    /* canonical form: the greatest word over all rotations, both readings */
    memcpy(best, sym, ns * sizeof(int));
    for (int rev = 0; rev < 2; rev++) {
        for (int i = 0; i < ns; i++)
            dbl[i] = dbl[ns + i] = rev ? sym[ns - 1 - i] : sym[i];
        for (int s = 0; s < ns; s++) {
            for (int i = 0; i < ns; i++) {
                if (dbl[s + i] != best[i]) {
                    if (dbl[s + i] > best[i])
                        memcpy(best, dbl + s, ns * sizeof(int));
                    break;
                }
            }
        }
    }
    for (int i = 0; i < ns; i++)
        digits[i] = (char)('0' + best[i]);
    return PyUnicode_FromStringAndSize(digits, ns);
}

/* Return the symbols of code as ASCII digits, *length of them.  Returns
 * NULL with no exception set when code is not a digit string over 1..5,
 * and NULL with an exception set when it is not a str or has more edges
 * than the perimeter limit. */
static const char *
read_code(PyObject *code, Py_ssize_t *length)
{
    if (!PyUnicode_Check(code)) {
        PyErr_Format(PyExc_TypeError, "a code must be str, not %.100s", Py_TYPE(code)->tp_name);
        return NULL;
    }
    if (!PyUnicode_IS_ASCII(code))
        return NULL;
    const char *c = PyUnicode_AsUTF8AndSize(code, length);
    if (c == NULL || *length == 0)
        return NULL;
    long edges = 0;
    for (Py_ssize_t i = 0; i < *length; i++) {
        if (c[i] < '1' || c[i] > '5')
            return NULL;
        edges += c[i] - '0';
    }
    if (edges > max_perimeter) {
        PyErr_Format(ResourceLimit, "a code of %ld edges exceeds the limit of %ld",
                     edges, max_perimeter);
        return NULL;
    }
    return c;
}

static PyObject *
code_deficit(PyObject *Py_UNUSED(module), PyObject *code)
{
    Py_ssize_t n;
    if (PyUnicode_Check(code) && PyUnicode_CompareWithASCIIString(code, "6") == 0)
        return PyLong_FromLong(0);
    const char *c = read_code(code, &n);
    if (c == NULL) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_ValueError, "bad symbol in code: %R", code);
        return NULL;
    }
    for (int width = 1; width <= n; width++) {
        long acc = 0, least;
        for (int i = 0; i < width; i++)
            acc += c[i] - '0';
        least = acc;
        for (int i = 1; i < n; i++) {
            acc += c[(i + width - 1) % n] - c[i - 1];
            if (acc < least)
                least = acc;
        }
        if (least >= 2 * width)
            return PyLong_FromLong(width - 1);
    }
    return PyLong_FromLong(-1);
}

/* The cell centred at vertex (x, y): cell (q, r) is centred at
 * (2q + r + 1, r - q - 1), so x - y - 2 is a multiple of 3. */
static void
centre_cell(int x, int y, int *q, int *r)
{
    *q = (x - y - 2) / 3;
    *r = x - 1 - 2 * *q;
}

/* Walk the code from (0, 0) in direction 0 as lattice.walk does: each
 * symbol s steps s edges, turning left after each but the last and right
 * after the last.  Return the canonical key of the cells it encloses, or
 * None when the walk does not close with winding 6 or revisits a vertex. */
static PyObject *
code_key(PyObject *Py_UNUSED(module), PyObject *code)
{
    int vx[CAP_PERIMETER], vy[CAP_PERIMETER];
    unsigned char dir[CAP_PERIMETER];
    int q[CAP_CELLS], r[CAP_CELLS], stack[CAP_GRID];
    unsigned char occ[CAP_GRID];
    Py_ssize_t length;
    if (PyUnicode_Check(code) && PyUnicode_CompareWithASCIIString(code, "6") == 0)
        return PyBytes_FromStringAndSize("\0\0", 2);
    const char *c = read_code(code, &length);
    if (c == NULL) {
        if (PyErr_Occurred())
            return NULL;
        Py_RETURN_NONE;
    }

    int x = 0, y = 0, turn = 0, edges = 0;
    int minx = 0, maxx = 0, miny = 0, maxy = 0;
    for (Py_ssize_t i = 0; i < length; i++) {
        int s = c[i] - '0';
        for (int step = 0; step < s; step++) {
            int d = (turn % 6 + 6) % 6;
            vx[edges] = x;
            vy[edges] = y;
            dir[edges++] = (unsigned char)d;
            x += NQ[d];
            y += NR[d];
            turn += step < s - 1 ? 1 : -1;
            if (x < minx)
                minx = x;
            if (x > maxx)
                maxx = x;
            if (y < miny)
                miny = y;
            if (y > maxy)
                maxy = y;
        }
    }
    if (x != 0 || y != 0 || turn != 6)
        Py_RETURN_NONE;

    int vheight = maxy - miny + 1;
    unsigned char *seen = PyMem_Calloc((size_t)(maxx - minx + 1) * vheight, 1);
    if (seen == NULL)
        return PyErr_NoMemory();
    int simple = 1;
    for (int e = 0; e < edges && simple; e++) {
        unsigned char *v = &seen[(vx[e] - minx) * vheight + vy[e] - miny];
        simple = !*v;
        *v = 1;
    }
    PyMem_Free(seen);
    if (!simple)
        Py_RETURN_NONE;

    /* Walking from vertex a in direction d, the hexagon centred at
     * a + N[d + 1] lies on the left (inside) and the one centred at
     * a + N[d - 1] on the right (outside).  The cells on the left span
     * the shape's bounding box. */
    int lq[CAP_PERIMETER], lr[CAP_PERIMETER];
    int minq = INT_MAX, maxq = INT_MIN, minr = INT_MAX, maxr = INT_MIN;
    for (int e = 0; e < edges; e++) {
        centre_cell(vx[e] + NQ[(dir[e] + 1) % 6], vy[e] + NR[(dir[e] + 1) % 6], &lq[e], &lr[e]);
        if (lq[e] < minq)
            minq = lq[e];
        if (lq[e] > maxq)
            maxq = lq[e];
        if (lr[e] < minr)
            minr = lr[e];
        if (lr[e] > maxr)
            maxr = lr[e];
    }
    int width = maxq - minq + 3, height = maxr - minr + 3;
    if ((long)width * height > max_grid) {
        PyErr_Format(ResourceLimit, "the shape of %R needs a grid of %d x %d slots, above the limit of %ld",
                     code, width, height, max_grid);
        return NULL;
    }
    /* The margin and the cells on the right are outside (2), so the flood
     * from the cells on the left (1) stays inside the boundary. */
    memset(occ, 0, width * height);
    memset(occ, 2, height);
    memset(occ + (width - 1) * height, 2, height);
    for (int col = 1; col < width - 1; col++)
        occ[col * height] = occ[col * height + height - 1] = 2;
    for (int e = 0; e < edges; e++) {
        int rq, rr;
        centre_cell(vx[e] + NQ[(dir[e] + 5) % 6], vy[e] + NR[(dir[e] + 5) % 6], &rq, &rr);
        occ[(rq - minq + 1) * height + rr - minr + 1] = 2;
    }
    int top = 0;
    for (int e = 0; e < edges; e++) {
        int slot = (lq[e] - minq + 1) * height + lr[e] - minr + 1;
        if (!occ[slot]) {
            occ[slot] = 1;
            stack[top++] = slot;
        }
    }
    while (top) {
        int slot = stack[--top];
        for (int k = 0; k < 6; k++) {
            int next = slot + NQ[k] * height + NR[k];
            if (!occ[next]) {
                occ[next] = 1;
                stack[top++] = next;
            }
        }
    }
    int n = 0;
    for (int slot = 0; slot < width * height; slot++) {
        if (occ[slot] != 1)
            continue;
        if (n == max_cells) {
            PyErr_Format(ResourceLimit, "the shape of %R has more than %ld cells", code, max_cells);
            return NULL;
        }
        q[n] = slot / height - 1;
        r[n++] = slot % height - 1;
    }
    return key_from_cells(q, r, n);
}

static PyMethodDef methods[] = {
    {"grow", grow, METH_O,
     "grow($module, parents, /)\n--\n\n"
     "List of the canonical keys of the hole-free one-cell extensions of\n"
     "the given hole-free shapes whose canonical parent is one of them,\n"
     "each once: a free neighbour is added when its occupied neighbours\n"
     "form one arc, and the child is kept only from its canonical parent."},
    {"trace_code", trace_code, METH_O,
     "trace_code($module, key, /)\n--\n\n"
     "Canonical boundary code of a connected hole-free packed shape."},
    {"code_deficit", code_deficit, METH_O,
     "code_deficit($module, code, /)\n--\n\n"
     "Convexity deficit of a digit string; -1 when undefined."},
    {"code_key", code_key, METH_O,
     "code_key($module, code, /)\n--\n\n"
     "Canonical key of the shape a code bounds; None when the string is\n"
     "not a benzenoid boundary code."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "bechex._kernel._fast",
    "Compiled kernel backend; mirrors bechex._kernel.pure.", -1, methods,
    NULL, NULL, NULL, NULL,
};

/* Read common.<name> into *out; an ImportError when it exceeds cap. */
static int
read_limit(PyObject *common, const char *name, long cap, long *out)
{
    PyObject *value = PyObject_GetAttrString(common, name);
    if (value == NULL)
        return -1;
    *out = PyLong_AsLong(value);
    Py_DECREF(value);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    if (*out < 1 || *out > cap) {
        PyErr_Format(PyExc_ImportError, "%s = %ld is outside the compiled capacity 1..%ld",
                     name, *out, cap);
        return -1;
    }
    return 0;
}

PyMODINIT_FUNC
PyInit__fast(void)
{
    PyObject *common = PyImport_ImportModule("bechex._kernel.common");
    if (common == NULL)
        return NULL;
    int rc = read_limit(common, "MAX_CELLS", CAP_CELLS - 1, &max_cells);
    if (rc == 0)
        rc = read_limit(common, "MAX_GRID", CAP_GRID, &max_grid);
    if (rc == 0)
        rc = read_limit(common, "MAX_PERIMETER", CAP_PERIMETER, &max_perimeter);
    if (rc == 0 && ResourceLimit == NULL)
        ResourceLimit = PyObject_GetAttrString(common, "ResourceLimit");
    Py_DECREF(common);
    if (rc < 0 || ResourceLimit == NULL)
        return NULL;
    PyObject *module = PyModule_Create(&module_def);
    if (module != NULL && PyModule_AddStringConstant(module, "BACKEND", "c") < 0)
        Py_CLEAR(module);
    return module;
}
