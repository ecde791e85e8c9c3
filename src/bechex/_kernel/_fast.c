/* Compiled kernel backend: one-cell growth that keeps each hole-free
 * child once, from its canonical parent, boundary tracing, the
 * convexity deficit, code filling, and the survey of a code off its walk.
 *
 * Mirrors bechex._kernel.pure, the reference that every entry point here
 * must agree with; bechex._kernel picks a backend at import.  Shapes
 * arrive as byte-packed keys (see bechex._kernel.common), codes as str.
 * The size limits are read from bechex._kernel.common at import, and a
 * key or code above them raises bechex.errors.ResourceLimit.
 *
 * The batch entries, grow and fold, release the GIL around their C work,
 * so the threads of `bechex enumerate --threads` run them in parallel.
 * Each holds its keys in a tuple and reads off their bytes with the GIL
 * held, then, without it, writes into C buffers and notes the first
 * refusal as a fault; once the GIL is back, it raises that or builds its
 * result.  The routines the loops call touch no Python object.
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
#define EDGES "a code of %ld edges exceeds the limit of %ld"

/* A refusal noted without the GIL and raised with it: the exception type,
 * and its message as a format with the numbers it names. */
typedef struct {
    PyObject **type; /* NULL while there is none */
    const char *format;
    long a, b, c;
} fault;

/* Note the first refusal of a call in *f. */
static void
note(fault *f, PyObject **type, const char *format, long a, long b, long c)
{
    if (f->type == NULL) {
        fault first = {type, format, a, b, c};
        *f = first;
    }
}

static PyObject *
raise_fault(const fault *f)
{
    if (*f->type == PyExc_MemoryError)
        return PyErr_NoMemory();
    return PyErr_Format(*f->type, f->format, f->a, f->b, f->c);
}

#define NO_MEMORY(f) note(f, &PyExc_MemoryError, "", 0, 0, 0)

/* Bytes that grow as they are written, without the GIL. */
typedef struct {
    char *data;
    size_t size, cap;
} buffer;

/* Room for more bytes at the end of b, or NULL when memory runs out. */
static char *
reserve(buffer *b, size_t more)
{
    if (b->size + more > b->cap) {
        size_t cap = b->size + more > 2 * b->cap ? b->size + more + 4096 : 2 * b->cap;
        char *data = PyMem_RawRealloc(b->data, cap);
        if (data == NULL)
            return NULL;
        b->data = data;
        b->cap = cap;
    }
    return b->data + b->size;
}

/* Append to ends the end of text, where the last item written ends. */
static int
end_item(buffer *ends, const buffer *text)
{
    size_t *end = (size_t *)reserve(ends, sizeof(size_t));
    if (end == NULL)
        return -1;
    *end = text->size;
    ends->size += sizeof(size_t);
    return 0;
}

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
 * Returns -1 with *f noted when the form does not fit the key's bytes. */
static int
canon(const int *q, const int *r, int n, unsigned char *out, int *attaining, fault *f)
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
            note(f, &PyExc_ValueError, "cell coordinates exceed the packed-key range", 0, 0, 0);
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
    fault f = {NULL};
    if (canon(q, r, n, buf, NULL, &f) < 0)
        return raise_fault(&f);
    return PyBytes_FromStringAndSize((const char *)buf, 2 * n);
}

static PyObject *
not_a_key(PyObject *key)
{
    return PyErr_Format(PyExc_TypeError, "a cell key must be bytes, not %.100s",
                        Py_TYPE(key)->tp_name);
}

/* Read the packed key of length bytes at src into q and r and return its
 * cell count.  The occupancy grid of the shape is its bounding box from
 * (0, 0) plus a one-cell margin: *width columns of *height slots, cell
 * (q, r) at slot (q + 1) * height + r + 1.  Returns -1 with *f noted for
 * a key that is malformed or above the size limits. */
static int
decode(const unsigned char *src, Py_ssize_t length, int *q, int *r, int *width, int *height,
       fault *f)
{
    if (length == 0 || length % 2) {
        note(f, &PyExc_ValueError, "malformed cell key", 0, 0, 0);
        return -1;
    }
    if (length / 2 > max_cells) {
        note(f, &ResourceLimit, "a key of %ld cells exceeds the limit of %ld",
             (long)(length / 2), max_cells, 0);
        return -1;
    }
    int n = (int)(length / 2), maxq = 0, maxr = 0;
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
        note(f, &ResourceLimit, "a key's grid of %ld x %ld slots exceeds the limit of %ld",
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
 * onto the greatest (q, r) of T's image; 0 when not; -1 with *f noted. */
static int
canonical_child(const int *q, const int *r, int n, int ring_c, const unsigned char *occ,
                int height, unsigned char *out, fault *f)
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
    if (canon(q, r, n, out, &attaining, f) < 0)
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

/* Append to children the canonical key of every hole-free one-cell
 * extension of the packed key at src whose canonical parent it is, once
 * each, and to ends where each ends: a free neighbour whose occupied
 * neighbours form one arc, kept by canonical_child.  Distinct parents
 * never share a child, so only this parent's keys are checked for
 * repeats.  Returns -1 with *f noted. */
static int
grow_one(const unsigned char *src, Py_ssize_t length, buffer *children, buffer *ends, fault *f)
{
    int q[CAP_CELLS], r[CAP_CELLS], width, height;
    unsigned char occ[CAP_GRID], buf[2 * CAP_CELLS];
    int n = decode(src, length, q, r, &width, &height, f);
    if (n < 0)
        return -1;
    size_t first = children->size, size = 2 * (size_t)(n + 1);
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
            int rc = canonical_child(q, r, n + 1, ring, occ, height, buf, f);
            occ[slot] = 2;
            if (rc < 0)
                return -1;
            for (size_t at = first; rc && at < children->size; at += size)
                rc = memcmp(children->data + at, buf, size) != 0;
            if (!rc)
                continue;
            char *room = reserve(children, size);
            if (room == NULL) {
                NO_MEMORY(f);
                return -1;
            }
            memcpy(room, buf, size);
            children->size += size;
            if (end_item(ends, children) < 0) {
                NO_MEMORY(f);
                return -1;
            }
        }
    }
    return 0;
}

/* A key's bytes, read off it while the GIL is held. */
typedef struct {
    const unsigned char *data;
    Py_ssize_t length;
} span;

/* The keys of a batch entry as a tuple, which holds them while the GIL
 * is released; in *spans the bytes of each, up to *stop, the index of
 * the first that is not bytes, their count when all are.  Returns NULL
 * with an exception set. */
static PyObject *
batch(PyObject *keys, span **spans, Py_ssize_t *stop)
{
    PyObject *tuple = PySequence_Tuple(keys), *key;
    if (tuple == NULL)
        return NULL;
    *spans = PyMem_New(span, PyTuple_GET_SIZE(tuple) + 1);
    if (*spans == NULL) {
        Py_DECREF(tuple);
        return PyErr_NoMemory();
    }
    for (*stop = 0; *stop < PyTuple_GET_SIZE(tuple); ++*stop) {
        key = PyTuple_GET_ITEM(tuple, *stop);
        if (!PyBytes_Check(key))
            break;
        (*spans)[*stop].data = (const unsigned char *)PyBytes_AS_STRING(key);
        (*spans)[*stop].length = PyBytes_GET_SIZE(key);
    }
    return tuple;
}

/* The list of the items of text that ends marks, each made by make. */
static PyObject *
items(const buffer *text, const buffer *ends, PyObject *(*make)(const char *, Py_ssize_t))
{
    Py_ssize_t count = (Py_ssize_t)(ends->size / sizeof(size_t));
    const size_t *end = (const size_t *)ends->data;
    PyObject *list = PyList_New(count);
    for (Py_ssize_t j = 0; list != NULL && j < count; j++) {
        size_t at = j ? end[j - 1] : 0;
        PyObject *item = make(text->data + at, (Py_ssize_t)(end[j] - at));
        if (item == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, j, item);
    }
    return list;
}

static PyObject *
grow(PyObject *Py_UNUSED(module), PyObject *parents)
{
    Py_ssize_t stop;
    span *key;
    PyObject *keys = batch(parents, &key, &stop), *out = NULL;
    if (keys == NULL)
        return NULL;
    buffer children = {NULL, 0, 0}, ends = {NULL, 0, 0};
    fault f = {NULL};
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < stop && f.type == NULL; i++)
        grow_one(key[i].data, key[i].length, &children, &ends, &f);
    Py_END_ALLOW_THREADS
    if (f.type != NULL)
        raise_fault(&f);
    else if (stop < PyTuple_GET_SIZE(keys))
        not_a_key(PyTuple_GET_ITEM(keys, stop));
    else
        out = items(&children, &ends, PyBytes_FromStringAndSize);
    PyMem_RawFree(children.data);
    PyMem_RawFree(ends.data);
    PyMem_Free(key);
    Py_DECREF(keys);
    return out;
}

/* Write into out the canonical form of the cyclic word of n symbols at
 * sym: the greatest word over all its rotations, both readings. */
static void
greatest(const char *sym, int n, char *out)
{
    char dbl[2 * CAP_PERIMETER];
    memcpy(out, sym, n);
    for (int rev = 0; rev < 2; rev++) {
        for (int i = 0; i < n; i++)
            dbl[i] = dbl[n + i] = rev ? sym[n - 1 - i] : sym[i];
        for (int s = 0; s < n; s++) {
            if (memcmp(dbl + s, out, n) > 0)
                memcpy(out, dbl + s, n);
        }
    }
}

/* Write the canonical boundary code of the packed key at src into digits,
 * CAP_PERIMETER bytes, and return its length, with the edges it walks in
 * *edges.  Returns -1 with *f noted for a key trace_code refuses. */
static int
trace(const unsigned char *src, Py_ssize_t length, char *digits, long *edges, fault *f)
{
    int q[CAP_CELLS], r[CAP_CELLS], width, height;
    unsigned char occ[CAP_GRID];
    unsigned char turns[CAP_PERIMETER];
    char sym[CAP_PERIMETER];
    int n = decode(src, length, q, r, &width, &height, f);
    if (n < 0)
        return -1;
    if (n == 1) {
        digits[0] = '6';
        *edges = 6;
        return 1;
    }
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
        note(f, &PyExc_ValueError, "start cell has no boundary edge", 0, 0, 0);
        return -1;
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
            note(f, &PyExc_ValueError, "perimeter walk failed to terminate", 0, 0, 0);
            return -1;
        }
    }
    /* cut the cyclic turn sequence right after a right turn, then read the
     * symbols off as run lengths ending at right turns */
    int cut = 0, ns = 0, run = 0;
    while (cut < m && turns[cut] == 0)
        cut++;
    if (cut == m) {
        note(f, &PyExc_ValueError, "start cell touches no other cell", 0, 0, 0);
        return -1;
    }
    for (int i = 0; i < m; i++) {
        run++;
        if (turns[(cut + 1 + i) % m]) {
            if (run > 5) {
                note(f, &PyExc_ValueError, "run longer than 5: input is not a benzenoid", 0, 0, 0);
                return -1;
            }
            sym[ns++] = (char)('0' + run);
            run = 0;
        }
    }
    greatest(sym, ns, digits);
    *edges = m;
    return ns;
}

static PyObject *
trace_code(PyObject *Py_UNUSED(module), PyObject *key)
{
    char digits[CAP_PERIMETER];
    long edges;
    fault f = {NULL};
    if (!PyBytes_Check(key))
        return not_a_key(key);
    const unsigned char *src = (const unsigned char *)PyBytes_AS_STRING(key);
    int ns = trace(src, PyBytes_GET_SIZE(key), digits, &edges, &f);
    return ns < 0 ? raise_fault(&f) : PyUnicode_FromStringAndSize(digits, ns);
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
        PyErr_Format(ResourceLimit, EDGES, edges, max_perimeter);
        return NULL;
    }
    return c;
}

/* Convexity deficit of the n symbols at c, digits 1 to 5, n at most
 * CAP_PERIMETER: one less than the first width at which every cyclic
 * window sums to at least twice its width; -1 when no width up to n does.
 * A width fails at its first window below that. */
static long
deficit(const char *c, Py_ssize_t n)
{
    int sum[2 * CAP_PERIMETER + 1]; /* sum[i]: of the first i symbols of c read twice over */
    sum[0] = 0;
    for (int i = 0; i < n; i++)
        sum[i + 1] = sum[i] + c[i] - '0';
    for (int i = 1; i <= n; i++)
        sum[n + i] = sum[n] + sum[i];
    for (int width = 1; width <= n; width++) {
        int i = 0;
        while (i < n && sum[i + width] - sum[i] >= 2 * width)
            i++;
        if (i == n)
            return width - 1;
    }
    return -1;
}

/* read_code, refusing a string that is not a digit string over 1..5 as
 * code_deficit does. */
static const char *
symbols(PyObject *code, Py_ssize_t *length)
{
    const char *c = read_code(code, length);
    if (c == NULL && !PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "bad symbol in code: %R", code);
    return c;
}

static PyObject *
code_deficit(PyObject *Py_UNUSED(module), PyObject *code)
{
    Py_ssize_t n;
    if (PyUnicode_Check(code) && PyUnicode_CompareWithASCIIString(code, "6") == 0)
        return PyLong_FromLong(0);
    const char *c = symbols(code, &n);
    return c == NULL ? NULL : PyLong_FromLong(deficit(c, n));
}

/* trace_code of each key, then code_deficit of its code, a key at a time. */
static PyObject *
fold(PyObject *Py_UNUSED(module), PyObject *parents)
{
    Py_ssize_t stop;
    span *key;
    PyObject *keys = batch(parents, &key, &stop), *out = NULL, *codes;
    if (keys == NULL)
        return NULL;
    PyObject *deficits = PyBytes_FromStringAndSize(NULL, stop);
    if (deficits == NULL) {
        PyMem_Free(key);
        Py_DECREF(keys);
        return NULL;
    }
    unsigned char *d = (unsigned char *)PyBytes_AS_STRING(deficits);
    buffer text = {NULL, 0, 0}, ends = {NULL, 0, 0};
    fault f = {NULL};
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < stop && f.type == NULL; i++) {
        char *digits = reserve(&text, CAP_PERIMETER);
        long edges, value = 0;
        int ns = digits == NULL ? -1 : trace(key[i].data, key[i].length, digits, &edges, &f);
        if (ns >= 0)
            text.size += ns;
        if (ns < 0 || end_item(&ends, &text) < 0)
            NO_MEMORY(&f); /* unless trace noted why */
        else if (edges > max_perimeter)
            note(&f, &ResourceLimit, EDGES, edges, max_perimeter, 0);
        else if ((value = deficit(digits, ns)) < 0 || value > 255)
            /* as bytearray.append refuses it */
            note(&f, &PyExc_ValueError, "byte must be in range(0, 256)", 0, 0, 0);
        d[i] = (unsigned char)value;
    }
    Py_END_ALLOW_THREADS
    if (f.type != NULL)
        raise_fault(&f);
    else if (stop < PyTuple_GET_SIZE(keys))
        not_a_key(PyTuple_GET_ITEM(keys, stop));
    else if ((codes = items(&text, &ends, PyUnicode_FromStringAndSize)) != NULL) {
        out = PyTuple_Pack(2, codes, deficits);
        Py_DECREF(codes);
    }
    Py_DECREF(deficits);
    PyMem_RawFree(text.data);
    PyMem_RawFree(ends.data);
    PyMem_Free(key);
    Py_DECREF(keys);
    return out;
}

/* The cell centred at vertex (x, y): cell (q, r) is centred at
 * (2q + r + 1, r - q - 1), so x - y - 2 is a multiple of 3. */
static void
centre_cell(int x, int y, int *q, int *r)
{
    *q = (x - y - 2) / 3;
    *r = x - 1 - 2 * *q;
}

#define NOT_CLOSED 0
#define CROSSED (-1)
#define NO_ROOM (-2)

/* Walk the n symbols at c from (0, 0) in direction 0 as lattice.walk does:
 * each symbol s steps s edges, turning left after each but the last and
 * right after the last.  Write the start vertex of each edge into vx and
 * vy, its direction into dir, and return the edge count; NOT_CLOSED when
 * the walk does not close with winding 6, CROSSED when it revisits a
 * vertex, tested in that order; NO_ROOM with MemoryError set. */
static int
walk(const char *c, Py_ssize_t n, int *vx, int *vy, unsigned char *dir)
{
    int x = 0, y = 0, turn = 0, edges = 0;
    int minx = 0, maxx = 0, miny = 0, maxy = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
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
        return NOT_CLOSED;
    int vheight = maxy - miny + 1;
    unsigned char *seen = PyMem_Calloc((size_t)(maxx - minx + 1) * vheight, 1);
    if (seen == NULL) {
        PyErr_NoMemory();
        return NO_ROOM;
    }
    int simple = 1;
    for (int e = 0; e < edges && simple; e++) {
        unsigned char *v = &seen[(vx[e] - minx) * vheight + vy[e] - miny];
        simple = !*v;
        *v = 1;
    }
    PyMem_Free(seen);
    return simple ? edges : CROSSED;
}

/* The canonical key of the cells the walk of a code encloses, or None
 * when the walk does not close with winding 6 or revisits a vertex. */
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
    int edges = walk(c, length, vx, vy, dir);
    if (edges == NO_ROOM)
        return NULL;
    if (edges <= 0)
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

/* (deficit, canonical, hexagons) of a code, off its walk alone. */
static PyObject *
survey(PyObject *Py_UNUSED(module), PyObject *code)
{
    int vx[CAP_PERIMETER], vy[CAP_PERIMETER];
    unsigned char dir[CAP_PERIMETER];
    char canon[CAP_PERIMETER];
    Py_ssize_t n;
    if (PyUnicode_Check(code) && PyUnicode_CompareWithASCIIString(code, "6") == 0)
        return Py_BuildValue("(isi)", 0, "6", 1);
    const char *c = symbols(code, &n);
    if (c == NULL)
        return NULL;
    int edges = walk(c, n, vx, vy, dir);
    if (edges == NO_ROOM)
        return NULL;
    /* In lattice coefficients the shoelace sum is twice the area in unit
     * rhombi, so 6 for each hexagon of three; the walk starts at (0, 0),
     * so its last edge, back there, adds nothing. */
    long area = 0;
    for (int e = 1; e < edges; e++)
        area += (long)vx[e - 1] * vy[e] - (long)vx[e] * vy[e - 1];
    greatest(c, (int)n, canon);
    return Py_BuildValue("(ls#l)", deficit(c, n), canon, n, edges > 0 ? area / 6 : (long)edges);
}

static PyMethodDef methods[] = {
    {"grow", grow, METH_O,
     "grow($module, parents, /)\n--\n\n"
     "List of the canonical keys of the hole-free one-cell extensions of\n"
     "the given hole-free shapes whose canonical parent is one of them,\n"
     "each once: a free neighbour is added when its occupied neighbours\n"
     "form one arc, and the child is kept only from its canonical parent."},
    {"fold", fold, METH_O,
     "fold($module, keys, /)\n--\n\n"
     "(codes, deficits) of the keys: the list of trace_code of each, and\n"
     "bytes of code_deficit of each code, in one call."},
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
    {"survey", survey, METH_O,
     "survey($module, code, /)\n--\n\n"
     "(deficit, canonical, hexagons) of a digit string, read off its walk:\n"
     "code_deficit, the greatest word over its rotations and reversal, and\n"
     "the hexagons the walk encloses; 0 when it does not close with\n"
     "winding 6, -1 when it revisits a vertex."},
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
