/*
 * Pointer-chase layout kernel: the C twin of the pure-Python chain layout
 * in generators.py (_build_chase_order and _lay_out_chain_py), which stays
 * the reference.
 *
 * chain(state, n, per_page, locality, adjacency, base, node_bytes, words)
 * lays out one linked list of n nodes, per_page nodes to a page, and
 * returns (state, first_node).
 * state is the internal state tuple of random.Random.getstate() (624
 * MT19937 words and the index); the returned tuple is the state after the
 * layout, for Random.setstate.  words is a writable buffer of 2 * n
 * uint64 values: words[2 * i] is node i's ->next pointer and
 * words[2 * i + 1] its ->ptr pointer.
 *
 * The generator is CPython's (_randommodule.c): genrand_uint32,
 * getrandbits(k <= 32) as genrand_uint32() >> (32 - k), random() as a
 * 53-bit double from two draws, and _randbelow_with_getrandbits.  Draws
 * happen in the order the Python layout makes them: a Fisher-Yates
 * shuffle per page, randrange over the pages, the locality/adjacency walk,
 * then one back-pointer draw per visited node.  A layout or an RNG state
 * that differs between the two is a bug here (tests/test_layout.py).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MT_N 624
#define MT_M 397
#define MATRIX_A 0x9908b0dfU
#define UPPER_MASK 0x80000000U
#define LOWER_MASK 0x7fffffffU

typedef struct {
    uint32_t mt[MT_N];
    int index;
} MT;

static uint32_t
genrand_uint32(MT *self)
{
    static const uint32_t mag01[2] = {0x0U, MATRIX_A};
    uint32_t *mt = self->mt;
    uint32_t y;

    if (self->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & UPPER_MASK) | (mt[0] & LOWER_MASK);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        self->index = 0;
    }
    y = mt[self->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* Random.random() */
static double
random_double(MT *self)
{
    uint32_t a = genrand_uint32(self) >> 5, b = genrand_uint32(self) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static int
bit_length(uint32_t n)
{
    int k = 0;
    while (n) {
        k++;
        n >>= 1;
    }
    return k;
}

/* Random._randbelow_with_getrandbits(n), 0 < n < 2**32 */
static uint32_t
randbelow(MT *self, uint32_t n)
{
    int k = bit_length(n);
    uint32_t r = genrand_uint32(self) >> (32 - k);
    while (r >= n)
        r = genrand_uint32(self) >> (32 - k);
    return r;
}

static int
parse_state(PyObject *state, MT *mt)
{
    if (!PyTuple_Check(state) || PyTuple_GET_SIZE(state) != MT_N + 1) {
        PyErr_SetString(PyExc_ValueError,
                        "state must be a tuple of 625 ints");
        return -1;
    }
    for (Py_ssize_t i = 0; i < MT_N; i++) {
        unsigned long w = PyLong_AsUnsignedLong(PyTuple_GET_ITEM(state, i));
        if (w == (unsigned long)-1 && PyErr_Occurred())
            return -1;
        if (w > 0xFFFFFFFFUL) {
            PyErr_SetString(PyExc_ValueError, "state word exceeds 32 bits");
            return -1;
        }
        mt->mt[i] = (uint32_t)w;
    }
    long index = PyLong_AsLong(PyTuple_GET_ITEM(state, MT_N));
    if (index == -1 && PyErr_Occurred())
        return -1;
    if (index < 0 || index > MT_N) {
        PyErr_SetString(PyExc_ValueError, "state index out of range");
        return -1;
    }
    mt->index = (int)index;
    return 0;
}

static PyObject *
build_state(const MT *mt)
{
    PyObject *state = PyTuple_New(MT_N + 1);
    if (state == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i <= MT_N; i++) {
        PyObject *w = i < MT_N ? PyLong_FromUnsignedLong(mt->mt[i])
                               : PyLong_FromLong(mt->index);
        if (w == NULL) {
            Py_DECREF(state);
            return NULL;
        }
        PyTuple_SET_ITEM(state, i, w);
    }
    return state;
}

/* The page after pos in allocation order with probability adjacency,
 * else a random live page (_build_chase_order's next_page_pos). */
static Py_ssize_t
next_page_pos(MT *mt, Py_ssize_t pos, Py_ssize_t live, double adjacency)
{
    if (random_double(mt) < adjacency && pos + 1 < live)
        return pos + 1;
    return randbelow(mt, (uint32_t)live);
}

/* _build_chase_order: the traversal order over node indices, into
 * order[n]. */
static int
chase_order(MT *mt, Py_ssize_t n, Py_ssize_t per_page, double locality,
            double adjacency, Py_ssize_t *order)
{
    Py_ssize_t num_pages = (n + per_page - 1) / per_page;
    Py_ssize_t *nodes = PyMem_New(Py_ssize_t, n);
    Py_ssize_t *left = PyMem_New(Py_ssize_t, num_pages);
    Py_ssize_t *pages = PyMem_New(Py_ssize_t, num_pages);
    if (nodes == NULL || left == NULL || pages == NULL) {
        PyMem_Free(nodes);
        PyMem_Free(left);
        PyMem_Free(pages);
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++)
        nodes[i] = i;
    for (Py_ssize_t p = 0; p < num_pages; p++) {
        Py_ssize_t *page = nodes + p * per_page;
        Py_ssize_t len = p == num_pages - 1 ? n - p * per_page : per_page;
        for (Py_ssize_t i = len - 1; i > 0; i--) {     /* Fisher-Yates */
            Py_ssize_t r = randbelow(mt, (uint32_t)(i + 1));
            Py_ssize_t t = page[i];
            page[i] = page[r];
            page[r] = t;
        }
        left[p] = len;
        pages[p] = p;
    }
    Py_ssize_t live = num_pages, k = 0;
    Py_ssize_t pos = randbelow(mt, (uint32_t)live);
    while (live) {
        Py_ssize_t page = pages[pos];
        order[k++] = nodes[page * per_page + --left[page]];
        if (!left[page]) {
            memmove(pages + pos, pages + pos + 1,
                    (live - pos - 1) * sizeof(Py_ssize_t));
            if (!--live)
                break;
            pos = next_page_pos(mt, pos < live - 1 ? pos : live - 1, live,
                                adjacency);
        }
        else if (random_double(mt) >= locality) {
            pos = next_page_pos(mt, pos, live, adjacency);
        }
    }
    PyMem_Free(nodes);
    PyMem_Free(left);
    PyMem_Free(pages);
    return 0;
}

static PyObject *
chain(PyObject *module, PyObject *args)
{
    PyObject *state;
    Py_ssize_t n, per_page;
    double locality, adjacency;
    unsigned long long base, node_bytes;
    Py_buffer words;
    if (!PyArg_ParseTuple(args, "O!nnddKKw*", &PyTuple_Type, &state, &n,
                          &per_page, &locality, &adjacency, &base,
                          &node_bytes, &words))
        return NULL;
    PyObject *result = NULL;
    MT mt;
    Py_ssize_t *order = NULL;
    if (n < 1 || n > 0xFFFFFFFFLL || per_page < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "need 0 < n < 2**32 and per_page > 0");
        goto done;
    }
    if (words.len != n * 16) {
        PyErr_SetString(PyExc_ValueError, "words must hold 2 * n uint64");
        goto done;
    }
    if (parse_state(state, &mt) < 0)
        goto done;
    order = PyMem_New(Py_ssize_t, n);
    if (order == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (chase_order(&mt, n, per_page, locality, adjacency, order) < 0)
        goto done;

    uint64_t *out = (uint64_t *)words.buf;
    uint32_t maxback = n >= 64 ? 64 : (uint32_t)n;
    for (Py_ssize_t p = 0; p < n; p++) {
        Py_ssize_t node = order[p];
        Py_ssize_t back = p - 1 - (Py_ssize_t)randbelow(&mt, maxback);
        out[2 * node] = base + order[(p + 1) % n] * node_bytes;
        out[2 * node + 1] = base + order[back < 0 ? back + n : back]
                                   * node_bytes + 16;
    }
    PyObject *new_state = build_state(&mt);
    if (new_state != NULL)
        result = Py_BuildValue("(Nn)", new_state, order[0]);
done:
    PyMem_Free(order);
    PyBuffer_Release(&words);
    return result;
}

static PyMethodDef methods[] = {
    {"chain", chain, METH_VARARGS,
     "chain(state, n, per_page, locality, adjacency, base, node_bytes, "
     "words) -> (state, first_node): lay out one pointer-chase chain."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_layout", "C pointer-chase layout kernel.", -1,
    methods,
};

PyMODINIT_FUNC
PyInit__layout(void)
{
    return PyModule_Create(&moduledef);
}
