/*
 * Workload kernel: the C twins of the pure-Python chain layout
 * (_build_chase_order and _lay_out_chain_py) and of TraceBuilder.emit, in
 * generators.py, which stay the references.
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
 *
 * Emitter(uops, regs, image).emit(op, dest, src1, src2, imm, pc,
 * mispredicted, is_spill_fill, mem_dep) is TraceBuilder.emit: it appends
 * one MicroOp (seq = the emitter's own count) to the list uops, executes
 * it against the dict regs and the MemoryImage image, and returns the
 * value written to dest.  Every MicroOp field is the argument object
 * itself, as the dataclass __init__ stores it.  ALU ops run in uint64
 * arithmetic, which is isa.execute_alu under & MASK64; a load reads the
 * image's _words overlay, then its _regions records, then the splitmix
 * hash (MemoryImage.read); a store writes the overlay.  setup(MicroOp,
 * UopType) binds the slot offsets and the enum members once per process.
 * A uop, register, overlay word or return value that differs from the
 * Python emit's is a bug here (tests/test_emit.py).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
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

/* ------------------------------------------------------------------ */
/* Emitter: TraceBuilder.emit                                         */
/* ------------------------------------------------------------------ */

/* MicroOp fields in declaration order (setup() checks __slots__); the
 * emit arguments are the fields after seq, in the same order. */
enum { U_seq, U_op, U_dest, U_src1, U_src2, U_imm, U_pc, U_mispredicted,
       U_is_spill_fill, U_mem_dep, U_NFIELDS };
static const char *U_NAMES[U_NFIELDS] = {
    "seq", "op", "dest", "src1", "src2", "imm", "pc", "mispredicted",
    "is_spill_fill", "mem_dep",
};
#define NARGS (U_NFIELDS - 1)

enum { OP_ADD, OP_SUB, OP_MOV, OP_AND, OP_OR, OP_XOR, OP_NOT, OP_SHL,
       OP_SHR, OP_SEXT, OP_LOAD, OP_STORE, OP_BRANCH, OP_FP, OP_VEC, OP_NOP,
       OP_N };
static const char *OP_NAMES[OP_N] = {
    "ADD", "SUB", "MOV", "AND", "OR", "XOR", "NOT", "SHL", "SHR", "SEXT",
    "LOAD", "STORE", "BRANCH", "FP", "VEC", "NOP",
};

static PyTypeObject *uop_type;
static Py_ssize_t uop_off[U_NFIELDS];
static PyObject *op_obj[OP_N];
static PyObject *arg_names[NARGS];        /* interned U_NAMES[1:] */
static PyObject *k_words, *k_regions;     /* "_words", "_regions" */
static PyObject *zero;

#define UOP(o, i) (*(PyObject **)((char *)(o) + uop_off[i]))

/* One Region(base, end, stride, words, data) of the image. */
typedef struct {
    uint64_t base, end, stride, words;
    Py_buffer data;
} RegionView;

typedef struct {
    PyObject_HEAD
    PyObject *uops;         /* list: the builder's uops */
    PyObject *regs;         /* dict: the builder's registers */
    PyObject *image;        /* the MemoryImage */
    PyObject *regions;      /* the image._regions tuple the views show */
    RegionView *views;
    Py_ssize_t nviews;
    Py_ssize_t seq;
} Emitter;

static inline int
mask64(PyObject *v, uint64_t *out)
{
    unsigned long long r = PyLong_AsUnsignedLongLongMask(v);
    if (r == (unsigned long long)-1 && PyErr_Occurred())
        return -1;
    *out = r;
    return 0;
}

/* regs.get(r, 0), borrowed; NULL on error. */
static inline PyObject *
reg(Emitter *self, PyObject *r)
{
    PyObject *v = PyDict_GetItemWithError(self->regs, r);
    if (v == NULL && !PyErr_Occurred())
        v = zero;
    return v;
}

static void
release_views(Emitter *self)
{
    for (Py_ssize_t i = 0; i < self->nviews; i++)
        PyBuffer_Release(&self->views[i].data);
    PyMem_Free(self->views);
    self->views = NULL;
    self->nviews = 0;
    Py_CLEAR(self->regions);
}

/* Point the views at ``regions`` (the image's current _regions tuple). */
static int
bind_regions(Emitter *self, PyObject *regions)
{
    if (regions == self->regions)
        return 0;
    release_views(self);
    if (!PyTuple_Check(regions)) {
        PyErr_SetString(PyExc_TypeError, "image._regions is not a tuple");
        return -1;
    }
    Py_ssize_t n = PyTuple_GET_SIZE(regions);
    self->views = PyMem_New(RegionView, n ? n : 1);
    if (self->views == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *region = PyTuple_GET_ITEM(regions, i);
        RegionView *view = &self->views[i];
        if (!PyTuple_Check(region) || PyTuple_GET_SIZE(region) != 5) {
            PyErr_SetString(PyExc_TypeError, "a region is not a Region");
            return -1;
        }
        uint64_t *fields[4] = {&view->base, &view->end, &view->stride,
                               &view->words};
        for (int f = 0; f < 4; f++) {
            *fields[f] = PyLong_AsUnsignedLongLong(
                PyTuple_GET_ITEM(region, f));
            if (*fields[f] == (uint64_t)-1 && PyErr_Occurred())
                return -1;
        }
        if (view->stride == 0) {
            PyErr_SetString(PyExc_ValueError, "a region has stride 0");
            return -1;
        }
        if (PyObject_GetBuffer(PyTuple_GET_ITEM(region, 4), &view->data,
                               PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
            return -1;
        self->nviews++;
        if (view->data.itemsize != 8 || view->data.format == NULL
                || strcmp(view->data.format, "Q") != 0) {
            PyErr_SetString(PyExc_TypeError,
                            "region data must be an array('Q')");
            return -1;
        }
    }
    Py_INCREF(regions);
    self->regions = regions;
    return 0;
}

/* image._words, the overlay dict: a new reference. */
static PyObject *
overlay(Emitter *self)
{
    PyObject *words = PyObject_GetAttr(self->image, k_words);
    if (words != NULL && !PyDict_Check(words)) {
        PyErr_SetString(PyExc_TypeError, "image._words is not a dict");
        Py_CLEAR(words);
    }
    return words;
}

/* MemoryImage.read(waddr), waddr word-aligned: a new reference. */
static PyObject *
image_read(Emitter *self, uint64_t waddr)
{
    PyObject *words = overlay(self);
    if (words == NULL)
        return NULL;
    PyObject *key = PyLong_FromUnsignedLongLong(waddr);
    PyObject *value = key ? PyDict_GetItemWithError(words, key) : NULL;
    Py_XINCREF(value);
    Py_XDECREF(key);
    Py_DECREF(words);
    if (value != NULL || PyErr_Occurred())
        return value;

    PyObject *regions = PyObject_GetAttr(self->image, k_regions);
    if (regions == NULL)
        return NULL;
    int rc = bind_regions(self, regions);
    Py_DECREF(regions);
    if (rc < 0)
        return NULL;
    for (Py_ssize_t i = 0; i < self->nviews; i++) {
        RegionView *r = &self->views[i];
        if (r->base <= waddr && waddr < r->end) {
            uint64_t offset = waddr - r->base;
            uint64_t byte = offset % r->stride;
            if (byte >= 8 * r->words)
                break;                  /* between two records */
            uint64_t index = offset / r->stride * r->words + (byte >> 3);
            if (index >= (uint64_t)(r->data.len / 8)) {
                PyErr_SetString(PyExc_IndexError,
                                "array index out of range");
                return NULL;
            }
            return PyLong_FromUnsignedLongLong(
                ((const uint64_t *)r->data.buf)[index]);
        }
    }
    /* Deterministic "uninitialized" pattern (splitmix64-style mix). */
    uint64_t z = waddr + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return PyLong_FromUnsignedLongLong(z ^ (z >> 31));
}

/* MemoryImage.write(waddr, value), waddr word-aligned. */
static int
image_write(Emitter *self, uint64_t waddr, uint64_t value)
{
    PyObject *words = overlay(self);
    if (words == NULL)
        return -1;
    int rc = -1;
    PyObject *key = PyLong_FromUnsignedLongLong(waddr);
    PyObject *v = PyLong_FromUnsignedLongLong(value);
    if (key != NULL && v != NULL)
        rc = PyDict_SetItem(words, key, v);
    Py_XDECREF(key);
    Py_XDECREF(v);
    Py_DECREF(words);
    return rc;
}

/* The arguments of emit(op, dest=None, ..., mem_dep=None) into a[],
 * defaults filled in; borrowed. */
static int
parse_args(PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
           PyObject **a)
{
    if (nargs > NARGS) {
        PyErr_Format(PyExc_TypeError, "emit() takes at most %d positional "
                     "arguments (%zd given)", NARGS, nargs);
        return -1;
    }
    for (Py_ssize_t i = 0; i < nargs; i++)
        a[i] = args[i];
    Py_ssize_t nkw = kwnames == NULL ? 0 : PyTuple_GET_SIZE(kwnames);
    for (Py_ssize_t j = 0; j < nkw; j++) {
        PyObject *name = PyTuple_GET_ITEM(kwnames, j);
        int i = 0;
        while (i < NARGS && arg_names[i] != name)
            i++;
        for (int k = 0; i == NARGS && k < NARGS; k++)
            if (PyUnicode_Compare(name, arg_names[k]) == 0)
                i = k;
        if (i == NARGS) {
            PyErr_Format(PyExc_TypeError,
                         "emit() got an unexpected keyword argument '%S'",
                         name);
            return -1;
        }
        if (a[i] != NULL) {
            PyErr_Format(PyExc_TypeError,
                         "emit() got multiple values for argument '%S'",
                         name);
            return -1;
        }
        a[i] = args[nargs + j];
    }
    if (a[0] == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "emit() missing required argument 'op'");
        return -1;
    }
    PyObject *defaults[NARGS] = {NULL, Py_None, Py_None, Py_None, zero,
                                 zero, Py_False, Py_False, Py_None};
    for (int i = 1; i < NARGS; i++)
        if (a[i] == NULL)
            a[i] = defaults[i];
    return 0;
}

/* The value a non-memory uop writes (isa.execute_alu): a new reference. */
static PyObject *
execute_alu(Emitter *self, int k, PyObject *op, PyObject *src1,
            PyObject *src2, PyObject *imm)
{
    PyObject *a = src1 == Py_None ? zero : reg(self, src1);
    PyObject *b = src2 == Py_None ? zero : reg(self, src2);
    if (a == NULL || b == NULL)
        return NULL;
    PyObject *rhs = src2 == Py_None ? imm : b;
    uint64_t x, y;
    switch (k) {
    case OP_BRANCH:
    case OP_NOP:
        Py_INCREF(zero);
        return zero;
    case OP_MOV:
        if (src1 != Py_None) {
            Py_INCREF(a);
            return a;
        }
        return mask64(imm, &y) < 0 ? NULL : PyLong_FromUnsignedLongLong(y);
    case OP_NOT:
    case OP_SEXT:
        if (mask64(a, &x) < 0)
            return NULL;
        if (k == OP_NOT)
            return PyLong_FromUnsignedLongLong(~x);
        x &= 0xFFFFFFFFULL;
        if (x & 0x80000000ULL)
            x |= 0xFFFFFFFF00000000ULL;
        return PyLong_FromUnsignedLongLong(x);
    case -1:
        PyErr_Format(PyExc_ValueError, "execute_alu cannot execute %S", op);
        return NULL;
    }
    if (mask64(a, &x) < 0 || mask64(rhs, &y) < 0)
        return NULL;
    switch (k) {
    case OP_ADD: x += y; break;
    case OP_SUB: x -= y; break;
    case OP_AND: x &= y; break;
    case OP_OR: x |= y; break;
    case OP_XOR: x ^= y; break;
    case OP_SHL: x <<= y & 63; break;
    case OP_SHR: x >>= y & 63; break;
    default: x = x * 3 + y + 0x5F5E100; break;     /* FP, VEC */
    }
    return PyLong_FromUnsignedLongLong(x);
}

/* The value a LOAD reads or a STORE writes: a new reference. */
static PyObject *
execute_mem(Emitter *self, int k, PyObject *src1, PyObject *src2,
            PyObject *imm)
{
    uint64_t addr, offset, stored;
    if (mask64(imm, &offset) < 0)
        return NULL;
    if (src1 == Py_None)
        addr = offset;
    else {
        PyObject *base = reg(self, src1);
        if (base == NULL || mask64(base, &addr) < 0)
            return NULL;
        addr += offset;
    }
    addr &= ~(uint64_t)7;
    if (k == OP_LOAD)
        return image_read(self, addr);
    PyObject *value;
    if (src2 != Py_None) {
        value = reg(self, src2);
        if (value == NULL || mask64(value, &stored) < 0)
            return NULL;
        Py_INCREF(value);
    }
    else if ((value = PyLong_FromUnsignedLongLong(offset)) == NULL)
        return NULL;
    else
        stored = offset;
    if (image_write(self, addr, stored) < 0)
        Py_CLEAR(value);
    return value;
}

static PyObject *
Emitter_emit(Emitter *self, PyObject *const *args, Py_ssize_t nargs,
             PyObject *kwnames)
{
    PyObject *a[NARGS] = {NULL};
    if (parse_args(args, nargs, kwnames, a) < 0)
        return NULL;
    PyObject *uop = uop_type->tp_alloc(uop_type, 0);
    if (uop == NULL)
        return NULL;
    if ((UOP(uop, U_seq) = PyLong_FromSsize_t(self->seq)) == NULL) {
        Py_DECREF(uop);
        return NULL;
    }
    for (int i = 0; i < NARGS; i++) {
        Py_INCREF(a[i]);
        UOP(uop, i + 1) = a[i];
    }
    self->seq++;
    int rc = PyList_Append(self->uops, uop);
    Py_DECREF(uop);
    if (rc < 0)
        return NULL;

    PyObject *op = a[0], *dest = a[1], *src1 = a[2], *src2 = a[3];
    PyObject *imm = a[4];
    int k = 0;
    while (k < OP_N && op_obj[k] != op)
        k++;
    PyObject *value = k == OP_LOAD || k == OP_STORE
        ? execute_mem(self, k, src1, src2, imm)
        : execute_alu(self, k == OP_N ? -1 : k, op, src1, src2, imm);
    if (value != NULL && dest != Py_None
            && PyDict_SetItem(self->regs, dest, value) < 0)
        Py_CLEAR(value);
    return value;
}

static PyObject *
Emitter_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *uops, *regs, *image;
    if (uop_type == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "setup() has not run");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "O!O!O:Emitter", &PyList_Type, &uops,
                          &PyDict_Type, &regs, &image))
        return NULL;
    Emitter *self = (Emitter *)type->tp_alloc(type, 0);
    if (self != NULL) {
        Py_INCREF(uops);
        Py_INCREF(regs);
        Py_INCREF(image);
        self->uops = uops;
        self->regs = regs;
        self->image = image;
    }
    return (PyObject *)self;
}

static int
Emitter_traverse(Emitter *self, visitproc visit, void *arg)
{
    Py_VISIT(Py_TYPE(self));
    Py_VISIT(self->uops);
    Py_VISIT(self->regs);
    Py_VISIT(self->image);
    Py_VISIT(self->regions);
    return 0;
}

static int
Emitter_clear(Emitter *self)
{
    release_views(self);
    Py_CLEAR(self->uops);
    Py_CLEAR(self->regs);
    Py_CLEAR(self->image);
    return 0;
}

static void
Emitter_dealloc(Emitter *self)
{
    PyTypeObject *type = Py_TYPE(self);
    PyObject_GC_UnTrack(self);
    Emitter_clear(self);
    type->tp_free((PyObject *)self);
    Py_DECREF(type);
}

static PyMethodDef Emitter_methods[] = {
    {"emit", (PyCFunction)(void (*)(void))Emitter_emit,
     METH_FASTCALL | METH_KEYWORDS,
     "emit(op, dest=None, src1=None, src2=None, imm=0, pc=0, "
     "mispredicted=False, is_spill_fill=False, mem_dep=None) -> value: "
     "TraceBuilder.emit."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef Emitter_members[] = {
    {"seq", T_PYSSIZET, offsetof(Emitter, seq), READONLY,
     "uops emitted so far (TraceBuilder.count)"},
    {NULL, 0, 0, 0, NULL},
};

static PyType_Slot Emitter_slots[] = {
    {Py_tp_doc, "Emitter(uops, regs, image): TraceBuilder.emit bound to a "
                "builder's uop list, register dict and MemoryImage."},
    {Py_tp_new, Emitter_new},
    {Py_tp_methods, Emitter_methods},
    {Py_tp_members, Emitter_members},
    {Py_tp_traverse, Emitter_traverse},
    {Py_tp_clear, Emitter_clear},
    {Py_tp_dealloc, Emitter_dealloc},
    {0, NULL},
};

static PyType_Spec Emitter_spec = {
    "repro.workloads._layout.Emitter", sizeof(Emitter), 0,
    Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC, Emitter_slots,
};

static int
member_offset(PyTypeObject *type, const char *name, Py_ssize_t *out)
{
    PyObject *descr = PyObject_GetAttrString((PyObject *)type, name);
    if (descr == NULL)
        return -1;
    int ok = Py_IS_TYPE(descr, &PyMemberDescr_Type)
        && ((PyMemberDescrObject *)descr)->d_member->type == T_OBJECT_EX;
    if (ok)
        *out = ((PyMemberDescrObject *)descr)->d_member->offset;
    else
        PyErr_Format(PyExc_TypeError, "%s.%s is not an object slot",
                     type->tp_name, name);
    Py_DECREF(descr);
    return ok ? 0 : -1;
}

static PyObject *
setup(PyObject *module, PyObject *args)
{
    PyObject *uop_cls, *op_cls;
    if (!PyArg_ParseTuple(args, "O!O", &PyType_Type, &uop_cls, &op_cls))
        return NULL;
    PyObject *slots = PyObject_GetAttrString(uop_cls, "__slots__");
    if (slots == NULL)
        return NULL;
    PyObject *want = PyTuple_New(U_NFIELDS);
    for (int i = 0; want && i < U_NFIELDS; i++) {
        PyObject *name = PyUnicode_FromString(U_NAMES[i]);
        if (name == NULL)
            Py_CLEAR(want);
        else
            PyTuple_SET_ITEM(want, i, name);
    }
    int same = want ? PyObject_RichCompareBool(slots, want, Py_EQ) : -1;
    Py_XDECREF(want);
    Py_DECREF(slots);
    if (same <= 0) {
        if (same == 0)
            PyErr_SetString(PyExc_TypeError,
                            "MicroOp.__slots__ changed; update _layout.c");
        return NULL;
    }
    for (int i = 0; i < U_NFIELDS; i++)
        if (member_offset((PyTypeObject *)uop_cls, U_NAMES[i],
                          &uop_off[i]) < 0)
            return NULL;
    Py_ssize_t members = PyObject_Size(op_cls);
    if (members < 0)
        return NULL;
    if (members != OP_N) {
        PyErr_SetString(PyExc_TypeError, "UopType changed; update _layout.c");
        return NULL;
    }
    /* Kept for the life of the process, like the classes themselves. */
    for (int k = 0; k < OP_N; k++)
        if (!(op_obj[k] = PyObject_GetAttrString(op_cls, OP_NAMES[k])))
            return NULL;
    Py_INCREF(uop_cls);
    uop_type = (PyTypeObject *)uop_cls;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"chain", chain, METH_VARARGS,
     "chain(state, n, per_page, locality, adjacency, base, node_bytes, "
     "words) -> (state, first_node): lay out one pointer-chase chain."},
    {"setup", setup, METH_VARARGS,
     "setup(MicroOp, UopType): bind slot offsets and enum members."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_layout",
    "C workload kernel: chain layout and trace emission.", -1, methods,
};

PyMODINIT_FUNC
PyInit__layout(void)
{
    for (int i = 0; i < NARGS; i++)
        if (!(arg_names[i] = PyUnicode_InternFromString(U_NAMES[i + 1])))
            return NULL;
    if (!(k_words = PyUnicode_InternFromString("_words"))
            || !(k_regions = PyUnicode_InternFromString("_regions"))
            || !(zero = PyLong_FromLong(0)))
        return NULL;
    PyObject *module = PyModule_Create(&moduledef);
    if (module == NULL)
        return NULL;
    PyObject *emitter = PyType_FromSpec(&Emitter_spec);
    if (emitter == NULL || PyModule_AddObject(module, "Emitter", emitter) < 0) {
        Py_XDECREF(emitter);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
