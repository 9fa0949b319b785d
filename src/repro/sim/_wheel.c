/*
 * Event wheel kernel: the C twin of the pure-Python PythonEventWheel
 * (events.py), which stays the reference.
 *
 * Wheel is the same calendar queue: one FIFO bucket per pending cycle
 * (append order = fire order) and a binary heap ordering only the
 * distinct pending cycles.  A hash table maps a cycle to its bucket, so
 * scheduling into a cycle that already has events is a probe plus an
 * append.  Buckets live from their first event to the end of their
 * dispatch and are recycled through a free list.
 *
 * ``now`` is one int object per cycle: it is made when dispatch reaches
 * a new cycle and every read within that cycle returns the same object,
 * as the Python wheel's heap key is.  (A getter that built an int per
 * read would give every in-flight uop its own cycle ints.)
 *
 * schedule, schedule_at, pending, rewind, step, advance and
 * run(until, max_events) keep the Python wheel's semantics, return
 * values and error types.  Unlike the Python wheel, delays and times
 * must be ints that fit in 64 bits, and a callback that starts another
 * dispatch on its own wheel raises RuntimeError.  Every difference in
 * fire order, ``now`` or ``pending`` is a bug here (tests/test_wheel.py).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>

typedef struct {
    long long time;
    PyObject **items;           /* items[head : head + len] are queued */
    Py_ssize_t head, len, cap;
} Bucket;

typedef struct {
    PyObject_HEAD
    PyObject *now;              /* the current cycle's shared int */
    long long now_c;
    Py_ssize_t pending;         /* events queued, all buckets */
    Bucket **heap;              /* min-heap on time, one per cycle */
    Py_ssize_t nheap, heapcap;
    Bucket **table;             /* open addressing, linear probing */
    size_t tmask;
    int tbits;
    Bucket **pool;              /* retired buckets, items kept */
    Py_ssize_t npool, poolcap;
    int dispatching;
} Wheel;

/* ------------------------------------------------------------------ */
/* the cycle -> bucket table                                          */
/* ------------------------------------------------------------------ */

static inline size_t
slot_of(Wheel *w, long long time)
{
    return (size_t)(((uint64_t)time * 0x9E3779B97F4A7C15ULL)
                    >> (64 - w->tbits));
}

static Bucket *
table_find(Wheel *w, long long time)
{
    size_t i = slot_of(w, time);
    Bucket *b;
    while ((b = w->table[i]) != NULL) {
        if (b->time == time)
            return b;
        i = (i + 1) & w->tmask;
    }
    return NULL;
}

static void
table_put(Wheel *w, Bucket *b)
{
    size_t i = slot_of(w, b->time);
    while (w->table[i] != NULL)
        i = (i + 1) & w->tmask;
    w->table[i] = b;
}

static int
table_resize(Wheel *w, int bits)
{
    Bucket **old = w->table;
    size_t oldsize = old ? w->tmask + 1 : 0;
    Bucket **table = PyMem_Calloc((size_t)1 << bits, sizeof(Bucket *));
    if (table == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    w->table = table;
    w->tbits = bits;
    w->tmask = ((size_t)1 << bits) - 1;
    for (size_t i = 0; i < oldsize; i++)
        if (old[i] != NULL)
            table_put(w, old[i]);
    PyMem_Free(old);
    return 0;
}

/* Remove ``b`` by backward-shift deletion (no tombstones). */
static void
table_remove(Wheel *w, Bucket *b)
{
    size_t i = slot_of(w, b->time);
    while (w->table[i] != b)
        i = (i + 1) & w->tmask;
    size_t j = i;
    for (;;) {
        j = (j + 1) & w->tmask;
        Bucket *c = w->table[j];
        if (c == NULL)
            break;
        size_t home = slot_of(w, c->time);
        /* c may move to i when its home does not lie in (i, j]. */
        if (((j - home) & w->tmask) >= ((j - i) & w->tmask)) {
            w->table[i] = c;
            i = j;
        }
    }
    w->table[i] = NULL;
}

/* ------------------------------------------------------------------ */
/* the heap of pending cycles                                         */
/* ------------------------------------------------------------------ */

static int
heap_push(Wheel *w, Bucket *b)
{
    if (w->nheap == w->heapcap) {
        Py_ssize_t cap = w->heapcap ? 2 * w->heapcap : 16;
        Bucket **heap = PyMem_Realloc(w->heap, cap * sizeof(Bucket *));
        if (heap == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        w->heap = heap;
        w->heapcap = cap;
    }
    Py_ssize_t i = w->nheap++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (w->heap[parent]->time <= b->time)
            break;
        w->heap[i] = w->heap[parent];
        i = parent;
    }
    w->heap[i] = b;
    return 0;
}

static void
heap_pop(Wheel *w)
{
    Bucket *last = w->heap[--w->nheap];
    Py_ssize_t n = w->nheap, i = 0;
    if (n == 0)
        return;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && w->heap[child + 1]->time < w->heap[child]->time)
            child++;
        if (last->time <= w->heap[child]->time)
            break;
        w->heap[i] = w->heap[child];
        i = child;
    }
    w->heap[i] = last;
}

/* ------------------------------------------------------------------ */
/* buckets                                                            */
/* ------------------------------------------------------------------ */

static int
bucket_append(Bucket *b, PyObject *callback)
{
    if (b->head + b->len == b->cap) {
        if (b->head > 0) {
            memmove(b->items, b->items + b->head, b->len * sizeof(PyObject *));
            b->head = 0;
        }
        else {
            Py_ssize_t cap = b->cap ? 2 * b->cap : 8;
            PyObject **items = PyMem_Realloc(b->items,
                                             cap * sizeof(PyObject *));
            if (items == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            b->items = items;
            b->cap = cap;
        }
    }
    Py_INCREF(callback);
    b->items[b->head + b->len++] = callback;
    return 0;
}

/* A new bucket for ``time``, registered in the table and the heap. */
static Bucket *
bucket_open(Wheel *w, long long time)
{
    if (2 * ((size_t)w->nheap + 1) > w->tmask + 1
            && table_resize(w, w->tbits + 1) < 0)
        return NULL;
    Bucket *b;
    if (w->npool > 0)
        b = w->pool[--w->npool];
    else if ((b = PyMem_Calloc(1, sizeof(Bucket))) == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    b->time = time;
    b->head = b->len = 0;
    if (heap_push(w, b) < 0) {
        PyMem_Free(b->items);
        PyMem_Free(b);
        return NULL;
    }
    table_put(w, b);
    return b;
}

/* Retire the exhausted earliest bucket ``b`` (the heap root). */
static void
bucket_retire(Wheel *w, Bucket *b)
{
    table_remove(w, b);
    heap_pop(w);
    if (w->npool == w->poolcap) {
        Py_ssize_t cap = w->poolcap ? 2 * w->poolcap : 16;
        Bucket **pool = PyMem_Realloc(w->pool, cap * sizeof(Bucket *));
        if (pool == NULL) {     /* no room to recycle: just free it */
            PyMem_Free(b->items);
            PyMem_Free(b);
            return;
        }
        w->pool = pool;
        w->poolcap = cap;
    }
    w->pool[w->npool++] = b;
}

static inline PyObject *
bucket_pop(Wheel *w, Bucket *b)
{
    PyObject *callback = b->items[b->head++];
    if (--b->len == 0)
        b->head = 0;
    w->pending--;
    return callback;
}

static int
push(Wheel *w, long long time, PyObject *callback)
{
    Bucket *b = table_find(w, time);
    if (b == NULL && (b = bucket_open(w, time)) == NULL)
        return -1;
    if (bucket_append(b, callback) < 0)
        return -1;
    w->pending++;
    return 0;
}

/* Move the clock to ``time``, keeping the int object within a cycle. */
static int
set_now(Wheel *w, long long time)
{
    if (time == w->now_c)
        return 0;
    PyObject *now = PyLong_FromLongLong(time);
    if (now == NULL)
        return -1;
    Py_SETREF(w->now, now);
    w->now_c = time;
    return 0;
}

/* ------------------------------------------------------------------ */
/* the type                                                           */
/* ------------------------------------------------------------------ */

static PyObject *
Wheel_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    Wheel *w = (Wheel *)type->tp_alloc(type, 0);
    if (w == NULL)
        return NULL;
    if ((w->now = PyLong_FromLong(0)) == NULL || table_resize(w, 4) < 0) {
        Py_DECREF(w);
        return NULL;
    }
    return (PyObject *)w;
}

static void
drop_events(Wheel *w)
{
    /* Detach everything first: a callback's destructor may schedule. */
    Py_ssize_t n = w->nheap;
    Bucket **heap = w->heap;
    w->heap = NULL;
    w->nheap = w->heapcap = 0;
    w->pending = 0;
    if (w->table != NULL)
        memset(w->table, 0, (w->tmask + 1) * sizeof(Bucket *));
    for (Py_ssize_t i = 0; i < n; i++) {
        Bucket *b = heap[i];
        for (Py_ssize_t k = 0; k < b->len; k++)
            Py_DECREF(b->items[b->head + k]);
        PyMem_Free(b->items);
        PyMem_Free(b);
    }
    PyMem_Free(heap);
}

static int
Wheel_traverse(Wheel *w, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < w->nheap; i++) {
        Bucket *b = w->heap[i];
        for (Py_ssize_t k = 0; k < b->len; k++)
            Py_VISIT(b->items[b->head + k]);
    }
    return 0;
}

static int
Wheel_clear(Wheel *w)
{
    drop_events(w);
    return 0;
}

/* A static base type: a heap subclass's own dealloc and traverse
 * (subtype_dealloc, subtype_traverse) account for the reference its
 * instances hold on it. */
static void
Wheel_dealloc(Wheel *w)
{
    PyObject_GC_UnTrack(w);
    drop_events(w);
    for (Py_ssize_t i = 0; i < w->npool; i++) {
        PyMem_Free(w->pool[i]->items);
        PyMem_Free(w->pool[i]);
    }
    PyMem_Free(w->pool);
    PyMem_Free(w->table);
    Py_XDECREF(w->now);
    Py_TYPE(w)->tp_free((PyObject *)w);
}

static int
as_time(PyObject *v, long long *out)
{
    *out = PyLong_AsLongLong(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static PyObject *
Wheel_schedule(Wheel *w, PyObject *const *args, Py_ssize_t nargs)
{
    long long delay;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule(delay, callback) takes 2 arguments");
        return NULL;
    }
    if (as_time(args[0], &delay) < 0)
        return NULL;
    if (delay < 0) {
        PyErr_Format(PyExc_ValueError, "negative delay: %lld", delay);
        return NULL;
    }
    if (delay > LLONG_MAX - w->now_c) {
        PyErr_SetString(PyExc_OverflowError, "event time exceeds 64 bits");
        return NULL;
    }
    if (push(w, w->now_c + delay, args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Wheel_schedule_at(Wheel *w, PyObject *const *args, Py_ssize_t nargs)
{
    long long time;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at(time, callback) takes 2 arguments");
        return NULL;
    }
    if (as_time(args[0], &time) < 0)
        return NULL;
    if (time < w->now_c) {
        PyErr_Format(PyExc_ValueError,
                     "cannot schedule in the past: %lld < %lld",
                     time, w->now_c);
        return NULL;
    }
    if (push(w, time, args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
begin_dispatch(Wheel *w)
{
    if (w->dispatching) {
        PyErr_SetString(PyExc_RuntimeError,
                        "the event wheel is already dispatching");
        return -1;
    }
    w->dispatching = 1;
    return 0;
}

/* Run one event of bucket ``b``; on error an exhausted ``b`` retires. */
static inline int
fire(Wheel *w, Bucket *b)
{
    PyObject *callback = bucket_pop(w, b);
    PyObject *r = PyObject_CallNoArgs(callback);
    Py_DECREF(callback);
    if (r == NULL) {
        if (b->len == 0)
            bucket_retire(w, b);
        return -1;
    }
    Py_DECREF(r);
    return 0;
}

static PyObject *
Wheel_step(Wheel *w, PyObject *Py_UNUSED(ignored))
{
    if (w->nheap == 0)
        Py_RETURN_FALSE;
    if (begin_dispatch(w) < 0)
        return NULL;
    Bucket *b = w->heap[0];
    int rc = set_now(w, b->time);
    if (rc == 0) {
        rc = fire(w, b);
        /* The callback may have scheduled into this same cycle; only an
         * exhausted bucket retires. */
        if (rc == 0 && b->len == 0)
            bucket_retire(w, b);
    }
    w->dispatching = 0;
    if (rc < 0)
        return NULL;
    Py_RETURN_TRUE;
}

static PyObject *
Wheel_advance(Wheel *w, PyObject *Py_UNUSED(ignored))
{
    if (w->nheap == 0)
        return PyLong_FromLong(0);
    if (begin_dispatch(w) < 0)
        return NULL;
    Bucket *b = w->heap[0];
    Py_ssize_t executed = 0;
    int rc = set_now(w, b->time);
    while (rc == 0 && b->len > 0) {
        rc = fire(w, b);
        executed++;
    }
    if (rc == 0)
        bucket_retire(w, b);
    w->dispatching = 0;
    if (rc < 0)
        return NULL;
    return PyLong_FromSsize_t(executed);
}

static PyObject *
Wheel_run(Wheel *w, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until", "max_events", NULL};
    PyObject *until_obj = Py_None, *max_obj = Py_None;
    long long until = 0, max_events = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OO:run", kwlist,
                                     &until_obj, &max_obj))
        return NULL;
    int bounded = until_obj != Py_None, counted = max_obj != Py_None;
    if ((bounded && as_time(until_obj, &until) < 0)
            || (counted && as_time(max_obj, &max_events) < 0))
        return NULL;
    if (begin_dispatch(w) < 0)
        return NULL;
    long long executed = 0;
    int rc = 0;
    while (w->nheap > 0) {
        Bucket *b = w->heap[0];
        if (bounded && b->time > until)
            break;
        if ((rc = set_now(w, b->time)) < 0)
            break;
        while (b->len > 0) {
            if (counted && executed >= max_events)
                goto out;
            if ((rc = fire(w, b)) < 0)
                goto out;
            executed++;
        }
        bucket_retire(w, b);
    }
  out:
    w->dispatching = 0;
    if (rc < 0)
        return NULL;
    return PyLong_FromLongLong(executed);
}

static PyObject *
Wheel_rewind(Wheel *w, PyObject *Py_UNUSED(ignored))
{
    if (w->nheap > 0) {
        PyErr_Format(PyExc_RuntimeError,
                     "cannot rewind with %zd events pending", w->pending);
        return NULL;
    }
    if (set_now(w, 0) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Wheel_get_pending(Wheel *w, void *Py_UNUSED(closure))
{
    return PyLong_FromSsize_t(w->pending);
}

static PyMethodDef Wheel_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))Wheel_schedule, METH_FASTCALL,
     "schedule(delay, callback): fire ``callback`` ``delay`` cycles from "
     "now."},
    {"schedule_at", (PyCFunction)(void (*)(void))Wheel_schedule_at,
     METH_FASTCALL,
     "schedule_at(time, callback): fire ``callback`` at an absolute cycle "
     "(>= now)."},
    {"step", (PyCFunction)Wheel_step, METH_NOARGS,
     "Run the next event; False if the wheel is empty."},
    {"advance", (PyCFunction)Wheel_advance, METH_NOARGS,
     "Dispatch every event of the earliest pending cycle; the count."},
    {"run", (PyCFunction)(void (*)(void))Wheel_run,
     METH_VARARGS | METH_KEYWORDS,
     "run(until=None, max_events=None): drain events; the count."},
    {"rewind", (PyCFunction)Wheel_rewind, METH_NOARGS,
     "Reset the clock to zero on an empty wheel."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef Wheel_members[] = {
    {"now", T_OBJECT_EX, offsetof(Wheel, now), READONLY,
     "The current cycle (one int object per cycle)."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef Wheel_getset[] = {
    {"pending", (getter)Wheel_get_pending, NULL,
     "Number of events still queued.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject WheelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._wheel.Wheel",
    .tp_basicsize = sizeof(Wheel),
    .tp_dealloc = (destructor)Wheel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A calendar queue of per-cycle event buckets.",
    .tp_traverse = (traverseproc)Wheel_traverse,
    .tp_clear = (inquiry)Wheel_clear,
    .tp_methods = Wheel_methods,
    .tp_members = Wheel_members,
    .tp_getset = Wheel_getset,
    .tp_new = Wheel_new,
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_wheel", "C event wheel kernel.", -1, NULL,
};

PyMODINIT_FUNC
PyInit__wheel(void)
{
    if (PyType_Ready(&WheelType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&moduledef);
    if (module == NULL)
        return NULL;
    Py_INCREF(&WheelType);
    if (PyModule_AddObject(module, "Wheel", (PyObject *)&WheelType) < 0) {
        Py_DECREF(&WheelType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
