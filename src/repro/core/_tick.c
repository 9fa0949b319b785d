/*
 * Core tick kernel: the C twin of the pure-Python body of
 * OutOfOrderCore._tick (ooo_core.py), which stays the reference.
 *
 * The core schedules two kinds of C callables on the event wheel, so that
 * neither costs a Python frame per event:
 * - TickEvent(core)() runs one core cycle: retire, issue (ALU uops in
 *   full; loads, stores and the L1 MSHR check call back into Python),
 *   fetch/dispatch/rename, the chain-generation trigger, then reschedule
 *   (the twin of _schedule_tick) or doze.
 * - Completion(core, fifo)() pops one (uop, value) pair from a fixed-delay
 *   FIFO and completes it: the twin of OutOfOrderCore._complete, wake()'s
 *   doze accounting included.
 * Both are heap types named in this module, so a tracer that charges an
 * event to the package that defined its callback charges them to
 * repro.core.  Every wheel.schedule call goes through attribute lookup on
 * the wheel, so a wrapped schedule sees the kernel's events too.
 *
 * The kernel is stateless.  Every piece of simulation state it reads or
 * writes lives in the core's own attributes, its deques and dicts, and the
 * InflightUop slots, so snapshot, restore, fork and checkpoints never see
 * it.  What setup() binds once per process is layout only: the slot
 * offsets of InflightUop and MicroOp, the UopState/UopType members, and
 * each op's static latency.
 *
 * Every statement mirrors the Python tick in order; a statistic that
 * differs between the two is a bug here (tests/test_core_tick.py).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* ------------------------------------------------------------------ */
/* layout facts bound by setup()                                      */
/* ------------------------------------------------------------------ */

enum {
    IU_uop, IU_state, IU_deps, IU_consumers, IU_value, IU_vaddr, IU_paddr,
    IU_p1, IU_p2, IU_mem_dep_p, IU_migrated, IU_chain, IU_source_of_chain,
    IU_rs_held, IU_llc_miss_pending, IU_was_llc_miss, IU_had_dependent,
    IU_is_dependent_miss, IU_chain_attempted, IU_dispatch_cycle,
    IU_issue_cycle, IU_done_cycle, IU_NSLOTS
};
/* InflightUop.__slots__, in declaration order (setup() checks equality) */
static const char *IU_NAMES[IU_NSLOTS] = {
    "uop", "state", "deps", "consumers", "value", "vaddr", "paddr",
    "p1", "p2", "mem_dep_p", "migrated", "chain", "source_of_chain",
    "rs_held", "llc_miss_pending", "was_llc_miss", "had_dependent",
    "is_dependent_miss", "chain_attempted", "dispatch_cycle",
    "issue_cycle", "done_cycle",
};

enum { U_seq, U_op, U_dest, U_src1, U_src2, U_imm, U_mispredicted,
       U_mem_dep, U_NFIELDS };
static const char *U_NAMES[U_NFIELDS] = {
    "seq", "op", "dest", "src1", "src2", "imm", "mispredicted", "mem_dep",
};

enum { OP_ADD, OP_SUB, OP_MOV, OP_AND, OP_OR, OP_XOR, OP_NOT, OP_SHL,
       OP_SHR, OP_SEXT, OP_LOAD, OP_STORE, OP_BRANCH, OP_FP, OP_VEC, OP_NOP,
       OP_N };
static const char *OP_NAMES[OP_N] = {
    "ADD", "SUB", "MOV", "AND", "OR", "XOR", "NOT", "SHL", "SHR", "SEXT",
    "LOAD", "STORE", "BRANCH", "FP", "VEC", "NOP",
};

static PyTypeObject *iu_type, *uop_type;
static Py_ssize_t iu_off[IU_NSLOTS], uop_off[U_NFIELDS];
static PyObject *st_waiting, *st_ready, *st_issued, *st_done;
static PyObject *op_obj[OP_N], *op_latency[OP_N];
static PyObject *zero, *one;   /* the ints 0 and 1 */

/* interned attribute and method names */
#define NAMES(X) \
    X(_tick_scheduled) X(cfg) X(rob) X(ready) X(wheel) X(stats) \
    X(regfile) X(_by_seq) X(rename) X(stats_frozen) X(_fetch_index) \
    X(_trace) X(rs_occupancy) X(_fetch_blocked) X(system) \
    X(_warmup_limit) X(_doze_started) X(_completions) X(now) \
    X(retire_width) X(issue_width) X(fetch_width) X(rob_entries) \
    X(rs_entries) X(mispredict_penalty) X(instructions) \
    X(mispredicted_branches) X(all_finished) X(energy_counters) \
    X(emc) X(enabled) X(popleft) X(append) \
    X(appendleft) X(schedule) X(_on_window_empty) X(_l1_mshr_free) \
    X(_execute_load) X(_execute_store) X(_unblock_fetch) \
    X(_maybe_generate_chain) X(_miss_sources) X(notify_source_complete) \
    X(_tick_event) X(core_uops) X(finished_at) X(full_window_stall_cycles)
#define DECLARE(n) static PyObject *k_##n;
NAMES(DECLARE)

#define IU(o, i) (*(PyObject **)((char *)(o) + iu_off[i]))
#define UOP(o, i) (*(PyObject **)((char *)(o) + uop_off[i]))

/* ------------------------------------------------------------------ */
/* small helpers                                                      */
/* ------------------------------------------------------------------ */

static inline int
truth(PyObject *v)
{
    if (v == Py_True)
        return 1;
    if (v == Py_False || v == Py_None)
        return 0;
    return PyObject_IsTrue(v);
}

/* A slot read; NULL (with AttributeError) when the slot is unset. */
static inline PyObject *
slot(PyObject *o, Py_ssize_t off, const char *name)
{
    PyObject *v = *(PyObject **)((char *)o + off);
    if (v == NULL)
        PyErr_Format(PyExc_AttributeError, "%s slot unset", name);
    return v;
}
#define IU_GET(o, i) slot((o), iu_off[i], IU_NAMES[i])
#define UOP_GET(o, i) slot((o), uop_off[i], U_NAMES[i])

static inline void
slot_set(PyObject *o, Py_ssize_t off, PyObject *v)
{
    PyObject **p = (PyObject **)((char *)o + off);
    PyObject *old = *p;
    Py_INCREF(v);
    *p = v;
    Py_XDECREF(old);
}
#define IU_SET(o, i, v) slot_set((o), iu_off[i], (v))

/* Slot offsets are only valid on the bound classes: check every object
 * read from the core's containers before touching its slots. */
static inline int
is_iu(PyObject *o)
{
    if (PyObject_TypeCheck(o, iu_type))
        return 1;
    PyErr_Format(PyExc_TypeError, "%R is not an InflightUop", o);
    return 0;
}

static inline PyObject *
uop_of(PyObject *iu)
{
    PyObject *uop = IU_GET(iu, IU_uop);
    if (uop != NULL && !PyObject_TypeCheck(uop, uop_type)) {
        PyErr_Format(PyExc_TypeError, "%R is not a MicroOp", uop);
        return NULL;
    }
    return uop;
}

/* The core's instance attribute ``key`` (borrowed), or NULL. */
static inline PyObject *
attr(PyObject *d, PyObject *key)
{
    PyObject *v = PyDict_GetItemWithError(d, key);
    if (v == NULL && !PyErr_Occurred())
        PyErr_SetObject(PyExc_AttributeError, key);
    return v;
}

static int
attr_truth(PyObject *d, PyObject *key)
{
    PyObject *v = attr(d, key);
    return v == NULL ? -1 : truth(v);
}

static int
attr_ssize(PyObject *d, PyObject *key, Py_ssize_t *out)
{
    PyObject *v = attr(d, key);
    if (v == NULL)
        return -1;
    *out = PyLong_AsSsize_t(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
set_ssize(PyObject *d, PyObject *key, Py_ssize_t value)
{
    PyObject *v = PyLong_FromSsize_t(value);
    if (v == NULL)
        return -1;
    int rc = PyDict_SetItem(d, key, v);
    Py_DECREF(v);
    return rc;
}

static int
getattr_ssize(PyObject *o, PyObject *name, Py_ssize_t *out)
{
    PyObject *v = PyObject_GetAttr(o, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsSsize_t(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* o.name += delta */
static int
add_attr(PyObject *o, PyObject *name, Py_ssize_t delta)
{
    PyObject *v = PyObject_GetAttr(o, name);
    if (v == NULL)
        return -1;
    PyObject *d = PyLong_FromSsize_t(delta);
    if (d == NULL) {
        Py_DECREF(v);
        return -1;
    }
    PyObject *sum = PyNumber_Add(v, d);
    Py_DECREF(v);
    Py_DECREF(d);
    if (sum == NULL)
        return -1;
    int rc = PyObject_SetAttr(o, name, sum);
    Py_DECREF(sum);
    return rc;
}

/* core.<name>(arg) or core.<name>(); returns a new reference. */
static inline PyObject *
call_method(PyObject *core, PyObject *name, PyObject *arg)
{
    if (arg == NULL)
        return PyObject_CallMethodNoArgs(core, name);
    return PyObject_CallMethodOneArg(core, name, arg);
}

static int
call_method_void(PyObject *core, PyObject *name, PyObject *arg)
{
    PyObject *r = call_method(core, name, arg);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* wheel.schedule(delay, callback), looked up on the wheel every call */
static int
schedule(PyObject *wheel, PyObject *delay, PyObject *callback)
{
    PyObject *args[3] = {wheel, delay, callback};
    PyObject *r = PyObject_VectorcallMethod(k_schedule, args, 3, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* OutOfOrderCore._schedule_tick(delay), given the core's __dict__. */
static int
schedule_tick(PyObject *d, PyObject *wheel, PyObject *delay)
{
    int scheduled = attr_truth(d, k__tick_scheduled);
    if (scheduled)
        return scheduled < 0 ? -1 : 0;
    if (PyDict_SetItem(d, k__tick_scheduled, Py_True) < 0)
        return -1;
    PyObject *event = attr(d, k__tick_event);
    if (event == NULL)
        return -1;
    Py_INCREF(event);
    int rc = schedule(wheel, delay, event);
    Py_DECREF(event);
    return rc;
}

static inline int
opcode(PyObject *op)
{
    for (int k = 0; k < OP_N; k++)
        if (op_obj[k] == op)
            return k;
    return -1;
}

/* rob[0].state is DONE; -1 on error */
static int
head_done(PyObject *rob)
{
    Py_ssize_t n = PyObject_Size(rob);
    if (n <= 0)
        return n < 0 ? -1 : 0;
    PyObject *head = PySequence_GetItem(rob, 0);
    if (head == NULL)
        return -1;
    PyObject *state = is_iu(head) ? IU_GET(head, IU_state) : NULL;
    int done = state == NULL ? -1 : state == st_done;
    Py_DECREF(head);
    return done;
}

/* ------------------------------------------------------------------ */
/* one tick                                                           */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject *core, *d;                 /* the core and its __dict__ */
    PyObject *cfg, *rob, *ready, *wheel, *stats, *regfile, *by_seq;
    PyObject *rename, *trace, *completions, *system, *now;
    Py_ssize_t rob_entries, rs_entries;
} Tick;

static int
retire(Tick *t)
{
    int done = head_done(t->rob);
    if (done <= 0)
        return done;
    Py_ssize_t width, retired = 0;
    if (getattr_ssize(t->cfg, k_retire_width, &width) < 0)
        return -1;
    int frozen = attr_truth(t->d, k_stats_frozen);
    if (frozen < 0)
        return -1;
    while (retired < width) {
        done = head_done(t->rob);
        if (done < 0)
            return -1;
        if (!done)
            break;
        PyObject *iu = PyObject_CallMethodNoArgs(t->rob, k_popleft);
        if (iu == NULL)
            return -1;
        PyObject *uop = is_iu(iu) ? uop_of(iu) : NULL;
        PyObject *seq = uop ? UOP_GET(uop, U_seq) : NULL;
        PyObject *dest = uop ? UOP_GET(uop, U_dest) : NULL;
        if (seq == NULL || dest == NULL)
            goto fail;
        PyObject *entry = PyDict_GetItemWithError(t->by_seq, seq);
        if (entry != NULL) {
            if (PyDict_DelItem(t->by_seq, seq) < 0)
                goto fail;
        }
        else if (PyErr_Occurred())
            goto fail;
        if (dest != Py_None) {
            PyObject *named = PyDict_GetItemWithError(t->rename, dest);
            if (named == NULL && PyErr_Occurred())
                goto fail;
            if (named == iu) {
                /* Keep the committed value readable after the entry
                 * leaves the window. */
                PyObject *value = IU_GET(iu, IU_value);
                if (value == NULL
                        || PyDict_SetItem(t->regfile, dest, value) < 0)
                    goto fail;
            }
        }
        Py_DECREF(iu);
        retired++;
        continue;
      fail:
        Py_DECREF(iu);
        return -1;
    }
    if (!frozen && retired)
        return add_attr(t->stats, k_instructions, retired);
    return 0;
}

static inline unsigned long long
u64(PyObject *v)
{
    return PyLong_AsUnsignedLongLongMask(v);
}

/* execute_alu (repro.uarch.isa) on 64-bit words: every op but a register
 * MOV masks its result, and arithmetic modulo 2**64 commutes with that
 * mask, so operating on the masked operands gives the same value.  A
 * register MOV returns its operand object itself, as Python does. */
static PyObject *
execute_alu(int k, PyObject *uop, PyObject *a, PyObject *b)
{
    PyObject *src1 = UOP_GET(uop, U_src1);
    PyObject *src2 = UOP_GET(uop, U_src2);
    PyObject *imm = UOP_GET(uop, U_imm);
    if (src1 == NULL || src2 == NULL || imm == NULL)
        return NULL;
    PyObject *rhs_obj = src2 != Py_None ? b : imm;
    unsigned long long A, R, x;
    switch (k) {
    case OP_MOV:
        if (src1 != Py_None) {
            Py_INCREF(a);
            return a;
        }
        x = u64(imm);
        break;
    case OP_BRANCH:
    case OP_NOP:
        Py_INCREF(zero);
        return zero;
    case OP_NOT:
        x = ~u64(a);
        break;
    case OP_SEXT:
        x = u64(a) & 0xFFFFFFFFULL;
        if (x & 0x80000000ULL)
            x |= 0xFFFFFFFF00000000ULL;
        break;
    default:
        A = u64(a);
        R = u64(rhs_obj);
        switch (k) {
        case OP_ADD: x = A + R; break;
        case OP_SUB: x = A - R; break;
        case OP_AND: x = A & R; break;
        case OP_OR: x = A | R; break;
        case OP_XOR: x = A ^ R; break;
        case OP_SHL: x = A << (R & 63); break;
        case OP_SHR: x = A >> (R & 63); break;
        case OP_FP:
        case OP_VEC: x = A * 3 + R + 0x5F5E100ULL; break;
        default:
            PyErr_Format(PyExc_ValueError, "execute_alu cannot execute %R",
                         UOP(uop, U_op));
            return NULL;
        }
    }
    if (PyErr_Occurred())
        return NULL;
    return PyLong_FromUnsignedLongLong(x);
}

/* The value of source operand ``reg`` via producer ``p`` (borrowed). */
static PyObject *
source_value(Tick *t, PyObject *reg, PyObject *p)
{
    if (reg == Py_None)
        return zero;
    if (p != Py_None)
        return is_iu(p) ? IU_GET(p, IU_value) : NULL;
    PyObject *v = PyDict_GetItemWithError(t->regfile, reg);
    if (v == NULL) {
        if (PyErr_Occurred())
            return NULL;
        return zero;
    }
    return v;
}

/* Issue one ALU uop: compute its value and queue its completion. */
static int
issue_alu(Tick *t, PyObject *iu, PyObject *uop, int k)
{
    PyObject *src1 = UOP_GET(uop, U_src1), *src2 = UOP_GET(uop, U_src2);
    PyObject *p1 = IU_GET(iu, IU_p1), *p2 = IU_GET(iu, IU_p2);
    if (!src1 || !src2 || !p1 || !p2)
        return -1;
    PyObject *a = source_value(t, src1, p1);
    PyObject *b = a ? source_value(t, src2, p2) : NULL;
    if (b == NULL)
        return -1;
    PyObject *value = execute_alu(k, uop, a, b);
    if (value == NULL)
        return -1;
    PyObject *latency = op_latency[k];
    int rc = -1;
    if (k == OP_BRANCH) {
        PyObject *mis = UOP_GET(uop, U_mispredicted);
        int m = mis ? truth(mis) : -1;
        if (m < 0)
            goto out;
        if (m) {
            PyObject *penalty = PyObject_GetAttr(t->cfg,
                                                 k_mispredict_penalty);
            PyObject *delay = penalty ? PyNumber_Add(latency, penalty)
                                      : NULL;
            Py_XDECREF(penalty);
            PyObject *unblock = delay ? PyObject_GetAttr(t->core,
                                                         k__unblock_fetch)
                                      : NULL;
            int s = unblock ? schedule(t->wheel, delay, unblock) : -1;
            Py_XDECREF(delay);
            Py_XDECREF(unblock);
            if (s < 0)
                goto out;
        }
    }
    PyObject *entry = PyDict_GetItemWithError(t->completions, latency);
    if (entry == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, latency);
        goto out;
    }
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 2) {
        PyErr_SetString(PyExc_TypeError, "completion entry is not a pair");
        goto out;
    }
    PyObject *pair = PyTuple_Pack(2, iu, value);
    if (pair == NULL)
        goto out;
    PyObject *r = PyObject_CallMethodOneArg(PyTuple_GET_ITEM(entry, 0),
                                            k_append, pair);
    Py_DECREF(pair);
    if (r == NULL)
        goto out;
    Py_DECREF(r);
    rc = schedule(t->wheel, latency, PyTuple_GET_ITEM(entry, 1));
  out:
    Py_DECREF(value);
    return rc;
}

static int
issue(Tick *t)
{
    Py_ssize_t width, issued = 0, n;
    if (getattr_ssize(t->cfg, k_issue_width, &width) < 0)
        return -1;
    PyObject *retry = NULL;
    while (issued < width) {
        n = PyObject_Size(t->ready);
        if (n < 0)
            return -1;
        if (n == 0)
            break;
        PyObject *iu = PyObject_CallMethodNoArgs(t->ready, k_popleft);
        if (iu == NULL)
            return -1;
        if (!is_iu(iu))
            goto fail;
        PyObject *migrated = IU_GET(iu, IU_migrated);
        PyObject *state = IU_GET(iu, IU_state);
        PyObject *uop = uop_of(iu);
        PyObject *op = uop ? UOP_GET(uop, U_op) : NULL;
        int m = migrated ? truth(migrated) : -1;
        if (m < 0 || state == NULL || op == NULL)
            goto fail;
        if (m || state != st_ready) {
            Py_DECREF(iu);
            continue;
        }
        int k = opcode(op);
        if (k == OP_LOAD) {
            PyObject *r = call_method(t->core, k__l1_mshr_free, iu);
            int free = r ? truth(r) : -1;
            Py_XDECREF(r);
            if (free < 0)
                goto fail;
            if (!free) {
                retry = iu;
                break;
            }
        }
        IU_SET(iu, IU_state, st_issued);
        IU_SET(iu, IU_issue_cycle, t->now);
        PyObject *held = IU_GET(iu, IU_rs_held);
        int h = held ? truth(held) : -1;
        if (h < 0)
            goto fail;
        if (h) {
            Py_ssize_t occ;
            IU_SET(iu, IU_rs_held, Py_False);
            if (attr_ssize(t->d, k_rs_occupancy, &occ) < 0
                    || set_ssize(t->d, k_rs_occupancy, occ - 1) < 0)
                goto fail;
        }
        if (k == OP_LOAD) {
            if (call_method_void(t->core, k__execute_load, iu) < 0)
                goto fail;
        }
        else if (k == OP_STORE) {
            if (call_method_void(t->core, k__execute_store, iu) < 0)
                goto fail;
        }
        else if (issue_alu(t, iu, uop, k) < 0)
            goto fail;
        Py_DECREF(iu);
        issued++;
        continue;
      fail:
        Py_DECREF(iu);
        return -1;
    }
    if (retry != NULL) {
        IU_SET(retry, IU_state, st_ready);
        PyObject *r = PyObject_CallMethodOneArg(t->ready, k_appendleft,
                                                retry);
        Py_DECREF(retry);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    return 0;
}

/* OutOfOrderCore._can_fetch, read from the same state. */
static int
can_fetch(Tick *t)
{
    int frozen = attr_truth(t->d, k_stats_frozen);
    if (frozen < 0)
        return -1;
    if (frozen) {
        PyObject *all = PyObject_GetAttr(t->system, k_all_finished);
        int a = all ? truth(all) : -1;
        Py_XDECREF(all);
        if (a)
            return a < 0 ? -1 : 0;      /* draining: interference is over */
    }
    PyObject *limit = attr(t->d, k__warmup_limit);
    if (limit == NULL)
        return -1;
    if (limit != Py_None) {
        PyObject *done = PyObject_GetAttr(t->stats, k_instructions);
        int reached = done ? PyObject_RichCompareBool(done, limit, Py_GE)
                           : -1;
        Py_XDECREF(done);
        if (reached)
            return reached < 0 ? -1 : 0;   /* warmup target reached */
    }
    Py_ssize_t index, len, rob, occ;
    if (attr_ssize(t->d, k__fetch_index, &index) < 0
            || (len = PyObject_Size(t->trace)) < 0)
        return -1;
    if (index >= len)
        return 0;
    if ((rob = PyObject_Size(t->rob)) < 0)
        return -1;
    if (rob >= t->rob_entries)
        return 0;
    if (attr_ssize(t->d, k_rs_occupancy, &occ) < 0)
        return -1;
    if (occ >= t->rs_entries)
        return 0;
    int blocked = attr_truth(t->d, k__fetch_blocked);
    return blocked < 0 ? -1 : !blocked;
}

/* A fresh InflightUop(uop, dispatch_cycle=now), as its __init__ sets it. */
static PyObject *
new_inflight(PyObject *uop, PyObject *now)
{
    PyObject *consumers = PyList_New(0);
    if (consumers == NULL)
        return NULL;
    PyObject *iu = iu_type->tp_alloc(iu_type, 0);
    if (iu == NULL) {
        Py_DECREF(consumers);
        return NULL;
    }
    IU(iu, IU_consumers) = consumers;
    IU_SET(iu, IU_uop, uop);
    IU_SET(iu, IU_state, st_waiting);
    IU_SET(iu, IU_deps, zero);
    IU_SET(iu, IU_value, zero);
    IU_SET(iu, IU_vaddr, Py_None);
    IU_SET(iu, IU_paddr, Py_None);
    IU_SET(iu, IU_p1, Py_None);
    IU_SET(iu, IU_p2, Py_None);
    IU_SET(iu, IU_mem_dep_p, Py_None);
    IU_SET(iu, IU_migrated, Py_False);
    IU_SET(iu, IU_chain, Py_None);
    IU_SET(iu, IU_source_of_chain, Py_None);
    IU_SET(iu, IU_rs_held, Py_True);
    IU_SET(iu, IU_llc_miss_pending, Py_False);
    IU_SET(iu, IU_was_llc_miss, Py_False);
    IU_SET(iu, IU_had_dependent, Py_False);
    IU_SET(iu, IU_is_dependent_miss, Py_False);
    IU_SET(iu, IU_chain_attempted, Py_False);
    IU_SET(iu, IU_dispatch_cycle, now);
    IU_SET(iu, IU_issue_cycle, Py_None);
    IU_SET(iu, IU_done_cycle, Py_None);
    return iu;
}

/* Link ``iu`` behind ``producer`` when it has not completed yet. */
static int
wait_on(PyObject *iu, PyObject *producer, Py_ssize_t *deps)
{
    PyObject *state = is_iu(producer) ? IU_GET(producer, IU_state) : NULL;
    if (state == NULL)
        return -1;
    if (state == st_done)
        return 0;
    PyObject *consumers = IU_GET(producer, IU_consumers);
    if (consumers == NULL)
        return -1;
    (*deps)++;
    if (PyList_CheckExact(consumers))
        return PyList_Append(consumers, iu);
    PyObject *r = PyObject_CallMethodOneArg(consumers, k_append, iu);
    Py_XDECREF(r);
    return r ? 0 : -1;
}

/* Rename one source register: p1/p2 of ``iu``. */
static int
rename_source(Tick *t, PyObject *iu, PyObject *reg, int which,
              Py_ssize_t *deps)
{
    if (reg == Py_None)
        return 0;
    PyObject *producer = PyDict_GetItemWithError(t->rename, reg);
    if (producer == NULL)
        return PyErr_Occurred() ? -1 : 0;
    if (producer == Py_None)
        return 0;
    Py_INCREF(producer);
    IU_SET(iu, which, producer);
    int rc = wait_on(iu, producer, deps);
    Py_DECREF(producer);
    return rc;
}

static int
fetch(Tick *t)
{
    Py_ssize_t width, index, len, occ, rob_len, fetched = 0, mispredicts = 0;
    int frozen = attr_truth(t->d, k_stats_frozen);
    if (frozen < 0
            || getattr_ssize(t->cfg, k_fetch_width, &width) < 0
            || attr_ssize(t->d, k__fetch_index, &index) < 0
            || attr_ssize(t->d, k_rs_occupancy, &occ) < 0
            || (len = PyObject_Size(t->trace)) < 0
            || (rob_len = PyObject_Size(t->rob)) < 0)
        return -1;
    int blocked = 0, rc = -1;
    for (;;) {
        PyObject *uop = PySequence_GetItem(t->trace, index);
        if (uop == NULL)
            break;
        PyObject *iu = NULL;
        if (!PyObject_TypeCheck(uop, uop_type)) {
            PyErr_Format(PyExc_TypeError, "trace entry %R is not a MicroOp",
                         uop);
            goto fail;
        }
        index++;
        iu = new_inflight(uop, t->now);
        if (iu == NULL)
            goto fail;
        Py_ssize_t deps = 0;
        PyObject *seq = UOP_GET(uop, U_seq), *op = UOP_GET(uop, U_op);
        PyObject *dest = UOP_GET(uop, U_dest);
        PyObject *src1 = UOP_GET(uop, U_src1), *src2 = UOP_GET(uop, U_src2);
        PyObject *mem_dep = UOP_GET(uop, U_mem_dep);
        if (!seq || !op || !dest || !src1 || !src2 || !mem_dep)
            goto fail;
        if (rename_source(t, iu, src1, IU_p1, &deps) < 0
                || rename_source(t, iu, src2, IU_p2, &deps) < 0)
            goto fail;
        if (mem_dep != Py_None) {
            PyObject *dep = PyDict_GetItemWithError(t->by_seq, mem_dep);
            if (dep == NULL && PyErr_Occurred())
                goto fail;
            if (dep != NULL && dep != Py_None) {
                PyObject *state = is_iu(dep) ? IU_GET(dep, IU_state) : NULL;
                if (state == NULL)
                    goto fail;
                if (state != st_done) {
                    Py_INCREF(dep);
                    IU_SET(iu, IU_mem_dep_p, dep);
                    int w = wait_on(iu, dep, &deps);
                    Py_DECREF(dep);
                    if (w < 0)
                        goto fail;
                }
            }
        }
        if (dest != Py_None && PyDict_SetItem(t->rename, dest, iu) < 0)
            goto fail;
        PyObject *r = PyObject_CallMethodOneArg(t->rob, k_append, iu);
        if (r == NULL)
            goto fail;
        Py_DECREF(r);
        if (PyDict_SetItem(t->by_seq, seq, iu) < 0)
            goto fail;
        occ++;
        rob_len++;
        if (op == op_obj[OP_BRANCH]) {
            PyObject *mis = UOP_GET(uop, U_mispredicted);
            int m = mis ? truth(mis) : -1;
            if (m < 0)
                goto fail;
            if (m) {
                blocked = 1;
                if (!frozen)
                    mispredicts++;
            }
        }
        if (deps) {
            PyObject *n = PyLong_FromSsize_t(deps);
            if (n == NULL)
                goto fail;
            IU_SET(iu, IU_deps, n);
            Py_DECREF(n);
        }
        else {
            IU_SET(iu, IU_state, st_ready);
            r = PyObject_CallMethodOneArg(t->ready, k_append, iu);
            if (r == NULL)
                goto fail;
            Py_DECREF(r);
        }
        Py_DECREF(iu);
        Py_DECREF(uop);
        fetched++;
        if (fetched >= width || index >= len || rob_len >= t->rob_entries
                || occ >= t->rs_entries || blocked) {
            rc = 0;
            break;
        }
        continue;
      fail:
        Py_XDECREF(iu);
        Py_DECREF(uop);
        break;
    }
    /* Write back what the loop kept in locals, also on error, so the
     * core never holds uops its counters do not account for. */
    if (set_ssize(t->d, k__fetch_index, index) < 0
            || set_ssize(t->d, k_rs_occupancy, occ) < 0
            || (blocked && PyDict_SetItem(t->d, k__fetch_blocked,
                                          Py_True) < 0))
        rc = -1;
    if (rc < 0 || frozen)
        return rc;
    if (mispredicts
            && add_attr(t->stats, k_mispredicted_branches, mispredicts) < 0)
        return -1;
    /* EnergyCounters.note_core_uops(fetched), inlined */
    PyObject *energy = PyObject_GetAttr(t->system, k_energy_counters);
    if (energy == NULL)
        return -1;
    rc = add_attr(energy, k_core_uops, fetched);
    Py_DECREF(energy);
    return rc;
}

/* EMC on, stats live, and dispatch blocked by a full ROB or RS. */
static int
window_stalled(Tick *t)
{
    PyObject *cfg = PyObject_GetAttr(t->system, k_cfg);
    PyObject *emc = cfg ? PyObject_GetAttr(cfg, k_emc) : NULL;
    PyObject *on = emc ? PyObject_GetAttr(emc, k_enabled) : NULL;
    int enabled = on ? truth(on) : -1;
    Py_XDECREF(cfg);
    Py_XDECREF(emc);
    Py_XDECREF(on);
    if (enabled <= 0)
        return enabled;
    int frozen = attr_truth(t->d, k_stats_frozen);
    if (frozen)
        return frozen < 0 ? -1 : 0;
    Py_ssize_t rob = PyObject_Size(t->rob), occ;
    if (rob < 0)
        return -1;
    if (rob >= t->rob_entries)
        return 1;
    if (attr_ssize(t->d, k_rs_occupancy, &occ) < 0)
        return -1;
    return occ >= t->rs_entries;
}

static int
reschedule_or_doze(Tick *t)
{
    Py_ssize_t n = PyObject_Size(t->ready);
    if (n < 0)
        return -1;
    int awake = n > 0 ? 1 : head_done(t->rob);
    if (awake == 0)
        awake = can_fetch(t);
    if (awake < 0)
        return -1;
    if (!awake)
        return PyDict_SetItem(t->d, k__doze_started, t->now);
    return schedule_tick(t->d, t->wheel, one);
}

static int
run_tick(Tick *t)
{
    if (PyDict_SetItem(t->d, k__tick_scheduled, Py_False) < 0)
        return -1;

    /* -- retire -------------------------------------------------------- */
    if (retire(t) < 0)
        return -1;
    Py_ssize_t rob = PyObject_Size(t->rob), index, len;
    if (rob < 0 || attr_ssize(t->d, k__fetch_index, &index) < 0
            || (len = PyObject_Size(t->trace)) < 0)
        return -1;
    if (rob == 0 && index >= len
            && call_method_void(t->core, k__on_window_empty, NULL) < 0)
        return -1;

    /* -- issue --------------------------------------------------------- */
    Py_ssize_t n = PyObject_Size(t->ready);
    if (n < 0 || (n > 0 && issue(t) < 0))
        return -1;

    /* -- fetch / dispatch ---------------------------------------------- */
    int go = can_fetch(t);
    if (go < 0 || (go && fetch(t) < 0))
        return -1;

    /* -- chain generation + reschedule --------------------------------- */
    int stalled = window_stalled(t);
    if (stalled < 0 || (stalled && call_method_void(
            t->core, k__maybe_generate_chain, NULL) < 0))
        return -1;
    return reschedule_or_doze(t);
}

static int
core_tick(PyObject *core)
{
    Tick t = {0};
    int rc = -1;
    t.core = core;
    t.d = PyObject_GenericGetDict(core, NULL);
    if (t.d == NULL)
        return -1;
#define TAKE(field, name)                                   \
    if ((t.field = attr(t.d, k_##name)) == NULL) goto out;  \
    Py_INCREF(t.field);
    TAKE(cfg, cfg)
    TAKE(rob, rob)
    TAKE(ready, ready)
    TAKE(wheel, wheel)
    TAKE(stats, stats)
    TAKE(regfile, regfile)
    TAKE(by_seq, _by_seq)
    TAKE(rename, rename)
    TAKE(trace, _trace)
    TAKE(completions, _completions)
    TAKE(system, system)
#undef TAKE
    if (!PyDict_Check(t.regfile) || !PyDict_Check(t.by_seq)
            || !PyDict_Check(t.rename) || !PyDict_Check(t.completions)) {
        PyErr_SetString(PyExc_TypeError,
                        "core regfile/_by_seq/rename/_completions must be "
                        "dicts");
        goto out;
    }
    if ((t.now = PyObject_GetAttr(t.wheel, k_now)) == NULL
            || getattr_ssize(t.cfg, k_rob_entries, &t.rob_entries) < 0
            || getattr_ssize(t.cfg, k_rs_entries, &t.rs_entries) < 0)
        goto out;
    rc = run_tick(&t);
  out:
    Py_XDECREF(t.cfg);
    Py_XDECREF(t.rob);
    Py_XDECREF(t.ready);
    Py_XDECREF(t.wheel);
    Py_XDECREF(t.stats);
    Py_XDECREF(t.regfile);
    Py_XDECREF(t.by_seq);
    Py_XDECREF(t.rename);
    Py_XDECREF(t.trace);
    Py_XDECREF(t.completions);
    Py_XDECREF(t.system);
    Py_XDECREF(t.now);
    Py_DECREF(t.d);
    return rc;
}

/* ------------------------------------------------------------------ */
/* one completion                                                     */
/* ------------------------------------------------------------------ */

/* Wake the consumers ``iu`` was the last outstanding producer of. */
static int
wake_consumers(PyObject *d, PyObject *iu)
{
    PyObject *consumers = IU_GET(iu, IU_consumers);
    if (consumers == NULL)
        return -1;
    if (!PyList_Check(consumers)) {
        PyErr_SetString(PyExc_TypeError, "consumers must be a list");
        return -1;
    }
    if (PyList_GET_SIZE(consumers) == 0)
        return 0;
    PyObject *ready = attr(d, k_ready);
    if (ready == NULL)
        return -1;
    Py_INCREF(ready);
    Py_INCREF(consumers);
    int rc = 0;
    for (Py_ssize_t i = 0; rc == 0 && i < PyList_GET_SIZE(consumers); i++) {
        PyObject *consumer = PyList_GET_ITEM(consumers, i);
        Py_ssize_t deps;
        PyObject *v = is_iu(consumer) ? IU_GET(consumer, IU_deps) : NULL;
        if (v == NULL || ((deps = PyLong_AsSsize_t(v)) == -1
                          && PyErr_Occurred())) {
            rc = -1;
            break;
        }
        PyObject *n = PyLong_FromSsize_t(deps - 1);
        if (n == NULL) {
            rc = -1;
            break;
        }
        IU_SET(consumer, IU_deps, n);
        Py_DECREF(n);
        if (deps - 1 != 0)
            continue;
        PyObject *state = IU_GET(consumer, IU_state);
        PyObject *migrated = IU_GET(consumer, IU_migrated);
        int m = migrated ? truth(migrated) : -1;
        if (state == NULL || m < 0) {
            rc = -1;
            break;
        }
        if (state != st_waiting || m)
            continue;
        IU_SET(consumer, IU_state, st_ready);
        PyObject *r = PyObject_CallMethodOneArg(ready, k_append, consumer);
        if (r == NULL)
            rc = -1;
        Py_XDECREF(r);
    }
    Py_DECREF(consumers);
    Py_DECREF(ready);
    return rc;
}

static int
as_longlong(PyObject *v, long long *out)
{
    *out = PyLong_AsLongLong(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* The first half of OutOfOrderCore.wake() on a core that dozed since
 * cycle ``doze``: charge the dozed cycles to full-window stalls when the
 * window is full, up to the cycle the core's statistics froze. */
static int
doze_stall(PyObject *d, PyObject *doze)
{
    PyObject *cfg = attr(d, k_cfg), *rob = attr(d, k_rob);
    PyObject *wheel = attr(d, k_wheel), *stats = attr(d, k_stats);
    if (!cfg || !rob || !wheel || !stats)
        return -1;
    Py_ssize_t rob_len = PyObject_Size(rob), entries, occ;
    if (rob_len < 0 || getattr_ssize(cfg, k_rob_entries, &entries) < 0)
        return -1;
    if (rob_len < entries) {
        if (getattr_ssize(cfg, k_rs_entries, &entries) < 0
                || attr_ssize(d, k_rs_occupancy, &occ) < 0)
            return -1;
        if (occ < entries)
            return 0;
    }
    Py_INCREF(wheel);
    Py_INCREF(stats);
    long long until, started, finished = 0;
    int rc = -1, frozen;
    PyObject *now = PyObject_GetAttr(wheel, k_now);
    if (now == NULL || as_longlong(now, &until) < 0
            || as_longlong(doze, &started) < 0
            || (frozen = attr_truth(d, k_stats_frozen)) < 0)
        goto out;
    if (frozen) {
        PyObject *at = PyObject_GetAttr(stats, k_finished_at);
        int set = at ? truth(at) : -1;
        if (set > 0 && as_longlong(at, &finished) < 0)
            set = -1;
        Py_XDECREF(at);
        if (set < 0)
            goto out;
        if (finished < until)
            until = finished;
    }
    rc = until > started
        ? add_attr(stats, k_full_window_stall_cycles,
                   (Py_ssize_t)(until - started))
        : 0;
  out:
    Py_XDECREF(now);
    Py_DECREF(stats);
    Py_DECREF(wheel);
    return rc;
}

static int
run_complete(PyObject *core, PyObject *d, PyObject *iu, PyObject *value)
{
    PyObject *wheel = attr(d, k_wheel);
    if (wheel == NULL)
        return -1;
    PyObject *now = PyObject_GetAttr(wheel, k_now);
    if (now == NULL)
        return -1;
    IU_SET(iu, IU_value, value);
    IU_SET(iu, IU_state, st_done);
    IU_SET(iu, IU_done_cycle, now);
    Py_DECREF(now);
    PyObject *flag = IU_GET(iu, IU_llc_miss_pending);
    int pending = flag ? truth(flag) : -1;
    if (pending < 0)
        return -1;
    if (pending) {
        IU_SET(iu, IU_llc_miss_pending, Py_False);
        PyObject *sources = attr(d, k__miss_sources);
        PyObject *key = sources ? PyLong_FromVoidPtr(iu) : NULL;
        int rc = key ? PyObject_DelItem(sources, key) : -1;
        Py_XDECREF(key);
        if (rc < 0)
            return -1;
    }
    flag = IU_GET(iu, IU_rs_held);
    int held = flag ? truth(flag) : -1;
    if (held < 0)
        return -1;
    if (held) {
        Py_ssize_t occ;
        IU_SET(iu, IU_rs_held, Py_False);
        if (attr_ssize(d, k_rs_occupancy, &occ) < 0
                || set_ssize(d, k_rs_occupancy, occ - 1) < 0)
            return -1;
    }
    PyObject *chain = IU_GET(iu, IU_source_of_chain);
    if (chain == NULL)
        return -1;
    if (chain != Py_None) {
        /* A chain parked on this source can start once the source value
         * is architecturally available. */
        PyObject *system = attr(d, k_system);
        if (system == NULL)
            return -1;
        Py_INCREF(chain);
        PyObject *r = PyObject_CallMethodOneArg(system,
                                                k_notify_source_complete,
                                                chain);
        Py_DECREF(chain);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        IU_SET(iu, IU_source_of_chain, Py_None);
    }
    if (wake_consumers(d, iu) < 0)
        return -1;
    /* wake(), inlined: the doze bookkeeping only when dozing, then
     * _schedule_tick(0). */
    PyObject *doze = attr(d, k__doze_started);
    if (doze == NULL)
        return -1;
    if (doze != Py_None) {
        Py_INCREF(doze);
        int rc = doze_stall(d, doze);
        Py_DECREF(doze);
        if (rc < 0 || PyDict_SetItem(d, k__doze_started, Py_None) < 0)
            return -1;
    }
    wheel = attr(d, k_wheel);
    if (wheel == NULL)
        return -1;
    Py_INCREF(wheel);
    int rc = schedule_tick(d, wheel, zero);
    Py_DECREF(wheel);
    return rc;
}

/* OutOfOrderCore._complete(iu, value) */
static int
complete(PyObject *core, PyObject *iu, PyObject *value)
{
    if (!is_iu(iu))
        return -1;
    PyObject *state = IU_GET(iu, IU_state);
    if (state == NULL)
        return -1;
    if (state == st_done)
        return 0;
    PyObject *d = PyObject_GenericGetDict(core, NULL);
    if (d == NULL)
        return -1;
    Py_INCREF(iu);
    Py_INCREF(value);
    int rc = run_complete(core, d, iu, value);
    Py_DECREF(value);
    Py_DECREF(iu);
    Py_DECREF(d);
    return rc;
}

/* ------------------------------------------------------------------ */
/* the scheduled callables                                            */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *core;
    PyObject *fifo;     /* Completion only */
} Event;

static int
no_arguments(PyObject *args, PyObject *kwds)
{
    if (PyTuple_GET_SIZE(args) == 0 && (kwds == NULL || !PyDict_GET_SIZE(kwds)))
        return 0;
    PyErr_SetString(PyExc_TypeError, "an event callback takes no arguments");
    return -1;
}

static PyObject *
TickEvent_call(Event *self, PyObject *args, PyObject *kwds)
{
    if (no_arguments(args, kwds) < 0)
        return NULL;
    PyObject *core = self->core;
    Py_INCREF(core);
    int rc = core_tick(core);
    Py_DECREF(core);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Completion_call(Event *self, PyObject *args, PyObject *kwds)
{
    if (no_arguments(args, kwds) < 0)
        return NULL;
    PyObject *pair = PyObject_CallMethodNoArgs(self->fifo, k_popleft);
    if (pair == NULL)
        return NULL;
    int rc = -1;
    if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2)
        PyErr_SetString(PyExc_TypeError, "completion entry is not a pair");
    else {
        PyObject *core = self->core;
        Py_INCREF(core);
        rc = complete(core, PyTuple_GET_ITEM(pair, 0),
                      PyTuple_GET_ITEM(pair, 1));
        Py_DECREF(core);
    }
    Py_DECREF(pair);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
TickEvent_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *core;
    if (!PyArg_ParseTuple(args, "O:TickEvent", &core))
        return NULL;
    Event *self = (Event *)type->tp_alloc(type, 0);
    if (self != NULL) {
        Py_INCREF(core);
        self->core = core;
    }
    return (PyObject *)self;
}

static PyObject *
Completion_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *core, *fifo;
    if (!PyArg_ParseTuple(args, "OO:Completion", &core, &fifo))
        return NULL;
    Event *self = (Event *)type->tp_alloc(type, 0);
    if (self != NULL) {
        Py_INCREF(core);
        Py_INCREF(fifo);
        self->core = core;
        self->fifo = fifo;
    }
    return (PyObject *)self;
}

static int
Event_traverse(Event *self, visitproc visit, void *arg)
{
    Py_VISIT(Py_TYPE(self));
    Py_VISIT(self->core);
    Py_VISIT(self->fifo);
    return 0;
}

static int
Event_clear(Event *self)
{
    Py_CLEAR(self->core);
    Py_CLEAR(self->fifo);
    return 0;
}

static void
Event_dealloc(Event *self)
{
    PyTypeObject *type = Py_TYPE(self);
    PyObject_GC_UnTrack(self);
    Event_clear(self);
    type->tp_free((PyObject *)self);
    Py_DECREF(type);
}

static PyType_Slot TickEvent_slots[] = {
    {Py_tp_doc, "TickEvent(core): calling it runs one cycle of ``core`` "
                "(the twin of OutOfOrderCore._tick)."},
    {Py_tp_new, TickEvent_new},
    {Py_tp_call, TickEvent_call},
    {Py_tp_traverse, Event_traverse},
    {Py_tp_clear, Event_clear},
    {Py_tp_dealloc, Event_dealloc},
    {0, NULL},
};

static PyType_Slot Completion_slots[] = {
    {Py_tp_doc, "Completion(core, fifo): calling it pops one (uop, value) "
                "pair from ``fifo`` and completes it (the twin of "
                "OutOfOrderCore._complete)."},
    {Py_tp_new, Completion_new},
    {Py_tp_call, Completion_call},
    {Py_tp_traverse, Event_traverse},
    {Py_tp_clear, Event_clear},
    {Py_tp_dealloc, Event_dealloc},
    {0, NULL},
};

static PyType_Spec TickEvent_spec = {
    "repro.core._tick.TickEvent", sizeof(Event), 0,
    Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC, TickEvent_slots,
};

static PyType_Spec Completion_spec = {
    "repro.core._tick.Completion", sizeof(Event), 0,
    Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC, Completion_slots,
};

/* ------------------------------------------------------------------ */
/* setup: bind the layout facts                                       */
/* ------------------------------------------------------------------ */

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
enum_member(PyObject *cls, const char *name)
{
    /* Kept for the life of the process, like the classes themselves. */
    return PyObject_GetAttrString(cls, name);
}

static PyObject *
setup(PyObject *module, PyObject *args)
{
    PyObject *iu_cls, *uop_cls, *state_cls, *op_cls;
    if (!PyArg_ParseTuple(args, "O!O!OO", &PyType_Type, &iu_cls,
                          &PyType_Type, &uop_cls, &state_cls, &op_cls))
        return NULL;
    PyObject *slots = PyObject_GetAttrString(iu_cls, "__slots__");
    if (slots == NULL)
        return NULL;
    PyObject *want = PyTuple_New(IU_NSLOTS);
    for (int i = 0; want && i < IU_NSLOTS; i++) {
        PyObject *name = PyUnicode_FromString(IU_NAMES[i]);
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
                            "InflightUop.__slots__ changed; update _tick.c");
        return NULL;
    }
    iu_type = (PyTypeObject *)iu_cls;
    uop_type = (PyTypeObject *)uop_cls;
    for (int i = 0; i < IU_NSLOTS; i++)
        if (member_offset(iu_type, IU_NAMES[i], &iu_off[i]) < 0)
            return NULL;
    for (int i = 0; i < U_NFIELDS; i++)
        if (member_offset(uop_type, U_NAMES[i], &uop_off[i]) < 0)
            return NULL;
    if (!(st_waiting = enum_member(state_cls, "WAITING"))
            || !(st_ready = enum_member(state_cls, "READY"))
            || !(st_issued = enum_member(state_cls, "ISSUED"))
            || !(st_done = enum_member(state_cls, "DONE")))
        return NULL;
    Py_ssize_t members = PyObject_Size(op_cls);
    if (members < 0)
        return NULL;
    if (members != OP_N) {
        PyErr_SetString(PyExc_TypeError, "UopType changed; update _tick.c");
        return NULL;
    }
    for (int k = 0; k < OP_N; k++) {
        if (!(op_obj[k] = enum_member(op_cls, OP_NAMES[k]))
                || !(op_latency[k] = PyObject_GetAttrString(op_obj[k],
                                                            "latency")))
            return NULL;
    }
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"setup", setup, METH_VARARGS,
     "setup(InflightUop, MicroOp, UopState, UopType): bind slot offsets "
     "and enum members."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_tick", "C core tick kernel.", -1, methods,
};

PyMODINIT_FUNC
PyInit__tick(void)
{
#define INTERN(n) \
    if (!(k_##n = PyUnicode_InternFromString(#n))) return NULL;
    NAMES(INTERN)
#undef INTERN
    if (!(zero = PyLong_FromLong(0)) || !(one = PyLong_FromLong(1)))
        return NULL;
    PyObject *module = PyModule_Create(&moduledef);
    if (module == NULL)
        return NULL;
    PyObject *tick_event = PyType_FromSpec(&TickEvent_spec);
    PyObject *completion = PyType_FromSpec(&Completion_spec);
    if (tick_event == NULL || completion == NULL
            || PyModule_AddObject(module, "TickEvent", tick_event) < 0) {
        Py_XDECREF(tick_event);
        Py_XDECREF(completion);
        Py_DECREF(module);
        return NULL;
    }
    if (PyModule_AddObject(module, "Completion", completion) < 0) {
        Py_DECREF(completion);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
