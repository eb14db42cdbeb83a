/*
 * Compiled scalar walkers: the hot methods of the two scalar backends.
 *
 * `Walker` runs `makespan`, `prepare`, `evaluate_delta`, `place` and
 * `score_moves` for one workload under the contention-free network
 * (repro.schedule.simulator.Simulator) or the one-NIC-per-machine network
 * (repro.extensions.contention.ContentionSimulator).  The Python methods
 * of those classes, repro.schedule.valid_range.place_by_probes for
 * `place` and repro.optim.tabu.score_by_deltas for `score_moves`, are the
 * specification: every loop below performs the same float operations in
 * the same order, so results are bit-identical (`==`).
 * Built with -O2 -ffp-contract=off and without fast-math, so no
 * operation is fused or reordered.
 *
 * `E` and `Tr` are read in place from the workload's float64 arrays
 * through the buffer protocol.  A table of l*l row pointers maps an
 * ordered machine pair to its `Tr` row, with one shared zero row on the
 * diagonal, exactly like the Python walkers' `pair` table.
 *
 * Memory safety: every task, machine, producer and item index is
 * bounds-checked, either once at construction (the DAG tables) or per
 * call (the caller's `order` / `machine_of`; the same pass rejects an
 * `order` that is not a permutation, like the Python walkers).  Inputs are copied into
 * per-call buffers before the walk starts, and no Python code runs
 * between that copy and the end of the walk, so threads sharing a
 * walker cannot interleave in its scratch space.
 *
 * Loaded and built by repro.schedule.walker; `bind` must be called once
 * with the Schedule class, InvalidScheduleError and the state-restore
 * function used for pickling.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

static PyObject *schedule_cls = NULL;
static PyObject *invalid_error = NULL;
static PyObject *restore_fn = NULL;

/* InvalidScheduleError once bound, ValueError before. */
#define INVALID_ERROR (invalid_error != NULL ? invalid_error : PyExc_ValueError)

/* Inputs of up to this many tasks are copied onto the stack. */
#define STACK_TASKS 512

/* ------------------------------------------------------------------ */
/* helpers                                                            */
/* ------------------------------------------------------------------ */

static void *
zalloc(Py_ssize_t n, size_t size)
{
    void *p = PyMem_Calloc(n > 0 ? (size_t)n : 1, size);
    if (p == NULL) {
        PyErr_NoMemory();
    }
    return p;
}

/* One index in [0, bound), else `exc` (the message names what[pos], or
 * just `what` for pos < 0); any Python code (__index__) runs here,
 * before a walk starts. */
static int
read_index(PyObject *item, Py_ssize_t bound, long *out, const char *what,
           Py_ssize_t pos, PyObject *exc)
{
    long v;
    if (PyLong_CheckExact(item)) {
        v = PyLong_AsLong(item);
    }
    else {
        Py_ssize_t s;
        Py_INCREF(item);
        s = PyNumber_AsSsize_t(item, PyExc_OverflowError);
        Py_DECREF(item);
        v = (long)s;
    }
    if (v == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (v < 0 || v >= bound) {
        if (pos < 0) {
            PyErr_Format(exc, "%s = %ld is out of range [0, %zd)", what, v,
                         bound);
        }
        else {
            PyErr_Format(exc, "%s[%zd] = %ld is out of range [0, %zd)",
                         what, pos, v, bound);
        }
        return -1;
    }
    *out = v;
    return 0;
}

/* Copy a length-n sequence of ids in [0, bound) into out[].  With
 * `seen` (bound zeroed flags) the ids must also be distinct, so the
 * sequence is a permutation: a range error or a repeat then raises
 * InvalidScheduleError. */
static int
read_ids(PyObject *seq, int *out, Py_ssize_t n, Py_ssize_t bound,
         const char *what, unsigned char *seen)
{
    PyObject *exc = seen != NULL ? INVALID_ERROR : PyExc_ValueError;
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of ints");
    Py_ssize_t i;
    if (fast == NULL) {
        return -1;
    }
    if (PySequence_Fast_GET_SIZE(fast) != n) {
        PyErr_Format(PyExc_ValueError, "%s has %zd entries, expected %zd",
                     what, PySequence_Fast_GET_SIZE(fast), n);
        goto fail;
    }
    for (i = 0; i < n; i++) {
        long v;
        /* a non-int item's __index__ may have resized the list */
        if (i >= PySequence_Fast_GET_SIZE(fast)) {
            PyErr_Format(PyExc_ValueError, "%s changed size while read",
                         what);
            goto fail;
        }
        if (read_index(PySequence_Fast_GET_ITEM(fast, i), bound, &v, what,
                       i, exc) < 0) {
            goto fail;
        }
        if (seen != NULL) {
            if (seen[v]) {
                PyErr_Format(exc,
                             "%s[%zd] = %ld repeats a subtask: not a "
                             "permutation of 0..%zd", what, i, v, n - 1);
                goto fail;
            }
            seen[v] = 1;
        }
        out[i] = (int)v;
    }
    Py_DECREF(fast);
    return 0;
fail:
    Py_DECREF(fast);
    return -1;
}

/* Copy a length-n sequence of floats into out[] (construction only: the
 * tuple copy keeps every item alive whatever __float__ does). */
static int
read_floats(PyObject *seq, double *out, Py_ssize_t n, const char *what)
{
    PyObject *tup = PySequence_Tuple(seq);
    Py_ssize_t i;
    if (tup == NULL) {
        return -1;
    }
    if (PyTuple_GET_SIZE(tup) != n) {
        PyErr_Format(PyExc_ValueError, "%s has %zd entries, expected %zd",
                     what, PyTuple_GET_SIZE(tup), n);
        Py_DECREF(tup);
        return -1;
    }
    for (i = 0; i < n; i++) {
        double v = PyFloat_AsDouble(PyTuple_GET_ITEM(tup, i));
        if (v == -1.0 && PyErr_Occurred()) {
            Py_DECREF(tup);
            return -1;
        }
        out[i] = v;
    }
    Py_DECREF(tup);
    return 0;
}

static PyObject *
int_list(const int *v, Py_ssize_t n)
{
    PyObject *out = PyList_New(n);
    Py_ssize_t i;
    if (out == NULL) {
        return NULL;
    }
    for (i = 0; i < n; i++) {
        PyObject *x = PyLong_FromLong(v[i]);
        if (x == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, x);
    }
    return out;
}

static PyObject *
float_list(const double *v, Py_ssize_t n)
{
    PyObject *out = PyList_New(n);
    Py_ssize_t i;
    if (out == NULL) {
        return NULL;
    }
    for (i = 0; i < n; i++) {
        PyObject *x = PyFloat_FromDouble(v[i]);
        if (x == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, x);
    }
    return out;
}

/* Per-call copies of order / machine_of and the permutation check's
 * flags (stack for small strings). */
typedef struct {
    int stack[2 * STACK_TASKS];
    unsigned char seen[STACK_TASKS];
    int *heap;
    int *order;
    int *mach;
} Inputs;

static int
read_inputs(Inputs *in, PyObject *order, PyObject *machine_of,
            Py_ssize_t k, Py_ssize_t l)
{
    int *buf = in->stack;
    unsigned char *seen = in->seen;
    in->heap = NULL;
    if (k > STACK_TASKS) {
        /* 2k ints, then k zeroed flags */
        buf = in->heap = zalloc(3 * k, sizeof(int));
        if (buf == NULL) {
            return -1;
        }
        seen = (unsigned char *)(buf + 2 * k);
    }
    else {
        memset(seen, 0, (size_t)k);
    }
    in->order = buf;
    in->mach = buf + k;
    if (read_ids(order, in->order, k, k, "order", seen) < 0
        || read_ids(machine_of, in->mach, k, l, "machine_of", NULL) < 0) {
        PyMem_Free(in->heap);
        return -1;
    }
    return 0;
}

static void
free_inputs(Inputs *in)
{
    PyMem_Free(in->heap);
}

static void
raise_invalid(int task, int prod)
{
    PyErr_Format(INVALID_ERROR,
                 "subtask %d scheduled before its producer %d", task, prod);
}

/* ------------------------------------------------------------------ */
/* State: the per-position snapshot of one prepare walk               */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    int nic;
    Py_ssize_t k, l, p;
    double makespan;
    int *ints;
    double *dbl;
    Py_ssize_t n_ints, n_dbl;
    /* views into ints */
    int *order, *mach, *pos_of;
    int *last_consumer;   /* plain: last base position reading t's data */
    int *producer_floor;  /* nic: earliest base position of t's producers */
    /* views into dbl */
    double *start, *finish, *span_prefix, *avail_rows;
    double *suffix_max, *avail_at;  /* plain */
    double *nic_rows, *arrival;     /* nic */
} State;

static PyTypeObject StateType;

static void
state_sizes(int nic, Py_ssize_t k, Py_ssize_t l, Py_ssize_t p,
            Py_ssize_t *n_ints, Py_ssize_t *n_dbl)
{
    *n_ints = 4 * k;
    if (nic) {
        *n_dbl = 2 * k + (k + 1) + 2 * (k + 1) * l + p;
    }
    else {
        *n_dbl = 2 * k + (k + 1) + (k + 1) * l + (k + 1) + k;
    }
}

static State *
state_new(int nic, Py_ssize_t k, Py_ssize_t l, Py_ssize_t p)
{
    State *s = PyObject_New(State, &StateType);
    double *d;
    if (s == NULL) {
        return NULL;
    }
    s->nic = nic;
    s->k = k;
    s->l = l;
    s->p = p;
    s->makespan = 0.0;
    state_sizes(nic, k, l, p, &s->n_ints, &s->n_dbl);
    s->ints = zalloc(s->n_ints, sizeof(int));
    s->dbl = zalloc(s->n_dbl, sizeof(double));
    if (s->ints == NULL || s->dbl == NULL) {
        Py_DECREF(s);
        return NULL;
    }
    s->order = s->ints;
    s->mach = s->ints + k;
    s->pos_of = s->ints + 2 * k;
    s->last_consumer = nic ? NULL : s->ints + 3 * k;
    s->producer_floor = nic ? s->ints + 3 * k : NULL;
    d = s->dbl;
    s->start = d;
    d += k;
    s->finish = d;
    d += k;
    s->span_prefix = d;
    d += k + 1;
    s->avail_rows = d;
    d += (k + 1) * l;
    if (nic) {
        s->nic_rows = d;
        d += (k + 1) * l;
        s->arrival = d;
        s->suffix_max = s->avail_at = NULL;
    }
    else {
        s->suffix_max = d;
        d += k + 1;
        s->avail_at = d;
        s->nic_rows = s->arrival = NULL;
    }
    return s;
}

static void
state_dealloc(State *s)
{
    PyMem_Free(s->ints);
    PyMem_Free(s->dbl);
    PyObject_Free(s);
}

static PyObject *
state_makespan(State *s, void *closure)
{
    return PyFloat_FromDouble(s->makespan);
}

static PyObject *
state_order(State *s, void *closure)
{
    return int_list(s->order, s->k);
}

static PyObject *
state_machine_of(State *s, void *closure)
{
    return int_list(s->mach, s->k);
}

static PyObject *
state_pos_of(State *s, void *closure)
{
    return int_list(s->pos_of, s->k);
}

static PyObject *
state_start(State *s, void *closure)
{
    return float_list(s->start, s->k);
}

static PyObject *
state_finish(State *s, void *closure)
{
    return float_list(s->finish, s->k);
}

static PyObject *
state_span_prefix(State *s, void *closure)
{
    return float_list(s->span_prefix, s->k + 1);
}

static PyObject *
int_tuple(const int *v, Py_ssize_t n)
{
    PyObject *lst = int_list(v, n), *out;
    if (lst == NULL) {
        return NULL;
    }
    out = PyList_AsTuple(lst);
    Py_DECREF(lst);
    return out;
}

static PyObject *
float_tuple(const double *v, Py_ssize_t n)
{
    PyObject *lst = float_list(v, n), *out;
    if (lst == NULL) {
        return NULL;
    }
    out = PyList_AsTuple(lst);
    Py_DECREF(lst);
    return out;
}

static PyObject *
state_as_schedule(State *s, PyObject *unused)
{
    PyObject *kw, *args, *out = NULL;
    if (schedule_cls == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "walker module is not bound");
        return NULL;
    }
    kw = Py_BuildValue(
        "{s:N,s:N,s:N,s:N,s:d}",
        "order", int_tuple(s->order, s->k),
        "machine_of", int_tuple(s->mach, s->k),
        "start", float_tuple(s->start, s->k),
        "finish", float_tuple(s->finish, s->k),
        "makespan", s->makespan);
    if (kw == NULL) {
        return NULL;
    }
    args = PyTuple_New(0);
    if (args != NULL) {
        out = PyObject_Call(schedule_cls, args, kw);
        Py_DECREF(args);
    }
    Py_DECREF(kw);
    return out;
}

static PyObject *
state_reduce(State *s, PyObject *unused)
{
    if (restore_fn == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "walker module is not bound");
        return NULL;
    }
    return Py_BuildValue(
        "O(innndy#y#)", restore_fn, s->nic, s->k, s->l, s->p, s->makespan,
        (const char *)s->ints, (Py_ssize_t)(s->n_ints * sizeof(int)),
        (const char *)s->dbl, (Py_ssize_t)(s->n_dbl * sizeof(double)));
}

static PyGetSetDef state_getset[] = {
    {"makespan", (getter)state_makespan, NULL, "makespan of the base string",
     NULL},
    {"order", (getter)state_order, NULL, "base string order (a copy)", NULL},
    {"machine_of", (getter)state_machine_of, NULL,
     "base machine assignment (a copy)", NULL},
    {"pos_of", (getter)state_pos_of, NULL, "base position per task", NULL},
    {"start", (getter)state_start, NULL, "start time per task", NULL},
    {"finish", (getter)state_finish, NULL, "finish time per task", NULL},
    {"span_prefix", (getter)state_span_prefix, NULL,
     "makespan of each prefix [0, p), p = 0..k", NULL},
    {NULL}
};

static PyMethodDef state_methods[] = {
    {"as_schedule", (PyCFunction)state_as_schedule, METH_NOARGS,
     "The fully evaluated base schedule (no re-walk needed)."},
    {"__reduce__", (PyCFunction)state_reduce, METH_NOARGS, NULL},
    {NULL}
};

static PyTypeObject StateType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.schedule._walk.State",
    .tp_doc = "Per-position snapshot of one compiled prepare walk.",
    .tp_basicsize = sizeof(State),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_dealloc = (destructor)state_dealloc,
    .tp_getset = state_getset,
    .tp_methods = state_methods,
};

static int
check_range(const int *v, Py_ssize_t n, long lo, long hi, const char *what)
{
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        if (v[i] < lo || v[i] > hi) {
            PyErr_Format(PyExc_ValueError, "corrupt state: %s[%zd] = %d",
                         what, i, v[i]);
            return -1;
        }
    }
    return 0;
}

/* restore(nic, k, l, p, makespan, ints, dbl): the inverse of __reduce__. */
static PyObject *
walk_restore(PyObject *module, PyObject *args)
{
    int nic;
    Py_ssize_t k, l, p, n_ints, n_dbl, ni, nd;
    double makespan;
    const char *ints, *dbl;
    State *s;
    if (!PyArg_ParseTuple(args, "innndy#y#", &nic, &k, &l, &p, &makespan,
                          &ints, &ni, &dbl, &nd)) {
        return NULL;
    }
    if (k < 0 || l < 1 || p < 0 || k > INT_MAX || l > INT_MAX) {
        PyErr_SetString(PyExc_ValueError, "corrupt state: bad dimensions");
        return NULL;
    }
    state_sizes(nic != 0, k, l, p, &n_ints, &n_dbl);
    if (ni != (Py_ssize_t)(n_ints * sizeof(int))
        || nd != (Py_ssize_t)(n_dbl * sizeof(double))) {
        PyErr_SetString(PyExc_ValueError, "corrupt state: bad buffer sizes");
        return NULL;
    }
    s = state_new(nic != 0, k, l, p);
    if (s == NULL) {
        return NULL;
    }
    memcpy(s->ints, ints, ni);
    memcpy(s->dbl, dbl, nd);
    s->makespan = makespan;
    if (check_range(s->order, k, 0, (long)k - 1, "order") < 0
        || check_range(s->mach, k, 0, (long)l - 1, "machine_of") < 0
        || check_range(s->pos_of, k, 0, (long)k - 1, "pos_of") < 0
        || (nic ? check_range(s->producer_floor, k, 0, (long)k,
                              "producer_floor")
                : check_range(s->last_consumer, k, -1, (long)k - 1,
                              "last_consumer_pos")) < 0) {
        Py_DECREF(s);
        return NULL;
    }
    return (PyObject *)s;
}

/* ------------------------------------------------------------------ */
/* Walker                                                             */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    int nic;
    Py_ssize_t k, l, p;
    Py_buffer e_view, tr_view;
    int have_e, have_tr;
    const double *E;        /* (l, k), row-major */
    const double **pair;    /* l*l Tr rows; shared zero row on diagonal */
    double *zero_row;
    int *in_ptr, *in_prod, *in_item;    /* CSR per consumer */
    /* CSR per producer: nic, the push order given; plain, in_* transposed */
    int *out_ptr, *out_item, *out_cons;
    double *avail0, *nic0;
    /* scratch, used only while no Python code can run */
    double *finish, *avail, *nicf, *arrival;
    int *slots;
    unsigned int *dirty;
    unsigned int epoch;
} Walker;

static void
walker_dealloc(Walker *w)
{
    if (w->have_e) {
        PyBuffer_Release(&w->e_view);
    }
    if (w->have_tr) {
        PyBuffer_Release(&w->tr_view);
    }
    PyMem_Free(w->pair);
    PyMem_Free(w->zero_row);
    PyMem_Free(w->in_ptr);
    PyMem_Free(w->in_prod);
    PyMem_Free(w->in_item);
    PyMem_Free(w->out_ptr);
    PyMem_Free(w->out_item);
    PyMem_Free(w->out_cons);
    PyMem_Free(w->avail0);
    PyMem_Free(w->nic0);
    PyMem_Free(w->finish);
    PyMem_Free(w->avail);
    PyMem_Free(w->nicf);
    PyMem_Free(w->arrival);
    PyMem_Free(w->dirty);
    PyMem_Free(w->slots);
    Py_TYPE(w)->tp_free((PyObject *)w);
}

static int
get_matrix(PyObject *obj, Py_buffer *view, const char *what)
{
    const char *f;
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT)
        < 0) {
        return -1;
    }
    f = view->format;
    if (view->ndim != 2 || view->itemsize != sizeof(double) || f == NULL
        || !(strcmp(f, "d") == 0 || strcmp(f, "<d") == 0
             || strcmp(f, "=d") == 0 || strcmp(f, "@d") == 0)) {
        PyErr_Format(PyExc_TypeError,
                     "%s must be a C-contiguous 2-D float64 array", what);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* Parse per-task edge lists: seq[t] is a sequence of (a, b) pairs with a
 * in [0, a_bound) and b in [0, b_bound); fills a CSR table.  Every level
 * is copied to a tuple (a no-op for tuples), so no __index__ call can
 * resize what is being read. */
static int
read_edges(PyObject *seq, Py_ssize_t k, Py_ssize_t a_bound,
           Py_ssize_t b_bound, int **ptr, int **a_out, int **b_out,
           const char *what)
{
    PyObject *outer = PySequence_Tuple(seq), *rows = NULL;
    Py_ssize_t t, total = 0, e = 0;
    int rc = -1;
    if (outer == NULL) {
        return -1;
    }
    if (PyTuple_GET_SIZE(outer) != k) {
        PyErr_Format(PyExc_ValueError, "%s has %zd rows, expected %zd",
                     what, PyTuple_GET_SIZE(outer), k);
        goto done;
    }
    rows = PyTuple_New(k);
    if (rows == NULL) {
        goto done;
    }
    for (t = 0; t < k; t++) {
        PyObject *row = PySequence_Tuple(PyTuple_GET_ITEM(outer, t));
        if (row == NULL) {
            goto done;
        }
        PyTuple_SET_ITEM(rows, t, row);
        total += PyTuple_GET_SIZE(row);
    }
    if (total > INT_MAX) {
        PyErr_Format(PyExc_ValueError, "%s is too large", what);
        goto done;
    }
    *ptr = zalloc(k + 1, sizeof(int));
    *a_out = zalloc(total, sizeof(int));
    *b_out = zalloc(total, sizeof(int));
    if (*ptr == NULL || *a_out == NULL || *b_out == NULL) {
        goto done;
    }
    for (t = 0; t < k; t++) {
        PyObject *row = PyTuple_GET_ITEM(rows, t);
        Py_ssize_t j;
        (*ptr)[t] = (int)e;
        for (j = 0; j < PyTuple_GET_SIZE(row); j++) {
            PyObject *pair = PySequence_Tuple(PyTuple_GET_ITEM(row, j));
            long a, b;
            int bad;
            if (pair == NULL) {
                goto done;
            }
            bad = PyTuple_GET_SIZE(pair) != 2;
            if (bad) {
                PyErr_Format(PyExc_ValueError, "%s entries must be pairs",
                             what);
            }
            else {
                bad = read_index(PyTuple_GET_ITEM(pair, 0), a_bound, &a,
                                 what, t, PyExc_ValueError) < 0
                      || read_index(PyTuple_GET_ITEM(pair, 1), b_bound, &b,
                                    what, t, PyExc_ValueError) < 0;
            }
            Py_DECREF(pair);
            if (bad) {
                goto done;
            }
            (*a_out)[e] = (int)a;
            (*b_out)[e] = (int)b;
            e++;
        }
    }
    (*ptr)[k] = (int)e;
    rc = 0;
done:
    Py_XDECREF(rows);
    Py_DECREF(outer);
    return rc;
}

/* The (item, consumer) pairs of each producer: in_* transposed into
 * out_* (the contention-free network's successor table). */
static int
transpose_edges(Walker *w)
{
    const Py_ssize_t k = w->k;
    const int total = w->in_ptr[k];
    int *fill = zalloc(k, sizeof(int));
    Py_ssize_t t;
    int e;
    w->out_ptr = zalloc(k + 1, sizeof(int));
    w->out_item = zalloc(total, sizeof(int));
    w->out_cons = zalloc(total, sizeof(int));
    if (w->out_ptr == NULL || w->out_item == NULL || w->out_cons == NULL
        || fill == NULL) {
        PyMem_Free(fill);
        return -1;
    }
    for (e = 0; e < total; e++) {
        w->out_ptr[w->in_prod[e] + 1]++;
    }
    for (t = 0; t < k; t++) {
        w->out_ptr[t + 1] += w->out_ptr[t];
    }
    for (t = 0; t < k; t++) {
        for (e = w->in_ptr[t]; e < w->in_ptr[t + 1]; e++) {
            const int prod = w->in_prod[e];
            const int slot = w->out_ptr[prod] + fill[prod]++;
            w->out_item[slot] = w->in_item[e];
            w->out_cons[slot] = (int)t;
        }
    }
    PyMem_Free(fill);
    return 0;
}

/* Walker(E, Tr, in_edges, out_edges, avail0, nic0)
 *
 * E: (l, k) float64; Tr: (l(l-1)/2, p) float64; in_edges[t]: (producer,
 * item) pairs; out_edges[t]: (item, consumer) pairs in push order, or
 * None for the contention-free network (nic0 is then None too). */
static int
walker_init(Walker *w, PyObject *args, PyObject *kwds)
{
    PyObject *E, *Tr, *in_edges, *out_edges, *avail0, *nic0;
    Py_ssize_t k, l, p, a, b;
    static char *kwlist[] = {"E", "Tr", "in_edges", "out_edges", "avail0",
                             "nic0", NULL};
    if (w->have_e || w->have_tr) {
        PyErr_SetString(PyExc_RuntimeError, "Walker is already initialised");
        return -1;
    }
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOOOO", kwlist, &E, &Tr,
                                     &in_edges, &out_edges, &avail0, &nic0)) {
        return -1;
    }
    w->nic = out_edges != Py_None;
    if (w->nic != (nic0 != Py_None)) {
        PyErr_SetString(PyExc_ValueError,
                        "out_edges and nic0 must both be given or both None");
        return -1;
    }
    if (get_matrix(E, &w->e_view, "E") < 0) {
        return -1;
    }
    w->have_e = 1;
    if (get_matrix(Tr, &w->tr_view, "Tr") < 0) {
        return -1;
    }
    w->have_tr = 1;
    l = w->e_view.shape[0];
    k = w->e_view.shape[1];
    p = w->tr_view.shape[1];
    if (l < 1 || l > 65535 || k > INT_MAX || p > INT_MAX) {
        PyErr_SetString(PyExc_ValueError, "unsupported workload dimensions");
        return -1;
    }
    if (w->tr_view.shape[0] != l * (l - 1) / 2) {
        PyErr_Format(PyExc_ValueError,
                     "Tr has %zd rows, expected %zd for %zd machines",
                     w->tr_view.shape[0], l * (l - 1) / 2, l);
        return -1;
    }
    w->k = k;
    w->l = l;
    w->p = p;
    w->E = (const double *)w->e_view.buf;
    w->zero_row = zalloc(p, sizeof(double));
    w->pair = zalloc(l * l, sizeof(double *));
    if (w->zero_row == NULL || w->pair == NULL) {
        return -1;
    }
    for (a = 0; a < l; a++) {
        w->pair[a * l + a] = w->zero_row;
        for (b = a + 1; b < l; b++) {
            Py_ssize_t row = a * l - a * (a + 1) / 2 + (b - a - 1);
            const double *r = (const double *)w->tr_view.buf + row * p;
            w->pair[a * l + b] = w->pair[b * l + a] = r;
        }
    }
    if (read_edges(in_edges, k, k, p, &w->in_ptr, &w->in_prod, &w->in_item,
                   "in_edges") < 0) {
        return -1;
    }
    w->avail0 = zalloc(l, sizeof(double));
    w->finish = zalloc(k, sizeof(double));
    w->avail = zalloc(l, sizeof(double));
    w->dirty = zalloc(k, sizeof(unsigned int));
    if (w->avail0 == NULL || w->finish == NULL || w->avail == NULL
        || w->dirty == NULL) {
        return -1;
    }
    if (read_floats(avail0, w->avail0, l, "avail0") < 0) {
        return -1;
    }
    if (w->nic) {
        if (read_edges(out_edges, k, p, k, &w->out_ptr, &w->out_item,
                       &w->out_cons, "out_edges") < 0) {
            return -1;
        }
        w->nic0 = zalloc(l, sizeof(double));
        w->nicf = zalloc(l, sizeof(double));
        w->arrival = zalloc(p, sizeof(double));
        if (w->nic0 == NULL || w->nicf == NULL || w->arrival == NULL) {
            return -1;
        }
        if (read_floats(nic0, w->nic0, l, "nic0") < 0) {
            return -1;
        }
    }
    else if (transpose_edges(w) < 0) {
        return -1;
    }
    /* allocated last: walker_ready reads it as "fully initialised" */
    w->slots = zalloc(k, sizeof(int));
    return w->slots == NULL ? -1 : 0;
}

static int
walker_ready(Walker *w)
{
    if (w->slots == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "Walker is not initialised");
        return 0;
    }
    return 1;
}

/* ---- contention-free walks ---------------------------------------- */

/* Full walk; with st != NULL, snapshot every position into it. */
static int
plain_walk(Walker *w, const int *order, const int *mach, State *st,
           double *span_out)
{
    const Py_ssize_t k = w->k, l = w->l;
    const double *E = w->E;
    const double **pair = w->pair;
    double *finish = st ? st->finish : w->finish;
    double *avail = w->avail;
    double span = 0.0;
    Py_ssize_t q, i;

    for (i = 0; i < k; i++) {
        finish[i] = -1.0;
    }
    memcpy(avail, w->avail0, l * sizeof(double));
    if (st) {
        memcpy(st->avail_rows, avail, l * sizeof(double));
        st->span_prefix[0] = 0.0;
    }
    for (q = 0; q < k; q++) {
        const int task = order[q];
        const int m = mach[task];
        const double **to_m = pair + (Py_ssize_t)m * l;
        double ready = avail[m], fin;
        int e;
        for (e = w->in_ptr[task]; e < w->in_ptr[task + 1]; e++) {
            const int prod = w->in_prod[e];
            double pf = finish[prod];
            if (pf < 0.0) {
                raise_invalid(task, prod);
                return -1;
            }
            pf += to_m[mach[prod]][w->in_item[e]];
            if (pf > ready) {
                ready = pf;
            }
        }
        fin = ready + E[(Py_ssize_t)m * k + task];
        finish[task] = fin;
        avail[m] = fin;
        if (fin > span) {
            span = fin;
        }
        if (st) {
            st->start[task] = ready;
            memcpy(st->avail_rows + (q + 1) * l, avail, l * sizeof(double));
            st->span_prefix[q + 1] = span;
        }
    }
    *span_out = span;
    return 0;
}

static void
plain_snapshot_tail(Walker *w, State *st)
{
    const Py_ssize_t k = w->k, l = w->l;
    double running = 0.0;
    Py_ssize_t q, t;
    int e;
    st->suffix_max[k] = 0.0;
    for (q = k - 1; q >= 0; q--) {
        const double fv = st->finish[st->order[q]];
        if (fv > running) {
            running = fv;
        }
        st->suffix_max[q] = running;
    }
    for (t = 0; t < k; t++) {
        st->last_consumer[t] = -1;
    }
    for (q = 0; q < k; q++) {
        const int task = st->order[q];
        for (e = w->in_ptr[task]; e < w->in_ptr[task + 1]; e++) {
            const int prod = w->in_prod[e];
            if (q > st->last_consumer[prod]) {
                st->last_consumer[prod] = (int)q;
            }
        }
    }
    for (t = 0; t < k; t++) {
        st->avail_at[t] = st->avail_rows[st->pos_of[t] * l + st->mach[t]];
    }
}

static double
plain_delta(Walker *w, const int *order, const int *mach, Py_ssize_t f,
            State *st, double cutoff, Py_ssize_t frontier)
{
    const Py_ssize_t k = w->k, l = w->l;
    const double *E = w->E;
    const double **pair = w->pair;
    const double *base_finish = st->finish;
    const int *base_mach = st->mach;
    const double *base_avail_at = st->avail_at;
    const double *avail_rows = st->avail_rows;
    const double *suffix_max = st->suffix_max;
    const int *last_consumer = st->last_consumer;
    double *finish = w->finish, *avail = w->avail;
    unsigned int *dirty = w->dirty;
    unsigned int epoch;
    double span;
    Py_ssize_t q, i;

    memcpy(finish, base_finish, k * sizeof(double));
    memcpy(avail, avail_rows + f * l, l * sizeof(double));
    span = st->span_prefix[f];
    if (span >= cutoff) {
        return INFINITY;
    }
    if (++w->epoch == 0) {  /* wrapped: clear every stale flag */
        memset(dirty, 0, k * sizeof(unsigned int));
        w->epoch = 1;
    }
    epoch = w->epoch;

    for (q = f; q < k; q++) {
        int task, m, e;
        double ready, fin;
        if (q > frontier) {
            const double *row = avail_rows + q * l;
            for (i = 0; i < l && avail[i] == row[i]; i++) {
            }
            if (i == l) {
                const double rest = suffix_max[q];
                const double total = span > rest ? span : rest;
                return total < cutoff ? total : INFINITY;
            }
        }
        task = order[q];
        m = mach[task];
        if (m == base_mach[task] && avail[m] == base_avail_at[task]) {
            for (e = w->in_ptr[task]; e < w->in_ptr[task + 1]; e++) {
                if (dirty[w->in_prod[e]] == epoch) {
                    break;
                }
            }
            if (e == w->in_ptr[task + 1]) {
                fin = base_finish[task];
                avail[m] = fin;
                if (fin > span) {
                    span = fin;
                    if (span >= cutoff) {
                        return INFINITY;
                    }
                }
                continue;
            }
        }
        {
            const double **to_m = pair + (Py_ssize_t)m * l;
            ready = avail[m];
            for (e = w->in_ptr[task]; e < w->in_ptr[task + 1]; e++) {
                const int prod = w->in_prod[e];
                const double pf =
                    finish[prod] + to_m[mach[prod]][w->in_item[e]];
                if (pf > ready) {
                    ready = pf;
                }
            }
        }
        fin = ready + E[(Py_ssize_t)m * k + task];
        finish[task] = fin;
        avail[m] = fin;
        if (fin > span) {
            span = fin;
            if (span >= cutoff) {
                return INFINITY;
            }
        }
        if (fin != base_finish[task] || m != base_mach[task]) {
            const Py_ssize_t bound = (Py_ssize_t)last_consumer[task] + 1;
            dirty[task] = epoch;
            if (bound > frontier) {
                frontier = bound;
            }
        }
    }
    return span;
}

/* ---- NIC walks ----------------------------------------------------- */

static int
nic_walk(Walker *w, const int *order, const int *mach, State *st,
         double *span_out)
{
    const Py_ssize_t k = w->k, l = w->l, p = w->p;
    const double *E = w->E;
    const double **pair = w->pair;
    double *finish = st ? st->finish : w->finish;
    double *arrival = st ? st->arrival : w->arrival;
    double *avail = w->avail, *nicf = w->nicf;
    double span = 0.0;
    Py_ssize_t q, i;

    for (i = 0; i < k; i++) {
        finish[i] = -1.0;
    }
    for (i = 0; i < p; i++) {
        arrival[i] = 0.0;
    }
    memcpy(avail, w->avail0, l * sizeof(double));
    memcpy(nicf, w->nic0, l * sizeof(double));
    if (st) {
        memcpy(st->avail_rows, avail, l * sizeof(double));
        memcpy(st->nic_rows, nicf, l * sizeof(double));
        st->span_prefix[0] = 0.0;
    }
    for (q = 0; q < k; q++) {
        const int task = order[q];
        const int m = mach[task];
        const double **from_m = pair + (Py_ssize_t)m * l;
        double ready = avail[m], fin, nf;
        int e;
        for (e = w->in_ptr[task]; e < w->in_ptr[task + 1]; e++) {
            const int prod = w->in_prod[e];
            const double pf = finish[prod];
            double t_arr;
            if (pf < 0.0) {
                raise_invalid(task, prod);
                return -1;
            }
            t_arr = mach[prod] == m ? pf : arrival[w->in_item[e]];
            if (t_arr > ready) {
                ready = t_arr;
            }
        }
        fin = ready + E[(Py_ssize_t)m * k + task];
        finish[task] = fin;
        avail[m] = fin;
        if (fin > span) {
            span = fin;
        }
        nf = nicf[m];
        for (e = w->out_ptr[task]; e < w->out_ptr[task + 1]; e++) {
            const int item = w->out_item[e];
            const int dst = mach[w->out_cons[e]];
            double t_start;
            if (dst == m) {
                continue;
            }
            t_start = fin > nf ? fin : nf;
            nf = t_start + from_m[dst][item];
            arrival[item] = nf;
        }
        nicf[m] = nf;
        if (st) {
            st->start[task] = ready;
            memcpy(st->avail_rows + (q + 1) * l, avail, l * sizeof(double));
            memcpy(st->nic_rows + (q + 1) * l, nicf, l * sizeof(double));
            st->span_prefix[q + 1] = span;
        }
    }
    *span_out = span;
    return 0;
}

static void
nic_snapshot_tail(Walker *w, State *st)
{
    const Py_ssize_t k = w->k;
    Py_ssize_t t;
    int e;
    for (t = 0; t < k; t++) {
        int floor = (int)k;
        for (e = w->in_ptr[t]; e < w->in_ptr[t + 1]; e++) {
            const int q = st->pos_of[w->in_prod[e]];
            if (q < floor) {
                floor = q;
            }
        }
        st->producer_floor[t] = floor;
    }
}

/* Re-walk from position f, which must be at or before the restart floor
 * of every machine reassignment (see nic_delta). */
static double
nic_resume(Walker *w, const int *order, const int *mach, Py_ssize_t f,
           State *st, double cutoff)
{
    const Py_ssize_t k = w->k, l = w->l, p = w->p;
    const double *E = w->E;
    const double **pair = w->pair;
    double *finish = w->finish, *arrival = w->arrival;
    double *avail = w->avail, *nicf = w->nicf;
    Py_ssize_t q;
    double span;

    memcpy(finish, st->finish, k * sizeof(double));
    memcpy(arrival, st->arrival, p * sizeof(double));
    memcpy(avail, st->avail_rows + f * l, l * sizeof(double));
    memcpy(nicf, st->nic_rows + f * l, l * sizeof(double));
    span = st->span_prefix[f];
    if (span >= cutoff) {
        return INFINITY;
    }
    for (q = f; q < k; q++) {
        const int task = order[q];
        const int m = mach[task];
        const double **from_m = pair + (Py_ssize_t)m * l;
        double ready = avail[m], fin, nf;
        int e;
        for (e = w->in_ptr[task]; e < w->in_ptr[task + 1]; e++) {
            const int prod = w->in_prod[e];
            const double t_arr =
                mach[prod] == m ? finish[prod] : arrival[w->in_item[e]];
            if (t_arr > ready) {
                ready = t_arr;
            }
        }
        fin = ready + E[(Py_ssize_t)m * k + task];
        finish[task] = fin;
        avail[m] = fin;
        if (fin > span) {
            span = fin;
            if (span >= cutoff) {
                return INFINITY;
            }
        }
        nf = nicf[m];
        for (e = w->out_ptr[task]; e < w->out_ptr[task + 1]; e++) {
            const int item = w->out_item[e];
            const int dst = mach[w->out_cons[e]];
            double t_start;
            if (dst == m) {
                continue;
            }
            t_start = fin > nf ? fin : nf;
            nf = t_start + from_m[dst][item];
            arrival[item] = nf;
        }
        nicf[m] = nf;
    }
    return span;
}

static double
nic_delta(Walker *w, const int *order, const int *mach, Py_ssize_t f,
          State *st, double cutoff)
{
    Py_ssize_t t;
    /* machine reassignments can dirty prefix producers' NICs; restart
     * early enough to replay every affected push */
    for (t = 0; t < w->k; t++) {
        if (mach[t] != st->mach[t] && st->producer_floor[t] < f) {
            f = st->producer_floor[t];
        }
    }
    return nic_resume(w, order, mach, f, st, cutoff);
}

/* ---- placement (the SE allocation step) ---------------------------- */

/* Inclusive insertion-index window of `task` in the state's base string:
 * one past its last producer, up to its first consumer, both counted in
 * the string without `task` (repro.schedule.valid_range.
 * valid_insertion_range).  An empty window (only possible for a state
 * whose string breaks a dependency) raises InvalidScheduleError, so
 * every slot lies in [0, k). */
static int
place_window(const Walker *w, const State *st, int task, Py_ssize_t *lo_out,
             Py_ssize_t *hi_out)
{
    const int own = st->pos_of[task];
    Py_ssize_t lo = 0, hi = w->k - 1;
    int e;
    for (e = w->in_ptr[task]; e < w->in_ptr[task + 1]; e++) {
        int pos = st->pos_of[w->in_prod[e]];
        if (pos > own) {
            pos--;
        }
        if (pos + 1 > lo) {
            lo = pos + 1;
        }
    }
    for (e = w->out_ptr[task]; e < w->out_ptr[task + 1]; e++) {
        int pos = st->pos_of[w->out_cons[e]];
        if (pos > own) {
            pos--;
        }
        if (pos < hi) {
            hi = pos;
        }
    }
    if (lo > hi) {
        PyErr_Format(INVALID_ERROR, "subtask %d has no valid insertion "
                     "index in the state's string", task);
        return -1;
    }
    *lo_out = lo;
    *hi_out = hi;
    return 0;
}

/* The insertion indices probed for `task` on machine m, into out[] (at
 * most k): every index of its window [lo, hi], or one per distinct
 * per-machine order -- the window start and the index after each subtask
 * of m inside it (repro.schedule.valid_range.machine_slot_indices). */
static Py_ssize_t
place_slots(const State *st, int task, int m, Py_ssize_t lo, Py_ssize_t hi,
            int all_positions, int *out)
{
    const Py_ssize_t own = st->pos_of[task];
    Py_ssize_t idx, n = 0;
    if (all_positions) {
        for (idx = lo; idx <= hi; idx++) {
            out[n++] = (int)idx;
        }
        return n;
    }
    out[n++] = (int)lo;
    for (idx = lo; idx < hi; idx++) {
        if (st->mach[st->order[idx < own ? idx : idx + 1]] == m) {
            out[n++] = (int)(idx + 1);
        }
    }
    return n;
}

/* Move the subtask at position `from` of order[] to position `to`. */
static void
shift_task(int *order, Py_ssize_t from, Py_ssize_t to)
{
    const int task = order[from];
    if (to > from) {
        memmove(order + from, order + from + 1, (to - from) * sizeof(int));
    }
    else if (to < from) {
        memmove(order + to + 1, order + to, (from - to) * sizeof(int));
    }
    order[to] = task;
}

/* ---- Python entry points ------------------------------------------- */

static PyObject *
walker_makespan(Walker *w, PyObject *const *args, Py_ssize_t nargs)
{
    Inputs in;
    double span;
    int rc;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "makespan(order, machine_of) takes 2 arguments");
        return NULL;
    }
    if (!walker_ready(w) || read_inputs(&in, args[0], args[1], w->k, w->l)
                                < 0) {
        return NULL;
    }
    rc = w->nic ? nic_walk(w, in.order, in.mach, NULL, &span)
                : plain_walk(w, in.order, in.mach, NULL, &span);
    free_inputs(&in);
    return rc < 0 ? NULL : PyFloat_FromDouble(span);
}

static PyObject *
walker_prepare(Walker *w, PyObject *const *args, Py_ssize_t nargs)
{
    Inputs in;
    State *st;
    Py_ssize_t q;
    int rc;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "prepare(order, machine_of) takes 2 arguments");
        return NULL;
    }
    if (!walker_ready(w) || read_inputs(&in, args[0], args[1], w->k, w->l)
                                < 0) {
        return NULL;
    }
    st = state_new(w->nic, w->k, w->l, w->p);
    if (st == NULL) {
        free_inputs(&in);
        return NULL;
    }
    memcpy(st->order, in.order, w->k * sizeof(int));
    memcpy(st->mach, in.mach, w->k * sizeof(int));
    free_inputs(&in);
    rc = w->nic ? nic_walk(w, st->order, st->mach, st, &st->makespan)
                : plain_walk(w, st->order, st->mach, st, &st->makespan);
    if (rc < 0) {
        Py_DECREF(st);
        return NULL;
    }
    for (q = 0; q < w->k; q++) {
        st->pos_of[st->order[q]] = (int)q;
    }
    if (w->nic) {
        nic_snapshot_tail(w, st);
    }
    else {
        plain_snapshot_tail(w, st);
    }
    return (PyObject *)st;
}

/* `obj` as a State this walker can resume from, else NULL with
 * TypeError (not a compiled state) or ValueError (another network or
 * workload shape). */
static State *
as_state(Walker *w, PyObject *obj)
{
    State *st;
    if (Py_TYPE(obj) != &StateType) {
        PyErr_Format(PyExc_TypeError,
                     "state must come from a compiled prepare, got %s",
                     Py_TYPE(obj)->tp_name);
        return NULL;
    }
    st = (State *)obj;
    if (st->nic != w->nic || st->k != w->k || st->l != w->l
        || st->p != w->p) {
        PyErr_SetString(PyExc_ValueError,
                        "state was prepared for another network or "
                        "workload shape");
        return NULL;
    }
    return st;
}

/* evaluate_delta(order, machine_of, first_changed, state, cutoff,
 *                region_end) -- all six positional */
static PyObject *
walker_evaluate_delta(Walker *w, PyObject *const *args, Py_ssize_t nargs)
{
    Inputs in;
    State *st;
    Py_ssize_t f, frontier;
    double cutoff, span;
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "evaluate_delta(order, machine_of, first_changed, "
                        "state, cutoff, region_end) takes 6 arguments");
        return NULL;
    }
    if (!walker_ready(w) || (st = as_state(w, args[3])) == NULL) {
        return NULL;
    }
    f = PyNumber_AsSsize_t(args[2], NULL);  /* clamps huge values */
    if (f == -1 && PyErr_Occurred()) {
        return NULL;
    }
    cutoff = PyFloat_AsDouble(args[4]);
    if (cutoff == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    if (args[5] == Py_None) {
        frontier = w->k;
    }
    else {
        frontier = PyNumber_AsSsize_t(args[5], NULL);
        if (frontier == -1 && PyErr_Occurred()) {
            return NULL;
        }
    }
    if (read_inputs(&in, args[0], args[1], w->k, w->l) < 0) {
        return NULL;
    }
    if (f < 0) {
        f = 0;
    }
    if (f >= w->k) {
        span = st->makespan < cutoff ? st->makespan : INFINITY;
    }
    else if (w->nic) {
        span = nic_delta(w, in.order, in.mach, f, st, cutoff);
    }
    else {
        span = plain_delta(w, in.order, in.mach, f, st, cutoff, frontier);
    }
    free_inputs(&in);
    return PyFloat_FromDouble(span);
}

/* The state and task of a place / slots call. */
static State *
place_args(Walker *w, PyObject *state, PyObject *task_obj, long *task)
{
    State *st;
    if (!walker_ready(w) || (st = as_state(w, state)) == NULL
        || read_index(task_obj, w->k, task, "task", -1, PyExc_ValueError)
               < 0) {
        return NULL;
    }
    return st;
}

/* The candidate machines as a PyMem block of *n ids (caller frees). */
static int *
read_candidates(Walker *w, PyObject *candidates, Py_ssize_t *n)
{
    int *cand;
    PyObject *fast = PySequence_Fast(
        candidates, "candidates must be a sequence of machine ids");
    if (fast == NULL) {
        return NULL;
    }
    *n = PySequence_Fast_GET_SIZE(fast);
    cand = zalloc(*n, sizeof(int));
    if (cand != NULL
        && read_ids(fast, cand, *n, w->l, "candidates", NULL) < 0) {
        PyMem_Free(cand);
        cand = NULL;
    }
    Py_DECREF(fast);
    return cand;
}

/* place(state, order, machine_of, task, candidates, all_positions)
 *   -> (best_cost, best_index, best_machine, probes)
 *
 * The SE allocation step for one subtask, as repro.schedule.valid_range.
 * place_by_probes specifies it: for each candidate machine in the given
 * order and each of its slots (place_slots), relocate the task in a
 * private copy of the string, score it against the state with the
 * running best as cutoff, and revert.  Only a strictly better probe
 * replaces the best, so of equal placements the first stands.
 * (order, machine_of) must be the string `state` was prepared from. */
static PyObject *
walker_place(Walker *w, PyObject *const *args, Py_ssize_t nargs)
{
    Inputs in;
    State *st;
    PyObject *out = NULL;
    long task;
    int *cand = NULL;
    Py_ssize_t n_cand, c, own, lo, hi;
    int all_positions, orig_m, best_m;
    Py_ssize_t best_idx;
    long probes = 0;
    double best = INFINITY;
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "place(state, order, machine_of, task, candidates, "
                        "all_positions) takes 6 arguments");
        return NULL;
    }
    st = place_args(w, args[0], args[3], &task);
    if (st == NULL
        || (cand = read_candidates(w, args[4], &n_cand)) == NULL) {
        return NULL;
    }
    all_positions = PyObject_IsTrue(args[5]);
    if (all_positions < 0
        || read_inputs(&in, args[1], args[2], w->k, w->l) < 0) {
        PyMem_Free(cand);
        return NULL;
    }
    if (memcmp(in.order, st->order, w->k * sizeof(int)) != 0
        || memcmp(in.mach, st->mach, w->k * sizeof(int)) != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "order / machine_of are not the string the state "
                        "was prepared from");
        goto done;
    }
    if (place_window(w, st, (int)task, &lo, &hi) < 0) {
        goto done;
    }
    /* no Python code runs from here on */
    own = st->pos_of[task];
    orig_m = st->mach[task];
    best_idx = own;
    best_m = orig_m;
    for (c = 0; c < n_cand; c++) {
        const int m = cand[c];
        const Py_ssize_t n = place_slots(st, (int)task, m, lo, hi,
                                         all_positions, w->slots);
        Py_ssize_t i;
        in.mach[task] = m;
        for (i = 0; i < n; i++) {
            const Py_ssize_t idx = w->slots[i];
            const Py_ssize_t first = idx < own ? idx : own;
            const Py_ssize_t last = idx < own ? own : idx;
            double cost;
            shift_task(in.order, own, idx);
            if (w->nic) {
                /* only `task` changed machine: its producers bound the
                 * restart (nic_delta's scan, in O(1)) */
                const Py_ssize_t floor = st->producer_floor[task];
                cost = nic_resume(w, in.order, in.mach,
                                  m != orig_m && floor < first ? floor
                                                               : first,
                                  st, best);
            }
            else {
                cost = plain_delta(w, in.order, in.mach, first, st, best,
                                   last);
            }
            probes++;
            if (cost < best) {
                best = cost;
                best_idx = idx;
                best_m = m;
            }
            shift_task(in.order, idx, own);
        }
    }
    out = Py_BuildValue("(dnil)", best, best_idx, best_m, probes);
done:
    free_inputs(&in);
    PyMem_Free(cand);
    return out;
}

/* slots(state, task, machine, all_positions) -> list of the insertion
 * indices `place` probes for `task` on `machine` */
static PyObject *
walker_slots(Walker *w, PyObject *const *args, Py_ssize_t nargs)
{
    State *st;
    long task, machine;
    int all_positions;
    Py_ssize_t lo, hi;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "slots(state, task, machine, all_positions) takes "
                        "4 arguments");
        return NULL;
    }
    st = place_args(w, args[0], args[1], &task);
    if (st == NULL
        || read_index(args[2], w->l, &machine, "machine", -1,
                      PyExc_ValueError) < 0
        || (all_positions = PyObject_IsTrue(args[3])) < 0
        || place_window(w, st, (int)task, &lo, &hi) < 0) {
        return NULL;
    }
    return int_list(w->slots, place_slots(st, (int)task, (int)machine, lo,
                                          hi, all_positions, w->slots));
}

/* ---- neighbourhood selection (the tabu step) ------------------------ */

enum { MOVE_REORDER, MOVE_REASSIGN };

/* One (kind, task, target) move of a score_moves call into out[0..2],
 * checked as repro.optim.tabu.check_moves checks it: an unknown kind, a
 * task or machine out of range (ValueError), an insertion index out of
 * range (IndexError) or outside the task's valid window in the state's
 * string (InvalidScheduleError). */
static int
read_move(Walker *w, const State *st, PyObject *move, Py_ssize_t i,
          int *out)
{
    PyObject *kind;
    long task, target;
    Py_ssize_t lo, hi;
    if (!PyTuple_Check(move) || PyTuple_GET_SIZE(move) != 3) {
        PyErr_Format(PyExc_TypeError,
                     "moves[%zd] must be a (kind, task, target) tuple", i);
        return -1;
    }
    kind = PyTuple_GET_ITEM(move, 0);
    if (PyUnicode_Check(kind)
        && PyUnicode_CompareWithASCIIString(kind, "reorder") == 0) {
        out[0] = MOVE_REORDER;
    }
    else if (PyUnicode_Check(kind)
             && PyUnicode_CompareWithASCIIString(kind, "reassign") == 0) {
        out[0] = MOVE_REASSIGN;
    }
    else {
        PyErr_Format(PyExc_ValueError, "unknown move kind %R", kind);
        return -1;
    }
    if (read_index(PyTuple_GET_ITEM(move, 1), w->k, &task, "task", -1,
                   PyExc_ValueError) < 0) {
        return -1;
    }
    if (out[0] == MOVE_REASSIGN) {
        if (read_index(PyTuple_GET_ITEM(move, 2), w->l, &target, "machine",
                       -1, PyExc_ValueError) < 0) {
            return -1;
        }
    }
    else {
        if (read_index(PyTuple_GET_ITEM(move, 2), w->k, &target,
                       "insertion index", -1, PyExc_IndexError) < 0
            || place_window(w, st, (int)task, &lo, &hi) < 0) {
            return -1;
        }
        if (target < lo || target > hi) {
            PyErr_Format(INVALID_ERROR,
                         "insertion index %ld for subtask %ld outside its "
                         "valid range [%zd, %zd]", target, task, lo, hi);
            return -1;
        }
    }
    out[1] = (int)task;
    out[2] = (int)target;
    return 0;
}

/* score_moves(state, order, machine_of, moves, tabu, best_known)
 *   -> (cost, index, admissible)
 *
 * Tabu's selection rule over one neighbourhood, as repro.optim.tabu.
 * select_move specifies it over per-candidate deltas: each move, in
 * order, is applied to a private copy of the string, scored from its
 * changed region against the state under the cutoff select_move hands
 * that candidate, and reverted; then the best admissible candidate (or,
 * with none, the best overall) is kept by strict `<`.  (order,
 * machine_of) must be the string `state` was prepared from. */
static PyObject *
walker_score_moves(Walker *w, PyObject *const *args, Py_ssize_t nargs)
{
    Inputs in;
    State *st;
    PyObject *moves = NULL, *tabu = NULL, *out = NULL;
    int *mv = NULL;
    unsigned char *is_tabu;
    Py_ssize_t n, i, chosen = -1, fallback = -1, admissible = 0;
    double best_known, chosen_cost = INFINITY, fallback_cost = INFINITY;
    int all_tabu = 1;
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "score_moves(state, order, machine_of, moves, tabu, "
                        "best_known) takes 6 arguments");
        return NULL;
    }
    if (!walker_ready(w) || (st = as_state(w, args[0])) == NULL) {
        return NULL;
    }
    best_known = PyFloat_AsDouble(args[5]);
    if ((best_known == -1.0 && PyErr_Occurred())
        || read_inputs(&in, args[1], args[2], w->k, w->l) < 0) {
        return NULL;
    }
    if (memcmp(in.order, st->order, w->k * sizeof(int)) != 0
        || memcmp(in.mach, st->mach, w->k * sizeof(int)) != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "order / machine_of are not the string the state "
                        "was prepared from");
        goto done;
    }
    /* tuple copies: no __index__ / __bool__ can resize what is read */
    if ((moves = PySequence_Tuple(args[3])) == NULL
        || (tabu = PySequence_Tuple(args[4])) == NULL) {
        goto done;
    }
    n = PyTuple_GET_SIZE(moves);
    if (n == 0) {
        PyErr_SetString(PyExc_ValueError, "moves is empty");
        goto done;
    }
    if (PyTuple_GET_SIZE(tabu) != n) {
        PyErr_Format(PyExc_ValueError,
                     "tabu has %zd flags for %zd moves",
                     PyTuple_GET_SIZE(tabu), n);
        goto done;
    }
    /* 3 ints per move, then n flags */
    if ((mv = zalloc(4 * n, sizeof(int))) == NULL) {
        goto done;
    }
    is_tabu = (unsigned char *)(mv + 3 * n);
    for (i = 0; i < n; i++) {
        if (read_move(w, st, PyTuple_GET_ITEM(moves, i), i, mv + 3 * i) < 0) {
            goto done;
        }
    }
    for (i = 0; i < n; i++) {
        const int flag = PyObject_IsTrue(PyTuple_GET_ITEM(tabu, i));
        if (flag < 0) {
            goto done;
        }
        is_tabu[i] = (unsigned char)flag;
        all_tabu &= flag;
    }
    /* no Python code runs from here on */
    for (i = 0; i < n; i++) {
        const int task = mv[3 * i + 1], target = mv[3 * i + 2];
        const Py_ssize_t own = st->pos_of[task];
        const int orig_m = st->mach[task];
        Py_ssize_t first = own, last = own;
        double cutoff, cost;
        if (!is_tabu[i]) {
            cutoff = chosen_cost;  /* inf while none is admissible */
        }
        else if (!all_tabu) {
            cutoff = best_known;
        }
        else if (fallback < 0) {
            cutoff = INFINITY;
        }
        else {  /* max(best_known, fallback_cost), keeping best_known on ties */
            cutoff = fallback_cost > best_known ? fallback_cost : best_known;
        }
        if (mv[3 * i] == MOVE_REORDER) {
            shift_task(in.order, own, target);
            if (target < own) {
                first = target;
            }
            else {
                last = target;
            }
        }
        else {
            in.mach[task] = target;
        }
        if (w->nic) {
            /* only `task` may change machine: its producers bound the
             * restart (nic_delta's scan, in O(1)) */
            const Py_ssize_t floor = st->producer_floor[task];
            cost = nic_resume(w, in.order, in.mach,
                              in.mach[task] != orig_m && floor < first
                                  ? floor
                                  : first,
                              st, cutoff);
        }
        else {
            cost = plain_delta(w, in.order, in.mach, first, st, cutoff, last);
        }
        if (mv[3 * i] == MOVE_REORDER) {
            shift_task(in.order, target, own);
        }
        else {
            in.mach[task] = orig_m;
        }
        if (fallback < 0 || cost < fallback_cost) {
            fallback_cost = cost;
            fallback = i;
        }
        if (is_tabu[i] && !(cost < best_known)) {  /* no aspiration */
            continue;
        }
        admissible++;
        if (chosen < 0 || cost < chosen_cost) {
            chosen_cost = cost;
            chosen = i;
        }
    }
    if (chosen < 0) {
        chosen_cost = fallback_cost;
        chosen = fallback;
    }
    out = Py_BuildValue("(dnn)", chosen_cost, chosen, admissible);
done:
    free_inputs(&in);
    Py_XDECREF(moves);
    Py_XDECREF(tabu);
    PyMem_Free(mv);
    return out;
}

static PyObject *
walker_get_nic(Walker *w, void *closure)
{
    return PyBool_FromLong(w->nic);
}

static PyGetSetDef walker_getset[] = {
    {"nic", (getter)walker_get_nic, NULL,
     "True for the NIC-serialisation network", NULL},
    {NULL}
};

static PyMethodDef walker_methods[] = {
    {"makespan", (PyCFunction)(void (*)(void))walker_makespan,
     METH_FASTCALL, "makespan(order, machine_of) -> float"},
    {"prepare", (PyCFunction)(void (*)(void))walker_prepare, METH_FASTCALL,
     "prepare(order, machine_of) -> State"},
    {"evaluate_delta", (PyCFunction)(void (*)(void))walker_evaluate_delta,
     METH_FASTCALL,
     "evaluate_delta(order, machine_of, first_changed, state, cutoff, "
     "region_end) -> float"},
    {"place", (PyCFunction)(void (*)(void))walker_place, METH_FASTCALL,
     "place(state, order, machine_of, task, candidates, all_positions) -> "
     "(best_cost, best_index, best_machine, probes)"},
    {"slots", (PyCFunction)(void (*)(void))walker_slots, METH_FASTCALL,
     "slots(state, task, machine, all_positions) -> the insertion indices "
     "place probes for task on machine"},
    {"score_moves", (PyCFunction)(void (*)(void))walker_score_moves,
     METH_FASTCALL,
     "score_moves(state, order, machine_of, moves, tabu, best_known) -> "
     "(cost, index, admissible)"},
    {NULL}
};

static PyTypeObject WalkerType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.schedule._walk.Walker",
    .tp_doc = "Compiled makespan / prepare / evaluate_delta / place / "
              "score_moves for one workload and network.",
    .tp_basicsize = sizeof(Walker),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)walker_init,
    .tp_dealloc = (destructor)walker_dealloc,
    .tp_methods = walker_methods,
    .tp_getset = walker_getset,
};

/* ------------------------------------------------------------------ */
/* module                                                             */
/* ------------------------------------------------------------------ */

static PyObject *
walk_bind(PyObject *module, PyObject *args)
{
    PyObject *sched, *err, *restore;
    if (!PyArg_ParseTuple(args, "OOO", &sched, &err, &restore)) {
        return NULL;
    }
    Py_INCREF(sched);
    Py_XSETREF(schedule_cls, sched);
    Py_INCREF(err);
    Py_XSETREF(invalid_error, err);
    Py_INCREF(restore);
    Py_XSETREF(restore_fn, restore);
    Py_RETURN_NONE;
}

static PyMethodDef walk_functions[] = {
    {"bind", walk_bind, METH_VARARGS,
     "bind(Schedule, InvalidScheduleError, restore): set the Python types "
     "the walkers build and raise, and the state-restore function"},
    {"restore", walk_restore, METH_VARARGS,
     "restore(nic, k, l, p, makespan, ints, dbl) -> State (unpickling)"},
    {NULL}
};

static struct PyModuleDef walk_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_walk",
    .m_doc = "Compiled scalar schedule walkers (see repro.schedule.walker).",
    .m_size = -1,
    .m_methods = walk_functions,
};

PyMODINIT_FUNC
PyInit__walk(void)
{
    PyObject *m;
    if (PyType_Ready(&WalkerType) < 0 || PyType_Ready(&StateType) < 0) {
        return NULL;
    }
    m = PyModule_Create(&walk_module);
    if (m == NULL) {
        return NULL;
    }
    Py_INCREF(&WalkerType);
    if (PyModule_AddObject(m, "Walker", (PyObject *)&WalkerType) < 0) {
        Py_DECREF(&WalkerType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&StateType);
    if (PyModule_AddObject(m, "State", (PyObject *)&StateType) < 0) {
        Py_DECREF(&StateType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
