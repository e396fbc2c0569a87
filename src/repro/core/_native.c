/* The compiled native clock-engine kernel (repro.core._native).
 *
 * C implementation of the reference kernel in repro/core/hb.py: the
 * dual-side clock join of DualClockEngine.observe(), the
 * dominance-based A/M table replacement, and the flat fingerprint
 * chains, laid out as raw machine-int rows.  Byte-identity with the
 * reference engine is a hard contract: fingerprints are computed with a
 * re-implementation of CPython's own int hash (61-bit Mersenne
 * modulus) and tuple hash (the xxPRIME combiner of pyhash.c, CPython
 * 3.8+), verified against the running interpreter at first use
 * (hb_native.self_test) and suite-wide by the equivalence tests.
 *
 * Layout notes
 * ------------
 * - Thread clocks are contiguous int64 rows of stride `cap` per
 *   relation; a row's logical length replicates the reference
 *   engine's grow-on-join rule exactly (published snapshot LENGTHS
 *   feed the fingerprint hash, so they must match bit-for-bit).
 *   Physical cells past the logical length are always zero.
 * - Whole-object locations (key is None — the hot case) live in
 *   C arrays indexed by oid holding refcounted Snap rows: publishing
 *   allocates one Snap, not a Python tuple; the only Python objects
 *   observe() allocates on the keyless path are the returned tuples.
 * - Element locations ((oid, key) with a real key) stay in Python
 *   dicts of published tuples, like the reference engine.
 * - fork() is a handful of memcpys plus table copies that bump Snap
 *   refcounts — the copy-on-publish discipline of the reference
 *   engine at the machine level.
 *
 * The Python-visible class (hb_native.NativeClockEngine) subclasses
 * EngineCore to add the thin conveniences (register_thread from a
 * spawn event, on_event stamping, VectorClock views); everything on
 * the per-event path lives here.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#if SIZEOF_VOID_P < 8
#error "repro.core._native requires a 64-bit CPython (Py_hash_t == int64)"
#endif

/* ------------------------------------------------------------------ */
/* CPython-identical hashing                                          */

#define PYHASH_MODULUS (((uint64_t)1 << 61) - 1)

static inline Py_hash_t
i64_hash(int64_t v)
{
    /* CPython's long_hash for values that fit in 64 bits. */
    uint64_t u = (v >= 0) ? (uint64_t)v : 0ULL - (uint64_t)v;
    uint64_t m = u % PYHASH_MODULUS;
    if (v < 0) {
        Py_hash_t h = -(Py_hash_t)m;
        if (h == -1)
            h = -2;
        return h;
    }
    return (Py_hash_t)m;
}

/* The xxPRIME-based tuple hash of Objects/tupleobject.c (3.8+). */
#define XXPRIME_1 ((uint64_t)11400714785074694791ULL)
#define XXPRIME_2 ((uint64_t)14029467366897019727ULL)
#define XXPRIME_5 ((uint64_t)2870177450012600261ULL)
#define XXROTATE(x) ((x << 31) | (x >> 33))

static inline uint64_t
tup_lane(uint64_t acc, uint64_t lane)
{
    acc += lane * XXPRIME_2;
    acc = XXROTATE(acc);
    acc *= XXPRIME_1;
    return acc;
}

static inline Py_hash_t
tup_fini(uint64_t acc, Py_ssize_t len)
{
    acc += ((uint64_t)len) ^ (XXPRIME_5 ^ 3527539ULL);
    if (acc == (uint64_t)-1)
        acc = 1546275796;
    return (Py_hash_t)acc;
}

/* Hash of tuple(row[:len]) without building the tuple. */
static inline Py_hash_t
row_hash(const int64_t *row, int32_t len)
{
    uint64_t acc = XXPRIME_5;
    int32_t i;
    for (i = 0; i < len; i++)
        acc = tup_lane(acc, (uint64_t)i64_hash(row[i]));
    return tup_fini(acc, (Py_ssize_t)len);
}

/* ------------------------------------------------------------------ */
/* Snap: refcounted published clock row (keyless location tables)     */

typedef struct {
    Py_ssize_t rc;
    int32_t len;
    int64_t v[1];
} Snap;

static Snap *
snap_from_row(const int64_t *row, int32_t len)
{
    Snap *s = (Snap *)PyMem_Malloc(sizeof(Snap) + (size_t)(len > 0 ? len - 1 : 0) * sizeof(int64_t));
    if (s == NULL)
        return (Snap *)PyErr_NoMemory();
    s->rc = 1;
    s->len = len;
    memcpy(s->v, row, (size_t)len * sizeof(int64_t));
    return s;
}

static inline void
snap_decref(Snap *s)
{
    if (s != NULL && --s->rc == 0)
        PyMem_Free(s);
}

static inline Snap *
snap_incref(Snap *s)
{
    if (s != NULL)
        s->rc++;
    return s;
}

/* Does the live row (physical zeros past len) dominate `old`?
 * Mirrors vector_clock.tuple_dominates: zero entries never block. */
static inline int
row_dominates_snap(const int64_t *row, const Snap *old)
{
    int32_t i;
    for (i = 0; i < old->len; i++) {
        int64_t v = old->v[i];
        if (v && v > row[i])
            return 0;
    }
    return 1;
}

/* max(len, old->len)-long elementwise max of row and old. */
static Snap *
snap_join_row(const int64_t *row, int32_t len, const Snap *old)
{
    int32_t n = len > old->len ? len : old->len;
    Snap *s = (Snap *)PyMem_Malloc(sizeof(Snap) + (size_t)(n > 0 ? n - 1 : 0) * sizeof(int64_t));
    int32_t i;
    if (s == NULL)
        return (Snap *)PyErr_NoMemory();
    s->rc = 1;
    s->len = n;
    for (i = 0; i < n; i++) {
        int64_t a = i < len ? row[i] : 0;
        int64_t b = i < old->len ? old->v[i] : 0;
        s->v[i] = a > b ? a : b;
    }
    return s;
}

static PyObject *
tuple_from_row(const int64_t *row, int32_t len)
{
    PyObject *t = PyTuple_New(len);
    int32_t i;
    if (t == NULL)
        return NULL;
    for (i = 0; i < len; i++) {
        PyObject *x = PyLong_FromLongLong(row[i]);
        if (x == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, x);
    }
    return t;
}

/* ------------------------------------------------------------------ */
/* Kind tables, copied once from repro.core.events at module import   */

#define MAX_KINDS 64
static unsigned char IS_MOD[MAX_KINDS];
static unsigned char IS_MUT[MAX_KINDS];
static int NKINDS = 0;

/* ------------------------------------------------------------------ */
/* EngineCore                                                         */

#define INITIAL_CAP 8
#define INITIAL_LOCAP 32

static PyTypeObject EngineCore_Type;

typedef struct {
    PyObject_HEAD
    int32_t cap;       /* row stride (thread capacity)                */
    int32_t nthreads;
    int32_t locap;     /* keyless-table capacity (oids)               */
    int32_t pending_n; /* tids with queued release edges              */
    int64_t *rbuf, *lbuf;
    int32_t *rlens, *llens;
    int64_t *rchains, *lchains; /* Py_hash_t chain values             */
    int64_t rcount, lcount;
    Snap **raccess_o, **rmodify_o, **laccess_o, **lmodify_o;
    PyObject *raccess_k, *rmodify_k, *laccess_k, *lmodify_k;
    PyObject *pending; /* dict: tid -> list[(clock, lazy_clock)]      */
} EngineCore;

static int
engine_alloc_buffers(EngineCore *self, int32_t cap, int32_t locap)
{
    size_t rowbytes = (size_t)cap * (size_t)cap * sizeof(int64_t);
    self->rbuf = (int64_t *)PyMem_Calloc(1, rowbytes);
    self->lbuf = (int64_t *)PyMem_Calloc(1, rowbytes);
    self->rlens = (int32_t *)PyMem_Calloc((size_t)cap, sizeof(int32_t));
    self->llens = (int32_t *)PyMem_Calloc((size_t)cap, sizeof(int32_t));
    self->rchains = (int64_t *)PyMem_Calloc((size_t)cap, sizeof(int64_t));
    self->lchains = (int64_t *)PyMem_Calloc((size_t)cap, sizeof(int64_t));
    self->raccess_o = (Snap **)PyMem_Calloc((size_t)locap, sizeof(Snap *));
    self->rmodify_o = (Snap **)PyMem_Calloc((size_t)locap, sizeof(Snap *));
    self->laccess_o = (Snap **)PyMem_Calloc((size_t)locap, sizeof(Snap *));
    self->lmodify_o = (Snap **)PyMem_Calloc((size_t)locap, sizeof(Snap *));
    if (!self->rbuf || !self->lbuf || !self->rlens || !self->llens ||
        !self->rchains || !self->lchains || !self->raccess_o ||
        !self->rmodify_o || !self->laccess_o || !self->lmodify_o) {
        PyErr_NoMemory();
        return -1;
    }
    self->cap = cap;
    self->locap = locap;
    return 0;
}

static void
engine_free_buffers(EngineCore *self)
{
    int32_t i;
    PyMem_Free(self->rbuf);
    PyMem_Free(self->lbuf);
    PyMem_Free(self->rlens);
    PyMem_Free(self->llens);
    PyMem_Free(self->rchains);
    PyMem_Free(self->lchains);
    if (self->raccess_o)
        for (i = 0; i < self->locap; i++)
            snap_decref(self->raccess_o[i]);
    if (self->rmodify_o)
        for (i = 0; i < self->locap; i++)
            snap_decref(self->rmodify_o[i]);
    if (self->laccess_o)
        for (i = 0; i < self->locap; i++)
            snap_decref(self->laccess_o[i]);
    if (self->lmodify_o)
        for (i = 0; i < self->locap; i++)
            snap_decref(self->lmodify_o[i]);
    PyMem_Free(self->raccess_o);
    PyMem_Free(self->rmodify_o);
    PyMem_Free(self->laccess_o);
    PyMem_Free(self->lmodify_o);
    self->rbuf = self->lbuf = NULL;
    self->rlens = self->llens = NULL;
    self->rchains = self->lchains = NULL;
    self->raccess_o = self->rmodify_o = NULL;
    self->laccess_o = self->lmodify_o = NULL;
}

static PyObject *
engine_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    EngineCore *self = (EngineCore *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    if (engine_alloc_buffers(self, INITIAL_CAP, INITIAL_LOCAP) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    self->nthreads = 0;
    self->pending_n = 0;
    self->rcount = self->lcount = 0;
    self->raccess_k = PyDict_New();
    self->rmodify_k = PyDict_New();
    self->laccess_k = PyDict_New();
    self->lmodify_k = PyDict_New();
    self->pending = PyDict_New();
    if (!self->raccess_k || !self->rmodify_k || !self->laccess_k ||
        !self->lmodify_k || !self->pending) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static void
engine_dealloc(EngineCore *self)
{
    engine_free_buffers(self);
    Py_XDECREF(self->raccess_k);
    Py_XDECREF(self->rmodify_k);
    Py_XDECREF(self->laccess_k);
    Py_XDECREF(self->lmodify_k);
    Py_XDECREF(self->pending);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Widen the row stride (rare: dynamic spawns past the reserve). */
static int
engine_grow_cap(EngineCore *self, int32_t need)
{
    int32_t new_cap = self->cap;
    int64_t *nr, *nl;
    int32_t *nrl, *nll;
    int64_t *nrc, *nlc;
    int32_t t;
    while (new_cap < need)
        new_cap *= 2;
    nr = (int64_t *)PyMem_Calloc(1, (size_t)new_cap * new_cap * sizeof(int64_t));
    nl = (int64_t *)PyMem_Calloc(1, (size_t)new_cap * new_cap * sizeof(int64_t));
    nrl = (int32_t *)PyMem_Calloc((size_t)new_cap, sizeof(int32_t));
    nll = (int32_t *)PyMem_Calloc((size_t)new_cap, sizeof(int32_t));
    nrc = (int64_t *)PyMem_Calloc((size_t)new_cap, sizeof(int64_t));
    nlc = (int64_t *)PyMem_Calloc((size_t)new_cap, sizeof(int64_t));
    if (!nr || !nl || !nrl || !nll || !nrc || !nlc) {
        PyMem_Free(nr); PyMem_Free(nl); PyMem_Free(nrl);
        PyMem_Free(nll); PyMem_Free(nrc); PyMem_Free(nlc);
        PyErr_NoMemory();
        return -1;
    }
    for (t = 0; t < self->nthreads; t++) {
        memcpy(nr + (size_t)t * new_cap, self->rbuf + (size_t)t * self->cap,
               (size_t)self->rlens[t] * sizeof(int64_t));
        memcpy(nl + (size_t)t * new_cap, self->lbuf + (size_t)t * self->cap,
               (size_t)self->llens[t] * sizeof(int64_t));
    }
    memcpy(nrl, self->rlens, (size_t)self->nthreads * sizeof(int32_t));
    memcpy(nll, self->llens, (size_t)self->nthreads * sizeof(int32_t));
    memcpy(nrc, self->rchains, (size_t)self->nthreads * sizeof(int64_t));
    memcpy(nlc, self->lchains, (size_t)self->nthreads * sizeof(int64_t));
    PyMem_Free(self->rbuf); PyMem_Free(self->lbuf);
    PyMem_Free(self->rlens); PyMem_Free(self->llens);
    PyMem_Free(self->rchains); PyMem_Free(self->lchains);
    self->rbuf = nr; self->lbuf = nl;
    self->rlens = nrl; self->llens = nll;
    self->rchains = nrc; self->lchains = nlc;
    self->cap = new_cap;
    return 0;
}

static int
engine_grow_locap(EngineCore *self, int32_t need)
{
    int32_t new_cap = self->locap;
    Snap ***tables[4] = {&self->raccess_o, &self->rmodify_o,
                         &self->laccess_o, &self->lmodify_o};
    int i;
    while (new_cap < need)
        new_cap *= 2;
    for (i = 0; i < 4; i++) {
        Snap **nt = (Snap **)PyMem_Calloc((size_t)new_cap, sizeof(Snap *));
        if (nt == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        memcpy(nt, *tables[i], (size_t)self->locap * sizeof(Snap *));
        PyMem_Free(*tables[i]);
        *tables[i] = nt;
    }
    self->locap = new_cap;
    return 0;
}

/* Declare threads 0..tid in both relations (fused ensure_thread).
 * A fresh thread's clock is [0]*(index+1); its chain is seeded
 * hash((_SEED, index)) exactly like FingerprintChain.  _SEED
 * (0x9E3779B97F4A7C15) exceeds INT64_MAX, so its CPython hash is
 * computed here in unsigned arithmetic: positive int -> value mod
 * (2^61 - 1).                                                      */
#define FP_SEED_LANE ((uint64_t)(0x9E3779B97F4A7C15ULL % PYHASH_MODULUS))

static int
engine_ensure(EngineCore *self, int32_t tid)
{
    int32_t n = self->nthreads;
    if (n > tid)
        return 0;
    if (tid >= self->cap && engine_grow_cap(self, tid + 1) < 0)
        return -1;
    while (n <= tid) {
        uint64_t acc = XXPRIME_5;
        Py_hash_t seed;
        self->rlens[n] = n + 1;
        self->llens[n] = n + 1;
        acc = tup_lane(acc, FP_SEED_LANE);
        acc = tup_lane(acc, (uint64_t)i64_hash(n));
        seed = tup_fini(acc, 2);
        self->rchains[n] = seed;
        self->lchains[n] = seed;
        n++;
    }
    self->nthreads = n;
    return 0;
}

/* Join a Python snapshot tuple into a row; returns new logical length
 * or -1 on error.  Grows cap first if the tuple is wider.           */
static int32_t
join_pytuple_row(EngineCore *self, int side_lazy, int32_t tid, PyObject *tup,
                 int32_t tlen)
{
    Py_ssize_t n = PyTuple_GET_SIZE(tup);
    int64_t *row;
    Py_ssize_t i;
    if ((int32_t)n > self->cap) {
        if (engine_grow_cap(self, (int32_t)n) < 0)
            return -1;
    }
    row = (side_lazy ? self->lbuf : self->rbuf) + (size_t)tid * self->cap;
    for (i = 0; i < n; i++) {
        int64_t v = PyLong_AsLongLong(PyTuple_GET_ITEM(tup, i));
        if (v == -1 && PyErr_Occurred())
            return -1;
        if (v > row[i])
            row[i] = v;
    }
    return (int32_t)n > tlen ? (int32_t)n : tlen;
}

static inline int32_t
join_snap_row(int64_t *row, int32_t tlen, const Snap *s)
{
    int32_t i;
    for (i = 0; i < s->len; i++)
        if (s->v[i] > row[i])
            row[i] = s->v[i];
    return s->len > tlen ? s->len : tlen;
}

/* -- keyed-table helpers (element locations stay on Python dicts) -- */

static int
keyed_publish(PyObject *access, PyObject *modify, PyObject *loc,
              PyObject *snap, int modifying, const int64_t *row, int32_t tlen)
{
    if (modifying) {
        if (PyDict_SetItem(access, loc, snap) < 0)
            return -1;
        return PyDict_SetItem(modify, loc, snap);
    }
    else {
        PyObject *old = PyDict_GetItemWithError(access, loc);
        if (old == NULL) {
            if (PyErr_Occurred())
                return -1;
            return PyDict_SetItem(access, loc, snap);
        }
        /* dominance test of the live row against the old tuple */
        {
            Py_ssize_t olen = PyTuple_GET_SIZE(old);
            Py_ssize_t i;
            int dominates = 1;
            for (i = 0; i < olen; i++) {
                int64_t v = PyLong_AsLongLong(PyTuple_GET_ITEM(old, i));
                if (v == -1 && PyErr_Occurred())
                    return -1;
                if (v && (i >= (Py_ssize_t)tlen || v > row[i])) {
                    dominates = 0;
                    break;
                }
            }
            if (dominates)
                return PyDict_SetItem(access, loc, snap);
            /* genuine join (concurrent readers) */
            {
                Py_ssize_t n = olen > (Py_ssize_t)tlen ? olen : (Py_ssize_t)tlen;
                PyObject *joined = PyTuple_New(n);
                int rc;
                if (joined == NULL)
                    return -1;
                for (i = 0; i < n; i++) {
                    int64_t a = i < (Py_ssize_t)tlen ? row[i] : 0;
                    int64_t b = 0;
                    PyObject *x;
                    if (i < olen) {
                        b = PyLong_AsLongLong(PyTuple_GET_ITEM(old, i));
                        if (b == -1 && PyErr_Occurred()) {
                            Py_DECREF(joined);
                            return -1;
                        }
                    }
                    x = PyLong_FromLongLong(a > b ? a : b);
                    if (x == NULL) {
                        Py_DECREF(joined);
                        return -1;
                    }
                    PyTuple_SET_ITEM(joined, i, x);
                }
                rc = PyDict_SetItem(access, loc, joined);
                Py_DECREF(joined);
                return rc;
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* observe                                                            */

static PyObject *
engine_observe(EngineCore *self, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames)
{
    long tid, kind, oid;
    long rmo = -1;
    int has_rmo = 0;
    PyObject *key;
    PyObject *pending_edges = NULL;
    int modifying, ismutex, keyless;
    int64_t *row;
    int32_t tlen;
    size_t base;
    PyObject *snap_t = NULL, *lazy_t = NULL; /* the returned tuples */
    Snap *snap_s = NULL;                     /* keyless published row */
    Py_hash_t snap_h, lazy_h;
    uint64_t keylane;

    if (nargs < 4 || nargs > 5) {
        PyErr_SetString(PyExc_TypeError,
                        "observe(tid, kind, oid, key[, released_mutex_oid])");
        return NULL;
    }
    if (kwnames != NULL && PyTuple_GET_SIZE(kwnames) > 0) {
        /* only released_mutex_oid may be passed by keyword */
        PyObject *name;
        if (PyTuple_GET_SIZE(kwnames) != 1 || nargs != 4) {
            PyErr_SetString(PyExc_TypeError,
                            "observe() unexpected keyword arguments");
            return NULL;
        }
        name = PyTuple_GET_ITEM(kwnames, 0);
        if (PyUnicode_CompareWithASCIIString(name, "released_mutex_oid") != 0) {
            PyErr_SetString(PyExc_TypeError,
                            "observe() unexpected keyword argument");
            return NULL;
        }
        nargs = 5; /* args[4] holds the keyword value (FASTCALL layout) */
    }
    tid = PyLong_AsLong(args[0]);
    kind = PyLong_AsLong(args[1]);
    oid = PyLong_AsLong(args[2]);
    if ((tid == -1 || kind == -1 || oid == -1) && PyErr_Occurred())
        return NULL;
    key = args[3];
    if (nargs == 5 && args[4] != Py_None) {
        rmo = PyLong_AsLong(args[4]);
        if (rmo == -1 && PyErr_Occurred())
            return NULL;
        has_rmo = 1;
    }
    if (kind < 0 || kind >= NKINDS) {
        PyErr_Format(PyExc_ValueError, "unknown kind %ld", kind);
        return NULL;
    }
    if (engine_ensure(self, (int32_t)tid) < 0)
        return NULL;
    {
        int32_t need = (int32_t)(oid >= 0 ? oid : 0);
        if (has_rmo && (int32_t)rmo > need)
            need = (int32_t)rmo;
        if (need >= self->locap && engine_grow_locap(self, need + 1) < 0)
            return NULL;
    }
    modifying = IS_MOD[kind];
    ismutex = IS_MUT[kind];
    keyless = (key == Py_None);

    if (self->pending_n > 0) {
        PyObject *tk = PyLong_FromLong(tid);
        if (tk == NULL)
            return NULL;
        pending_edges = PyDict_GetItemWithError(self->pending, tk);
        if (pending_edges != NULL) {
            Py_INCREF(pending_edges);
            if (PyDict_DelItem(self->pending, tk) < 0) {
                Py_DECREF(pending_edges);
                Py_DECREF(tk);
                return NULL;
            }
            self->pending_n--;
        }
        else if (PyErr_Occurred()) {
            Py_DECREF(tk);
            return NULL;
        }
        Py_DECREF(tk);
    }

    /* -- regular relation ------------------------------------------ */
    base = (size_t)tid * self->cap;
    row = self->rbuf + base;
    tlen = self->rlens[tid];
    if (pending_edges != NULL) {
        Py_ssize_t n = PyList_GET_SIZE(pending_edges);
        Py_ssize_t i;
        for (i = 0; i < n; i++) {
            PyObject *edge = PyList_GET_ITEM(pending_edges, i);
            tlen = join_pytuple_row(self, 0, (int32_t)tid,
                                    PyTuple_GET_ITEM(edge, 0), tlen);
            if (tlen < 0)
                goto error;
            row = self->rbuf + (size_t)tid * self->cap; /* cap may grow */
        }
        base = (size_t)tid * self->cap;
    }
    if (oid >= 0) {
        if (keyless) {
            Snap *prev = (modifying ? self->raccess_o
                                    : self->rmodify_o)[oid];
            if (prev != NULL)
                tlen = join_snap_row(row, tlen, prev);
        }
        else {
            PyObject *loc = PyTuple_Pack(2, args[2], key);
            PyObject *prev;
            if (loc == NULL)
                goto error;
            prev = PyDict_GetItemWithError(
                modifying ? self->raccess_k : self->rmodify_k, loc);
            Py_DECREF(loc);
            if (prev != NULL) {
                tlen = join_pytuple_row(self, 0, (int32_t)tid, prev, tlen);
                if (tlen < 0)
                    goto error;
                row = self->rbuf + (size_t)tid * self->cap;
                base = (size_t)tid * self->cap;
            }
            else if (PyErr_Occurred())
                goto error;
        }
    }
    /* A WAIT event releases its paired mutex: regular side only. */
    if (has_rmo) {
        Snap *prev = self->raccess_o[rmo];
        if (prev != NULL)
            tlen = join_snap_row(row, tlen, prev);
    }
    row[tid] += 1;
    self->rlens[tid] = tlen;
    snap_h = row_hash(row, tlen);

    /* publication (regular) */
    if (oid >= 0) {
        if (keyless) {
            if (modifying) {
                snap_s = snap_from_row(row, tlen);
                if (snap_s == NULL)
                    goto error;
                snap_decref(self->raccess_o[oid]);
                snap_decref(self->rmodify_o[oid]);
                self->raccess_o[oid] = snap_incref(snap_s);
                self->rmodify_o[oid] = snap_incref(snap_s);
            }
            else {
                Snap *old = self->raccess_o[oid];
                if (old == NULL || row_dominates_snap(row, old)) {
                    Snap *s = snap_from_row(row, tlen);
                    if (s == NULL)
                        goto error;
                    snap_decref(old);
                    self->raccess_o[oid] = s;
                }
                else { /* concurrent readers: genuine join */
                    Snap *s = snap_join_row(row, tlen, old);
                    if (s == NULL)
                        goto error;
                    snap_decref(old);
                    self->raccess_o[oid] = s;
                }
            }
        }
        else {
            PyObject *loc = PyTuple_Pack(2, args[2], key);
            int rc;
            if (loc == NULL)
                goto error;
            snap_t = tuple_from_row(row, tlen);
            if (snap_t == NULL) {
                Py_DECREF(loc);
                goto error;
            }
            rc = keyed_publish(self->raccess_k, self->rmodify_k, loc,
                               snap_t, modifying, row, tlen);
            Py_DECREF(loc);
            if (rc < 0)
                goto error;
        }
    }
    if (has_rmo) {
        /* joined A[mutex] above: replacement is sound here too. */
        Snap *s = snap_s != NULL ? snap_incref(snap_s)
                                 : snap_from_row(row, tlen);
        if (s == NULL)
            goto error;
        snap_decref(self->raccess_o[rmo]);
        snap_decref(self->rmodify_o[rmo]);
        self->raccess_o[rmo] = s;
        self->rmodify_o[rmo] = snap_incref(s);
    }
    if (snap_t == NULL) {
        snap_t = tuple_from_row(row, tlen);
        if (snap_t == NULL)
            goto error;
    }
    snap_decref(snap_s);
    snap_s = NULL;

    /* -- lazy relation (mutex ops induce no inter-thread edges) ---- */
    row = self->lbuf + base;
    tlen = self->llens[tid];
    if (pending_edges != NULL) {
        Py_ssize_t n = PyList_GET_SIZE(pending_edges);
        Py_ssize_t i;
        for (i = 0; i < n; i++) {
            PyObject *edge = PyList_GET_ITEM(pending_edges, i);
            tlen = join_pytuple_row(self, 1, (int32_t)tid,
                                    PyTuple_GET_ITEM(edge, 1), tlen);
            if (tlen < 0)
                goto error;
            row = self->lbuf + (size_t)tid * self->cap;
        }
        base = (size_t)tid * self->cap;
        Py_CLEAR(pending_edges);
    }
    {
        int track = (oid >= 0) && !ismutex;
        if (track) {
            if (keyless) {
                Snap *prev = (modifying ? self->laccess_o
                                        : self->lmodify_o)[oid];
                if (prev != NULL)
                    tlen = join_snap_row(row, tlen, prev);
            }
            else {
                PyObject *loc = PyTuple_Pack(2, args[2], key);
                PyObject *prev;
                if (loc == NULL)
                    goto error;
                prev = PyDict_GetItemWithError(
                    modifying ? self->laccess_k : self->lmodify_k, loc);
                Py_DECREF(loc);
                if (prev != NULL) {
                    tlen = join_pytuple_row(self, 1, (int32_t)tid, prev,
                                            tlen);
                    if (tlen < 0)
                        goto error;
                    row = self->lbuf + (size_t)tid * self->cap;
                }
                else if (PyErr_Occurred())
                    goto error;
            }
        }
        row[tid] += 1;
        self->llens[tid] = tlen;
        lazy_h = row_hash(row, tlen);
        if (track) {
            if (keyless) {
                if (modifying) {
                    Snap *s = snap_from_row(row, tlen);
                    if (s == NULL)
                        goto error;
                    snap_decref(self->laccess_o[oid]);
                    snap_decref(self->lmodify_o[oid]);
                    self->laccess_o[oid] = s;
                    self->lmodify_o[oid] = snap_incref(s);
                }
                else {
                    Snap *old = self->laccess_o[oid];
                    if (old == NULL || row_dominates_snap(row, old)) {
                        Snap *s = snap_from_row(row, tlen);
                        if (s == NULL)
                            goto error;
                        snap_decref(old);
                        self->laccess_o[oid] = s;
                    }
                    else {
                        Snap *s = snap_join_row(row, tlen, old);
                        if (s == NULL)
                            goto error;
                        snap_decref(old);
                        self->laccess_o[oid] = s;
                    }
                }
            }
            else {
                PyObject *loc = PyTuple_Pack(2, args[2], key);
                int rc;
                if (loc == NULL)
                    goto error;
                lazy_t = tuple_from_row(row, tlen);
                if (lazy_t == NULL) {
                    Py_DECREF(loc);
                    goto error;
                }
                rc = keyed_publish(self->laccess_k, self->lmodify_k, loc,
                                   lazy_t, modifying, row, tlen);
                Py_DECREF(loc);
                if (rc < 0)
                    goto error;
            }
        }
    }
    if (lazy_t == NULL) {
        lazy_t = tuple_from_row(row, tlen);
        if (lazy_t == NULL)
            goto error;
    }

    /* -- fingerprints (the chained-hash formula of FingerprintChain,
     * key None hashed as -1) -------------------------------------- */
    if (keyless)
        keylane = (uint64_t)(Py_hash_t)-2; /* hash(-1) == -2 */
    else if (PyLong_CheckExact(key)) {
        int overflow;
        long long kv = PyLong_AsLongLongAndOverflow(key, &overflow);
        if (overflow == 0) {
            if (kv == -1 && PyErr_Occurred())
                goto error;
            keylane = (uint64_t)i64_hash((int64_t)kv);
        }
        else {
            Py_hash_t kh = PyObject_Hash(key);
            if (kh == -1 && PyErr_Occurred())
                goto error;
            keylane = (uint64_t)kh;
        }
    }
    else {
        Py_hash_t kh = PyObject_Hash(key);
        if (kh == -1 && PyErr_Occurred())
            goto error;
        keylane = (uint64_t)kh;
    }
    {
        uint64_t acc = XXPRIME_5;
        acc = tup_lane(acc, (uint64_t)i64_hash(self->rchains[tid]));
        acc = tup_lane(acc, (uint64_t)i64_hash(kind));
        acc = tup_lane(acc, (uint64_t)i64_hash(oid));
        acc = tup_lane(acc, keylane);
        acc = tup_lane(acc, (uint64_t)snap_h);
        self->rchains[tid] = tup_fini(acc, 5);
        self->rcount++;
        acc = XXPRIME_5;
        acc = tup_lane(acc, (uint64_t)i64_hash(self->lchains[tid]));
        acc = tup_lane(acc, (uint64_t)i64_hash(kind));
        acc = tup_lane(acc, (uint64_t)i64_hash(oid));
        acc = tup_lane(acc, keylane);
        acc = tup_lane(acc, (uint64_t)lazy_h);
        self->lchains[tid] = tup_fini(acc, 5);
        self->lcount++;
    }

    {
        PyObject *out = PyTuple_Pack(2, snap_t, lazy_t);
        Py_DECREF(snap_t);
        Py_DECREF(lazy_t);
        return out;
    }

error:
    Py_XDECREF(pending_edges);
    Py_XDECREF(snap_t);
    Py_XDECREF(lazy_t);
    snap_decref(snap_s);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Registration / edges                                               */

static PyObject *
engine_reserve(EngineCore *self, PyObject *arg)
{
    long n = PyLong_AsLong(arg);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    if (n > 0 && engine_ensure(self, (int32_t)(n - 1)) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
engine_register_thread_clocks(EngineCore *self, PyObject *const *args,
                              Py_ssize_t nargs)
{
    long tid;
    int32_t tlen;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "register_thread_clocks(tid, clock, lazy_clock)");
        return NULL;
    }
    tid = PyLong_AsLong(args[0]);
    if (tid == -1 && PyErr_Occurred())
        return NULL;
    if (!PyTuple_Check(args[1]) || !PyTuple_Check(args[2])) {
        PyErr_SetString(PyExc_TypeError, "clock snapshots must be tuples");
        return NULL;
    }
    if (engine_ensure(self, (int32_t)tid) < 0)
        return NULL;
    tlen = join_pytuple_row(self, 0, (int32_t)tid, args[1],
                            self->rlens[tid]);
    if (tlen < 0)
        return NULL;
    self->rlens[tid] = tlen;
    tlen = join_pytuple_row(self, 1, (int32_t)tid, args[2],
                            self->llens[tid]);
    if (tlen < 0)
        return NULL;
    self->llens[tid] = tlen;
    Py_RETURN_NONE;
}

static PyObject *
engine_add_release_edge_clocks(EngineCore *self, PyObject *const *args,
                               Py_ssize_t nargs)
{
    PyObject *tk, *lst, *pair;
    if (nargs != 3) {
        PyErr_SetString(
            PyExc_TypeError,
            "add_release_edge_clocks(clock, lazy_clock, released_tid)");
        return NULL;
    }
    tk = args[2];
    lst = PyDict_GetItemWithError(self->pending, tk);
    if (lst == NULL) {
        if (PyErr_Occurred())
            return NULL;
        lst = PyList_New(0);
        if (lst == NULL)
            return NULL;
        if (PyDict_SetItem(self->pending, tk, lst) < 0) {
            Py_DECREF(lst);
            return NULL;
        }
        Py_DECREF(lst);
        self->pending_n++;
    }
    pair = PyTuple_Pack(2, args[0], args[1]);
    if (pair == NULL)
        return NULL;
    if (PyList_Append(lst, pair) < 0) {
        Py_DECREF(pair);
        return NULL;
    }
    Py_DECREF(pair);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Accessors                                                          */

static PyObject *
engine_hbr_fingerprint(EngineCore *self, PyObject *noarg)
{
    uint64_t inner = XXPRIME_5, outer = XXPRIME_5;
    int32_t i;
    Py_hash_t ih;
    (void)noarg;
    for (i = 0; i < self->nthreads; i++)
        inner = tup_lane(inner, (uint64_t)i64_hash(self->rchains[i]));
    ih = tup_fini(inner, (Py_ssize_t)self->nthreads);
    outer = tup_lane(outer, (uint64_t)i64_hash(self->rcount));
    outer = tup_lane(outer, (uint64_t)ih);
    return PyLong_FromSsize_t((Py_ssize_t)tup_fini(outer, 2));
}

static PyObject *
engine_lazy_fingerprint(EngineCore *self, PyObject *noarg)
{
    uint64_t inner = XXPRIME_5, outer = XXPRIME_5;
    int32_t i;
    Py_hash_t ih;
    (void)noarg;
    for (i = 0; i < self->nthreads; i++)
        inner = tup_lane(inner, (uint64_t)i64_hash(self->lchains[i]));
    ih = tup_fini(inner, (Py_ssize_t)self->nthreads);
    outer = tup_lane(outer, (uint64_t)i64_hash(self->lcount));
    outer = tup_lane(outer, (uint64_t)ih);
    return PyLong_FromSsize_t((Py_ssize_t)tup_fini(outer, 2));
}

static PyObject *
engine_thread_clock_raw(EngineCore *self, PyObject *const *args,
                        Py_ssize_t nargs)
{
    long tid;
    int lazy = 0;
    if (nargs < 1 || nargs > 2) {
        PyErr_SetString(PyExc_TypeError, "thread_clock_raw(tid, lazy=False)");
        return NULL;
    }
    tid = PyLong_AsLong(args[0]);
    if (tid == -1 && PyErr_Occurred())
        return NULL;
    if (nargs == 2) {
        lazy = PyObject_IsTrue(args[1]);
        if (lazy < 0)
            return NULL;
    }
    if (engine_ensure(self, (int32_t)tid) < 0)
        return NULL;
    if (lazy)
        return tuple_from_row(self->lbuf + (size_t)tid * self->cap,
                              self->llens[tid]);
    return tuple_from_row(self->rbuf + (size_t)tid * self->cap,
                          self->rlens[tid]);
}

static PyObject *
engine_table_stats(EngineCore *self, PyObject *noarg)
{
    Py_ssize_t entries = 0;
    int32_t i;
    (void)noarg;
    for (i = 0; i < self->locap; i++) {
        entries += (self->raccess_o[i] != NULL);
        entries += (self->rmodify_o[i] != NULL);
        entries += (self->laccess_o[i] != NULL);
        entries += (self->lmodify_o[i] != NULL);
    }
    entries += PyDict_GET_SIZE(self->raccess_k);
    entries += PyDict_GET_SIZE(self->rmodify_k);
    entries += PyDict_GET_SIZE(self->laccess_k);
    entries += PyDict_GET_SIZE(self->lmodify_k);
    return Py_BuildValue("(nl)", entries, (long)self->nthreads);
}

/* Copy all state from `src` into self (the fork body; self must be
 * freshly constructed).                                              */
static PyObject *
engine_adopt(EngineCore *self, PyObject *arg)
{
    EngineCore *src;
    int32_t i;
    PyObject *nd;
    if (!PyObject_TypeCheck(arg, &EngineCore_Type)) {
        PyErr_SetString(PyExc_TypeError, "_adopt expects an EngineCore");
        return NULL;
    }
    src = (EngineCore *)arg;
    engine_free_buffers(self);
    if (engine_alloc_buffers(self, src->cap, src->locap) < 0)
        return NULL;
    self->nthreads = src->nthreads;
    memcpy(self->rbuf, src->rbuf,
           (size_t)src->cap * src->cap * sizeof(int64_t));
    memcpy(self->lbuf, src->lbuf,
           (size_t)src->cap * src->cap * sizeof(int64_t));
    memcpy(self->rlens, src->rlens, (size_t)src->cap * sizeof(int32_t));
    memcpy(self->llens, src->llens, (size_t)src->cap * sizeof(int32_t));
    memcpy(self->rchains, src->rchains, (size_t)src->cap * sizeof(int64_t));
    memcpy(self->lchains, src->lchains, (size_t)src->cap * sizeof(int64_t));
    self->rcount = src->rcount;
    self->lcount = src->lcount;
    for (i = 0; i < src->locap; i++) {
        self->raccess_o[i] = snap_incref(src->raccess_o[i]);
        self->rmodify_o[i] = snap_incref(src->rmodify_o[i]);
        self->laccess_o[i] = snap_incref(src->laccess_o[i]);
        self->lmodify_o[i] = snap_incref(src->lmodify_o[i]);
    }
    nd = PyDict_Copy(src->raccess_k);
    if (nd == NULL) return NULL;
    Py_SETREF(self->raccess_k, nd);
    nd = PyDict_Copy(src->rmodify_k);
    if (nd == NULL) return NULL;
    Py_SETREF(self->rmodify_k, nd);
    nd = PyDict_Copy(src->laccess_k);
    if (nd == NULL) return NULL;
    Py_SETREF(self->laccess_k, nd);
    nd = PyDict_Copy(src->lmodify_k);
    if (nd == NULL) return NULL;
    Py_SETREF(self->lmodify_k, nd);
    /* pending edges: fresh lists, shared snapshot tuples */
    nd = PyDict_New();
    if (nd == NULL)
        return NULL;
    {
        PyObject *k, *v;
        Py_ssize_t pos = 0;
        while (PyDict_Next(src->pending, &pos, &k, &v)) {
            PyObject *copy = PyList_GetSlice(v, 0, PyList_GET_SIZE(v));
            if (copy == NULL || PyDict_SetItem(nd, k, copy) < 0) {
                Py_XDECREF(copy);
                Py_DECREF(nd);
                return NULL;
            }
            Py_DECREF(copy);
        }
    }
    Py_SETREF(self->pending, nd);
    self->pending_n = src->pending_n;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */

static PyMethodDef engine_methods[] = {
    {"observe", (PyCFunction)(void (*)(void))engine_observe,
     METH_FASTCALL | METH_KEYWORDS,
     "Fold one executed operation into both relations; returns the "
     "published (regular, lazy) snapshot tuples."},
    {"reserve", (PyCFunction)engine_reserve, METH_O,
     "Pre-size both relations for n statically known threads."},
    {"register_thread_clocks",
     (PyCFunction)(void (*)(void))engine_register_thread_clocks,
     METH_FASTCALL,
     "Start a spawned thread's clocks from the SPAWN event snapshots."},
    {"add_release_edge_clocks",
     (PyCFunction)(void (*)(void))engine_add_release_edge_clocks,
     METH_FASTCALL,
     "Queue a release edge joined before the released thread's next "
     "event."},
    {"hbr_fingerprint", (PyCFunction)engine_hbr_fingerprint, METH_NOARGS,
     "Fingerprint of the regular HBR of the trace so far."},
    {"lazy_fingerprint", (PyCFunction)engine_lazy_fingerprint, METH_NOARGS,
     "Fingerprint of the lazy HBR of the trace so far."},
    {"thread_clock_raw", (PyCFunction)(void (*)(void))engine_thread_clock_raw,
     METH_FASTCALL,
     "The thread's clock as an int tuple (DPOR's happens-before test)."},
    {"table_stats", (PyCFunction)engine_table_stats, METH_NOARGS,
     "(published table entries, thread count) — snapshot sizing."},
    {"_adopt", (PyCFunction)engine_adopt, METH_O,
     "Copy all state from another EngineCore (the fork body)."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject EngineCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core._native.EngineCore",
    .tp_basicsize = sizeof(EngineCore),
    .tp_dealloc = (destructor)engine_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Compiled dual happens-before clock kernel.",
    .tp_methods = engine_methods,
    .tp_new = engine_new,
};

/* ------------------------------------------------------------------ */
/* Module-level self-test hooks                                       */

static PyObject *
mod_int_hash(PyObject *mod, PyObject *arg)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(arg, &overflow);
    (void)mod;
    if (overflow != 0) {
        PyErr_SetString(PyExc_OverflowError,
                        "int_hash probe must fit in 64 bits");
        return NULL;
    }
    if (v == -1 && PyErr_Occurred())
        return NULL;
    return PyLong_FromSsize_t((Py_ssize_t)i64_hash((int64_t)v));
}

static PyObject *
mod_tuple_hash_probe(PyObject *mod, PyObject *arg)
{
    uint64_t acc = XXPRIME_5;
    Py_ssize_t i, n;
    (void)mod;
    if (!PyTuple_Check(arg)) {
        PyErr_SetString(PyExc_TypeError, "expected a tuple");
        return NULL;
    }
    n = PyTuple_GET_SIZE(arg);
    for (i = 0; i < n; i++) {
        Py_hash_t h = PyObject_Hash(PyTuple_GET_ITEM(arg, i));
        if (h == -1 && PyErr_Occurred())
            return NULL;
        acc = tup_lane(acc, (uint64_t)h);
    }
    return PyLong_FromSsize_t((Py_ssize_t)tup_fini(acc, n));
}

static PyMethodDef module_methods[] = {
    {"int_hash", mod_int_hash, METH_O,
     "CPython-identical hash of a 64-bit int (self-test hook)."},
    {"tuple_hash_probe", mod_tuple_hash_probe, METH_O,
     "This kernel's tuple-hash combiner over element hashes "
     "(self-test hook)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.core._native",
    .m_doc = "Compiled native clock-engine kernel (see hb_native.py).",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    PyObject *mod, *events, *table;
    Py_ssize_t i, n;

    /* Copy the KindSpec-derived dense tables once; they are immutable
     * import-time tuples in repro.core.events. */
    events = PyImport_ImportModule("repro.core.events");
    if (events == NULL)
        return NULL;
    table = PyObject_GetAttrString(events, "IS_MODIFYING");
    if (table == NULL) {
        Py_DECREF(events);
        return NULL;
    }
    n = PySequence_Size(table);
    if (n < 0 || n > MAX_KINDS) {
        Py_DECREF(table);
        Py_DECREF(events);
        PyErr_SetString(PyExc_ImportError, "unexpected IS_MODIFYING size");
        return NULL;
    }
    NKINDS = (int)n;
    for (i = 0; i < n; i++) {
        PyObject *x = PySequence_GetItem(table, i);
        int truth;
        if (x == NULL) {
            Py_DECREF(table);
            Py_DECREF(events);
            return NULL;
        }
        truth = PyObject_IsTrue(x);
        Py_DECREF(x);
        if (truth < 0) {
            Py_DECREF(table);
            Py_DECREF(events);
            return NULL;
        }
        IS_MOD[i] = (unsigned char)truth;
    }
    Py_DECREF(table);
    table = PyObject_GetAttrString(events, "IS_MUTEX");
    Py_DECREF(events);
    if (table == NULL)
        return NULL;
    if (PySequence_Size(table) != n) {
        Py_DECREF(table);
        PyErr_SetString(PyExc_ImportError, "IS_MUTEX size mismatch");
        return NULL;
    }
    for (i = 0; i < n; i++) {
        PyObject *x = PySequence_GetItem(table, i);
        int truth;
        if (x == NULL) {
            Py_DECREF(table);
            return NULL;
        }
        truth = PyObject_IsTrue(x);
        Py_DECREF(x);
        if (truth < 0) {
            Py_DECREF(table);
            return NULL;
        }
        IS_MUT[i] = (unsigned char)truth;
    }
    Py_DECREF(table);

    if (PyType_Ready(&EngineCore_Type) < 0)
        return NULL;
    mod = PyModule_Create(&native_module);
    if (mod == NULL)
        return NULL;
    Py_INCREF(&EngineCore_Type);
    if (PyModule_AddObject(mod, "EngineCore",
                           (PyObject *)&EngineCore_Type) < 0) {
        Py_DECREF(&EngineCore_Type);
        Py_DECREF(mod);
        return NULL;
    }
#ifdef __VERSION__
    if (PyModule_AddStringConstant(mod, "COMPILER", "gcc " __VERSION__) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
#else
    if (PyModule_AddStringConstant(mod, "COMPILER", "unknown") < 0) {
        Py_DECREF(mod);
        return NULL;
    }
#endif
    return mod;
}
