/*
 * The CPython module around fgm_kernel.c: fgm.py compiles and links the
 * two files into one extension module, `fgm_kernel`, in one compiler
 * call, and loads it once per process (see fgm._build_kernel).  The
 * kernel stays plain C; this file holds everything that touches Python
 * objects.
 *
 *   fgm_solve(w, n_k, n_u, horizon, beta, budget, set, data, timed)
 *                      the kernel's entry point with its argument list,
 *                      w, set and data as float64 ndarrays that it reads
 *                      in place; returns the kernel's int
 *   Step(context, u_prev, n_y, method, owner)
 *                      a controller's step: a callable bound to its context
 *                      (a STEP_CONTEXT array, fgm.step_context) and to its
 *                      u_prev, whose address the context holds, that
 *                      sim.MpcController sets as its instance's `step`.
 *                      step(y) and step(y, timers=None) run mpc_step on
 *                      y's own buffer, where y is an exact,
 *                      native-float64, aligned, C-contiguous ndarray of
 *                      shape (n_y,), and return a new float64 array of
 *                      u_prev's bytes.  Every other call, any other y and
 *                      every refusal are forwarded unchanged, as
 *                      method(owner, *args, **kwargs), to the class's
 *                      Python step, which times, converts and refuses
 *                      (a refused sample changes no state, so that
 *                      method's own mpc_step refuses it alike).
 *                      The Step holds owner by a weak reference, so the
 *                      controller and its Step form no reference cycle
 *                      and are freed once the controller is dropped; a
 *                      Step kept past its controller raises ReferenceError
 *                      at every call, as its context's arrays are gone.
 *                      step.run(y) is the untimed sample as that method
 *                      runs it: the new input array, NotImplemented
 *                      (running nothing) for a y it cannot read in place,
 *                      or mpc_step's refusal as an int.
 *                      step.observe(y, u) runs modal_observe on the
 *                      context, with y (n_y values) and u (n_u) read in
 *                      place, and returns its int.
 *
 * An array argument must be a native float64 ndarray, aligned and
 * C-contiguous, and writeable where the kernel writes it (`data`); any
 * other is refused with a TypeError naming it, before the kernel runs.
 * fgm_solve's w, set and data must each hold at least the values the
 * kernel's layout reads for its n_k, n_u and horizon (fgm_sizes), with a
 * horizon of 1 or 2, n_u >= 1 and n_k >= -1; anything else is refused
 * with a ValueError naming it, before the kernel runs.
 * Every call holds the interpreter lock: one control sample is too short
 * to release it and take it back for.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

#include <stddef.h>
#include <stdint.h>
#include <string.h>

struct context;

int64_t fgm_solve(const double *w, int64_t n_k, int64_t n_u, int64_t horizon, double beta,
                  int64_t budget, const double *set, double *data, int64_t timed);
void fgm_sizes(int64_t n_k, int64_t n_u, int64_t horizon, int64_t sizes[3]);
int64_t modal_observe(const struct context *c, const double *y, const double *u);
int64_t mpc_step(const struct context *c, const double *y);

/* An array argument whose data the kernel reads in place, named for its
   refusal.  The PyArg converter ("O&") `doubles` accepts a native float64
   ndarray that is aligned, C-contiguous and, where `writeable` is set,
   writeable. */
struct doubles {
    const char *name;
    int writeable;
    PyArrayObject *array;
};

static int doubles(PyObject *obj, void *out)
{
    struct doubles *arg = out;
    PyArrayObject *array = (PyArrayObject *)obj;
    if (!PyArray_Check(obj) || PyArray_TYPE(array) != NPY_DOUBLE
        || !(arg->writeable ? PyArray_ISCARRAY(array) : PyArray_ISCARRAY_RO(array))) {
        PyErr_Format(PyExc_TypeError, "%s must be an aligned, C-contiguous%s float64 array",
                     arg->name, arg->writeable ? ", writeable" : "");
        return 0;
    }
    arg->array = array;
    return 1;
}

static PyObject *py_fgm_solve(PyObject *Py_UNUSED(module), PyObject *args)
{
    struct doubles w = {"w", 0, NULL}, set = {"set", 0, NULL}, data = {"data", 1, NULL};
    long long n_k, n_u, horizon, budget, timed;
    double beta;
    if (!PyArg_ParseTuple(args, "O&LLLdLO&O&L:fgm_solve", doubles, &w, &n_k, &n_u, &horizon,
                          &beta, &budget, doubles, &set, doubles, &data, &timed))
        return NULL;
    /* bounded, so that no size below overflows */
    if (horizon < 1 || horizon > 2 || n_u < 1 || n_u > (1LL << 24) || n_k < -1
        || n_k > (1LL << 24)) {
        PyErr_Format(PyExc_ValueError,
                     "fgm_solve: horizon must be 1 or 2, n_u in [1, 2^24] and n_k in [-1, 2^24], "
                     "got %lld, %lld and %lld", horizon, n_u, n_k);
        return NULL;
    }
    int64_t sizes[3];
    fgm_sizes(n_k, n_u, horizon, sizes);
    const struct doubles *arrays[3] = {&w, &set, &data};
    for (int i = 0; i < 3; i++)
        if (PyArray_SIZE(arrays[i]->array) < sizes[i]) {
            PyErr_Format(PyExc_ValueError,
                         "%s must hold at least %lld values for n_k %lld, n_u %lld and horizon "
                         "%lld, got %zd", arrays[i]->name, (long long)sizes[i], n_k, n_u, horizon,
                         (Py_ssize_t)PyArray_SIZE(arrays[i]->array));
            return NULL;
        }
    return PyLong_FromLongLong(fgm_solve(PyArray_DATA(w.array), n_k, n_u, horizon, beta, budget,
                                         PyArray_DATA(set.array), PyArray_DATA(data.array),
                                         timed));
}

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    PyArrayObject *context, *u_prev;
    npy_intp n_y;
    PyObject *method; /* the class's step, which the calls Step does not run go to */
    PyObject *owner;  /* a weak reference to the controller */
} Step;

/* "timers", interned, which an untimed call's keyword name is */
static PyObject *timers_name;

/* The controller, a new reference, or NULL with a ReferenceError once it is
   gone: the context holds the addresses of its arrays, which die with it. */
static PyObject *controller(const Step *step)
{
#if PY_VERSION_HEX >= 0x030D0000
    PyObject *owner = NULL;
    if (PyWeakref_GetRef(step->owner, &owner) == 0)
        PyErr_SetString(PyExc_ReferenceError, "Step: its controller is gone");
    return owner;
#else
    PyObject *owner = PyWeakref_GET_OBJECT(step->owner);
    if (owner == Py_None) {
        PyErr_SetString(PyExc_ReferenceError, "Step: its controller is gone");
        return NULL;
    }
    return Py_NewRef(owner);
#endif
}

/* 1 while the controller lives, else 0 with controller()'s error */
static int alive(const Step *step)
{
    PyObject *owner = controller(step);
    Py_XDECREF(owner);
    return owner != NULL;
}

#define UNREAD INT64_MIN

/* mpc_step on y: -1, or its refusal; UNREAD, running nothing, where y is not
   an exact, native-float64, aligned, C-contiguous ndarray of shape (n_y,). */
static int64_t sample(const Step *step, PyObject *obj)
{
    if (!PyArray_CheckExact(obj))
        return UNREAD;
    PyArrayObject *y = (PyArrayObject *)obj;
    /* ISCARRAY_RO: aligned, C-contiguous and in native byte order */
    if (PyArray_TYPE(y) != NPY_DOUBLE || PyArray_NDIM(y) != 1 || PyArray_DIM(y, 0) != step->n_y
        || !PyArray_ISCARRAY_RO(y))
        return UNREAD;
    return mpc_step(PyArray_DATA(step->context), PyArray_DATA(y));
}

/* A new float64 array of u_prev's bytes: the input a sample applied. */
static PyObject *applied(const Step *step)
{
    PyObject *u = PyArray_SimpleNew(1, PyArray_DIMS(step->u_prev), NPY_DOUBLE);
    if (u != NULL)
        memcpy(PyArray_DATA((PyArrayObject *)u), PyArray_DATA(step->u_prev),
               (size_t)PyArray_NBYTES(step->u_prev));
    return u;
}

/* method(owner, *args, **kwargs), the call as it came with the controller
   in front */
static PyObject *forward(const Step *step, PyObject *const *args, size_t nargsf,
                         PyObject *kwnames)
{
    PyObject *owner = controller(step);
    if (owner == NULL)
        return NULL;
    const Py_ssize_t nargs = PyVectorcall_NARGS(nargsf);
    const Py_ssize_t total = nargs + (kwnames == NULL ? 0 : PyTuple_GET_SIZE(kwnames));
    PyObject *few[8], **call = few;
    if (total >= 8 && (call = PyMem_Malloc((size_t)(total + 1) * sizeof *call)) == NULL) {
        Py_DECREF(owner);
        return PyErr_NoMemory();
    }
    call[0] = owner;
    if (total > 0)
        memcpy(call + 1, args, (size_t)total * sizeof *call);
    PyObject *result = PyObject_Vectorcall(step->method, call, (size_t)nargs + 1, kwnames);
    if (call != few)
        PyMem_Free(call);
    Py_DECREF(owner);
    return result;
}

/* step(y) and step(y, timers=None): the untimed sample in C
   where sample() runs and accepts y; any other call, y or refusal is
   forwarded unchanged. */
static PyObject *step_call(PyObject *self, PyObject *const *args, size_t nargsf,
                           PyObject *kwnames)
{
    const Step *step = (const Step *)self;
    const Py_ssize_t nargs = PyVectorcall_NARGS(nargsf);
    int untimed = nargs == 1 && kwnames == NULL;
    if (nargs == 1 && kwnames != NULL && PyTuple_GET_SIZE(kwnames) == 1) {
        PyObject *name = PyTuple_GET_ITEM(kwnames, 0);
        untimed = args[1] == Py_None
                  && (name == timers_name || PyUnicode_Compare(name, timers_name) == 0);
    }
    if (untimed) {
        if (!alive(step))
            return NULL;
        if (sample(step, args[0]) == -1)
            return applied(step);
    }
    return forward(step, args, nargsf, kwnames);
}

/* step.run(y): sample() as the new input array, NotImplemented or the
   refusal as an int */
static PyObject *step_run(PyObject *self, PyObject *y)
{
    const Step *step = (const Step *)self;
    if (!alive(step))
        return NULL;
    const int64_t failed = sample(step, y);
    if (failed == -1)
        return applied(step);
    if (failed == UNREAD)
        Py_RETURN_NOTIMPLEMENTED;
    return PyLong_FromLongLong(failed);
}

static PyObject *step_observe(PyObject *self, PyObject *args)
{
    const Step *step = (const Step *)self;
    struct doubles y = {"y", 0, NULL}, u = {"u", 0, NULL};
    if (!PyArg_ParseTuple(args, "O&O&:observe", doubles, &y, doubles, &u) || !alive(step))
        return NULL;
    const npy_intp n_u = PyArray_SIZE(step->u_prev);
    if (PyArray_SIZE(y.array) != step->n_y || PyArray_SIZE(u.array) != n_u) {
        PyErr_Format(PyExc_ValueError, "observe(): y must hold %zd values and u %zd",
                     (Py_ssize_t)step->n_y, (Py_ssize_t)n_u);
        return NULL;
    }
    return PyLong_FromLongLong(modal_observe(PyArray_DATA(step->context), PyArray_DATA(y.array),
                                             PyArray_DATA(u.array)));
}

/* An aligned, C-contiguous array whose data the kernel reads in place. */
static PyArrayObject *held_array(PyObject *obj, const char *name)
{
    if (!PyArray_Check(obj) || !PyArray_ISCARRAY_RO((PyArrayObject *)obj)) {
        PyErr_Format(PyExc_TypeError, "Step(): %s must be an aligned C-contiguous array", name);
        return NULL;
    }
    Py_INCREF(obj);
    return (PyArrayObject *)obj;
}

static PyObject *step_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    PyObject *context, *u_prev, *method, *owner;
    Py_ssize_t n_y;
    static char *names[] = {"context", "u_prev", "n_y", "method", "owner", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOnOO:Step", names, &context, &u_prev, &n_y,
                                     &method, &owner))
        return NULL;
    if (!PyArray_Check(u_prev) || PyArray_TYPE((PyArrayObject *)u_prev) != NPY_DOUBLE
        || PyArray_NDIM((PyArrayObject *)u_prev) != 1) {
        PyErr_SetString(PyExc_TypeError, "Step(): u_prev must be a 1-d float64 array");
        return NULL;
    }
    Step *step = (Step *)type->tp_alloc(type, 0);
    if (step == NULL)
        return NULL;
    step->vectorcall = step_call;
    step->n_y = n_y;
    if ((step->context = held_array(context, "context")) == NULL
        || (step->u_prev = held_array(u_prev, "u_prev")) == NULL
        || (step->owner = PyWeakref_NewRef(owner, NULL)) == NULL) {
        Py_DECREF(step);
        return NULL;
    }
    step->method = Py_NewRef(method);
    return (PyObject *)step;
}

static void step_dealloc(PyObject *self)
{
    Step *step = (Step *)self;
    Py_XDECREF(step->context);
    Py_XDECREF(step->u_prev);
    Py_XDECREF(step->method);
    Py_XDECREF(step->owner);
    Py_TYPE(self)->tp_free(self);
}

static PyMethodDef step_methods[] = {
    {"run", step_run, METH_O,
     "run(y) -> the new input array, NotImplemented where y is not read in place, or "
     "mpc_step's refusal as an int"},
    {"observe", step_observe, METH_VARARGS,
     "observe(y, u) -> int: modal_observe on the step's context"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject StepType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "fgm_kernel.Step",
    .tp_doc = "Step(context, u_prev, n_y, method, owner): step(y) runs mpc_step on y's buffer; "
              "any call it does not run is method(owner, ...)",
    .tp_basicsize = sizeof(Step),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_vectorcall_offset = offsetof(Step, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_methods = step_methods,
    .tp_new = step_new,
    .tp_dealloc = step_dealloc,
};

static PyMethodDef methods[] = {
    {"fgm_solve", py_fgm_solve, METH_VARARGS,
     "fgm_solve(w, n_k, n_u, horizon, beta, budget, set, data, timed) -> int"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "fgm_kernel",
    .m_doc = "The compiled fast-gradient kernel (fgm_kernel.c)",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit_fgm_kernel(void)
{
    import_array();
    if ((timers_name = PyUnicode_InternFromString("timers")) == NULL)
        return NULL;
    if (PyType_Ready(&StepType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&StepType);
    if (PyModule_AddObject(m, "Step", (PyObject *)&StepType) < 0) {
        Py_DECREF(&StepType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
