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
 *   Step(context, u_prev, n_y)
 *                      a callable bound to one controller's context (a
 *                      STEP_CONTEXT array, fgm.step_context) and to its
 *                      u_prev, whose address the context holds.  step(y)
 *                      runs mpc_step on y's own buffer and returns a new
 *                      float64 array of u_prev's bytes, or mpc_step's
 *                      refusal as an int; for a y that is not an exact,
 *                      native-float64, aligned, C-contiguous ndarray of
 *                      shape (n_y,) it returns NotImplemented and runs
 *                      nothing, so the caller checks y and passes it again.
 *                      step.observe(y, u) runs modal_observe on the
 *                      context, with y (n_y values) and u (n_u) read in
 *                      place, and returns its int.
 *
 * An array argument must be a native float64 ndarray, aligned and
 * C-contiguous, and writeable where the kernel writes it (`data`); any
 * other is refused with a TypeError naming it, before the kernel runs.
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
    return PyLong_FromLongLong(fgm_solve(PyArray_DATA(w.array), n_k, n_u, horizon, beta, budget,
                                         PyArray_DATA(set.array), PyArray_DATA(data.array),
                                         timed));
}

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    PyArrayObject *context, *u_prev;
    npy_intp n_y;
} Step;

static PyObject *step_call(PyObject *self, PyObject *const *args, size_t nargsf,
                           PyObject *kwnames)
{
    const Step *step = (const Step *)self;
    if (PyVectorcall_NARGS(nargsf) != 1 || kwnames != NULL) {
        PyErr_SetString(PyExc_TypeError, "Step() takes one measurement");
        return NULL;
    }
    PyObject *obj = args[0];
    if (!PyArray_CheckExact(obj))
        Py_RETURN_NOTIMPLEMENTED;
    PyArrayObject *y = (PyArrayObject *)obj;
    /* ISCARRAY_RO: aligned, C-contiguous and in native byte order */
    if (PyArray_TYPE(y) != NPY_DOUBLE || PyArray_NDIM(y) != 1 || PyArray_DIM(y, 0) != step->n_y
        || !PyArray_ISCARRAY_RO(y))
        Py_RETURN_NOTIMPLEMENTED;
    const int64_t failed = mpc_step(PyArray_DATA(step->context), PyArray_DATA(y));
    if (failed != -1)
        return PyLong_FromLongLong(failed);
    PyObject *u = PyArray_SimpleNew(1, PyArray_DIMS(step->u_prev), NPY_DOUBLE);
    if (u != NULL)
        memcpy(PyArray_DATA((PyArrayObject *)u), PyArray_DATA(step->u_prev),
               (size_t)PyArray_NBYTES(step->u_prev));
    return u;
}

static PyObject *step_observe(PyObject *self, PyObject *args)
{
    const Step *step = (const Step *)self;
    struct doubles y = {"y", 0, NULL}, u = {"u", 0, NULL};
    if (!PyArg_ParseTuple(args, "O&O&:observe", doubles, &y, doubles, &u))
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
    PyObject *context, *u_prev;
    Py_ssize_t n_y;
    static char *names[] = {"context", "u_prev", "n_y", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOn:Step", names, &context, &u_prev, &n_y))
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
        || (step->u_prev = held_array(u_prev, "u_prev")) == NULL) {
        Py_DECREF(step);
        return NULL;
    }
    return (PyObject *)step;
}

static void step_dealloc(PyObject *self)
{
    Step *step = (Step *)self;
    Py_XDECREF(step->context);
    Py_XDECREF(step->u_prev);
    Py_TYPE(self)->tp_free(self);
}

static PyMethodDef step_methods[] = {
    {"observe", step_observe, METH_VARARGS,
     "observe(y, u) -> int: modal_observe on the step's context"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject StepType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "fgm_kernel.Step",
    .tp_doc = "Step(context, u_prev, n_y): step(y) runs mpc_step on y's buffer",
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
