"""Reverse-mode differentiation of grid fields over numpy arrays.

A :class:`Var` carries a value array, a scalar ``(n1, n2)`` or a stacked
vector ``(n1, n2, 3)`` field, and, until the backward sweep has passed it,
one ``(operand, local partial)`` pair per operand.  Elementwise arithmetic
(``+ - * /``, integer powers, ``sqrt``, ``log``) computes values exactly as
numpy does on plain arrays and records each partial as a multiplier of the
output adjoint; negation, :func:`cross`, :func:`dot` and :func:`scale`
record a vector-Jacobian product, a callable of the output adjoint.
:func:`gradient` seeds output adjoints and sweeps the graph once in reverse
creation order, a topological order since operands are created before their
results (Griewank & Walther, *Evaluating Derivatives*, ch. 3-4).  One sweep
gives the adjoint of every leaf.

A Var references only its operands, never a tape, and a vector-Jacobian
product only operand values, so a graph holds no reference cycles and
reference counting frees it; the sweep drops each node's partials and
adjoint once it has pushed them.  Plain numpy arrays pass through every
function here untouched, so one code path serves both numeric evaluation
and differentiation.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

_ONE = 1.0
_ids = itertools.count()


class Var:
    __slots__ = ("val", "parents", "adj", "id")

    # make ndarray + Var dispatch to Var.__radd__ instead of numpy
    # broadcasting over an object scalar
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, val, parents=()):
        self.val = val
        self.parents = parents
        self.adj = None
        self.id = next(_ids)

    def __add__(self, other):
        if isinstance(other, Var):
            return Var(self.val + other.val, ((self, _ONE), (other, _ONE)))
        return Var(self.val + other, ((self, _ONE),))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Var):
            return Var(self.val - other.val,
                       ((self, _ONE), (other, np.negative)))
        return Var(self.val - other, ((self, _ONE),))

    def __rsub__(self, other):
        return Var(other - self.val, ((self, np.negative),))

    def __neg__(self):
        return Var(-self.val, ((self, np.negative),))

    def __mul__(self, other):
        if isinstance(other, Var):
            return Var(self.val * other.val,
                       ((self, other.val), (other, self.val)))
        return Var(self.val * other, ((self, other),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Var):
            val = self.val / other.val
            inv = 1.0 / other.val
            return Var(val, ((self, inv), (other, -val * inv)))
        return Var(self.val / other, ((self, 1.0 / other),))

    def __rtruediv__(self, other):
        val = other / self.val
        return Var(val, ((self, -val / self.val),))

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, np.integer)):
            raise TypeError("Var supports integer powers only")
        if exponent == 0:
            return Var(np.ones_like(self.val))
        return Var(self.val ** exponent,
                   ((self, float(exponent) * self.val ** (exponent - 1)),))


def sqrt(x):
    """Square root for plain arrays and Vars alike."""
    if isinstance(x, Var):
        val = np.sqrt(x.val)
        return Var(val, ((x, 0.5 / val),))
    return np.sqrt(x)


def log(x):
    """Natural logarithm for plain arrays and Vars alike."""
    if isinstance(x, Var):
        return Var(np.log(x.val), ((x, 1.0 / x.val),))
    return np.log(x)


def value(x):
    """Strip the graph (identity on plain arrays)."""
    return x.val if isinstance(x, Var) else x


# Vector fields are stacked (..., 3) arrays.  The kernels run over their
# (3, nodes) component views, each component rounded as its scalar formula:
# a loop over the length-3 last axis innermost is several times slower.

def _planes(x):
    return x.reshape(-1, 3).T


def _cross(u, v):
    out = np.empty(u.shape)
    u_k, v_k, out_k = _planes(u), _planes(v), _planes(out)
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        res = out_k[k]
        np.multiply(u_k[i], v_k[j], out=res)
        res -= u_k[j] * v_k[i]
    return out


def _dot(u, v):
    prod = u * v
    return prod[..., 0] + prod[..., 1] + prod[..., 2]


def _scale(s, u):
    out = np.empty(u.shape)
    np.multiply(np.reshape(s, -1), _planes(u), out=_planes(out), order="C")
    return out


def _node(val, *pairs):
    """``val`` as a Var with its Var operands' VJPs; plain if none is a Var."""
    parents = tuple([pair for pair in pairs if isinstance(pair[0], Var)])
    return Var(val, parents) if parents else val


def cross(u, v):
    """Cross product u x v of two vector fields."""
    a, b = value(u), value(v)
    return _node(_cross(a, b), (u, lambda g: _cross(b, g)),
                 (v, lambda g: _cross(g, a)))


def dot(u, v):
    """Scalar field u . v of two vector fields."""
    a, b = value(u), value(v)
    return _node(_dot(a, b), (u, lambda g: _scale(g, b)),
                 (v, lambda g: _scale(g, a)))


def scale(s, u):
    """Vector field s u of a scalar field s and a vector field u."""
    a, b = value(s), value(u)
    return _node(_scale(a, b), (s, lambda g: _dot(g, b)),
                 (u, lambda g: _scale(a, g)))


def _receive(heap, var, adj):
    """Add ``adj`` to the adjoint of ``var``, queueing it on first touch."""
    if var.adj is None:
        var.adj = adj
        heapq.heappush(heap, (-var.id, var))
    else:
        var.adj = var.adj + adj


def gradient(seeds, wrt):
    """Adjoints of the leaves ``wrt`` for the output adjoints ``seeds``.

    ``seeds`` pairs each output Var with its adjoint (the weights of a
    linear functional of the outputs); the functional's gradient with
    respect to each leaf's value comes back in the order of ``wrt``, zeros
    where a leaf does not reach any output.  The sweep consumes the graph:
    afterwards every interior Var keeps only its value.
    """
    # a max-heap on creation ids pops each node after every node it feeds
    heap = []
    for var, adj in seeds:
        _receive(heap, var, adj)
    while heap:
        _, var = heapq.heappop(heap)
        if not var.parents:
            continue                        # a leaf keeps its adjoint
        g = var.adj
        for parent, partial in var.parents:
            if partial is _ONE:
                _receive(heap, parent, g)
            elif callable(partial):
                _receive(heap, parent, partial(g))
            else:
                _receive(heap, parent, g * partial)
        var.parents = ()
        var.adj = None
    return [np.zeros_like(leaf.val) if leaf.adj is None else leaf.adj
            for leaf in wrt]
