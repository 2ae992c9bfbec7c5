"""Minimal dense-tensor reverse-mode differentiation.

A Tensor wraps a float64 ndarray plus, when it participates in
differentiation, links to its parents and a closure producing the parents'
gradient contributions: None for a parent that needs no gradient (a constant
operand), so no time goes into forming it. ``backward`` walks the recorded
graph once in reverse topological order, accumulating into ``.grad``. Once
it has passed a node's contributions on it drops them, the node's closure
and parent links and its own reference to the node, so what a node saved
for its backward pass is freed as the sweep passes it, unless the caller
still holds the node. A graph is therefore swept once: a sweep that reaches
a node an earlier one passed fails with a ContractError instead of giving
zeros. Closures may return read-only views and one array for several
parents, so the sweep writes only into buffers it created: the sum it makes
at a parent's second contribution, which later ones are added into.

A node keeps its ``.value`` unless it can form any rows of it again, to the
forward pass's bits, from the operands it keeps: a ``linear_prelu`` node
keeps x and the weight, not their product, and is the one such node. The
sweep drops the value of each such node when it starts, so a step holds no
GCN layer output through its sweep. A closure that reads such a node's
value (``row_sq_dist``) forms only its live rows, through ``_rows_of``, and
a read of ``.value`` forms all of it again and keeps it; ``.shape`` needs
no value.

A gather (``take_rows``, whose rows must be distinct) contributes only the
rows it read, as a ``Rows`` pair of indices and (m, d) upstream rows. A
``Rows`` stays sparse as its parent's gradient until a dense reader needs
it. Two merge into one on the ascending union of their indices, the first
assigned into zeros and later ones added in arrival order: the arithmetic
of scattering them into a zero full array. A dense contribution, or a
closure that does not read ``Rows`` (and a leaf), gets the dense form, made
then; only ``linear_prelu`` reads ``Rows``. A ``Rows`` reaching a dense
gradient is added in place, into a copy if the sweep did not make it. Rows
outside the indices keep their bits: a -0.0 stays -0.0.

The two row-wise nodes of a training step work only on live rows, those
whose upstream gradient has a nonzero entry, in ascending order:
``row_sq_dist`` contributes ``Rows`` to both operands, and ``linear_prelu``
forms its product again, its weight and slope sums and its ``Rows`` for x
on the live rows alone.
A dead row contributes nothing, even where its product is not finite (a
non-finite forward pass is the caller's to catch). Each live row keeps
the bits of the dense form; the weight and slope sums lose the dead rows'
exact-zero terms, which changes their association and so their last bits.
Dead rows come from a subgraph of curriculum weight 0, which passes none
to its rows outside the balance subsample, and from an inactive triplet
hinge, which passes none through the inter-graph term.

Only the operations this package needs are provided; all of them are dense
and deterministic. Hinge-style kinks (relu, prelu at 0) use the subgradient 0.
``euclidean_matrix``, the one all-pairs distance kernel, works on plain
arrays, and the mirror search calls it; ``pairwise_euclidean`` is its tape
node, which ``sinkhorn_w1`` calls for the ground cost.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContractError, ShapeError


class Tensor:
    __slots__ = ("_value", "shape", "grad", "requires_grad", "_parents", "_backward_fn", "_form")

    def __init__(self, value, requires_grad: bool = False, _parents=(), _backward_fn=None,
                 _form=None):
        self.value = value
        self.grad: np.ndarray | Rows | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._form = _form      # rows -> those rows of the value, all of them for None

    @property
    def value(self) -> np.ndarray:
        """The node's array; a node that a sweep dropped it from forms it again."""
        if self._value is None:
            self._value = self._form()
        return self._value

    @value.setter
    def value(self, value):
        self._value = np.asarray(value, dtype=np.float64)
        self.shape = self._value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(value) -> Tensor:
    return Tensor(value, requires_grad=True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _node(value, parents, backward_fn, form=None) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    if not requires:
        return Tensor(value)
    return Tensor(value, requires_grad=True, _parents=tuple(parents), _backward_fn=backward_fn,
                  _form=form)


def _reads_rows(backward_fn):
    """Mark a closure that takes a ``Rows`` upstream gradient as it is; the
    sweep hands any other closure, a wrapper of this one among them, the
    dense form."""
    backward_fn.reads_rows = True
    return backward_fn


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    value = a.value + b.value

    def backward_fn(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _node(value, (a, b), backward_fn)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    value = a.value - b.value

    def backward_fn(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _node(value, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    value = a.value * b.value

    def backward_fn(g):
        return (_unbroadcast(g * b.value, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.value, b.shape) if b.requires_grad else None)

    return _node(value, (a, b), backward_fn)


def scale(a, factor: float) -> Tensor:
    a = as_tensor(a)
    factor = float(factor)
    return _node(a.value * factor, (a,), lambda g: (g * factor,))


def block_matmul(blocks: np.ndarray, h) -> Tensor:
    """Multiply row blocks of ``h`` by constant square blocks.

    blocks: (n_blocks, k, k) constants; h: (n_blocks * k, d).
    Output row block i is blocks[i] @ h_block_i.
    """
    h = as_tensor(h)
    n_blocks, k, k2 = blocks.shape
    if k != k2 or h.shape[0] != n_blocks * k:
        raise ShapeError(f"block_matmul: blocks {blocks.shape} incompatible with h {h.shape}")
    d = h.shape[1]
    value = (blocks @ h.value.reshape(n_blocks, k, d)).reshape(n_blocks * k, d)

    def backward_fn(g):
        gb = blocks.transpose(0, 2, 1) @ g.reshape(n_blocks, k, d)
        return (gb.reshape(n_blocks * k, d),)

    return _node(value, (h,), backward_fn)


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    return _node(a.value.sum(), (a,), lambda g: (np.broadcast_to(g, a.shape),))


def sum_axis(a, axis: int) -> Tensor:
    a = as_tensor(a)
    return _node(a.value.sum(axis=axis), (a,),
                 lambda g: (np.broadcast_to(np.expand_dims(g, axis), a.shape),))


def mean_axis(a, axis: int) -> Tensor:
    a = as_tensor(a)
    return scale(sum_axis(a, axis), 1.0 / a.shape[axis])


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.shape
    return _node(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


class Rows(NamedTuple):
    """A gradient contribution that is zero outside the distinct rows
    ``indices``; ``rows[j]`` is the contribution to row ``indices[j]``."""
    indices: np.ndarray
    rows: np.ndarray


def _merge_rows(first: Rows, second: Rows) -> Rows:
    """first + second as one ``Rows`` on the ascending union of their
    indices: first is assigned into zeros and second added, which is the
    arithmetic of scattering both into a zero full array."""
    both = np.concatenate([first.indices, second.indices])
    both.sort()
    distinct = np.ones(both.size, dtype=bool)
    np.not_equal(both[1:], both[:-1], out=distinct[1:])
    indices = both[distinct]
    rows = np.zeros((indices.size, *first.rows.shape[1:]))
    rows[np.searchsorted(indices, first.indices)] = first.rows
    rows[np.searchsorted(indices, second.indices)] += second.rows
    return Rows(indices, rows)


def _densify(grad: Rows, shape: tuple[int, ...]) -> np.ndarray:
    """A ``Rows`` gradient written into zeros of ``shape``."""
    dense = np.zeros(shape)
    dense[grad.indices] = grad.rows
    return dense


def _live_rows(g: np.ndarray | Rows) -> tuple[np.ndarray, np.ndarray]:
    """The ascending indices of the rows of an upstream gradient that have a
    nonzero entry, and those rows (g itself when every row is live); a
    ``Rows`` gives the same ones as its dense form."""
    rows = g.rows if isinstance(g, Rows) else g
    live = np.flatnonzero((rows != 0) @ np.ones(rows.shape[1], dtype=bool))
    if isinstance(g, Rows):
        live = live[np.argsort(g.indices[live])]
        return g.indices[live], np.take(rows, live, axis=0)
    return live, (g if live.size == len(g) else np.take(g, live, axis=0))


def _rows_of(a: Tensor, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of a's value, formed again if a sweep dropped it, in an
    array of the caller's own."""
    return a._form(rows) if a._value is None else np.take(a._value, rows, axis=0)


# Rows per block of the row-wise forward passes (linear_prelu, row_sq_dist):
# a block's temporaries stay small beside the node's value.
ROW_BLOCK = 1024


def _blocks(count: int):
    """Slices of ``ROW_BLOCK`` rows that cover range(count)."""
    return (slice(start, start + ROW_BLOCK) for start in range(0, count, ROW_BLOCK))


def _row_product(x_rows: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """x_rows @ w for rows of an (n, m) x, each row with the bits GEMM gives
    it in x @ w: numpy hands a one-row product to GEMV, whose bits differ,
    so one row of several is multiplied as two."""
    if len(x_rows) == 1 < n:
        return (np.repeat(x_rows, 2, axis=0) @ w)[:1]
    return x_rows @ w


def take_rows(a, indices: np.ndarray) -> Tensor:
    """Rows ``indices`` of ``a``, which must be distinct (a ``ContractError``
    otherwise); the backward pass returns the upstream rows as ``Rows``."""
    a = as_tensor(a)
    indices = np.asarray(indices, dtype=np.int64)
    if not np.diff(np.sort(indices, axis=None)).all():
        raise ContractError("take_rows: repeated row indices")
    value = a.value[indices]

    def backward_fn(g):
        return (Rows(indices, g),)

    return _node(value, (a,), backward_fn)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.value > 0

    def backward_fn(g):
        return (g * mask,)

    return _node(np.where(mask, a.value, 0.0), (a,), backward_fn)


def linear_prelu(x, weight, slope) -> Tensor:
    """p = x @ weight where p > 0, slope * p elsewhere, for a scalar slope.

    The node keeps x and weight, not the (rows, d_out) product p, and forms
    any rows of its value again from them, to the forward pass's bits: a
    sweep drops the value when it starts, ``row_sq_dist`` reads the rows it
    needs through that form, each read forming its own, and a read of
    ``.value`` forms all of it. One row of several is multiplied as two
    (``_row_product``), so every row has GEMM's bits.
    The backward pass forms p again for the live rows, into one buffer that
    holds both gradients in turn, and hands x those rows' gradient as
    ``Rows``. The value is max(p, slope * p) for slope <= 1 and min(p, slope
    * p) above 1, with no select on a sign; at p = +-0 numpy returns the
    second, slope * p. Values are formed ``ROW_BLOCK`` rows at a time."""
    x, weight, slope = as_tensor(x), as_tensor(weight), as_tensor(slope)
    if weight.value.ndim != 2 or x.shape[1:] != weight.shape[:1] or slope.value.ndim != 0:
        raise ShapeError(f"linear_prelu: x {x.shape}, weight {weight.shape}, slope {slope.shape}"
                         " must be (n, m), (m, d) and ()")
    xv, w, s = x.value, weight.value, slope.value
    n = len(xv)
    select = np.maximum if s <= 1 else np.minimum

    def form(rows=None):
        """prelu(x[rows] @ w) for ascending indices ``rows``, or every row."""
        count = n if rows is None else rows.size
        value = np.empty((count, w.shape[1]))
        for block in _blocks(count):
            x_rows = xv[block] if rows is None else np.take(xv, rows[block], axis=0)
            product = _row_product(x_rows, w, n)
            np.multiply(s, product, out=value[block])
            select(product, value[block], out=value[block])
        return value

    @_reads_rows
    def backward_fn(g):
        live, g = _live_rows(g)                 # rows with a nonzero upstream gradient
        x_live = xv if live.size == n else np.take(xv, live, axis=0)
        out = _row_product(x_live, w, n)        # their product, formed again
        mask = out > 0
        dslope = None
        if slope.requires_grad:
            np.minimum(0.0, out, out=out)       # p where p <= 0, else 0
            out *= g
            dslope = np.asarray(out.sum())
        # -(g * (slope * (mask - 1) - mask)) is g where p > 0 and g * slope
        # elsewhere, each rounded once and with the sign of a zero kept.
        np.subtract(mask, 1.0, out=out)
        out *= s
        out -= mask
        out *= g
        np.negative(out, out=out)
        return (Rows(live, out @ w.T) if x.requires_grad else None,
                x_live.T @ out if weight.requires_grad else None, dslope)

    return _node(form(), (x, weight, slope), backward_fn, form)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    value = np.empty_like(a.value)
    pos = a.value >= 0
    value[pos] = 1.0 / (1.0 + np.exp(-a.value[pos]))
    ez = np.exp(a.value[~pos])
    value[~pos] = ez / (1.0 + ez)

    def backward_fn(g):
        return (g * value * (1.0 - value),)

    return _node(value, (a,), backward_fn)


def row_sq_dist(a, b) -> Tensor:
    """Per-row squared distance (n, d), (n, d) -> (n,): sub -> mul -> sum_axis
    in one node, which keeps no (n, d) array between the passes. The forward
    pass works ``ROW_BLOCK`` rows at a time; the backward pass reads the
    operands' live rows alone, through the form of an operand whose value
    a sweep dropped."""
    a, b = as_tensor(a), as_tensor(b)
    value = np.empty(len(a.value))
    for block in _blocks(len(value)):
        squares = a.value[block] - b.value[block]
        squares *= squares
        value[block] = np.sum(squares, axis=1)

    def backward_fn(g):
        live = np.flatnonzero(g)
        # the difference, formed again on the rows with a nonzero upstream gradient
        grad = (2.0 * g[live])[:, None] * (_rows_of(a, live) - _rows_of(b, live))
        return (Rows(live, grad) if a.requires_grad else None,
                Rows(live, -grad) if b.requires_grad else None)

    return _node(value, (a, b), backward_fn)


# A pair whose squared distance is not above this fraction of |p|^2 + |q|^2
# (the Gram form cancels there), or NaN from overflowing terms, is recomputed.
_NEAR = 1e-4


def euclidean_matrix(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, tuple, np.ndarray]:
    """(..., m, d), (..., n, d) -> (..., m, n) euclidean distances from the
    Gram form |p|^2 + |q|^2 - 2 p.q, the near pairs' indices, and their row
    differences p - q, which give their distances: coincident rows are 0
    apart, rows with overflowing Gram terms inf, never NaN. A stack's items
    keep the bits each gets alone. Where ``p is q`` the diagonal is 0 and
    holds no near pair."""
    norms = (np.einsum("...ij,...ij->...i", p, p)[..., :, None]
             + np.einsum("...ij,...ij->...i", q, q)[..., None, :])
    with np.errstate(invalid="ignore"):     # inf - inf: overflowing terms, near below
        sq = norms - 2.0 * (p @ np.swapaxes(q, -1, -2))
    near = ~(sq > _NEAR * norms)
    if p is q:                              # a row is 0 from itself: nothing to recompute
        diagonal = np.arange(sq.shape[-1])
        sq[..., diagonal, diagonal] = near[..., diagonal, diagonal] = 0
    near = np.nonzero(near)
    diff = p[near[:-1]] - q[near[:-2] + near[-1:]]
    sq[near] = np.einsum("ij,ij->i", diff, diff)
    return np.sqrt(sq), near, diff


def pairwise_euclidean(p, q) -> Tensor:
    """(m, d), (n, d) -> (m, n) euclidean distances (``euclidean_matrix``).
    Near pairs take their gradient from the exact row difference too, so
    coincident points have distance 0 and gradient 0."""
    p, q = as_tensor(p), as_tensor(q)
    if p.value.ndim != 2 or q.value.ndim != 2 or p.shape[1] != q.shape[1]:
        raise ShapeError(f"pairwise_euclidean shapes {p.shape} and {q.shape}")
    pv, qv = p.value, q.value
    dist, (rows, cols), diff = euclidean_matrix(pv, qv)

    def backward_fn(g):
        w = np.divide(g, dist, out=np.zeros_like(dist), where=dist > 0)
        near = w[rows, cols][:, None] * diff
        w[rows, cols] = 0.0
        grad_p = grad_q = None
        if p.requires_grad:
            grad_p = w.sum(axis=1)[:, None] * pv - w @ qv
            np.add.at(grad_p, rows, near)
        if q.requires_grad:
            grad_q = w.sum(axis=0)[:, None] * qv - w.T @ pv
            np.add.at(grad_q, cols, -near)
        return grad_p, grad_q

    return _node(dist, (p, q), backward_fn)


def _swept(g=None):
    """The closure a sweep leaves on an interior node it has passed: the
    arrays the node saved are gone, so a later sweep that reaches it fails."""
    raise ContractError("a sweep reached a node that an earlier sweep passed; "
                        "build the graph again to differentiate it again")


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        if node._backward_fn is _swept:
            _swept()
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


def backward(root: Tensor) -> None:
    """Reverse-mode sweep from a scalar root; accumulates into ``.grad``.

    The sweep starts by dropping the value of every node that can form its
    rows again (``linear_prelu``). Leaves keep their gradients, as dense
    arrays. An interior node's gradient and its contributions are dropped
    once they have been passed to the parents, and so are its closure, its
    parent links and the sweep's own reference to it: a node the caller
    does not hold is freed as soon as the sweep has passed it. Its closure
    becomes ``_swept``, so a later sweep that reaches the node fails before
    it changes a gradient.
    A ``Rows`` gradient stays sparse until a dense contribution meets it or
    a node that does not read ``Rows`` (a leaf among them) takes it."""
    if root.shape != ():
        raise ContractError(f"backward root must be a scalar, got shape {root.shape}")
    if not root.requires_grad:
        return
    order = _toposort(root)
    for node in order:
        node.grad = None
        if node._form is not None:
            node._value = None
    root.grad = np.asarray(1.0)
    owned: set[int] = set()     # ids of the nodes whose dense .grad the sweep made
    for position in range(len(order) - 1, -1, -1):
        node, order[position] = order[position], None
        backward_fn, parents = node._backward_fn, node._parents
        node._backward_fn, node._parents = (None if backward_fn is None else _swept), ()
        if isinstance(node.grad, Rows) and not getattr(backward_fn, "reads_rows", False):
            node.grad = _densify(node.grad, node.shape)
        if backward_fn is None or node.grad is None:
            continue
        contributions = backward_fn(node.grad)
        node.grad = backward_fn = None
        for parent, contrib in zip(parents, contributions):
            if not parent.requires_grad or contrib is None:
                continue
            if isinstance(contrib, Rows):
                if parent.grad is None:
                    parent.grad = contrib
                elif isinstance(parent.grad, Rows):
                    parent.grad = _merge_rows(parent.grad, contrib)
                else:
                    if id(parent) not in owned:
                        parent.grad = parent.grad.copy()
                        owned.add(id(parent))
                    parent.grad[contrib.indices] += contrib.rows
                continue
            if isinstance(parent.grad, Rows):
                parent.grad = _densify(parent.grad, parent.shape)
                owned.add(id(parent))
            if parent.grad is None:
                parent.grad = contrib
            elif id(parent) in owned:
                parent.grad += contrib
            else:
                parent.grad = parent.grad + contrib
                owned.add(id(parent))
        contributions = contrib = parents = None


def gradients(loss: Tensor, params: list[Tensor]) -> list[np.ndarray]:
    """Gradients of a scalar loss for each parameter (zeros when unreachable)."""
    for p in params:
        p.grad = None
    backward(loss)
    return [np.zeros_like(p.value) if p.grad is None else np.require(p.grad, requirements="W")
            for p in params]
