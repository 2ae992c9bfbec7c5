"""Minimal dense-tensor reverse-mode differentiation.

A Tensor wraps a float64 ndarray plus, when it participates in
differentiation, links to its parents and a closure producing the parents'
gradient contributions: None for a parent that needs no gradient (a constant
operand), so no time goes into forming it. ``backward`` walks the recorded
graph once in reverse topological order, accumulating into ``.grad``, and
drops a node's contributions once it has passed them on. Closures may return
read-only views and one array for several parents, so the sweep writes only
into buffers it created: the sum it makes at a parent's second contribution,
which later ones are added into.

A gather (``take_rows``, whose rows must be distinct) contributes only the
rows it read, as a ``Rows`` pair of indices and (m, d) upstream rows. The
sweep writes them into a zero gradient it makes, or in place into one it
owns (copying one it does not own first), so rows outside the indices keep
their bits: a -0.0 stays -0.0. A node may keep a product's operands rather
than the product and form it again in its backward pass, to the same bits:
``linear_prelu`` does.

The two row-wise nodes of a training step work only on live rows, those
whose upstream gradient has a nonzero entry: ``row_sq_dist`` contributes
``Rows`` to both operands, and ``linear_prelu`` forms its product again,
its weight and slope sums and its ``Rows`` for x on the live rows alone.
A dead row contributes nothing, even where its product is not finite (a
non-finite forward pass is the caller's to catch). Each live row keeps
the bits of the dense form; the weight and slope sums lose the dead rows'
exact-zero terms, which changes their association and so their last bits.

Only the operations this package needs are provided; all of them are dense
and deterministic. Hinge-style kinks (relu, prelu at 0) use the subgradient 0.
``euclidean_matrix``, the one all-pairs distance kernel, works on plain
arrays; ``pairwise_euclidean`` is its tape node, the mirror search calls it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContractError, ShapeError


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, value, requires_grad: bool = False, _parents=(), _backward_fn=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward_fn = _backward_fn

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"


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


def _node(value, parents, backward_fn) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    if not requires:
        return Tensor(value)
    return Tensor(value, requires_grad=True, _parents=tuple(parents), _backward_fn=backward_fn)


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

    The node keeps x and weight, not the (rows, d_out) product p: the backward
    pass forms p again for the live rows, into one buffer that holds both
    gradients in turn, and hands x those rows' gradient as ``Rows``. The
    value is max(p, slope * p) for slope <= 1 and min(p, slope * p) above 1,
    with no select on a sign; at p = +-0 numpy returns the second, slope * p."""
    x, weight, slope = as_tensor(x), as_tensor(weight), as_tensor(slope)
    if weight.value.ndim != 2 or x.shape[1:] != weight.shape[:1] or slope.value.ndim != 0:
        raise ShapeError(f"linear_prelu: x {x.shape}, weight {weight.shape}, slope {slope.shape}"
                         " must be (n, m), (m, d) and ()")
    w, s = weight.value, slope.value
    product = x.value @ w
    value = s * product
    (np.maximum if s <= 1 else np.minimum)(product, value, out=value)

    def backward_fn(g):
        live = np.flatnonzero(g.any(axis=1))    # rows with a nonzero upstream gradient
        g, x_live = g[live], x.value[live]
        out = x_live @ w                        # their product, formed again
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

    return _node(value, (x, weight, slope), backward_fn)


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
    in one node, which keeps no (n, d) array between the passes."""
    a, b = as_tensor(a), as_tensor(b)
    squares = a.value - b.value
    squares *= squares

    def backward_fn(g):
        live = np.flatnonzero(g)
        # the difference, formed again on the rows with a nonzero upstream gradient
        grad = (2.0 * g[live])[:, None] * (a.value[live] - b.value[live])
        return (Rows(live, grad) if a.requires_grad else None,
                Rows(live, -grad) if b.requires_grad else None)

    return _node(np.sum(squares, axis=1), (a, b), backward_fn)


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
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


def backward(root: Tensor) -> None:
    """Reverse-mode sweep from a scalar root; accumulates into ``.grad``.

    Leaves keep their gradients. An interior node's gradient and its
    contributions are dropped once they have been passed to the parents, so
    the sweep holds only the gradients still waiting to be passed on."""
    if root.value.shape != ():
        raise ContractError(f"backward root must be a scalar, got shape {root.value.shape}")
    if not root.requires_grad:
        return
    order = _toposort(root)
    for node in order:
        node.grad = None
    root.grad = np.asarray(1.0)
    owned: set[int] = set()     # ids of the nodes whose .grad the sweep made
    for node in reversed(order):
        if node._backward_fn is None or node.grad is None:
            continue
        contributions = node._backward_fn(node.grad)
        for parent, contrib in zip(node._parents, contributions):
            if not parent.requires_grad or contrib is None:
                continue
            if isinstance(contrib, Rows):
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.value)
                    parent.grad[contrib.indices] = contrib.rows
                else:
                    if id(parent) not in owned:
                        parent.grad = parent.grad.copy()
                    parent.grad[contrib.indices] += contrib.rows
                owned.add(id(parent))
            elif parent.grad is None:
                parent.grad = contrib
            elif id(parent) in owned:
                parent.grad += contrib
            else:
                parent.grad = parent.grad + contrib
                owned.add(id(parent))
        node.grad = contributions = contrib = None


def gradients(loss: Tensor, params: list[Tensor]) -> list[np.ndarray]:
    """Gradients of a scalar loss for each parameter (zeros when unreachable)."""
    for p in params:
        p.grad = None
    backward(loss)
    return [np.zeros_like(p.value) if p.grad is None else np.require(p.grad, requirements="W")
            for p in params]
