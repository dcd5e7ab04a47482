"""Minimal reverse-mode differentiation over numpy arrays.

A fixed, small set of operations is enough for every gradient this package
needs: arithmetic, matrix products, exp/ReLU/tanh, sums, reshapes and
last-axis slices, a dense layer act(x @ w + b) as one fused node, Gaussian
log densities summed over the last axis (the standard normal's serves every
prior and log q of the package), and, as one fused node, an affine output
layer z = x @ w + b with the Bernoulli log mass of its logits summed over
the last axis. The Bernoulli arithmetic is split into an array forward and
its gradient at the logits, so that a larger operation can call them too:
``fused`` makes one node of an operation whose gradients are
written out as one function, run once per backward pass (the dense layer,
the Bernoulli output layer and the VAE's log weights are such nodes). Every
node, fused or not, holds its node operands and one VJP that returns their
gradients. Matrix products batch over leading axes as numpy's
``@`` does, so a model can evaluate K stacked parameter draws in one graph.
Graphs are built functionally (fresh leaf nodes per evaluation); numbers
and arrays enter operations as constants, which get no gradient, and an
operation with no node operand folds to a plain ndarray: a graph builder
called on arrays gives its values without a tape, and ``value(x)`` reads a
node or an array alike. A single backward pass from a seed (ones at a
scalar root) accumulates vector-Jacobian products in reverse creation order
(a node is always made after its operands, so no order is computed), and
broadcasting is undone by summing over the broadcast axes (a gradient that
already has its operand's shape is passed on as it is). A fused node may
work in place on the buffers it allocates itself, but no operation changes
the value of another node. There is deliberately no general graph compiler
and no higher-order support.

Typical use::

    mu = Node(np.zeros(3))
    theta = mu + eps * np.exp(-1.0)
    loss = vsum(theta * theta) * 0.5
    grads = gradients(loss, {"mu": mu})
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

__all__ = [
    "Node",
    "backward",
    "bernoulli_dense_rows",
    "bernoulli_rows_at_logits",
    "bernoulli_rows_forward",
    "dense",
    "exp",
    "fused",
    "gradients",
    "matmul",
    "normal_logpdf_rows",
    "relu",
    "reshape",
    "slice1d",
    "std_normal_logpdf_rows",
    "tanh",
    "value",
    "vsum",
]

_LOG_2PI = math.log(2.0 * math.pi)


class Node:
    """A value in the computation graph; leaves carry the parameters.

    ``parents`` holds the operands that are nodes, and ``vjp(g)`` returns
    their gradients, in the same order, from ``g`` at this node. A leaf has
    neither."""

    __slots__ = ("value", "parents", "vjp", "grad", "number")

    # Make numpy defer to the reflected operators instead of coercing a Node
    # into an object array.
    __array_ufunc__ = None

    _numbers = itertools.count()  # creation order, which backward() visits

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=float)
        self.parents = parents
        self.vjp = vjp
        self.grad = None  # set by backward(), which says why it lives here
        self.number = next(Node._numbers)

    # arithmetic sugar; plain numbers/arrays are treated as constants
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Node(shape={self.value.shape})"


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting); a
    gradient that already has the shape comes back as it is."""
    if grad.shape == shape:
        return grad
    grad = np.asarray(grad, dtype=float)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def value(x) -> np.ndarray:
    """The float array of a node, or of a constant."""
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=float)


def fused(out, operands: dict, vjp):
    """A node over ``out`` whose parents are the operands that are nodes, for
    an operation whose gradients are written out as one function: ``vjp(g)``
    returns the gradient of each operand that is a node, as a dict with the
    keys of ``operands``. With no node operand, ``out`` comes back as a
    float array."""
    names = [name for name, operand in operands.items() if isinstance(operand, Node)]
    if not names:
        return np.asarray(out, dtype=float)

    def node_vjp(g):
        grads = vjp(g)
        return [grads[name] for name in names]

    return Node(out, tuple(operands[name] for name in names), node_vjp)


def _op(out, *edges):
    """A node over ``out`` whose parents are the operands that are nodes.
    Each edge is (operand, VJP); a constant operand (a number or an array)
    gets none. With no node operand, ``out`` comes back as a float array."""
    edges = [edge for edge in edges if isinstance(edge[0], Node)]
    if not edges:
        return np.asarray(out, dtype=float)
    return Node(out, tuple(edge[0] for edge in edges), lambda g: [vjp(g) for _, vjp in edges])


# ----------------------------------------------------------------------
# primitive operations; every operand may be a node or a constant


def add(a, b):
    va, vb = value(a), value(b)
    return _op(
        va + vb,
        (a, lambda g: _unbroadcast(g, va.shape)),
        (b, lambda g: _unbroadcast(g, vb.shape)),
    )


def sub(a, b):
    va, vb = value(a), value(b)
    return _op(
        va - vb,
        (a, lambda g: _unbroadcast(g, va.shape)),
        (b, lambda g: _unbroadcast(-g, vb.shape)),
    )


def mul(a, b):
    va, vb = value(a), value(b)
    return _op(
        va * vb,
        (a, lambda g: _unbroadcast(g * vb, va.shape)),
        (b, lambda g: _unbroadcast(g * va, vb.shape)),
    )


def div(a, b):
    va, vb = value(a), value(b)
    return _op(
        va / vb,
        (a, lambda g: _unbroadcast(g / vb, va.shape)),
        (b, lambda g: _unbroadcast(-g * va / vb**2, vb.shape)),
    )


def _matmul_vjps(va: np.ndarray, vb: np.ndarray):
    """VJPs of ``va @ vb`` with respect to each operand, as numpy's ``@``
    defines the product: operands of two or more axes are stacks of matrices
    broadcast over their leading axes, and a vector operand is promoted to a
    matrix and its axis dropped from the result."""
    # Work with the promoted matrices; the VJPs restore the dropped axes of
    # g, undo the broadcasting of leading axes, and drop the promotion again.
    ma = va[None, :] if va.ndim == 1 else va
    mb = vb[:, None] if vb.ndim == 1 else vb

    def promoted(g):
        g = np.asarray(g)
        if vb.ndim == 1:
            g = np.expand_dims(g, -1)
        if va.ndim == 1:
            g = np.expand_dims(g, -2)
        return g

    def vjp_a(g):
        return _unbroadcast(promoted(g) @ np.swapaxes(mb, -1, -2), ma.shape).reshape(va.shape)

    def vjp_b(g):
        return _unbroadcast(np.swapaxes(ma, -1, -2) @ promoted(g), mb.shape).reshape(vb.shape)

    return vjp_a, vjp_b


def matmul(a, b):
    """``a @ b`` with numpy semantics (see ``_matmul_vjps``)."""
    va, vb = value(a), value(b)
    vjp_a, vjp_b = _matmul_vjps(va, vb)
    return _op(va @ vb, (a, vjp_a), (b, vjp_b))


_ACTIVATIONS = (None, "tanh", "relu")


def dense(x, w, b, act: str | None = None):
    """``act(x @ w + b)`` as one node: an affine layer and its activation.

    The product follows numpy's ``@`` and ``b`` broadcasts against it. The
    bias and the activation are applied in place on the product's buffer, so
    a layer allocates one output array. ``act`` is None (affine), "tanh" or
    "relu". The gradients of the inputs that are nodes are written out
    together (``fused``), from the gradient at the pre-activation, which is
    recovered from the output.
    """
    if act not in _ACTIVATIONS:
        raise ValueError(f"act must be one of {_ACTIVATIONS}")
    out, product_shape = _affine(value(x), value(w), value(b))
    if act == "tanh":
        np.tanh(out, out=out)
    elif act == "relu":
        np.copyto(out, 0.0, where=~(out > 0.0))

    def pre(g):
        if act == "tanh":
            return g * (1.0 - out * out)
        if act == "relu":
            return g * (out > 0.0)
        return g

    return fused(out, {"x": x, "w": w, "b": b}, _affine_vjp(x, w, b, product_shape, pre))


def _affine(xv: np.ndarray, wv: np.ndarray, bv: np.ndarray) -> tuple[np.ndarray, tuple]:
    """``xv @ wv + bv`` in one new buffer, and the shape of the product."""
    out = np.asarray(xv @ wv)
    product_shape = out.shape
    try:
        out += bv
    except ValueError:  # the bias adds leading axes to the product
        out = out + bv
    return out, product_shape


def _affine_vjp(x, w, b, product_shape: tuple, pre):
    """The VJP, for ``fused``, of a node over z = x @ w + b whose gradient at
    z is ``pre(g)``: the gradients of those of x, w and b that are nodes."""

    def vjp(g):
        gz = pre(g)
        grads = {}
        if isinstance(x, Node) or isinstance(w, Node):
            product_vjp_x, product_vjp_w = _matmul_vjps(value(x), value(w))
            g_product = _unbroadcast(gz, product_shape)
            if isinstance(x, Node):
                grads["x"] = product_vjp_x(g_product)
            if isinstance(w, Node):
                grads["w"] = product_vjp_w(g_product)
        if isinstance(b, Node):
            grads["b"] = _unbroadcast(gz, b.value.shape)
        return grads

    return vjp


def exp(a):
    out = np.exp(value(a))
    return _op(out, (a, lambda g: g * out))


def tanh(a):
    out = np.tanh(value(a))
    return _op(out, (a, lambda g: g * (1.0 - out * out)))


def relu(a):
    va = value(a)
    mask = va > 0.0
    return _op(np.where(mask, va, 0.0), (a, lambda g: g * mask))


def vsum(a, axis: int | None = None):
    va = value(a)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, va.shape).astype(float)
        return np.broadcast_to(np.expand_dims(g, axis), va.shape).astype(float)

    return _op(np.sum(va, axis=axis), (a, vjp))


def reshape(a, shape: tuple[int, ...]):
    return _op(value(a).reshape(shape), (a, lambda g: np.asarray(g).reshape(a.value.shape)))


def slice1d(a, start: int, stop: int):
    """``a[..., start:stop]``: a slice of the last axis."""
    va = value(a)

    def vjp(g):
        out = np.zeros_like(va)
        out[..., start:stop] = g
        return out

    return _op(va[..., start:stop], (a, vjp))


# ----------------------------------------------------------------------
# composite log densities


def std_normal_logpdf_rows(x):
    """The N(0, I) log density summed over the last axis: -|x|^2 / 2 - d/2
    log(2 pi) for rows x (..., d), one value per row."""
    return vsum(x * x, axis=-1) * (-0.5) + (-0.5 * value(x).shape[-1] * _LOG_2PI)


def normal_logpdf_rows(x, mean, log_std):
    """Gaussian log density summed over the last axis.

    ``x`` and ``mean`` broadcast together, e.g. (n, d) observations against
    (K, n, d) means give shape (K, n). ``log_std`` is a scalar or one value
    per coordinate of the last axis (counted once per coordinate), or an
    array of two or more axes whose last axis holds one value per coordinate
    or a single value for the whole row (then counted d times).
    """
    shape = np.broadcast_shapes(value(x).shape, value(mean).shape)
    if not shape:
        raise ValueError("normal_logpdf_rows expects observations with a last axis")
    d = shape[-1]
    z = (x - mean) * exp(-log_std)
    quad = vsum(z * z, axis=-1) * (-0.5)
    scales = value(log_std)
    if scales.ndim >= 2:
        row_logdet = vsum(log_std, axis=-1) * (d / scales.shape[-1])
    else:
        row_logdet = vsum(log_std) * (d / max(scales.size, 1))
    return quad - row_logdet - 0.5 * d * _LOG_2PI


_PROB_FLOOR = 1e-7
# logit(1 - 1e-7): clipping the logits to +-this is the probability floor.
_LOGIT_CAP = math.log1p(-_PROB_FLOOR) - math.log(_PROB_FLOOR)


def bernoulli_dense_rows(x, w, b, targets: np.ndarray):
    """Bernoulli log mass of ``targets`` on the logits z = x @ w + b, summed
    over the last axis, as one node: the output layer of a decoder and its
    likelihood. The value is ``bernoulli_rows_forward``'s and the gradient at
    the logits ``bernoulli_rows_at_logits``'s, from which x, w and b get
    theirs as through an affine layer.
    """
    out, softplus, inside = bernoulli_rows_forward(value(x), value(w), value(b), targets)

    def at_logits(g):
        return bernoulli_rows_at_logits(softplus, inside, targets, g)

    return fused(out, {"x": x, "w": w, "b": b}, _affine_vjp(x, w, b, softplus.shape, at_logits))


def bernoulli_rows_forward(xv: np.ndarray, wv: np.ndarray, bv: np.ndarray, targets: np.ndarray):
    """The rows of ``bernoulli_dense_rows`` on arrays, with what their
    gradient needs: (rows, softplus, inside). ``softplus`` holds
    log1p(exp(z)) of the logits, clipped where they are, and ``inside`` is
    the mask of the logits strictly inside the cap, or None when all are.

    Per element the mass is t z - log1p(exp(z)) = t log p + (1 - t) log(1 - p)
    with p = sigmoid(z). ``xv`` holds rows and ``wv`` is a matrix (each may
    be a stack of them), the product follows numpy's ``@`` and ``bv`` is a
    vector. ``targets`` has the shape of the logits' last two or more axes.
    z is formed in one buffer, which then holds log1p(exp(z)) in place, and
    the row sum of t z is taken as x . (t w^T) + t . b, over the width of x
    rather than of z.

    Rows holding a logit at or beyond +-logit(1 - 1e-7) (``_LOGIT_CAP``), or
    a NaN, take the same mass on logits clipped to the cap
    (``_clip_logits``): p stays in [1e-7, 1 - 1e-7], so the value is finite
    for any non-NaN logits, and NaN gives a NaN row. They are looked for
    only when the largest or smallest logit says one exists. Each row's
    value depends on that row alone, so a row of a draw has the same bits
    whether the draw is computed alone or among others.
    """
    if xv.ndim < 2 or wv.ndim < 2 or bv.ndim != 1:
        raise ValueError("x must hold rows, w must be a matrix or a stack of them, b a vector")
    targets = np.asarray(targets, dtype=float)
    # Logits that overflow, and rows whose sum_j t_j z_j does, are clipped
    # below, silently.
    with np.errstate(over="ignore", invalid="ignore"):
        z, _ = _affine(xv, wv, bv)
        if targets.ndim < 2 or targets.shape != z.shape[z.ndim - targets.ndim :]:
            raise ValueError(f"targets {targets.shape} must be trailing rows of logits {z.shape}")
        inside = unclipped = None  # once a logit is not strictly inside the cap: the
        # mask of those that are, and of the rows that hold only such logits
        if z.size and not (z.max() < _LOGIT_CAP and z.min() > -_LOGIT_CAP):
            inside = (z > -_LOGIT_CAP) & (z < _LOGIT_CAP)
            unclipped = inside.all(axis=-1)
        t_dot_z = None
        if unclipped is None or unclipped.any():
            t_dot_z = np.einsum("...i,...i->...", xv, targets @ np.swapaxes(wv, -1, -2))
            t_dot_z += targets @ bv
            if not math.isfinite(t_dot_z.sum()):
                finite = np.isfinite(t_dot_z)
                unclipped = finite if unclipped is None else unclipped & finite
    if unclipped is not None:
        t_dot_clipped = _clip_logits(z, targets)
        t_dot_z = t_dot_clipped if t_dot_z is None else np.where(unclipped, t_dot_z, t_dot_clipped)
    np.exp(z, out=z)
    np.log1p(z, out=z)
    return t_dot_z - z.sum(axis=-1), z, inside


def bernoulli_rows_at_logits(softplus, inside, targets: np.ndarray, g) -> np.ndarray:
    """The gradient at the logits of ``bernoulli_rows_forward``'s rows, given
    ``g`` at the rows: g (t - sigmoid(z)), with sigmoid(z) recovered from the
    buffer as -expm1(-log1p(exp(z))), and 0 at the clipped logits."""
    r = np.negative(softplus)
    np.expm1(r, out=r)
    r += targets
    if inside is not None:
        r *= inside
    r *= g[..., None]
    return r


def _clip_logits(z: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Clip the logits z in place to +-_LOGIT_CAP, so that exp(z) stays
    below 1e7 and p in [1e-7, 1 - 1e-7], and return the row sums of
    targets * z over the clipped logits."""
    z.clip(-_LOGIT_CAP, _LOGIT_CAP, out=z)
    return np.einsum("...j,...j->...", z, targets)


# ----------------------------------------------------------------------
# backward pass


def backward(root: Node, seed=None) -> None:
    """Populate ``.grad`` on every node reachable from ``root``, starting from
    ``seed``, the gradient at the root (by default ones at a scalar root).

    The gradients stay on the nodes rather than in a dict local to
    ``gradients``: the trainer holds the previous step's graph, and with it
    these arrays, until the next step's graph is built. Folding this pass
    into ``gradients``, which frees them at once, measured 17 -> about 300
    minor page faults per BNN step (K = 50) and 15-25% slower steps.
    """
    if seed is None and root.value.size != 1:
        raise ValueError("backward expects a scalar root, or a seed")
    seed = np.ones_like(root.value) if seed is None else np.asarray(seed, dtype=float)
    if seed.shape != root.value.shape:
        raise ValueError(f"seed shape {seed.shape} differs from the root's {root.value.shape}")
    # A node is made after its parents, so visiting the nodes that have a
    # gradient pending in decreasing creation number visits each after every
    # node it feeds: its gradient is complete when it is taken.
    grads: dict[Node, np.ndarray] = {root: seed}
    pending = [(-root.number, root)]
    while pending:
        node = heapq.heappop(pending)[1]
        node.grad = g = grads.pop(node)
        if node.vjp is None:
            continue
        for parent, contribution in zip(node.parents, node.vjp(g)):
            contribution = np.asarray(contribution, dtype=float)
            if parent in grads:
                grads[parent] = grads[parent] + contribution
            else:
                grads[parent] = contribution
                heapq.heappush(pending, (-parent.number, parent))


def gradients(
    root: Node, leaves: dict[str, Node], seed=None, out: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """Backward pass from ``seed`` (see ``backward``); each named leaf's
    gradient, as a view of one float vector of the leaves' total size that
    holds them in the order of ``leaves``: ``out`` if given, else a new one.
    A leaf the pass does not reach gets zeros."""
    backward(root, seed)
    if out is None:
        out = np.empty(sum(node.value.size for node in leaves.values()))
    grads, start = {}, 0
    for name, node in leaves.items():
        grads[name] = view = out[start : start + node.value.size].reshape(node.value.shape)
        view[...] = 0.0 if node.grad is None else node.grad
        start += node.value.size
    return grads
