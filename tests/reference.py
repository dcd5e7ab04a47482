"""Reference constructions that the library's written-out gradients are
checked against.

The library has no tape: each model's log-weight builder returns its log
weights with a vector-Jacobian product written out by hand. This module
keeps what the tests compare those to: a minimal reverse-mode tape of
generic operations, each with its own vector-Jacobian product, and the
models' log weights built on it (``posterior_log_weights`` for BLR and BNN,
``vae_log_weights``); ``as_builder``, which gives a graph the builders'
(log weights, VJP) contract, whose pair ``vr_grad`` takes;
``finite_diff_check``, central differences of any gradient; ``gaussian_kl``,
a second formula for KL[p||q] between Gaussians, which the library's
closed-form divergence is checked against at order 1; and ``save_csv``,
which writes the CSV datasets that the CLI tests load.

The tape: ``Node`` holds a value and, unless it is a leaf, its parents and
a VJP; ``fused(out, operands, vjp)`` makes a node over ``out`` whose
gradients one function returns; ``backward`` accumulates vector-Jacobian
products from a seed in decreasing creation number (a node is always made
after its operands, so no order is computed); ``gradients`` gives the named
leaves' gradients in one flat vector. The operations: arithmetic with numpy
broadcasting (also as ``Node``'s operators), matrix products that batch over
leading axes as ``@`` does, exp/tanh/ReLU, sums, reshapes and last-axis
slices, a Bernoulli output layer as a single node, a column of ones after
a node's last and a bias as one more row of a weight matrix (the VAE's and
the BNN's layers are each one product of the two, ``_folded_layer``), and
Gaussian log densities summed over the last axis. Their values come from
the same numpy operations, in the same order, as the library's array
kernels. Numbers and arrays enter an operation as constants, which get no
gradient, and an operation with no node operand folds to a plain ndarray.
Broadcasting is undone by summing over the broadcast axes.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import math
from typing import Callable

import numpy as np

from vrbound import autodiff as ad
from vrbound.gaussian import GaussianDist
from vrbound.models.bnn import BNNModel

LOG_2PI = math.log(2.0 * math.pi)


class Node:
    """A value in the computation graph, with arithmetic operators; leaves
    carry the parameters, and plain numbers and arrays are constants.

    ``parents`` holds the operands that are nodes, and ``vjp(g)`` returns
    their gradients, in the same order, from ``g`` at this node. A leaf has
    neither."""

    __slots__ = ("value", "parents", "vjp", "number")

    _numbers = itertools.count()  # creation order, which backward() visits

    # Make numpy defer to the reflected operators instead of coercing a Node
    # into an object array.
    __array_ufunc__ = None

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=float)
        self.parents = parents
        self.vjp = vjp
        self.number = next(Node._numbers)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Node(shape={self.value.shape})"

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


def _value(x) -> np.ndarray:
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


def backward(root: Node, seed=None) -> dict[Node, np.ndarray]:
    """The gradient of every leaf reachable from ``root`` (a node without a
    VJP), starting from ``seed``, the gradient at the root (by default ones
    at a scalar root). Another node's gradient is dropped once its VJP has
    run."""
    if seed is None and root.value.size != 1:
        raise ValueError("backward expects a scalar root, or a seed")
    seed = np.ones_like(root.value) if seed is None else np.asarray(seed, dtype=float)
    if seed.shape != root.value.shape:
        raise ValueError(f"seed shape {seed.shape} differs from the root's {root.value.shape}")
    # A node is made after its parents, so visiting the nodes that have a
    # gradient pending in decreasing creation number visits each after every
    # node it feeds: its gradient is complete when it is taken.
    grads: dict[Node, np.ndarray] = {root: seed}
    at_leaves = {}
    pending = [(-root.number, root)]
    while pending:
        node = heapq.heappop(pending)[1]
        g = grads.pop(node)
        if node.vjp is None:
            at_leaves[node] = g
            continue
        for parent, contribution in zip(node.parents, node.vjp(g)):
            contribution = np.asarray(contribution, dtype=float)
            if parent in grads:
                grads[parent] = grads[parent] + contribution
            else:
                grads[parent] = contribution
                heapq.heappush(pending, (-parent.number, parent))
    return at_leaves


def gradients(
    root: Node, leaves: dict[str, Node], seed=None, out: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """Backward pass from ``seed`` (see ``backward``); each named leaf's
    gradient, as a view of one float vector of the leaves' total size that
    holds them in the order of ``leaves``: ``out`` if given, else a new one.
    A leaf the pass does not reach gets zeros."""
    at_leaves = backward(root, seed)
    if out is None:
        out = np.empty(sum(node.value.size for node in leaves.values()))
    grads, start = {}, 0
    for name, node in leaves.items():
        grads[name] = view = out[start : start + node.value.size].reshape(node.value.shape)
        view[...] = at_leaves.get(node, 0.0)
        start += node.value.size
    return grads


def as_builder(graph_fn):
    """A log-weight builder from a reference graph, whose pair ``vr_grad`` takes:
    ``graph_fn(leaves, noise)`` gets one leaf per parameter and returns the
    log-weight node, and the builder returns its value and a VJP that runs
    one backward pass from ``g``, giving every leaf it reaches."""

    def build(params, noise):
        leaves = {name: Node(v) for name, v in params.items()}
        root = graph_fn(leaves, noise)

        def vjp(g):
            at_leaves = backward(root, g)
            return {name: at_leaves[leaf] for name, leaf in leaves.items() if leaf in at_leaves}

        return root.value, vjp

    return build


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
    va, vb = _value(a), _value(b)
    return _op(
        va + vb,
        (a, lambda g: _unbroadcast(g, va.shape)),
        (b, lambda g: _unbroadcast(g, vb.shape)),
    )


def sub(a, b):
    va, vb = _value(a), _value(b)
    return _op(
        va - vb,
        (a, lambda g: _unbroadcast(g, va.shape)),
        (b, lambda g: _unbroadcast(-g, vb.shape)),
    )


def mul(a, b):
    va, vb = _value(a), _value(b)
    return _op(
        va * vb,
        (a, lambda g: _unbroadcast(g * vb, va.shape)),
        (b, lambda g: _unbroadcast(g * va, vb.shape)),
    )


def div(a, b):
    va, vb = _value(a), _value(b)
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
    va, vb = _value(a), _value(b)
    vjp_a, vjp_b = _matmul_vjps(va, vb)
    return _op(va @ vb, (a, vjp_a), (b, vjp_b))


def with_ones(a):
    """``a`` with a column of ones after its last: the input of a layer
    whose bias is the last row of its weights (``bias_row``)."""
    va = _value(a)
    out = np.concatenate([va, np.ones((*va.shape[:-1], 1))], axis=-1)
    return _op(out, (a, lambda g: g[..., :-1]))


def bias_row(w, b):
    """[w; b]: the matrix ``w``, or each of a stack of them, with the vector
    ``b``, or each of a stack of them, as one more row."""
    vw, vb = _value(w), _value(b)
    row = np.broadcast_to(vb[..., None, :], (*vw.shape[:-2], 1, vb.shape[-1]))
    out = np.concatenate([vw, row], axis=-2)
    return _op(
        out, (w, lambda g: g[..., :-1, :]), (b, lambda g: _unbroadcast(g[..., -1, :], vb.shape))
    )


def _folded_layer(x, w, b, act=None):
    """A layer as the VAE and the BNN compute it, one product: [x, 1] @
    [w; b], and ``act`` of it."""
    product = matmul(with_ones(x), bias_row(w, b))
    return product if act is None else act(product)


def exp(a):
    out = np.exp(_value(a))
    return _op(out, (a, lambda g: g * out))


def tanh(a):
    out = np.tanh(_value(a))
    return _op(out, (a, lambda g: g * (1.0 - out * out)))


def relu(a):
    va = _value(a)
    mask = va > 0.0
    return _op(np.where(mask, va, 0.0), (a, lambda g: g * mask))


def vsum(a, axis: int | None = None):
    va = _value(a)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, va.shape).astype(float)
        return np.broadcast_to(np.expand_dims(g, axis), va.shape).astype(float)

    return _op(np.sum(va, axis=axis), (a, vjp))


def reshape(a, shape: tuple[int, ...]):
    return _op(_value(a).reshape(shape), (a, lambda g: np.asarray(g).reshape(a.value.shape)))


def slice1d(a, start: int, stop: int):
    """``a[..., start:stop]``: a slice of the last axis."""
    va = _value(a)

    def vjp(g):
        out = np.zeros_like(va)
        out[..., start:stop] = g
        return out

    return _op(va[..., start:stop], (a, vjp))


# ----------------------------------------------------------------------
# composite log densities


def std_normal_logpdf_rows(x):
    """The N(0, I) log density summed over the last axis, as
    ``ad.std_normal_logpdf_rows`` computes it: each row's |x|^2 is one
    einsum of the row with itself, a node whose VJP is 2 g x."""
    vx = _value(x)
    squares = _op(np.einsum("...i,...i->...", vx, vx), (x, lambda g: 2.0 * g[..., None] * vx))
    return squares * (-0.5) + (-0.5 * vx.shape[-1] * LOG_2PI)


def normal_logpdf_rows(x, mean, log_std):
    """Gaussian log density summed over the last axis, as
    ``ad.normal_logpdf_rows`` computes it, for a scalar ``log_std`` or one
    value per coordinate."""
    shape = np.broadcast_shapes(_value(x).shape, _value(mean).shape)
    if not shape:
        raise ValueError("normal_logpdf_rows expects observations with a last axis")
    z = sub(x, mean) * exp(mul(log_std, -1.0))
    row_logdet = vsum(log_std) * (shape[-1] / max(_value(log_std).size, 1))
    return std_normal_logpdf_rows(z) - row_logdet


def bernoulli_rows(x, w, targets: np.ndarray):
    """Bernoulli log mass of ``targets`` on the logits z = x @ w, summed over
    the last axis, as one node: the value is ``ad.bernoulli_rows_forward``'s
    and the gradient at the logits ``ad.bernoulli_rows_at_logits``'s, from
    which x and w get theirs as through a product. A layer with a bias takes
    it as the last row of ``w`` (``bias_row``), its inputs ending in a
    column of ones (``with_ones``)."""
    out, softplus = ad.bernoulli_rows_forward(_value(x), _value(w), targets)
    vjp_x, vjp_w = _matmul_vjps(_value(x), _value(w))

    def vjp(g):
        at_logits = ad.bernoulli_rows_at_logits(softplus, targets, g)
        return {"x": vjp_x(at_logits), "w": vjp_w(at_logits)}

    return fused(out, {"x": x, "w": w}, vjp)


# ----------------------------------------------------------------------
# the models' log weights


def gaussian_reparam(mu, rho, eps):
    """theta = mu + exp(rho) * eps and log q(theta) = log N(eps; 0, I) -
    sum(rho) over the last axis: what ``GaussianReparam`` computes."""
    eps = np.asarray(eps, dtype=float)
    theta = add(mu, mul(exp(rho), eps))
    return theta, sub(std_normal_logpdf_rows(eps), vsum(rho, axis=-1))


def _blr_log_lik(model, theta, params, x, y):
    """BLR's summed Gaussian log likelihood of y at rows x, per draw, with
    the fixed noise scale as a constant."""
    return normal_logpdf_rows(y, matmul(theta, x.T), np.array(math.log(model.noise_std)))


def bnn_predict(model, theta, x):
    """BNN outputs for inputs x, theta unpacked as (W1, b1, W2, b2) by
    slices of its last axis, each layer one product of its inputs and a
    column of ones with its weights and bias (``_folded_layer``), as the
    model computes it."""
    d, h = model.in_dim, model.hidden
    lead = _value(theta).shape[:-1]
    w1 = reshape(slice1d(theta, 0, d * h), lead + (d, h))
    b1 = slice1d(theta, d * h, d * h + h)
    w2 = reshape(slice1d(theta, d * h + h, d * h + 2 * h), lead + (h, 1))
    b2 = slice1d(theta, d * h + 2 * h, d * h + 2 * h + 1)
    out = _folded_layer(_folded_layer(x, w1, b1, relu), w2, b2)
    return reshape(out, _value(out).shape[:-1])


def _bnn_log_lik(model, theta, params, x, y):
    """BNN's summed Gaussian log likelihood of y at inputs x, per draw, with
    noise scale exp(params["log_noise"])."""
    preds = bnn_predict(model, theta, x)
    return normal_logpdf_rows(np.asarray(y, dtype=float), preds, params["log_noise"])


def posterior_log_weights(model, params, x, y, noise, scale):
    """``training.posterior_log_weights`` as a graph: log p0(theta) + scale *
    log p(y | x, theta) - log q(theta)."""
    theta, log_q = gaussian_reparam(params["mu"], params["rho"], noise)
    log_lik = (_bnn_log_lik if isinstance(model, BNNModel) else _blr_log_lik)(
        model, theta, params, x, y
    )
    return sub(add(std_normal_logpdf_rows(theta), mul(log_lik, scale)), log_q)


def vae_log_weights(vae, nodes, x, eps):
    """``VAEModel.log_weight_rows`` as a graph: log p(x | h) + log p(h) -
    log q(h | x) at h = mu(x) + exp(rho(x)) * eps, each layer one product
    of its inputs and a column of ones with its weights and bias
    (``_folded_layer``), as the model computes it."""
    hid = _folded_layer(x, nodes["enc_w1"], nodes["enc_b1"], tanh)
    mu = _folded_layer(hid, nodes["enc_w_mu"], nodes["enc_b_mu"])
    rho = _folded_layer(hid, nodes["enc_w_rho"], nodes["enc_b_rho"])
    h, log_q = gaussian_reparam(mu, rho, eps)
    dec = _folded_layer(h, nodes["dec_w1"], nodes["dec_b1"], tanh)
    if vae.likelihood == "bernoulli":
        output = bias_row(nodes["dec_w2"], nodes["dec_b2"])
        lik = bernoulli_rows(with_ones(dec), output, x)
    else:
        means = _folded_layer(dec, nodes["dec_w2"], nodes["dec_b2"])
        lik = normal_logpdf_rows(x, means, nodes["dec_log_noise"])
    return lik + std_normal_logpdf_rows(h) - log_q


# ----------------------------------------------------------------------
# central differences


def finite_diff_check(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    grad: np.ndarray,
    step: float = 1e-5,
    abs_floor: float = 1e-8,
    five_point: bool = False,
) -> float:
    """Max relative error between ``grad`` and central differences of ``f``.

    The relative error per coordinate uses max(|numeric|, |analytic|,
    abs_floor) as denominator so exact zeros compare cleanly. With
    ``five_point`` the difference is the five-point stencil
    (8 (f(x + h) - f(x - h)) - (f(x + 2h) - f(x - 2h))) / 12h, whose error
    is O(h^4) rather than O(h^2), so that a larger step can leave less of
    f's rounding in it.
    """
    if not 1e-7 <= step <= 1e-3:
        raise ValueError("step must lie in [1e-7, 1e-3]")
    x0 = np.asarray(x0, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if grad.shape != x0.shape:
        raise ValueError("grad must match x0 in shape")
    worst = 0.0
    steps = (1.0, -1.0, 2.0, -2.0) if five_point else (1.0, -1.0)
    flat_x = x0.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        bump = np.zeros_like(flat_x)
        bump[i] = step
        at = [f((flat_x + s * bump).reshape(x0.shape)) for s in steps]
        if not all(math.isfinite(value) for value in at):
            raise FloatingPointError(f"non-finite objective at coordinate {i}")
        numeric = (at[0] - at[1]) / (2.0 * step)
        if five_point:
            numeric = (8.0 * (at[0] - at[1]) - (at[2] - at[3])) / (12.0 * step)
        denom = max(abs(numeric), abs(flat_g[i]), abs_floor)
        worst = max(worst, abs(numeric - flat_g[i]) / denom)
    return worst


# ----------------------------------------------------------------------
# KL divergence between Gaussians


def gaussian_kl(p: GaussianDist, q: GaussianDist) -> float:
    """KL[p||q] between Gaussians by Cholesky solves, always finite for SPD
    covariances."""
    from scipy.linalg import cho_factor, cho_solve

    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: p has dim {p.dim}, q has dim {q.dim}")
    cq = cho_factor(q.cov, lower=True)
    trace = float(np.trace(cho_solve(cq, p.cov)))
    diff = q.mean - p.mean
    quad = float(diff @ cho_solve(cq, diff))
    return 0.5 * (trace + quad - p.dim + q.log_det_cov - p.log_det_cov)


# ----------------------------------------------------------------------
# CSV datasets


def save_csv(path, features: np.ndarray, targets: np.ndarray | None = None) -> None:
    """Write a dataset as a headered CSV (x0..xd / pixel columns plus y)."""
    features = np.asarray(features)
    header = [f"x{i}" for i in range(features.shape[1])]
    if targets is not None:
        header.append("y")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(features.shape[0]):
            row = [repr(float(v)) for v in features[i]]
            if targets is not None:
                row.append(repr(float(targets[i])))
            writer.writerow(row)
