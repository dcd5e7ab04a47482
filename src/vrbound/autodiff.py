"""The array kernels that the models' forward passes and written-out
gradients share, and ``gradients``, which lays out the parameter gradients
that one of those written-out gradients returns.

Each model's log-weight builder runs on arrays and returns its log weights
with their vector-Jacobian product: ``vjp(g)`` maps the gradient ``g`` at
the log weights to ``{name: gradient}`` of the parameters
(``training.posterior_log_weights`` for BLR and BNN,
``VAEModel.log_weight_rows``). ``gradients(vjp, seed, params, out)`` runs it
once and writes the result into one flat vector in the order of
``params``. There is no tape and no graph: the forward passes are numpy, and
the chain rule is written out in each VJP.

Every layer is one product: its inputs end in a column of ones, and its
weights W and bias b form one block [W; b]. The array kernels: a hidden
layer, tanh or ReLU of that product followed by the column of ones the
next layer takes (``layer``), and its gradient at the pre-activations
(``layer_grad``), which the VAE's and the BNN's hidden layers share; the
standard normal's log density summed over the last axis
(``std_normal_logpdf_rows``), the one place where the Gaussian quadratic
form and log(2 pi) are written: every other Gaussian log density of the
package whitens its residuals into z and takes it of z, among them the
Gaussian log density with a diagonal scale (``normal_logpdf_rows``, with
``normal_rows_vjp`` its gradient at the means and a single log scale); and
an output layer with the Bernoulli log mass of its logits, exact at any
logit for targets of 0 or 1, summed over the last axis
(``bernoulli_rows_forward``), and its gradient (``bernoulli_rows_at_logits``).
Matrix products follow numpy's ``@``, so a model evaluates K stacked draws
at once. The forward kernels take optional buffers to write into, so that
a caller that runs them over many chunks of draws allocates each chunk's
arrays once. Every sum over a draw's row (the Gaussian sum of squares,
the Bernoulli sums of t z, of z and of softplus(z)) is one ``np.einsum`` over
the last axis (``_row_sums``), which reads its factors once and, for rows
laid out along the innermost axis, gives each row bits that depend on that
row alone; nothing is squared in place. The tests check every written-out
gradient against a reverse-mode tape of generic operations kept beside
them (``tests/reference.py``).

Typical use::

    mu = np.array([1.0, 2.0])
    grads = gradients(lambda g: {"mu": 2.0 * g * mu}, np.ones(2), {"mu": mu}, np.empty(2))
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bernoulli_rows_at_logits",
    "bernoulli_rows_forward",
    "gradients",
    "layer",
    "layer_grad",
    "normal_logpdf_rows",
    "normal_rows_vjp",
    "std_normal_logpdf_rows",
]

_LOG_2PI = math.log(2.0 * math.pi)


def _row_sums(*factors, out=None) -> np.ndarray:
    """Each row's sum of the factors' product over the last axis, in ``out``
    when given: one einsum, which reads each factor once. Where every
    factor's last axis is its innermost (not a transposed view's), a row's
    bits are its own, alone, among other draws or in a larger buffer."""
    return np.einsum(",".join(["...i"] * len(factors)) + "->...", *factors, out=out)

# ----------------------------------------------------------------------
# array kernels


def layer(x: np.ndarray, block: np.ndarray, act: str, out=None) -> np.ndarray:
    """``act(x @ block)`` followed by a column of ones: a layer of inputs
    ``x`` that end in a column of ones, whose weights and bias are one block
    [W; b] (each may be a stack of them; the product follows numpy's ``@``),
    as the next layer takes it. ``act`` is "tanh" or "relu"; the ReLU maps a
    NaN to 0. The result goes in ``out`` (an array of that shape whose last
    column holds finite values) when given, else in a new one. The
    activation runs over the whole array and the ones are then written
    back: numpy buffers a ufunc over the outputs alone, whose rows are not
    contiguous, and took several times as long."""
    if act not in ("tanh", "relu"):
        raise ValueError(f"act must be 'tanh' or 'relu', not {act!r}")
    if out is None:
        lead = np.broadcast_shapes(x.shape[:-2], block.shape[:-2]) + x.shape[-2:-1]
        out = np.ones((*lead, block.shape[-1] + 1))
    np.matmul(x, block, out=out[..., :-1])
    if act == "tanh":
        np.tanh(out, out=out)
    else:
        np.copyto(out, 0.0, where=~(out > 0.0))
    out[..., -1] = 1.0
    return out


def layer_grad(g: np.ndarray, hid: np.ndarray, act: str) -> np.ndarray:
    """The gradient at the pre-activations of ``layer``'s output ``hid``,
    given ``g`` at the whole of it: ``g`` times tanh' = 1 - hid^2, or times
    relu' = [hid > 0], in place. Returns it without the column of ones."""
    if act == "tanh":
        slope = hid * hid
        np.subtract(1.0, slope, out=slope)
        g *= slope
    else:
        g *= hid > 0.0
    return g[..., :-1]


def std_normal_logpdf_rows(x, out=None) -> np.ndarray:
    """The N(0, I) log density summed over the last axis: -|x|^2 / 2 - d/2
    log(2 pi) for rows x (..., d), in ``out`` when given, else a new array.
    |x|^2 is ``_row_sums(x, x)``: x is read once and squared nowhere. Every
    Gaussian log density of the package is this of its whitened residuals,
    less its log-determinant."""
    x = np.asarray(x, dtype=float)
    rows = _row_sums(x, x, out=out)
    rows *= -0.5
    rows += -0.5 * x.shape[-1] * _LOG_2PI
    return rows


def normal_logpdf_rows(x, mean, log_std, work=None, out=None) -> np.ndarray:
    """Gaussian log density summed over the last axis: the standard
    normal's (``std_normal_logpdf_rows``) of the whitened residuals
    z = (x - mean) exp(-log_std), minus each row's sum of log scales.

    ``x`` and ``mean`` broadcast together, e.g. (n, d) observations against
    (K, n, d) means give shape (K, n). ``log_std`` is a scalar (counted d
    times) or one value per coordinate of the last axis. ``work`` takes the
    whitened residuals (it may be ``mean``, overwritten) and ``out`` the
    rows; each is a new array when not given.
    """
    x, mean, log_std = (np.asarray(a, dtype=float) for a in (x, mean, log_std))
    shape = np.broadcast_shapes(x.shape, mean.shape)
    if not shape:
        raise ValueError("normal_logpdf_rows expects observations with a last axis")
    if log_std.ndim > 1:
        raise ValueError("log_std must be a scalar or one value per coordinate")
    z = np.multiply(np.subtract(x, mean, out=work), np.exp(-log_std), out=work)
    rows = std_normal_logpdf_rows(z, out)
    rows -= np.sum(log_std) * (shape[-1] / max(log_std.size, 1))
    return rows


def normal_rows_vjp(x, mean, log_std: np.ndarray, g: np.ndarray):
    """The gradients at ``mean`` and at ``log_std`` of ``normal_logpdf_rows``'s
    rows, given ``g`` at the rows, for one log scale s shared by every
    coordinate (``log_std`` of one element): log p = -|z|^2 / 2 - d s - d/2
    log(2 pi) with z = (x - mean) exp(-s)."""
    scale = np.exp(-log_std)
    z = (x - mean) * scale
    g_rows = g[..., None]
    g_mean = z * scale
    g_mean *= g_rows
    g_log_std = np.sum(z * z * g_rows) - z.shape[-1] * np.sum(g)
    return g_mean, np.reshape(g_log_std, np.shape(log_std))


def bernoulli_rows_forward(xv: np.ndarray, wv: np.ndarray, targets, t_w=None, out=None):
    """The Bernoulli log mass of ``targets`` on the logits z = x @ w of an
    output layer, summed over the last axis, and the logits' buffer, which
    then holds log1p(exp(z)) for the gradient: (rows, softplus).

    Per element the mass is t z - log1p(exp(z)) = t log p + (1 - t) log(1 - p)
    with p = sigmoid(z): a log mass for the targets of 0 or 1 that the models
    take, exact at any logit. ``xv`` holds rows and ``wv`` is a matrix (each
    may be a stack; the product follows numpy's ``@``), a layer's bias its
    last row against a column of ones; ``targets`` has the shape of the
    logits' last two or more axes. The row sum of t z is x . (t w^T), over
    the width of x; ``t_w`` is t w^T, made here when not given. ``out`` is
    None or three buffers, written whole, for the logits, the row sums of
    t z and the rows.

    A row that holds a logit of +-inf or NaN, or whose value is not finite
    (an overflowed exp(z) or product, or inf - inf), is taken again
    (``_take_again``): each row is the mass of its float logits, one of
    +-inf taken as its limit, and for targets of 0 and 1 it is -inf only
    where its mass lies below the float range. Each row's value depends on
    that row alone.
    """
    if xv.ndim < 2 or wv.ndim < 2:
        raise ValueError("x must hold rows, and w must be a matrix or a stack of them")
    targets = np.asarray(targets, dtype=float)
    z_buf, t_dot_z_buf, rows_buf = (None, None, None) if out is None else out
    # overflows and inf - inf are found in the rows and taken again, silently
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.matmul(xv, wv, out=z_buf)
        if targets.ndim < 2 or targets.shape != z.shape[z.ndim - targets.ndim :]:
            raise ValueError(f"targets {targets.shape} must be trailing rows of logits {z.shape}")
        if t_w is None:
            t_w = targets @ np.swapaxes(wv, -1, -2)
        t_dot_z = _row_sums(xv, t_w, out=t_dot_z_buf)
        z_sums = _row_sums(z)  # before exp, which takes a logit of -inf to 0
        np.exp(z, out=z)
        np.log1p(z, out=z)
        rows = _row_sums(z, out=rows_buf)
        np.subtract(t_dot_z, rows, out=rows)
        if not (math.isfinite(rows.sum()) and math.isfinite(z_sums.sum())):
            _take_again(rows, xv, wv, targets, ~(np.isfinite(rows) & np.isfinite(z_sums)))
    return rows, z


def _take_again(rows, xv, wv, targets, again) -> None:
    """Write into ``rows``, where the mask ``again`` is True, the sum over
    each row's logits, formed anew, of (t - 1) max(z, 0) + t min(z, 0) -
    log1p(exp(-|z|)): terms at most 0 that do not cancel, and 0 at a logit
    of +-inf on its target's side. The logits are formed by the product of
    one block of rows at a time, about 4096 logits, where it holds such a
    row, so that this takes little memory."""
    xs = np.broadcast_to(xv, rows.shape + xv.shape[-1:])
    ws = np.broadcast_to(wv, rows.shape[:-1] + wv.shape[-2:])  # by stack member
    ts = np.broadcast_to(targets, rows.shape + targets.shape[-1:])
    step = max(1, 4096 // max(1, wv.shape[-1]))
    for s in map(tuple, np.argwhere(again.any(axis=-1))):
        for lo in range(0, rows.shape[-1], step):
            at = np.flatnonzero(again[s][lo : lo + step])
            if at.size:
                z = (xs[s][lo : lo + step] @ ws[s])[at]
                terms = ts[s][lo + at]  # t - 1 where z >= 0, t where z < 0, times z
                terms -= z >= 0.0
                np.multiply(terms, z, out=terms, where=terms != 0.0)
                np.negative(np.abs(z, out=z), out=z)
                terms -= np.log1p(np.exp(z, out=z), out=z)
                # one NaN for a NaN row: its terms' NaNs differ in sign, and
                # which one a sum keeps depends on the order it adds them in
                sums = _row_sums(terms)
                rows[s][lo + at] = np.where(np.isnan(sums), math.nan, sums)


def bernoulli_rows_at_logits(softplus, targets: np.ndarray, g) -> np.ndarray:
    """The gradient at the logits of ``bernoulli_rows_forward``'s rows, given
    ``g`` at the rows: g (t - sigmoid(z)), sigmoid(z) taken from the buffer
    as -expm1(-log1p(exp(z))), 1 at z = +inf and 0 at -inf."""
    r = np.negative(softplus)
    np.expm1(r, out=r)
    r += targets
    r *= g[..., None]
    return r


# ----------------------------------------------------------------------
# gradient layout


def gradients(vjp, seed: np.ndarray, params: dict[str, np.ndarray], out: np.ndarray):
    """Run ``vjp(seed)`` once and write each parameter's gradient into
    ``out``, a float vector of the parameters' total size, in the order of
    ``params``; returns them by name as views of ``out``. A parameter the
    VJP leaves out gets zeros."""
    at_params = vjp(seed)
    grads, start = {}, 0
    for name, value in params.items():
        grads[name] = view = out[start : start + value.size].reshape(value.shape)
        view[...] = at_params.get(name, 0.0)
        start += value.size
    return grads
