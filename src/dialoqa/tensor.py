"""Minimal float64 tensor library with reverse-mode automatic differentiation.

Values are numpy arrays; every differentiable operation records a backward
closure on the result node. Calling ``backward()`` on a scalar loss walks the
graph in reverse topological order and accumulates gradients into the nodes
that require them. Only leaves (parameters, and inputs that require grad)
keep their gradient: once an op node's backward has run, the sweep drops the
node's gradient, closure and parents, so the saved arrays of the part already
swept are freed while the rest is still being swept, and a graph can be swept
only once. All randomness (dropout) comes from an explicit
``numpy.random.Generator`` so runs are bit-reproducible: an op drops exactly
when it is given one (and a rate above 0), so a call without a generator is
the deterministic inference forward. Dropout masks are kept as bool arrays
plus one scale, 1 byte per element.

Closure contract: an op's backward is called as ``bw(dout)`` with the
gradient of its output, and accumulates into its inputs. It must never
reference its output ``Tensor``. Nodes then point only at their parents, so
every graph is acyclic and is freed by reference counting, with no work left
for the cyclic garbage collector.

Gradient buffers: a node stores its first incoming gradient as given and
adds later ones out of place (``grad = grad + g``), so no stored gradient
array is ever written after it is stored. A backward may therefore hand one
array to several inputs (``add`` gives both the same ``dout``) or pass on a
view of its own ``dout`` without copying; closures never write into
``dout`` or into an array they have handed on.

An op records parents and a backward only when an input requires a
gradient, so a forward over ``EncoderWeights.frozen()`` weights records no
graph. ``add`` and ``mul`` compute no gradient for a constant operand (a
mask, a scale). ``linear`` is the affine projection ``x @ w + b`` as one node,
and ``attention`` is the one attention node: head split, scaled and masked
scores, softmax, dropout on the probabilities, context and head merge.
``residual_layer_norm`` is a transformer sublayer's ``layer_norm(x +
dropout(y))`` as one node; plain ``layer_norm`` is its case without ``y``.

Memory: backward frees almost all of a training step's memory. glibc's malloc
would return it to the OS, and the next step would fault its pages in anew.
On import this module raises glibc's trim threshold to 1 GiB and its mmap
threshold to 32 MiB (the 64-bit ceiling), so freed memory stays mapped for the
next step. Both are needed: setting either pins the other at its 128 KiB
default, and either alone leaves a warm 32-question finetune step over a
thousand faults. Arrays over 32 MiB are still mapped and unmapped one by one.
Other C libraries keep their own policy.
"""

from __future__ import annotations

import ctypes
import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Additive score for masked attention keys: large enough that exp() underflows
# to exactly 0 after max-subtraction, small enough to stay finite in float64.
MASK_SCORE = -1e30


def _keep_freed_memory_mapped() -> bool:
    """Sets the Memory policy above: M_MMAP_THRESHOLD (-3) first, so that a
    refused value changes nothing, then M_TRIM_THRESHOLD (-1). Returns whether
    both were set; without a ``mallopt`` that accepts them (musl), it is False."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: Windows loads no None
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(-3, 32 << 20)) and bool(mallopt(-1, 1 << 30))


_keep_freed_memory_mapped()


class Tensor:
    """A float64 array plus optional gradient and autodiff graph linkage.

    ``data`` and ``grad`` are exposed as flat views over the underlying
    storage so that ``len(data) == prod(shape)`` always holds.
    """

    __slots__ = ("array", "requires_grad", "_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        self.array = arr
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- spec-facing views ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def ndim(self) -> int:
        return self.array.ndim

    @property
    def size(self) -> int:
        return self.array.size

    @property
    def data(self) -> np.ndarray:
        """Flat float64 view of the stored values."""
        return self.array.reshape(-1)

    @property
    def grad(self) -> np.ndarray | None:
        """Flat view of a leaf's accumulated gradient, or None before
        backward (an op node's is released by the sweep)."""
        if self._grad is None:
            return None
        return self._grad.reshape(-1)

    def grad_array(self) -> np.ndarray | None:
        """Gradient with the same shape as ``array`` (None before backward)."""
        return self._grad

    def zero_grad(self) -> None:
        self._grad = None

    def item(self) -> float:
        return float(self.array.reshape(-1)[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self._grad is None:
            self._grad = g
        else:
            self._grad = self._grad + g  # out of place: g or _grad may be shared

    def backward(self) -> None:
        """Reverse-mode sweep from this node; seeds with ones. Each op node
        is released once its backward has run, so a graph is swept once."""
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._grad = np.ones_like(self.array)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node._grad is not None:
                node._backward(node._grad)
            # release the op node: its gradient, saved arrays and inputs
            node._grad = node._backward = None
            node._parents = ()

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(out: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    t = Tensor(out)
    for p in parents:
        if p.requires_grad:
            t.requires_grad = True
            t._parents = tuple(parents)
            t._backward = backward
            break
    return t


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- arithmetic ---------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.array + b.array

    def bw(dout):
        if a.requires_grad:
            a._accumulate(_unbroadcast(dout, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(dout, b.shape))

    return _make(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.array * b.array

    def bw(dout):
        if a.requires_grad:
            a._accumulate(_unbroadcast(dout * b.array, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(dout * a.array, b.shape))

    return _make(out, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` over the last axis of ``x`` (any leading shape), with
    ``w`` (d_in, d_out) and ``b`` (d_out,), or ``x @ w`` without ``b``: one
    GEMM over the rows of ``x`` forward, and one each for the ``x`` and ``w``
    gradients backward."""
    x, w, b = as_tensor(x), as_tensor(w), None if b is None else as_tensor(b)
    b_shape = None if b is None else b.shape
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] or b_shape not in (None, w.shape[1:]):
        raise ShapeError(f"linear shapes disagree: x {x.shape}, w {w.shape}, b {b_shape}")
    rows = x.array.reshape(-1, w.shape[0])
    out = rows @ w.array
    if b is not None:
        out += b.array

    def bw(dout):
        g = dout.reshape(len(rows), w.shape[1])
        x._accumulate((g @ w.array.T).reshape(x.shape))
        w._accumulate(rows.T @ g)
        if b is not None:
            b._accumulate(g.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return _make(out.reshape(x.shape[:-1] + w.shape[1:]), parents, bw)


# -- shape manipulation -------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    out = a.array.reshape(shape)

    def bw(dout):
        a._accumulate(dout.reshape(a.shape))

    return _make(out, (a,), bw)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    out = a.array.transpose(axes)

    def bw(dout):
        a._accumulate(dout.transpose(np.argsort(axes)))

    return _make(out, (a,), bw)


def index_select(a: Tensor, indices) -> Tensor:
    """Gather rows (slices along axis 0) by an index array of any shape, giving
    ``indices.shape + a.shape[1:]``; gradient scatter-adds (duplicates sum)."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"index_select out of range for axis 0 of shape {a.shape}")
    out = np.take(a.array, idx, axis=0)

    def bw(dout):
        # one weighted bincount over flat cell indices sums each cell's
        # contributions in index order, as np.add.at would, but buffered
        row = math.prod(a.shape[1:])
        cells = (idx.reshape(-1, 1) * row + np.arange(row)).reshape(-1)
        g = np.bincount(cells, weights=dout.reshape(-1), minlength=a.size)
        a._accumulate(g.reshape(a.shape))

    return _make(out, (a,), bw)


# -- reductions ---------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.array.sum(axis=axis, keepdims=keepdims)

    def bw(dout):
        g = dout
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _make(out, (a,), bw)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.array.mean(axis=axis, keepdims=keepdims)
    denom = a.size if axis is None else a.shape[axis]

    def bw(dout):
        g = dout
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape) / denom)

    return _make(out, (a,), bw)


# -- neural primitives --------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-stabilized softmax along ``axis``; rows sum to 1."""
    x = as_tensor(x)
    ax = axis if axis >= 0 else x.ndim + axis
    if x.ndim == 0 or ax < 0 or ax >= x.ndim or x.shape[ax] == 0:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.array - x.array.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=ax, keepdims=True)

    def bw(dout):
        g = dout
        dot = (g * p).sum(axis=ax, keepdims=True)
        x._accumulate(p * (g - dot))

    return _make(p, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    return residual_layer_norm(x, None, gain, bias, 0.0, None, eps)


def residual_layer_norm(
    x: Tensor, y: Tensor | None, gain: Tensor, bias: Tensor,
    p: float, rng: np.random.Generator | None, eps: float = 1e-12,
) -> Tensor:
    """``layer_norm(x + dropout(y, p, rng), gain, bias, eps)`` as
    one node: the dropped ``y`` and the sum are temporaries, and backward
    keeps only the normalized input, the inverse deviations and the bool
    dropout mask. ``y`` None is plain ``layer_norm`` of ``x``."""
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be > 0, got {eps}")
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias {gain.shape}/{bias.shape} must match last dim {d}"
        )
    s = x.array
    keep, scale = None, 1.0
    if y is not None:
        y = as_tensor(y)
        if y.shape != x.shape:
            raise ShapeError(f"residual branch {y.shape} must match input {x.shape}")
        keep, scale = _dropout_mask(y.shape, p, rng)
        s = s + _drop(y.array, keep, scale)
    # mean and var spelled out as numpy computes them, sharing x - mu
    xc = s - s.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / d + eps)
    xhat = xc * inv
    out = xhat * gain.array + bias.array

    def bw(dout):
        g = dout
        gy = g * gain.array
        gdot = gy.sum(axis=-1, keepdims=True) / d
        xdot = (gy * xhat).sum(axis=-1, keepdims=True) / d
        gs = inv * (gy - gdot - xhat * xdot)
        if x.requires_grad:
            x._accumulate(gs)
        if y is not None and y.requires_grad:
            y._accumulate(_drop(gs, keep, scale))
        axes = tuple(range(g.ndim - 1))
        gain._accumulate((g * xhat).sum(axis=axes))
        bias._accumulate(g.sum(axis=axes))

    return _make(out, (x, gain, bias) if y is None else (x, y, gain, bias), bw)


def gelu(x: Tensor) -> Tensor:
    """Exact-erf Gaussian error linear unit: 0.5*x*(1+erf(x/sqrt(2)))."""
    x = as_tensor(x)
    cdf = 0.5 * (1.0 + erf(x.array * _INV_SQRT2))
    out = x.array * cdf

    def bw(dout):
        pdf = np.exp(-0.5 * x.array * x.array) * _INV_SQRT2PI
        x._accumulate(dout * (cdf + x.array * pdf))

    return _make(out, (x,), bw)


def _log_softmax_np(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy_rows(logits: Tensor, targets) -> Tensor:
    """Per-row -log softmax(row)[target] of 2-d logits, shape (N,)."""
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy_rows expects 2-d logits, got {logits.shape}")
    targets = np.asarray(targets, dtype=np.intp)
    n, k = logits.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} must be ({n},)")
    if targets.size and (targets.min() < 0 or targets.max() >= k):
        raise IndexError(f"cross-entropy target out of range [0, {k})")
    logp = _log_softmax_np(logits.array)
    rows = np.arange(n)

    def bw(dout):
        g = np.exp(logp)
        g[rows, targets] -= 1.0
        logits._accumulate(g * dout[:, None])

    return _make(-logp[rows, targets], (logits,), bw)


def mean_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean of per-row -log softmax(row)[target] over 2-d logits."""
    return mean(cross_entropy_rows(logits, targets))


def _dropout_mask(shape, p: float, rng: np.random.Generator | None):
    """``(keep, scale)`` of inverted dropout: a bool mask from one
    ``rng.random`` draw and the survivors' scale 1/(1-p); ``(None, 1.0)``
    without an rng or for p 0, which draws nothing."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return None, 1.0
    return rng.random(shape) >= p, 1.0 / (1.0 - p)


def _drop(a: np.ndarray, keep: np.ndarray | None, scale: float) -> np.ndarray:
    """``a`` through a ``_dropout_mask`` (``a`` itself for None): ``a * keep``
    scaled in place rounds as ``a * (scale or 0.0)`` does."""
    if keep is None:
        return a
    out = a * keep
    out *= scale
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p);
    ``x`` itself without an rng."""
    x = as_tensor(x)
    keep, scale = _dropout_mask(x.shape, p, rng)
    if keep is None:
        return x

    def bw(dout):
        x._accumulate(_drop(dout, keep, scale))

    return _make(_drop(x.array, keep, scale), (x,), bw)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    key_mask: np.ndarray | None,
    num_heads: int,
    p: float,
    rng: np.random.Generator | None,
) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``q`` (B, Sq, h) are projected queries and ``k``, ``v`` (B, Sk, h)
    projected keys and values; the last axis splits into ``num_heads``
    heads of width d. ``key_mask`` is a (B, Sk) bool array, True on real
    keys, or None for no mask. The scores ``q kᵀ / sqrt(d)`` get MASK_SCORE
    added on padding keys and go through a max-shifted softmax over the keys;
    given an rng, the probabilities get inverted dropout of rate ``p`` from
    one ``rng.random`` draw. Returns the heads' contexts merged back to
    (B, Sq, h).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    mask = None if key_mask is None else np.asarray(key_mask)
    if (
        q.ndim != 3 or k.ndim != 3 or k.shape != v.shape
        or q.shape[0] != k.shape[0] or q.shape[2] != k.shape[2]
        or num_heads < 1 or q.shape[2] % num_heads
        or (mask is not None and (mask.shape != k.shape[:2] or mask.dtype != bool))
    ):
        raise ShapeError(
            f"attention shapes disagree: q {q.shape}, k {k.shape}, v {v.shape}, "
            f"mask {None if mask is None else f'{mask.shape} {mask.dtype}'}, {num_heads} heads"
        )
    b, sq, h = q.shape
    sk = k.shape[1]
    d = h // num_heads
    qh = q.array.reshape(b, sq, num_heads, d).transpose(0, 2, 1, 3)
    kh = k.array.reshape(b, sk, num_heads, d).transpose(0, 2, 1, 3)
    vh = v.array.reshape(b, sk, num_heads, d).transpose(0, 2, 1, 3)
    scale = 1.0 / math.sqrt(d)
    probs = qh @ kh.transpose(0, 1, 3, 2)
    probs *= scale
    if mask is not None:
        probs += np.where(mask, 0.0, MASK_SCORE)[:, None, None, :]
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    keep, drop_scale = _dropout_mask(probs.shape, p, rng)
    out = (_drop(probs, keep, drop_scale) @ vh).transpose(0, 2, 1, 3).reshape(b, sq, h)

    def bw(dout):
        dctx = dout.reshape(b, sq, num_heads, d).transpose(0, 2, 1, 3)
        if v.requires_grad:
            dv = _drop(probs, keep, drop_scale).swapaxes(-1, -2) @ dctx
            v._accumulate(dv.transpose(0, 2, 1, 3).reshape(b, sk, h))
        if not (q.requires_grad or k.requires_grad):
            return
        ds = dctx @ vh.swapaxes(-1, -2)
        if keep is not None:
            ds *= keep
            ds *= drop_scale
        ds -= (ds * probs).sum(axis=-1, keepdims=True)
        ds *= probs
        ds *= scale
        if q.requires_grad:
            q._accumulate((ds @ kh).transpose(0, 2, 1, 3).reshape(b, sq, h))
        if k.requires_grad:
            dk = qh.swapaxes(-1, -2) @ ds
            k._accumulate(dk.transpose(0, 3, 1, 2).reshape(b, sk, h))

    return _make(out, (q, k, v), bw)
