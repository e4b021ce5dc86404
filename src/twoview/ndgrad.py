"""Reverse-mode automatic differentiation on dense float64 arrays.

A ``Tensor`` wraps a numpy array and remembers how it was produced.  Calling
``backward()`` on a scalar loss walks the recorded graph in reverse
topological order and accumulates ``d loss / d x`` into ``x.grad`` for every
tensor that participates with ``requires_grad=True``.  The module also ships
the handful of neural-net operations the rest of the package needs (dense,
conv2d, separable conv, pooling, softmax, l2 normalization), the Adam
optimizer, and a central-finite-difference gradient for checking all of the
above against an implementation-free oracle.

Everything is float64 end to end; there is no broadcasting except for python
scalars, which keeps gradient rules short and shape bugs loud.
"""

from __future__ import annotations

import ctypes
import functools
import platform
from typing import Callable, Mapping, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operands have shapes the operation does not accept."""


class ContractError(ValueError):
    """An operation was called outside its contract (e.g. non-scalar loss)."""


class DegenerateVectorError(ValueError):
    """A vector with (near-)zero norm reached an operation that must divide by it."""


# Norms at or below this are considered degenerate in l2_normalize.
EPS_NORM = 1e-12


# -- process memory policy ----------------------------------------------------

# mallopt parameter numbers from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc serves an allocation at or above this size with its own mmap, which
# free() unmaps, so the next step faults it in again.  The threshold must
# exceed a step's largest array: a 60 MiB threshold faulted on every step
# whose largest array was 67 MB, and 68 MiB did not.  The encoder runs in
# chunks whose largest array is trainer._CHUNK_BYTES (8 MiB), or one image's
# stage-0 output where that is larger; 256 MiB leaves room for one image of
# 32 channels at 1024 px.
_MMAP_THRESHOLD = 256 << 20
# glibc gives the free top of the heap back to the OS once it exceeds this.
# A step frees most of what it allocated, so with the default trim the next
# step faults it all in again: 11.9k minor faults (49 MB) per step at 8-64
# channels and 8 pairs, 24k at the default config.  With both thresholds set
# a step took 0 faults, and its median time fell from 125 to 98 ms and from
# 1113 to 1004 ms (2-core Xeon, one BLAS thread, glibc 2.36).
_TRIM_THRESHOLD = 1 << 30


@functools.cache
def _keep_freed_memory() -> None:
    """Have glibc keep the memory a training step frees for the next step.

    Does nothing off glibc or where mallopt is missing.  Setting either
    threshold turns off glibc's dynamic mmap threshold, so one without the
    other is worse than neither: at 8-64 channels and 8 pairs, the mmap
    threshold alone took 18.9k faults per step and the trim threshold alone
    27.5k.  The trim threshold is therefore set only if glibc accepted the
    mmap threshold.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


def _accumulate(t: "Tensor", g: np.ndarray, owned: bool = False) -> None:
    """Add g into t.grad; the first gradient a tensor receives becomes its buffer.

    A backward closure passes owned=True for an array it has just allocated
    and hands to no other tensor.  An interior tensor (one with a _backward)
    then keeps a C-contiguous owned g itself as .grad, and its own closure may
    overwrite it.  Every other first gradient is stored as a fresh g + 0.0:
    g may be shared (add hands one g to both parents) or a read-only view, a
    leaf's .grad persists across backward passes, and a strided view would
    change how a later reduction over it rounds.  g + 0.0 differs from g only
    in turning -0.0 into 0.0.  Backward only adds gradients, multiplies them
    and divides them by data, so a zero's sign changes no nonzero result, and
    a leaf's g + 0.0 makes its zeros positive either way: both paths train to
    the same bits.  asarray keeps a 0-d gradient an array, not a numpy scalar.
    """
    if t.grad is not None:
        t.grad += g
    elif owned and t._backward is not None and g.flags.c_contiguous:
        t.grad = np.asarray(g)
    else:
        t.grad = np.asarray(g + 0.0)


class Tensor:
    """A float64 array plus the closure that backpropagates through it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    @classmethod
    def _from_op(cls, data, parents: tuple["Tensor", ...], backward, op: str) -> "Tensor":
        out = cls(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            out._op = op
        # else: constant w.r.t. every leaf, so record nothing and let the
        # graph stay pruned (a forward pass over detached parameters, as in
        # evaluation, builds no graph at all).
        return out

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # -- graph traversal --------------------------------------------------

    def _topo_order(self) -> list["Tensor"]:
        """Parents-before-children ordering of every node reachable from self."""
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return order

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad across the recorded graph.

        Only defined for scalar outputs.  A tensor's first gradient becomes
        its ``.grad`` (see ``_accumulate``), so a tensor that receives no
        gradient keeps ``.grad`` None.  Leaf tensors accumulate into any
        gradient already present, so callers that reuse parameters across
        steps should zero them first.  Interior gradients are released as
        soon as their node has passed them on: after the call only leaves
        hold a ``.grad``.  A node's closure therefore owns the gradient it
        is passed and may overwrite it, as relu and avg_pool2 do, or hand it
        to its input as that input's buffer.  Likewise a closure may hand an
        interior input an array it has just allocated, with owned=True,
        instead of having ``_accumulate`` copy it.  Closures read their
        inputs' ``.data`` rather than copies of it (conv2d and
        depthwise_conv2d rebuild their padded inputs from it), so nothing
        may write to a graph tensor's data before ``backward()`` runs.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        order = self._topo_order()
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    # -- scalar / elementwise arithmetic ----------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Tensor(np.float64(other))
        raise TypeError(f"cannot combine Tensor with {type(other).__name__}")

    @staticmethod
    def _check_elementwise(a: "Tensor", b: "Tensor", op: str) -> None:
        # Python scalars were wrapped as 0-d tensors; those broadcast.  Any
        # other mismatch is a bug in the caller.
        if a.data.shape != b.data.shape and a.data.ndim != 0 and b.data.ndim != 0:
            raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")

    @staticmethod
    def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        # Undoes the scalar broadcast: a 0-d operand receives the sum.
        if shape == grad.shape:
            return grad
        return np.sum(grad).reshape(shape)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        self._check_elementwise(self, other, "add")
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                _accumulate(self, self._reduce_to(g, self.data.shape))
            if other.requires_grad:
                _accumulate(other, self._reduce_to(g, other.data.shape))

        return Tensor._from_op(out_data, (self, other), backward, "add")

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                _accumulate(self, -g, owned=True)

        return Tensor._from_op(-self.data, (self,), backward, "neg")

    def __sub__(self, other) -> "Tensor":
        return self.__add__(self._coerce(other).__neg__())

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__add__(self.__neg__())

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        self._check_elementwise(self, other, "mul")
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                _accumulate(self, self._reduce_to(g * other.data, self.data.shape), owned=True)
            if other.requires_grad:
                _accumulate(other, self._reduce_to(g * self.data, other.data.shape), owned=True)

        return Tensor._from_op(out_data, (self, other), backward, "mul")

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __pow__(self, exponent) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("exponent must be a python number")
        exponent = float(exponent)
        out_data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                _accumulate(self, g * exponent * self.data ** (exponent - 1.0), owned=True)

        return Tensor._from_op(out_data, (self,), backward, "pow")

    def abs(self) -> "Tensor":
        # Subgradient 0 at exactly 0.
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                _accumulate(self, g * np.sign(self.data), owned=True)

        return Tensor._from_op(np.abs(self.data), (self,), backward, "abs")

    def log(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                _accumulate(self, g / self.data, owned=True)

        return Tensor._from_op(np.log(self.data), (self,), backward, "log")

    def clamp(self, lo: float, hi: float) -> "Tensor":
        """Clip to [lo, hi]; gradient flows only where the input was strictly inside."""
        if not lo < hi:
            raise ContractError(f"clamp needs lo < hi, got [{lo}, {hi}]")
        out_data = np.clip(self.data, lo, hi)
        inside = (self.data > lo) & (self.data < hi)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                _accumulate(self, g * inside, owned=True)

        return Tensor._from_op(out_data, (self,), backward, "clamp")

    def sum(self, axis: int | tuple[int, ...] | None = None) -> "Tensor":
        out_data = np.sum(self.data, axis=axis)
        in_shape = self.data.shape

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axis is None:
                _accumulate(self, np.broadcast_to(g, in_shape))
            else:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                g_exp = np.expand_dims(g, axes)
                _accumulate(self, np.broadcast_to(g_exp, in_shape))

        return Tensor._from_op(out_data, (self,), backward, "sum")

    def mean(self, axis: int | tuple[int, ...] | None = None) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis) * (1.0 / count)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                # unlike grad[key] += g, add.at sums repeated indices
                np.add.at(self.grad, key, g)

        return Tensor._from_op(np.array(out_data), (self,), backward, "getitem")


# -- activations and layers ------------------------------------------------


def relu(x: Tensor) -> Tensor:
    # only a graph node needs the mask; evaluation builds none
    mask = x.data > 0.0 if x.requires_grad else None

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            np.multiply(g, mask, out=g)
            _accumulate(x, g, owned=True)

    return Tensor._from_op(np.maximum(x.data, 0.0), (x,), backward, "relu")


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: [N, d_in] @ weight[d_out, d_in].T + bias[d_out]."""
    if x.ndim != 2 or weight.ndim != 2 or bias.ndim != 1:
        raise ShapeError(
            f"dense expects x[N,d_in], weight[d_out,d_in], bias[d_out]; "
            f"got {x.shape}, {weight.shape}, {bias.shape}"
        )
    if x.shape[1] != weight.shape[1] or weight.shape[0] != bias.shape[0]:
        raise ShapeError(
            f"dense dimension mismatch: x {x.shape}, weight {weight.shape}, bias {bias.shape}"
        )
    out_data = x.data @ weight.data.T + bias.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g @ weight.data, owned=True)
        if weight.requires_grad:
            _accumulate(weight, g.T @ x.data, owned=True)
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=0), owned=True)

    return Tensor._from_op(out_data, (x, weight, bias), backward, "dense")


def _conv_output_size(size: int, k: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - k) // stride + 1
    if out < 1:
        raise ShapeError(f"conv kernel {k} with pad {pad} does not fit input of size {size}")
    return out


def _windows(xp: np.ndarray, kh: int, kw: int, ho: int, wo: int, stride: int) -> np.ndarray:
    """Read-only view [..., kh, kw, Ho, Wo] of xp[..., H, W]: tap (i, j) of every output pixel."""
    *lead, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(*xp.shape[:-2], kh, kw, ho, wo),
        strides=(*lead, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of x[N,C,H,W] with kernel[O,C,kh,kw], plus bias[O]."""
    if x.ndim != 4 or kernel.ndim != 4 or bias.ndim != 1:
        raise ShapeError(
            f"conv2d expects x[N,C,H,W], kernel[O,C,kh,kw], bias[O]; "
            f"got {x.shape}, {kernel.shape}, {bias.shape}"
        )
    n, c, h, w = x.shape
    o, ck, kh, kw = kernel.shape
    if ck != c:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, kernel expects {ck}")
    if bias.shape[0] != o:
        raise ShapeError(f"conv2d bias length {bias.shape[0]} != output channels {o}")
    if stride < 1 or pad < 0:
        raise ContractError(f"conv2d needs stride >= 1 and pad >= 0, got {stride}, {pad}")
    ho = _conv_output_size(h, kh, stride, pad)
    wo = _conv_output_size(w, kw, stride, pad)

    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    # [N, C*kh*kw, Ho*Wo] patch matrix; one matmul does the whole conv.
    cols = np.ascontiguousarray(_windows(xp, kh, kw, ho, wo, stride)).reshape(n, c * kh * kw, ho * wo)
    kmat = kernel.data.reshape(o, c * kh * kw)
    out = kmat @ cols
    out += bias.data[:, None]
    out_data = out.reshape(n, o, ho, wo)

    def backward(g: np.ndarray) -> None:
        g2 = g.reshape(n, o, ho * wo)
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3)), owned=True)
        if kernel.requires_grad:
            # the patches are rebuilt from x.data one image at a time, in one
            # zero-bordered buffer, so the forward's patch matrix is not kept;
            # each image's product is the one the batched matmul made
            xp_i = np.zeros((c, h + 2 * pad, w + 2 * pad))
            windows_i = _windows(xp_i, kh, kw, ho, wo, stride)
            patches = np.empty((c * kh * kw, ho * wo))
            dk = np.empty((n, o, c * kh * kw))
            for i in range(n):
                xp_i[:, pad : pad + h, pad : pad + w] = x.data[i]
                patches.reshape(windows_i.shape)[...] = windows_i
                np.matmul(g2[i], patches.T, out=dk[i])
            _accumulate(kernel, dk.sum(axis=0).reshape(kernel.shape), owned=True)
        if x.requires_grad:
            dcols = np.matmul(kmat.T, g2).reshape(n, c, kh, kw, ho, wo)
            dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += dcols[
                        :, :, i, j
                    ]
            # with pad > 0 the slice is strided, and _accumulate copies it
            _accumulate(x, dxp[:, :, pad : pad + h, pad : pad + w], owned=True)

    return Tensor._from_op(out_data, (x, kernel, bias), backward, "conv2d")


# Bytes of the [rows, taps, L] buffer that _tap_blocks fills per row block:
# the block's tap slices are copied in and read by one matmul while they are
# still in cache.  Depthwise forward plus backward at the three stage shapes
# of a train-wide chunk (8 images, 16-64 channels) took 36.6 / 31.4 / 28.0 /
# 33.6 / 37.9 ms with 256 KiB / 512 KiB / 1 MiB / 2 MiB / 4 MiB blocks,
# medians of 5 alternating rounds (2-core Xeon, one BLAS thread).
_BLOCK_BYTES = 1 << 20


def _block_rows(n_rows: int, n_taps: int, length: int) -> int:
    """Rows per block of _tap_blocks, whose [rows, taps, length] buffer fits _BLOCK_BYTES."""
    return min(n_rows, max(1, _BLOCK_BYTES // (8 * n_taps * length)))


def _tap_blocks(src: np.ndarray, offsets, length: int):
    """Yield (rows, taps) with taps[r, t] = src[r, offsets[t] : offsets[t] + length].

    src is [rows, ...] flat planes, and rows is the slice of them that one
    block covers.  Each product of a depthwise pass is then one matmul per
    block: [rows, 1, taps] @ taps for a correlation, taps @ [rows, L, 1] for
    the kernel gradient.  The taps buffer is reused from block to block.
    """
    n_rows = src.shape[0]
    step = _block_rows(n_rows, len(offsets), length)
    buf = np.empty((step, len(offsets), length))
    for r0 in range(0, n_rows, step):
        rows = slice(r0, min(r0 + step, n_rows))
        taps = buf[: rows.stop - r0]
        for t, off in enumerate(offsets):
            taps[:, t] = src[rows, off : off + length]
        yield rows, taps


def _embed(dst: np.ndarray, src: np.ndarray, top: int, left: int) -> np.ndarray:
    """Write src into dst at (top, left) of the last two axes; zero only the rest of dst."""
    h, w = src.shape[-2:]
    dst[..., :top, :] = 0.0
    dst[..., top + h :, :] = 0.0
    dst[..., top : top + h, :left] = 0.0
    dst[..., top : top + h, left + w :] = 0.0
    dst[..., top : top + h, left : left + w] = src
    return dst


def depthwise_conv2d(x: Tensor, kernel: Tensor, pad: int = 0) -> Tensor:
    """Per-channel cross-correlation: kernel[C,kh,kw] filters channel c of x alone.

    Each (sample, channel) plane of the padded input is one flat row at the
    padded stride wp, so tap (i, j) is the contiguous slice starting at
    i * wp + j.  The output is computed at stride wp too, and its last
    kw - 1 columns, which wrap into the next padded row, are dropped.

    Backward builds one tap matrix, of the output gradient at stride wp with
    the taps' reach of zeros before it, read over the whole padded plane.
    Since offsets[-1 - t] = reach - offsets[t], tap t of it is the gradient
    shifted by the flipped tap, so it serves both gradients: the input
    gradient is the flipped kernel times it, and the kernel gradient, in
    flipped tap order, is it times the padded input.  That padded input is
    rebuilt from x.data block by block, not kept from the forward pass, so
    nothing may write to x.data before backward() runs.
    """
    if x.ndim != 4 or kernel.ndim != 3:
        raise ShapeError(
            f"depthwise_conv2d expects x[N,C,H,W] and kernel[C,kh,kw]; got {x.shape}, {kernel.shape}"
        )
    n, c, h, w = x.shape
    ck, kh, kw = kernel.shape
    if ck != c:
        raise ShapeError(f"depthwise channel mismatch: input has {c}, kernel has {ck}")
    ho = _conv_output_size(h, kh, 1, pad)
    wo = _conv_output_size(w, kw, 1, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    rows = n * c
    # the extra bottom row keeps the last tap's flat slice inside the plane
    flat_x = _embed(np.empty((n, c, hp + 1, wp)), x.data, pad, pad).reshape(rows, -1)
    offsets = [i * wp + j for i in range(kh) for j in range(kw)]
    # row r of the flat layout is channel r % c
    row_kernel = np.tile(kernel.data.reshape(c, kh * kw), (n, 1))

    # each block's product is still in cache when its wo of every wp columns
    # are copied out, so the output is compact without a second pass
    out = np.empty((rows, ho, wo))
    for r, taps in _tap_blocks(flat_x, offsets, ho * wp):
        out[r] = np.matmul(row_kernel[r, None, :], taps).reshape(-1, ho, wp)[:, :, :wo]

    def backward(g: np.ndarray) -> None:
        # g at stride wp, zero in the wrap columns, reach = offsets[-1] zeros
        # before it; the plane's extra rows keep every tap slice inside it
        g_wide = _embed(np.empty((rows, ho + 2 * kh, wp)), g.reshape(rows, ho, wo), kh - 1, kw - 1)
        if kernel.requires_grad:
            dk = np.empty((rows, kh * kw))
            x_rows = x.data.reshape(rows, h, w)
            xp = np.zeros((_block_rows(rows, kh * kw, hp * wp), hp, wp))
        if x.requires_grad:
            # a contiguous copy: matmul over the reversed view ran 2.5x slower
            flipped = np.ascontiguousarray(row_kernel[:, ::-1])
            dx = np.empty((rows, h, w))
        for r, taps in _tap_blocks(g_wide.reshape(rows, -1), offsets, hp * wp):
            if kernel.requires_grad:
                xp_r = xp[: len(taps)]
                xp_r[:, pad : pad + h, pad : pad + w] = x_rows[r]
                np.matmul(taps, xp_r.reshape(len(taps), -1, 1), out=dk[r, :, None])
            if x.requires_grad:
                # as in the forward pass, dx is copied out compact and handed over
                dx[r] = np.matmul(flipped[r, None, :], taps).reshape(-1, hp, wp)[:, pad : pad + h, pad : pad + w]
        if kernel.requires_grad:
            dk = dk.reshape(n, c, kh * kw).sum(axis=0)[:, ::-1]
            _accumulate(kernel, dk.reshape(c, kh, kw), owned=True)
        if x.requires_grad:
            _accumulate(x, dx.reshape(n, c, h, w), owned=True)

    return Tensor._from_op(out.reshape(n, c, ho, wo), (x, kernel), backward, "depthwise_conv2d")


def pointwise_conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """1x1 convolution mixing channels: weight[O,C] applied at every pixel."""
    if x.ndim != 4 or weight.ndim != 2 or bias.ndim != 1:
        raise ShapeError(
            f"pointwise_conv2d expects x[N,C,H,W], weight[O,C], bias[O]; "
            f"got {x.shape}, {weight.shape}, {bias.shape}"
        )
    if weight.shape[1] != x.shape[1] or bias.shape[0] != weight.shape[0]:
        raise ShapeError(
            f"pointwise dimension mismatch: x {x.shape}, weight {weight.shape}, bias {bias.shape}"
        )
    n, c, h, w = x.shape
    o = weight.shape[0]
    x3 = x.data.reshape(n, c, h * w)
    out = np.matmul(weight.data, x3)
    out += bias.data[:, None]

    def backward(g: np.ndarray) -> None:
        g3 = g.reshape(n, o, h * w)
        if x.requires_grad:
            _accumulate(x, np.matmul(weight.data.T, g3).reshape(n, c, h, w), owned=True)
        if weight.requires_grad:
            # one [O, HW] @ [HW, C] product per image, summed over the images;
            # BLAS reads x's transposed view in place, so neither g nor x is copied
            _accumulate(weight, np.matmul(g3, x3.transpose(0, 2, 1)).sum(axis=0), owned=True)
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3)), owned=True)

    return Tensor._from_op(out.reshape(n, o, h, w), (x, weight, bias), backward, "pointwise_conv2d")


def separable_conv2d(x: Tensor, depthwise: Tensor, pointwise: Tensor, bias: Tensor) -> Tensor:
    """Depthwise filter then 1x1 channel mix, the factored stand-in for a full conv.

    Padding is fixed at kh // 2 so odd kernels preserve spatial size.
    """
    if depthwise.ndim != 3 or depthwise.shape[1] != depthwise.shape[2]:
        raise ShapeError(f"separable depthwise kernel must be [C,k,k], got {depthwise.shape}")
    k = depthwise.shape[1]
    if k % 2 != 1:
        raise ShapeError(f"separable kernel size must be odd, got {k}")
    return pointwise_conv2d(depthwise_conv2d(x, depthwise, pad=k // 2), pointwise, bias)


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2; spatial dims must be even."""
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2 expects x[N,C,H,W], got {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2 needs even spatial dims, got {h}x{w}")
    # a window [[a, b], [c, d]] sums as (a + b) + (c + d), then is scaled:
    # one strided pass adds the column pairs of every row, after which each
    # window's two row sums are the contiguous halves of a [2, W/2] block
    xd = x.data
    col_sums = (xd[:, :, :, 0::2] + xd[:, :, :, 1::2]).reshape(n, c, h // 2, 2, w // 2)
    out_data = col_sums[:, :, :, 0] + col_sums[:, :, :, 1]
    out_data *= 0.25

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            # every input of a window gets a quarter of the window's gradient
            g *= 0.25
            _accumulate(x, np.repeat(np.repeat(g, 2, axis=3), 2, axis=2), owned=True)

    return Tensor._from_op(out_data, (x,), backward, "avg_pool2")


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial grid: [N,C,H,W] -> [N,C]."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects x[N,C,H,W], got {x.shape}")
    n, c, h, w = x.shape
    out_data = x.data.mean(axis=(2, 3))

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, np.broadcast_to(g[:, :, None, None] / (h * w), x.data.shape))

    return Tensor._from_op(out_data, (x,), backward, "global_avg_pool")


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis of a [N, k] tensor, max-shifted for stability."""
    if x.ndim != 2:
        raise ShapeError(f"softmax expects a [N, k] tensor, got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            # dL/dx_i = y_i * (g_i - sum_j g_j y_j)
            dot = (g * y).sum(axis=1, keepdims=True)
            _accumulate(x, y * (g - dot), owned=True)

    return Tensor._from_op(y, (x,), backward, "softmax")


def l2_normalize(x: Tensor) -> Tensor:
    """Scale the rows of [N, d] to unit Euclidean norm."""
    if x.ndim != 2:
        raise ShapeError(f"l2_normalize expects [N, d], got {x.shape}")
    norms = np.linalg.norm(x.data, axis=1, keepdims=True)
    if np.any(norms <= EPS_NORM):
        raise DegenerateVectorError(
            f"cannot normalize a vector with norm <= {EPS_NORM:g}; min norm {norms.min():g}"
        )
    y = x.data / norms

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            dot = (g * y).sum(axis=1, keepdims=True)
            _accumulate(x, (g - y * dot) / norms, owned=True)

    return Tensor._from_op(y, (x,), backward, "l2_normalize")


# -- optimization -----------------------------------------------------------


class Adam:
    """Adam with bias correction; update is lr * m_hat / (sqrt(v_hat) + eps).

    Holds one first/second-moment buffer per named parameter.  The state is
    exposed (t, m, v and the hyperparameters) so checkpoints can carry it.
    """

    def __init__(
        self,
        params: Mapping[str, Tensor],
        lr: float = 2e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if not 0 < lr < np.inf:
            raise ContractError(f"lr must be finite and positive, got {lr}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ContractError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        if not 0 < eps < np.inf:
            raise ContractError(f"eps must be finite and positive, got {eps}")
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        """Apply one update from the gradients currently stored on the parameters."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# -- gradient checking -------------------------------------------------------


def finite_diff_grad(
    loss_fn: Callable[[], float],
    params: Sequence[Tensor] | Mapping[str, Tensor],
    h: float = 1e-5,
):
    """Central-difference gradient of loss_fn w.r.t. every element of params.

    loss_fn must recompute the loss from the parameters' current .data on
    every call.  Returns gradients in the same container shape as params
    (list for a sequence, dict for a mapping).  O(2 * n_params) loss
    evaluations, so keep the model tiny.
    """
    if isinstance(params, Mapping):
        names = list(params.keys())
        tensors = [params[n] for n in names]
    else:
        names = None
        tensors = list(params)

    grads = []
    for p in tensors:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn()
            flat[i] = orig - h
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        grads.append(g)

    if names is not None:
        return dict(zip(names, grads))
    return grads
