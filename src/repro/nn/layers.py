"""Core layers of the numpy NN substrate.

Every layer implements an explicit ``forward``/``backward`` pair and caches
whatever it needs for the backward pass on the instance.  Layers are
deliberately stateful-but-simple: one in-flight forward at a time, which is
all the training loops in this repository require.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..kernels import get_kernel, kernel_timer
from .tensor import Parameter, glorot_uniform, he_normal, zeros_init

__all__ = [
    "Module",
    "Dense",
    "ReLU",
    "BatchNorm",
    "Conv2d",
    "ConvTranspose2d",
    "GRUCell",
]


class Module:
    """Base class for all layers and models.

    Subclasses register :class:`Parameter` instances as attributes or keep
    child modules as attributes; :meth:`parameters` discovers both
    recursively.
    """

    training: bool = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """Pure batched inference forward.

        Contract (the serving runtime relies on all three points):

        * a leading batch axis is carried through — row ``i`` of the
          output is what the per-sample :meth:`forward` would produce
          for row ``i`` alone (up to BLAS re-association);
        * **no instance state is touched**: backward caches, running
          statistics, and RNG streams are left exactly as they were, so
          a batched inference can interleave with an in-flight training
          forward/backward pair without corrupting it;
        * stateful layers (BatchNorm) run in inference mode.

        Layers without an override are rejected loudly rather than
        silently falling back to the stateful ``forward``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement forward_batch")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its children, depth-first."""
        found: List[Parameter] = []
        seen = set()
        for value in vars(self).values():
            self._collect(value, found, seen)
        return found

    def _collect(self, value, found: List[Parameter], seen: set) -> None:
        if isinstance(value, Parameter):
            if id(value) not in seen:
                seen.add(id(value))
                found.append(value)
        elif isinstance(value, Module):
            for p in value.parameters():
                if id(p) not in seen:
                    seen.add(id(p))
                    found.append(p)
        elif isinstance(value, (list, tuple)):
            for item in value:
                self._collect(item, found, seen)
        elif isinstance(value, dict):
            for item in value.values():
                self._collect(item, found, seen)

    def modules(self) -> List["Module"]:
        """This module plus all child modules, depth-first."""
        found: List[Module] = [self]
        for value in vars(self).values():
            if isinstance(value, Module):
                found.extend(value.modules())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        found.extend(item.modules())
        return found

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> "Module":
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            m.training = False
        return self

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


class Dense(Module):
    """Fully-connected layer ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "dense"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            glorot_uniform(rng, in_features, out_features), name=f"{name}.weight"
        )
        self.bias = Parameter(zeros_init((out_features,)), name=f"{name}.bias")
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.weight.data + self.bias.data

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight.data + self.bias.data

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._x
        # Collapse any leading batch dims for the weight gradient.
        x2 = x.reshape(-1, self.in_features)
        g2 = grad.reshape(-1, self.out_features)
        self.weight.grad += x2.T @ g2
        self.bias.grad += g2.sum(axis=0)
        return grad @ self.weight.data.T


class ReLU(Module):
    def __init__(self):
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, 0.0)


class BatchNorm(Module):
    """Batch normalization over axis 0 (features on the last axis).

    Works for 2-D inputs ``(batch, features)``; the decoder stacks in the
    R-MAE occupancy decoder use it exactly this way after flattening
    spatial dims into the batch.
    """

    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5,
                 name: str = "bn"):
        self.dim = dim
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(dim), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(dim), name=f"{name}.beta")
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1, self.dim)
        if self.training:
            mu = flat.mean(axis=0)
            var = flat.var(axis=0)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mu
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mu, var = self.running_mean, self.running_var
        xhat = (x - mu) / np.sqrt(var + self.eps)
        self._cache = (xhat, var, x.shape)
        return xhat * self.gamma.data + self.beta.data

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, var, shape = self._cache
        flat_g = grad.reshape(-1, self.dim)
        flat_xhat = xhat.reshape(-1, self.dim)
        m = flat_g.shape[0]
        self.gamma.grad += (flat_g * flat_xhat).sum(axis=0)
        self.beta.grad += flat_g.sum(axis=0)
        gx = flat_g * self.gamma.data
        inv = 1.0 / np.sqrt(var + self.eps)
        dx = inv * (gx - gx.mean(axis=0) - flat_xhat * (gx * flat_xhat).mean(axis=0))
        return dx.reshape(shape)

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """Inference normalization against the frozen running statistics.

        Per-sample batch statistics would couple the rows of a served
        batch to each other (a request's answer would depend on its
        batch-mates), so batched inference always normalizes with the
        running estimates — matching the per-sample ``forward`` in eval
        mode and leaving them untouched.
        """
        mu, var = self.running_mean, self.running_var
        xhat = (x - mu) / np.sqrt(var + self.eps)
        return xhat * self.gamma.data + self.beta.data


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """Rearrange image patches into columns for convolution-as-matmul.

    One strided window over the (zero-padded) input, copied once; the
    columns never share memory with ``x``.
    """
    n, c, h, w = x.shape
    if pad:
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad:pad + h, pad:pad + w] = x
        x = padded
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    windows = as_strided(x, shape=(n, c, kh, kw, ho, wo),
                         strides=(sn, sc, sh, sw, stride * sh, stride * sw),
                         writeable=False)
    return windows.copy().reshape(n, c * kh * kw, ho * wo), ho, wo


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, pad: int):
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    x = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * ho
        for j in range(kw):
            j_end = j + stride * wo
            x[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    if pad:
        x = x[:, :, pad:-pad, pad:-pad]
    return x


def _conv_gemm(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One conv contraction (``matmul``, ``matmul_t`` or ``weight_grad``)
    on the active ``conv_gemm`` kernel backend."""
    with kernel_timer("conv_gemm", op):
        return getattr(get_kernel("conv_gemm"), op)(a, b)


class Conv2d(Module):
    """2-D convolution (NCHW) implemented via im2col."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int = 3, stride: int = 1,
                 pad: int = 1, rng: Optional[np.random.Generator] = None,
                 name: str = "conv"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.pad = kernel, stride, pad
        fan_in = in_ch * kernel * kernel
        self.weight = Parameter(
            he_normal(rng, fan_in, (out_ch, in_ch, kernel, kernel)),
            name=f"{name}.weight",
        )
        self.bias = Parameter(zeros_init((out_ch,)), name=f"{name}.bias")
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        cols, ho, wo = _im2col(x, self.kernel, self.kernel, self.stride, self.pad)
        w = self.weight.data.reshape(self.out_ch, -1)
        out = _conv_gemm("matmul", w, cols)
        out += self.bias.data[None, :, None]
        self._cache = (x.shape, cols)
        return out.reshape(x.shape[0], self.out_ch, ho, wo)

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        cols, ho, wo = _im2col(x, self.kernel, self.kernel, self.stride,
                               self.pad)
        w = self.weight.data.reshape(self.out_ch, -1)
        out = _conv_gemm("matmul", w, cols)
        out += self.bias.data[None, :, None]
        return out.reshape(x.shape[0], self.out_ch, ho, wo)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_shape, cols = self._cache
        n = grad.shape[0]
        g = grad.reshape(n, self.out_ch, -1)
        w = self.weight.data.reshape(self.out_ch, -1)
        self.weight.grad += _conv_gemm("weight_grad", g, cols).reshape(
            self.weight.shape)
        self.bias.grad += g.sum(axis=(0, 2))
        dcols = _conv_gemm("matmul_t", w, g)
        return _col2im(dcols, x_shape, self.kernel, self.kernel, self.stride, self.pad)


class ConvTranspose2d(Module):
    """Transposed 2-D convolution (stride-2 upsampling in decoders).

    Implemented as the gradient of a forward convolution, which is exactly
    what transposed convolution is.
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int = 4, stride: int = 2,
                 pad: int = 1, rng: Optional[np.random.Generator] = None,
                 name: str = "deconv"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.pad = kernel, stride, pad
        fan_in = in_ch * kernel * kernel
        self.weight = Parameter(
            he_normal(rng, fan_in, (in_ch, out_ch, kernel, kernel)),
            name=f"{name}.weight",
        )
        self.bias = Parameter(zeros_init((out_ch,)), name=f"{name}.bias")
        self._cache = None

    def out_size(self, h: int) -> int:
        return (h - 1) * self.stride - 2 * self.pad + self.kernel

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        ho, wo = self.out_size(h), self.out_size(w)
        wmat = self.weight.data.reshape(self.in_ch, -1)  # (in, out*k*k)
        g = x.reshape(n, self.in_ch, -1)  # (n, in, h*w)
        dcols = _conv_gemm("matmul_t", wmat, g)
        out = _col2im(dcols, (n, self.out_ch, ho, wo), self.kernel, self.kernel,
                      self.stride, self.pad)
        out += self.bias.data[None, :, None, None]
        self._cache = (x, (n, self.out_ch, ho, wo))
        return out

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        ho, wo = self.out_size(h), self.out_size(w)
        wmat = self.weight.data.reshape(self.in_ch, -1)
        g = x.reshape(n, self.in_ch, -1)
        dcols = _conv_gemm("matmul_t", wmat, g)
        out = _col2im(dcols, (n, self.out_ch, ho, wo), self.kernel,
                      self.kernel, self.stride, self.pad)
        out += self.bias.data[None, :, None, None]
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x, out_shape = self._cache
        n = x.shape[0]
        cols, ho, wo = _im2col(grad, self.kernel, self.kernel, self.stride, self.pad)
        g = x.reshape(n, self.in_ch, -1)
        self.weight.grad += _conv_gemm("weight_grad", g, cols).reshape(
            self.weight.shape)
        self.bias.grad += grad.sum(axis=(0, 2, 3))
        wmat = self.weight.data.reshape(self.in_ch, -1)
        dx = _conv_gemm("matmul", wmat, cols)
        return dx.reshape(x.shape)


class GRUCell(Module):
    """Single GRU cell used by the recurrent-dynamics baseline (Fig. 5a).

    Backward is implemented for a single step (sufficient for
    truncated-BPTT-1 training of the latent dynamics baseline).
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator] = None, name: str = "gru"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_dim, self.hidden_dim = input_dim, hidden_dim
        d = input_dim + hidden_dim
        self.w_z = Parameter(glorot_uniform(rng, d, hidden_dim), name=f"{name}.w_z")
        self.w_r = Parameter(glorot_uniform(rng, d, hidden_dim), name=f"{name}.w_r")
        self.w_h = Parameter(glorot_uniform(rng, d, hidden_dim), name=f"{name}.w_h")
        self.b_z = Parameter(zeros_init((hidden_dim,)), name=f"{name}.b_z")
        self.b_r = Parameter(zeros_init((hidden_dim,)), name=f"{name}.b_r")
        self.b_h = Parameter(zeros_init((hidden_dim,)), name=f"{name}.b_h")
        self._cache = None

    @staticmethod
    def _sig(x):
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))

    def step(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        xh = np.concatenate([x, h], axis=-1)
        z = self._sig(xh @ self.w_z.data + self.b_z.data)
        r = self._sig(xh @ self.w_r.data + self.b_r.data)
        xrh = np.concatenate([x, r * h], axis=-1)
        hbar = np.tanh(xrh @ self.w_h.data + self.b_h.data)
        h_new = (1 - z) * h + z * hbar
        self._cache = (x, h, z, r, hbar, xh, xrh)
        return h_new

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = np.zeros(x.shape[:-1] + (self.hidden_dim,))
        return self.step(x, h)

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        h = np.zeros(x.shape[:-1] + (self.hidden_dim,))
        xh = np.concatenate([x, h], axis=-1)
        z = self._sig(xh @ self.w_z.data + self.b_z.data)
        r = self._sig(xh @ self.w_r.data + self.b_r.data)
        xrh = np.concatenate([x, r * h], axis=-1)
        hbar = np.tanh(xrh @ self.w_h.data + self.b_h.data)
        return (1 - z) * h + z * hbar

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x, h, z, r, hbar, xh, xrh = self._cache
        dz = grad * (hbar - h) * z * (1 - z)
        dhbar = grad * z * (1 - hbar ** 2)
        dxrh = dhbar @ self.w_h.data.T
        self.w_h.grad += xrh.reshape(-1, xrh.shape[-1]).T @ dhbar.reshape(-1, self.hidden_dim)
        self.b_h.grad += dhbar.reshape(-1, self.hidden_dim).sum(axis=0)
        dx_h = dxrh[..., : self.input_dim]
        drh = dxrh[..., self.input_dim:]
        dr = drh * h * r * (1 - r)
        dxh = dz @ self.w_z.data.T + dr @ self.w_r.data.T
        self.w_z.grad += xh.reshape(-1, xh.shape[-1]).T @ dz.reshape(-1, self.hidden_dim)
        self.b_z.grad += dz.reshape(-1, self.hidden_dim).sum(axis=0)
        self.w_r.grad += xh.reshape(-1, xh.shape[-1]).T @ dr.reshape(-1, self.hidden_dim)
        self.b_r.grad += dr.reshape(-1, self.hidden_dim).sum(axis=0)
        return dx_h + dxh[..., : self.input_dim]
