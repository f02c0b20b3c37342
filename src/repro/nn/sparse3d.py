"""Sparse 3-D submanifold convolution on voxel dictionaries.

The R-MAE encoder (Sec. III) "processes only non-empty voxels, preserving
geometric structure while reducing memory usage".  We represent a sparse
voxel tensor as a mapping ``(i, j, k) -> feature vector`` and implement
submanifold convolution: outputs exist only at input-active sites, so
sparsity is preserved through the network (the defining property of
spconv-style encoders).

The numerical work is dispatched through :mod:`repro.kernels`:
``REPRO_KERNELS=reference`` runs the original per-voxel dict loops,
``vectorized`` (the default) runs a sorted-coordinate neighbor index
with dense gather/scatter over ``(n_active,)`` index arrays.  To make
the vectorized path allocation-free between layers,
:class:`SparseVoxelTensor` holds features in one of two equivalent
representations — the coordinate dict, or a packed ``(coords, matrix)``
pair — and converts lazily.  Reading :attr:`features` on a packed
tensor materializes the dict (and makes it authoritative from then on);
:meth:`packed` on a dict tensor re-packs on every call (one
``np.lexsort`` of the coordinates), because callers (gradcheck, tests)
mutate the dict's arrays in place between forwards.
Adding or removing active sites after a neighbor index has been cached
on the tensor is not supported.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels import get_kernel, kernel_timer
from .layers import Module
from .tensor import Parameter, he_normal, zeros_init

__all__ = ["SparseVoxelTensor", "SparseGrad", "SparseConv3d", "SparseReLU",
           "SparseGlobalPool", "SparseSequential"]

Coord = Tuple[int, int, int]


class SparseVoxelTensor:
    """Features attached to a sparse set of integer voxel coordinates."""

    def __init__(self, features: Optional[Dict[Coord, np.ndarray]],
                 channels: int, grid_shape: Tuple[int, int, int], *,
                 coords: Optional[np.ndarray] = None,
                 matrix: Optional[np.ndarray] = None,
                 index_cache: Optional[dict] = None):
        if features is None and (coords is None or matrix is None):
            raise ValueError("need a feature dict or a packed "
                             "(coords, matrix) pair")
        self._features = features
        self.channels = channels
        self.grid_shape = grid_shape
        self._coords = coords
        self._matrix = matrix
        # kernel size -> neighbor index, shared across the layers of a
        # submanifold stack (the active set does not change).
        self._index_cache: dict = index_cache if index_cache is not None \
            else {}

    @staticmethod
    def from_coords(coords: Sequence[Coord], channels: int,
                    grid_shape: Tuple[int, int, int],
                    values: Optional[np.ndarray] = None) -> "SparseVoxelTensor":
        """Build from a coordinate list; default feature is all-ones."""
        feats: Dict[Coord, np.ndarray] = {}
        for idx, c in enumerate(coords):
            if values is not None:
                feats[tuple(c)] = np.asarray(values[idx], dtype=np.float64)
            else:
                feats[tuple(c)] = np.ones(channels, dtype=np.float64)
        return SparseVoxelTensor(feats, channels, grid_shape)

    @property
    def is_packed(self) -> bool:
        """True while the packed (coords, matrix) pair is authoritative."""
        return self._features is None

    @property
    def features(self) -> Dict[Coord, np.ndarray]:
        if self._features is None:
            feats: Dict[Coord, np.ndarray] = {}
            for i in range(self._coords.shape[0]):
                c = self._coords[i]
                feats[(int(c[0]), int(c[1]), int(c[2]))] = self._matrix[i]
            # The dict rows alias the matrix until now; hand ownership to
            # the dict so later in-place mutation cannot desynchronize
            # the two representations.
            self._features = feats
            self._coords = None
            self._matrix = None
            self._index_cache = {}
        return self._features

    @property
    def num_active(self) -> int:
        if self._features is None:
            return self._coords.shape[0]
        return len(self._features)

    def coords(self) -> List[Coord]:
        if self._features is None:
            return [(int(c[0]), int(c[1]), int(c[2]))
                    for c in self._coords]
        return list(self._features.keys())

    def packed(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lexicographically sorted (N, 3) int64 coords + (N, C) features.

        Dict-backed tensors re-pack on every call (the dict's arrays may
        have been mutated in place); packed tensors return their arrays
        as-is.
        """
        if self._features is None:
            return self._coords, self._matrix
        n = len(self._features)
        if not n:
            return np.zeros((0, 3), dtype=np.int64), \
                np.zeros((0, self.channels))
        coords = np.fromiter(itertools.chain.from_iterable(self._features),
                             dtype=np.int64, count=3 * n).reshape(n, 3)
        order = np.lexsort(coords.T[::-1])
        return coords[order], np.array(list(self._features.values()))[order]

    def dense(self) -> np.ndarray:
        """Materialize to a dense (C, X, Y, Z) array."""
        out = np.zeros((self.channels,) + self.grid_shape)
        coords, mat = self.packed()
        if coords.shape[0]:
            out[:, coords[:, 0], coords[:, 1], coords[:, 2]] = mat.T
        return out

    def feature_matrix(self) -> Tuple[List[Coord], np.ndarray]:
        """Coordinates and a (N, C) stacked feature matrix, sorted."""
        coords, mat = self.packed()
        return [(int(c[0]), int(c[1]), int(c[2])) for c in coords], mat


class SparseGrad(Mapping):
    """Packed gradient: sorted coords plus a (N, C) row matrix.

    The vectorized backward passes hand this between layers so the chain
    stays in array land, but it quacks like the coordinate dict the
    reference implementations (and the tests) use.
    """

    def __init__(self, coords: np.ndarray, matrix: np.ndarray):
        self.coords_arr = coords
        self.matrix = matrix
        self._lookup: Optional[Dict[Coord, int]] = None

    def _rows(self) -> Dict[Coord, int]:
        if self._lookup is None:
            self._lookup = {
                (int(c[0]), int(c[1]), int(c[2])): i
                for i, c in enumerate(self.coords_arr)}
        return self._lookup

    def __getitem__(self, key: Coord) -> np.ndarray:
        return self.matrix[self._rows()[tuple(key)]]

    def __iter__(self):
        return iter(self._rows())

    def __len__(self) -> int:
        return self.coords_arr.shape[0]


def _kernel_offsets(kernel: int) -> List[Coord]:
    r = kernel // 2
    return [(dx, dy, dz)
            for dx in range(-r, r + 1)
            for dy in range(-r, r + 1)
            for dz in range(-r, r + 1)]


class SparseConv3d(Module):
    """Submanifold sparse 3-D convolution.

    Output features are computed only at the sites that are active in the
    input; each output gathers contributions from active neighbours within
    the kernel footprint.
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int = 3,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "spconv"):
        if kernel % 2 == 0:
            raise ValueError("submanifold convolution needs an odd kernel")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel = kernel
        self.offsets = _kernel_offsets(kernel)
        fan_in = in_ch * len(self.offsets)
        self.weight = Parameter(
            he_normal(rng, fan_in, (len(self.offsets), in_ch, out_ch)),
            name=f"{name}.weight")
        self.bias = Parameter(zeros_init((out_ch,)), name=f"{name}.bias")
        self._cache = None

    def forward(self, x: SparseVoxelTensor) -> SparseVoxelTensor:
        with kernel_timer("sparse_conv3d", "forward"):
            return get_kernel("sparse_conv3d").forward(self, x)

    def backward(self, grad):
        """Backward pass; ``grad`` maps output coords to dL/d(out feature)."""
        # The forward tagged its cache with the backend that built it, so
        # a scoped backend switch between forward and backward stays
        # consistent.
        backend = self._cache[0]
        with kernel_timer("sparse_conv3d", "backward"):
            return get_kernel("sparse_conv3d",
                              backend=backend).backward(self, grad)

    def macs_per_active_voxel(self, mean_neighbors: Optional[float] = None) -> int:
        """Analytic MACs per active output voxel.

        If ``mean_neighbors`` is omitted, assumes a full kernel footprint
        (the dense upper bound).
        """
        n = len(self.offsets) if mean_neighbors is None else mean_neighbors
        return int(n * self.in_ch * self.out_ch)


class SparseReLU(Module):
    def __init__(self):
        self._mask = None

    def forward(self, x: SparseVoxelTensor) -> SparseVoxelTensor:
        if x.is_packed:
            coords, mat = x.packed()
            m = mat > 0
            self._mask = ("packed", coords, m)
            return SparseVoxelTensor(
                None, x.channels, x.grid_shape, coords=coords,
                matrix=np.where(m, mat, 0.0),
                index_cache=x._index_cache)
        out = {}
        mask: Dict[Coord, np.ndarray] = {}
        for c, f in x.features.items():
            m = f > 0
            mask[c] = m
            out[c] = np.where(m, f, 0.0)
        self._mask = ("dict", mask)
        return SparseVoxelTensor(out, x.channels, x.grid_shape)

    def backward(self, grad):
        if self._mask is None:
            return grad
        if self._mask[0] == "packed":
            _, coords, m = self._mask
            if isinstance(grad, SparseGrad) and \
                    grad.matrix.shape == m.shape and \
                    np.array_equal(grad.coords_arr, coords):
                return SparseGrad(coords, grad.matrix * m)
            lookup = {(int(c[0]), int(c[1]), int(c[2])): m[i]
                      for i, c in enumerate(coords)}
            return {c: g * lookup.get(tuple(c), 0.0)
                    for c, g in grad.items()}
        mask = self._mask[1]
        return {c: g * mask.get(c, 0.0) for c, g in grad.items()}


class SparseGlobalPool(Module):
    """Mean-pool all active voxels into a single latent vector."""

    def __init__(self):
        self._cache = None

    def forward(self, x: SparseVoxelTensor) -> np.ndarray:
        coords, mat = x.feature_matrix()
        self._cache = (coords, x.channels, max(len(coords), 1))
        if not coords:
            return np.zeros(x.channels)
        return mat.mean(axis=0)

    def backward(self, grad: np.ndarray) -> Dict[Coord, np.ndarray]:
        coords, channels, n = self._cache
        share = grad / n
        return {c: share.copy() for c in coords}


class SparseSequential(Module):
    """Sequential container whose layers speak sparse tensors / dict grads."""

    def __init__(self, *layers: Module):
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad
