"""Sparse 3-D submanifold convolution on voxel dictionaries.

The R-MAE encoder (Sec. III) "processes only non-empty voxels, preserving
geometric structure while reducing memory usage".  We represent a sparse
voxel tensor as a mapping ``(i, j, k) -> feature vector`` and implement
submanifold convolution: outputs exist only at input-active sites, so
sparsity is preserved through the network (the defining property of
spconv-style encoders).  A batch of clouds is one tensor whose leading
coordinate is the cloud index, ``(b, i, j, k)``: kernel offsets move
only ``(i, j, k)``, so no voxel reads another cloud's.

The numerical work is dispatched through :mod:`repro.kernels`:
``REPRO_KERNELS=reference`` runs the original per-voxel dict loops,
``vectorized`` (the default) an ``(n_active, K)`` rulebook table: one
gather per layer over the whole batch and one GEMM per cloud.  To keep
the vectorized path in arrays between layers,
:class:`SparseVoxelTensor` holds features in one of three equivalent
representations — the coordinate dict, a batch's per-cloud dicts, or a
packed ``(coords, matrix)`` pair — and converts lazily.  Reading
:attr:`features` on a packed or per-cloud tensor materializes the dict
(and makes it authoritative from then on); :meth:`packed` on a dict
tensor re-packs on every call (one ``np.lexsort`` of the coordinates),
because callers (gradcheck, tests) mutate the dict's arrays in place
between forwards.  Adding or removing active sites after a rulebook
table has been cached on the tensor is not supported.

Each layer's ``forward`` keeps its backward cache and its
``forward_batch`` computes the same output with no instance state
touched (the :meth:`~repro.nn.layers.Module.forward_batch` contract);
on a batched tensor each cloud's rows equal what that cloud alone gives.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels import get_kernel, kernel_timer
from ..kernels.sparse_conv import cloud_bounds
from .layers import Module
from .tensor import Parameter, he_normal, zeros_init

__all__ = ["SparseVoxelTensor", "SparseGrad", "SparseConv3d", "SparseReLU",
           "SparseGlobalPool", "SparseSequential"]

Coord = Tuple[int, int, int]


class SparseVoxelTensor:
    """Features attached to a sparse set of integer voxel coordinates.

    A tensor holds one cloud — ``(i, j, k)`` coordinates in a
    ``grid_shape`` of ``(nx, ny, nz)`` — or a batch of clouds with the
    cloud index as the leading coordinate: ``(b, i, j, k)`` in
    ``(B, nx, ny, nz)``, as SECOND and spconv batch their voxels.  A
    batch built from per-cloud dicts (:meth:`from_clouds`) keeps them
    until a layer reads the tensor, so packing it builds no
    ``(b, i, j, k)`` tuple.
    """

    def __init__(self, features: Optional[Dict[Coord, np.ndarray]],
                 channels: int, grid_shape: Tuple[int, ...], *,
                 coords: Optional[np.ndarray] = None,
                 matrix: Optional[np.ndarray] = None,
                 index_cache: Optional[dict] = None,
                 clouds: Optional[List[Dict[Coord, np.ndarray]]] = None):
        if features is None and clouds is None and (coords is None
                                                    or matrix is None):
            raise ValueError("need a feature dict, per-cloud dicts or a "
                             "packed (coords, matrix) pair")
        self._features = features
        self._clouds = clouds
        self.channels = channels
        self.grid_shape = tuple(grid_shape)
        self._coords = coords
        self._matrix = matrix
        # kernel size -> rulebook, shared across the layers of a
        # submanifold stack (the active set does not change).
        self._index_cache: dict = index_cache if index_cache is not None \
            else {}

    @staticmethod
    def from_coords(coords: Sequence[Coord], channels: int,
                    grid_shape: Tuple[int, ...],
                    values: Optional[np.ndarray] = None) -> "SparseVoxelTensor":
        """Build from a coordinate list; default feature is all-ones."""
        feats: Dict[Coord, np.ndarray] = {}
        for idx, c in enumerate(coords):
            if values is not None:
                feats[tuple(c)] = np.asarray(values[idx], dtype=np.float64)
            else:
                feats[tuple(c)] = np.ones(channels, dtype=np.float64)
        return SparseVoxelTensor(feats, channels, grid_shape)

    @staticmethod
    def from_clouds(clouds: Sequence[Dict[Coord, np.ndarray]], channels: int,
                    grid_shape: Tuple[int, int, int]) -> "SparseVoxelTensor":
        """A batch of clouds, each an ``(i, j, k) -> feature`` dict:
        cloud ``b``'s voxel ``(i, j, k)`` sits at ``(b, i, j, k)``.

        The rows are the dicts' own arrays, in cloud order and each
        dict's order; :attr:`features` keys them by ``(b, i, j, k)`` when
        first read.
        """
        return SparseVoxelTensor(None, channels,
                                 (len(clouds),) + tuple(grid_shape),
                                 clouds=list(clouds))

    @property
    def is_packed(self) -> bool:
        """True while the packed (coords, matrix) pair is authoritative."""
        return self._matrix is not None

    @property
    def features(self) -> Dict[Coord, np.ndarray]:
        if self._features is None:
            if self._clouds is not None:
                feats: Dict[Coord, np.ndarray] = {}
                for b, cloud in enumerate(self._clouds):
                    feats.update(zip(map((b,).__add__, cloud),
                                     cloud.values()))
            else:
                feats = dict(zip(map(tuple, self._coords.tolist()),
                                 self._matrix))
            # Packed dict rows alias the matrix until now; hand ownership
            # to the dict so later in-place mutation cannot desynchronize
            # the two representations.
            self._features = feats
            self._clouds = self._coords = self._matrix = None
            self._index_cache = {}
        return self._features

    @property
    def num_active(self) -> int:
        if self._clouds is not None:
            return sum(len(cloud) for cloud in self._clouds)
        if self._features is None:
            return self._coords.shape[0]
        return len(self._features)

    def coords(self) -> List[Coord]:
        if self._features is None:
            return list(map(tuple, self.packed()[0].tolist()))
        return list(self._features.keys())

    def packed(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lexicographically sorted (N, D) int64 coords + (N, C) features,
        ``D = len(grid_shape)``: a batch's rows come cloud by cloud.

        Dict-backed tensors re-pack on every call (the dict's arrays may
        have been mutated in place); packed tensors return their arrays
        as-is.
        """
        if self.is_packed:
            return self._coords, self._matrix
        n, d = self.num_active, len(self.grid_shape)
        if not n:
            return np.zeros((0, d), dtype=np.int64), \
                np.zeros((0, self.channels))
        if self._clouds is not None:
            coords = np.empty((n, d), dtype=np.int64)
            coords[:, 0] = np.repeat(np.arange(len(self._clouds)),
                                     [len(cloud) for cloud in self._clouds])
            coords[:, 1:] = np.fromiter(
                itertools.chain.from_iterable(
                    itertools.chain.from_iterable(self._clouds)),
                dtype=np.int64, count=3 * n).reshape(n, 3)
            rows = list(itertools.chain.from_iterable(
                cloud.values() for cloud in self._clouds))
        else:
            coords = np.fromiter(
                itertools.chain.from_iterable(self._features),
                dtype=np.int64, count=d * n).reshape(n, d)
            rows = list(self._features.values())
        order = np.lexsort(coords.T[::-1])
        return coords[order], np.array(rows)[order]

    def dense(self) -> np.ndarray:
        """Materialize to a dense (C, *grid_shape) array."""
        out = np.zeros((self.channels,) + self.grid_shape)
        coords, mat = self.packed()
        if coords.shape[0]:
            out[(slice(None),) + tuple(coords.T)] = mat.T
        return out


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
            self._lookup = dict(zip(map(tuple, self.coords_arr.tolist()),
                                    range(len(self))))
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

    def _forward(self, x: SparseVoxelTensor):
        """The output tensor and its backward cache."""
        with kernel_timer("sparse_conv3d", "forward"):
            return get_kernel("sparse_conv3d").forward(self, x)

    def forward(self, x: SparseVoxelTensor) -> SparseVoxelTensor:
        out, self._cache = self._forward(x)
        return out

    def forward_batch(self, x: SparseVoxelTensor) -> SparseVoxelTensor:
        return self._forward(x)[0]

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

    @staticmethod
    def _forward(x: SparseVoxelTensor):
        """The output tensor and its backward mask."""
        if x.is_packed:
            coords, mat = x.packed()
            m = mat > 0
            return SparseVoxelTensor(
                None, x.channels, x.grid_shape, coords=coords,
                matrix=np.where(m, mat, 0.0),
                index_cache=x._index_cache), ("packed", coords, m)
        out = {}
        mask: Dict[Coord, np.ndarray] = {}
        for c, f in x.features.items():
            m = f > 0
            mask[c] = m
            out[c] = np.where(m, f, 0.0)
        return SparseVoxelTensor(out, x.channels, x.grid_shape), \
            ("dict", mask)

    def forward(self, x: SparseVoxelTensor) -> SparseVoxelTensor:
        out, self._mask = self._forward(x)
        return out

    def forward_batch(self, x: SparseVoxelTensor) -> SparseVoxelTensor:
        return self._forward(x)[0]

    def backward(self, grad):
        if self._mask is None:
            return grad
        if self._mask[0] == "packed":
            _, coords, m = self._mask
            if isinstance(grad, SparseGrad) and \
                    grad.matrix.shape == m.shape and \
                    np.array_equal(grad.coords_arr, coords):
                return SparseGrad(coords, grad.matrix * m)
            lookup = dict(zip(map(tuple, coords.tolist()), m))
            return {c: g * lookup.get(tuple(c), 0.0)
                    for c, g in grad.items()}
        mask = self._mask[1]
        return {c: g * mask.get(c, 0.0) for c, g in grad.items()}


class SparseGlobalPool(Module):
    """Mean-pool each cloud's active voxels into one latent vector: a
    ``(C,)`` vector for a one-cloud tensor, ``(B, C)`` rows for a batch
    (an empty cloud pools to zeros)."""

    def __init__(self):
        self._cache = None

    @staticmethod
    def _forward(x: SparseVoxelTensor):
        """The pooled rows, and the coordinates and per-cloud row bounds
        backward spreads them over."""
        coords, mat = x.packed()
        bounds = cloud_bounds(coords, x.grid_shape).tolist()
        pooled = np.zeros((len(bounds) - 1, x.channels))
        for b, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            if stop > start:
                # What ``mean(axis=0)`` computes, without its overhead.
                pooled[b] = np.add.reduce(mat[start:stop]) / (stop - start)
        if len(x.grid_shape) == 3:
            pooled = pooled[0]
        return pooled, (coords, bounds)

    def forward(self, x: SparseVoxelTensor) -> np.ndarray:
        out, self._cache = self._forward(x)
        return out

    def forward_batch(self, x: SparseVoxelTensor) -> np.ndarray:
        return self._forward(x)[0]

    def backward(self, grad: np.ndarray) -> SparseGrad:
        coords, bounds = self._cache
        counts = np.diff(bounds)
        share = np.reshape(grad, (counts.size, -1)) \
            / np.maximum(counts, 1)[:, None]
        return SparseGrad(coords, np.repeat(share, counts, axis=0))


class SparseSequential(Module):
    """Sequential container whose layers speak sparse tensors / dict grads."""

    def __init__(self, *layers: Module):
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def forward_batch(self, x):
        for layer in self.layers:
            x = layer.forward_batch(x)
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad
