"""Submanifold sparse 3-D convolution kernels.

The reference backend is the original dict-walking implementation from
``repro.nn.sparse3d`` (same op order → bit-identical to the committed
goldens).  The vectorized backend is the SECOND/spconv rulebook: an
``(n, K)`` table per point set whose entry ``[r, i]`` is the input row
feeding output ``r`` at kernel offset ``i``.  A layer's forward is then
one gather into an ``(n, K·Cin)`` matrix and one GEMM per cloud over its
rows; its backward is two GEMMs, the input grad's over a gather through
the mirrored table, with no scatter.

A batch of clouds is one point set whose leading coordinate is the cloud
index (``(b, i, j, k)``): its offsets move only ``(i, j, k)``, so one
table serves the whole batch and no entry links two clouds.  The table
is cached on the input tensor keyed by kernel size and shared with the
output (a submanifold layer keeps the active set), so a stack of
submanifold layers (the R-MAE encoder) builds it once per batch: one
gather of all ``n·K`` queries from a dense lookup over the batch's
bounding box.

Both backends speak through duck-typed ``layer`` objects (weight/bias
Parameters, kernel, offsets) and :class:`~repro.nn.sparse3d.SparseVoxelTensor`
inputs; imports of ``repro.nn`` stay function-local to keep this package
import-cycle-free.  A forward writes nothing on the layer: it returns
the output tensor and the backward cache, which the layer's training
``forward`` keeps and its pure ``forward_batch`` drops.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

import numpy as np

from . import register_kernel

Coord = Tuple[int, int, int]


class ReferenceSparseConv3d:
    """Original per-voxel dict implementation (seed op order preserved)."""

    def forward(self, layer, x):
        from ..nn.sparse3d import SparseVoxelTensor

        feats = x.features
        out_sites: Dict[Coord, np.ndarray] = {}
        # (output coord) -> list of (offset index, input coord) contributions
        gather: Dict[Coord, List[Tuple[int, Coord]]] = {}
        for coord in feats:
            # A batch's leading cloud index takes no offset.
            cloud, (i, j, k) = coord[:-3], coord[-3:]
            contribs = gather[coord] = []
            for oi, (dx, dy, dz) in enumerate(layer.offsets):
                nb = cloud + (i + dx, j + dy, k + dz)
                if nb in feats:
                    contribs.append((oi, nb))
        for oc, contribs in gather.items():
            acc = layer.bias.data.copy()
            for oi, nb in contribs:
                acc = acc + feats[nb] @ layer.weight.data[oi]
            out_sites[oc] = acc
        return (SparseVoxelTensor(out_sites, layer.out_ch, x.grid_shape),
                ("reference", x, gather))

    def backward(self, layer, grad):
        _, x, gather = layer._cache
        din: Dict[Coord, np.ndarray] = {
            c: np.zeros(layer.in_ch) for c in x.features}
        for oc, g in grad.items():
            if oc not in gather:
                continue
            layer.bias.grad += g
            for oi, nb in gather[oc]:
                layer.weight.grad[oi] += np.outer(x.features[nb], g)
                din[nb] += layer.weight.data[oi] @ g
        return din


def neighbor_table(coords: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Rulebook of one kernel footprint, as an ``(n, K)`` int64 table.

    ``coords`` are the (n, D) int64 rows of a packed set, spatial
    ``(i, j, k)`` last; a batch's leading cloud index (``D == 4``) is
    the leading digit of every key and takes no offset, so no entry
    links two clouds.  The output sites are the same coordinates.  Entry
    ``[r, i]`` is the input row that feeds output row ``r`` at kernel
    offset ``i``, or ``n`` when that neighbour is not active (row ``n``
    of a zero-padded feature matrix).

    Every query resolves in one gather from a dense lookup over the
    set's bounding box widened by the kernel's reach: one int64 slot per
    cell of that box, which a voxel grid keeps small (26x26x4 per cloud
    at the e2ebench geometry).
    """
    offsets = np.asarray(offsets, dtype=np.int64).reshape(-1, 3)
    n, d = coords.shape
    if n == 0:
        return np.zeros((0, len(offsets)), dtype=np.int64)
    # Row-major ravel over a box holding every input coordinate and
    # every query: keys never collide, and a query's key lies in its own
    # cloud's slab of the box.
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    lo[-3:] += np.minimum(offsets.min(axis=0), 0)
    hi[-3:] += np.maximum(offsets.max(axis=0), 0)
    dims = hi - lo + 1
    strides = np.ones(d, dtype=np.int64)
    strides[:-1] = np.cumprod(dims[:0:-1])[::-1]
    keys = (coords - lo) @ strides
    lookup = np.full(int(dims.prod()), n, dtype=np.int64)
    lookup[keys] = np.arange(n)
    # The ravel is linear, so query keys are input keys plus offset keys.
    return lookup[keys[:, None] + offsets @ strides[-3:]]


def cloud_bounds(coords: np.ndarray, grid_shape: Tuple[int, ...]
                 ) -> np.ndarray:
    """Row bounds of each cloud in a sorted coordinate set: cloud ``b``
    owns rows ``bounds[b]:bounds[b + 1]``.  A set without a leading
    cloud index (``len(grid_shape) == 3``) is one cloud."""
    if len(grid_shape) == 3:
        return np.array([0, coords.shape[0]])
    return np.searchsorted(coords[:, 0], np.arange(grid_shape[0] + 1))


@functools.lru_cache(maxsize=8)
def _offset_rows(offsets: Tuple[Coord, ...]) -> np.ndarray:
    """A kernel footprint's offsets as a read-only (K, 3) array, built
    once per footprint rather than once per rulebook."""
    rows = np.array(offsets, dtype=np.int64).reshape(-1, 3)
    rows.flags.writeable = False
    return rows


def _zero_padded(rows: np.ndarray) -> np.ndarray:
    """``rows`` with one zero row appended (the absent neighbour)."""
    padded = np.zeros((rows.shape[0] + 1, rows.shape[1]))
    padded[:-1] = rows
    return padded


class VectorizedSparseConv3d:
    """Rulebook table: one gather and one GEMM per layer."""

    def forward(self, layer, x):
        from ..nn.sparse3d import SparseVoxelTensor

        coords, X = x.packed()
        rulebook = x._index_cache.get(layer.kernel)
        if rulebook is None:
            rulebook = x._index_cache[layer.kernel] = (
                neighbor_table(coords, _offset_rows(tuple(layer.offsets))),
                cloud_bounds(coords, x.grid_shape).tolist())
        table, bounds = rulebook
        n, k = table.shape
        kc = k * layer.in_ch
        # np.take copies whole rows: several times faster than X[table].
        cols = np.take(_zero_padded(X), table, axis=0).reshape(n, kc)
        weight = layer.weight.data.reshape(kc, layer.out_ch)
        # One GEMM per cloud, on its rows of the batch's gather: BLAS
        # rounds a row by the call's row count, so a cloud's rows come
        # out as they would in a batch of one, bit for bit.
        out = np.empty((n, layer.out_ch))
        for start, stop in zip(bounds, bounds[1:]):
            if stop > start:
                np.matmul(cols[start:stop], weight, out=out[start:stop])
        out += layer.bias.data
        # The output keeps the input's active set, so downstream
        # submanifold layers reuse the cached table.  The backward cache
        # leaves out the (n, K*Cin) gather, which backward rebuilds:
        # models deep-copied after a training forward would carry it.
        return (SparseVoxelTensor(None, layer.out_ch, x.grid_shape,
                                  coords=coords, matrix=out,
                                  index_cache=x._index_cache),
                ("vectorized", coords, X, table))

    def backward(self, layer, grad):
        from ..nn.sparse3d import SparseGrad

        _, coords, X, table = layer._cache
        n, k = table.shape
        if isinstance(grad, SparseGrad) and grad.matrix.shape[0] == n \
                and np.array_equal(grad.coords_arr, coords):
            G = grad.matrix
        else:
            # Dict-shaped grads (tests): scatter known coords into rows;
            # unknown coords contribute nothing, like the reference's
            # `oc not in gather` skip.
            G = np.zeros((n, layer.out_ch))
            lookup = dict(zip(map(tuple, coords.tolist()), range(n)))
            for oc, g in grad.items():
                row = lookup.get(tuple(int(v) for v in oc))
                if row is not None:
                    G[row] = g
        layer.bias.grad += G.sum(axis=0)
        cols = np.take(_zero_padded(X), table, axis=0).reshape(
            n, k * layer.in_ch)
        layer.weight.grad += (cols.T @ G).reshape(layer.weight.grad.shape)
        # Offset i's mirror -d sits at index K-1-i, so input j receives
        # from output table[j, K-1-i] at offset i: the input grad is a
        # gather through the mirrored table and one GEMM with the
        # channel-transposed weights, no scatter.
        gcols = np.take(_zero_padded(G), table[:, ::-1], axis=0).reshape(
            n, k * layer.out_ch)
        din = gcols @ layer.weight.data.transpose(0, 2, 1).reshape(
            k * layer.out_ch, layer.in_ch)
        return SparseGrad(coords, din)


register_kernel("sparse_conv3d", "reference", ReferenceSparseConv3d())
register_kernel("sparse_conv3d", "vectorized", VectorizedSparseConv3d())
