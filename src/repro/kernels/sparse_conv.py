"""Submanifold sparse 3-D convolution kernels.

The reference backend is the original dict-walking implementation from
``repro.nn.sparse3d`` (same op order → bit-identical to the committed
goldens).  The vectorized backend is the SECOND/spconv
move: build a sorted-coordinate neighbor index once per point set, then
run the whole layer as dense gathers, one GEMM per kernel offset, and
unique-index scatters.

The index is cached on the input tensor keyed by kernel size and
shared with the output (a submanifold layer keeps the active set), so
a stack of submanifold layers (the R-MAE encoder, the detect neck)
builds it once.  Every encode starts from a fresh tensor and pays that
build, so it is one vectorized pass over all kernel offsets rather than
a loop over them.

Both backends speak through duck-typed ``layer`` objects (weight/bias
Parameters, kernel, offsets) and :class:`~repro.nn.sparse3d.SparseVoxelTensor`
inputs; imports of ``repro.nn`` stay function-local to keep this package
import-cycle-free.
"""

from __future__ import annotations

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
        for (i, j, k) in feats:
            contribs = gather[(i, j, k)] = []
            for oi, (dx, dy, dz) in enumerate(layer.offsets):
                nb = (i + dx, j + dy, k + dz)
                if nb in feats:
                    contribs.append((oi, nb))
        for oc, contribs in gather.items():
            acc = layer.bias.data.copy()
            for oi, nb in contribs:
                acc = acc + feats[nb] @ layer.weight.data[oi]
            out_sites[oc] = acc
        layer._cache = ("reference", x, gather)
        return SparseVoxelTensor(out_sites, layer.out_ch, x.grid_shape)

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


def build_neighbor_index(coords: np.ndarray, offsets: np.ndarray):
    """Gather/scatter index for one kernel footprint.

    ``coords`` must be lexicographically sorted (n, 3) int64 — the order
    :meth:`SparseVoxelTensor.packed` guarantees; the output sites are
    the same coordinates.  Returns ``pairs`` where ``pairs[oi] =
    (in_idx, out_idx)`` lists, for kernel offset ``oi``, which input
    rows feed which output rows.

    Submanifold structure makes the scatter side trivially parallel:
    for a fixed offset every output site queries exactly one neighbor
    coordinate, so ``out_idx`` (and symmetrically ``in_idx``) contain no
    duplicates and plain fancy-index ``+=`` is exact.

    Every offset's queries resolve in one pass: one ``searchsorted`` of
    the whole (offsets, n) query block, then the hits split per offset
    (both index arrays int64, ascending ``out_idx`` within an offset).
    """
    offsets = np.asarray(offsets, dtype=np.int64).reshape(-1, 3)
    n = coords.shape[0]
    empty = np.zeros(0, dtype=np.int64)
    if n == 0:
        return [(empty, empty)] * len(offsets)
    # Shift-to-nonnegative row-major ravel over a box holding every
    # input coordinate and every query: scalar keys that ascend with the
    # lexicographic coordinate order and never collide, so searchsorted
    # resolves neighbor lookups against the sorted input set and a query
    # outside the input set simply finds no key.
    lo = coords.min(axis=0) + np.minimum(offsets.min(axis=0), 0)
    dims = coords.max(axis=0) + np.maximum(offsets.max(axis=0), 0) - lo + 1

    def encode(c: np.ndarray) -> np.ndarray:
        return (c[:, 0] * dims[1] + c[:, 1]) * dims[2] + c[:, 2]

    keys = encode(coords - lo)
    # The ravel is linear, so query keys are input keys plus offset keys.
    queries = encode(offsets)[:, None] + keys[None, :]
    pos = np.minimum(np.searchsorted(keys, queries), n - 1)
    found = keys[pos] == queries
    hit_off, out_idx = np.nonzero(found)
    in_idx = pos[hit_off, out_idx]
    bounds = [0, *np.cumsum(np.count_nonzero(found, axis=1)).tolist()]
    return [(in_idx[a:b], out_idx[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])]


class VectorizedSparseConv3d:
    """Sorted-key neighbor index + one GEMM per kernel offset."""

    def forward(self, layer, x):
        from ..nn.sparse3d import SparseVoxelTensor

        coords, X = x.packed()
        pairs = x._index_cache.get(layer.kernel)
        if pairs is None:
            pairs = build_neighbor_index(coords, layer.offsets)
            x._index_cache[layer.kernel] = pairs
        W = layer.weight.data
        out = np.tile(layer.bias.data, (coords.shape[0], 1))
        for oi, (in_idx, out_idx) in enumerate(pairs):
            if in_idx.size:
                out[out_idx] += X[in_idx] @ W[oi]
        layer._cache = ("vectorized", coords, X, pairs)
        # The output keeps the input's active set, so downstream
        # submanifold layers reuse the cached neighbor index.
        return SparseVoxelTensor(None, layer.out_ch, x.grid_shape,
                                 coords=coords, matrix=out,
                                 index_cache=x._index_cache)

    def backward(self, layer, grad):
        from ..nn.sparse3d import SparseGrad

        _, coords, X, pairs = layer._cache
        n_out = coords.shape[0]
        if isinstance(grad, SparseGrad) and grad.matrix.shape[0] == n_out \
                and np.array_equal(grad.coords_arr, coords):
            G = grad.matrix
        else:
            # Dict-shaped grads (tests, pool backward): scatter known
            # coords into rows; unknown coords contribute nothing, like
            # the reference's `oc not in gather` skip.
            G = np.zeros((n_out, layer.out_ch))
            lookup = {(int(c[0]), int(c[1]), int(c[2])): i
                      for i, c in enumerate(coords)}
            for oc, g in grad.items():
                row = lookup.get(tuple(int(v) for v in oc))
                if row is not None:
                    G[row] = g
        layer.bias.grad += G.sum(axis=0)
        W = layer.weight.data
        din = np.zeros_like(X)
        for oi, (in_idx, out_idx) in enumerate(pairs):
            if in_idx.size:
                layer.weight.grad[oi] += X[in_idx].T @ G[out_idx]
                din[in_idx] += G[out_idx] @ W[oi].T
        return SparseGrad(coords, din)


register_kernel("sparse_conv3d", "reference", ReferenceSparseConv3d())
register_kernel("sparse_conv3d", "vectorized", VectorizedSparseConv3d())
