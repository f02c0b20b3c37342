"""Point-cloud voxelization kernels (the R-MAE pipeline's first step).

Kernel API: ``voxelize(points, labels, sizes, config)`` takes a batch of
scans as one concatenation — ``(N, 4)`` float64 points with finite
coordinates (``repro.voxel.voxelize_batch`` rejects the others) and
``(N,)`` labels, ``sizes[s]`` of them from scan ``s`` — and returns one
``(features, labels)`` dict pair per scan, keyed by voxel coordinate.
Scan ``s``'s pair is what that scan alone would give, byte for byte: a
single scan is a batch of one.

Reference: the original per-point binning loop from
``repro.voxel.grid.voxelize``, moved here verbatim and run scan by scan
— one ``point_to_voxel`` call per point, then per-voxel means and a
majority label over each bucket, in first-occurrence order.

Vectorized: binning, bucketing and the majority label are whole-array
operations over the whole batch, keyed by (scan, i, j, k).  The output
is **byte-identical** to the reference — the same voxels in the same
dict order, the same feature bytes, the same labels — because:

* cell indices are computed with the reference's scalar expression,
  elementwise, and bounds-checked before the integer cast;
* the scan index leads the voxel key and the scans are concatenated in
  order, so numbering voxels by first occurrence numbers them scan by
  scan, each scan's in its own first-occurrence order;
* the points are sorted once by their voxel's point count, so the
  voxels that hold ``count`` points form one contiguous run of points;
  each mean is what ``ndarray.mean`` computes, ``np.add.reduce`` over
  a ``(k, count)`` reshape view of that run divided by ``count``: the
  last-axis reduction sums each row in the same (pairwise) order as
  the reference's 1-D mean — ``np.add.reduceat`` would sum in another
  order;
* the majority label counts votes over one ``voxel * span + label`` key
  per point and breaks ties towards the smallest id, as ``np.unique`` +
  ``argmax`` does.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import register_kernel

Coord = Tuple[int, int, int]
# One scan's (features, labels) dicts, keyed by voxel coordinate.
Voxels = Tuple[Dict[Coord, np.ndarray], Dict[Coord, int]]


class ReferenceVoxelize:
    """Original per-point, per-voxel loop (seed op order), scan by scan."""

    def voxelize(self, points: np.ndarray, labels: np.ndarray,
                 scan_sizes: Sequence[int], config) -> List[Voxels]:
        ends = np.cumsum(scan_sizes, dtype=np.int64).tolist()
        return [self._scan(points[end - n:end], labels[end - n:end], config)
                for n, end in zip(scan_sizes, ends)]

    @staticmethod
    def _scan(points: np.ndarray, labels: np.ndarray, config) -> Voxels:
        buckets: Dict[Coord, List[int]] = {}
        for idx in range(points.shape[0]):
            coord = config.point_to_voxel(points[idx, :3])
            if coord is not None:
                buckets.setdefault(coord, []).append(idx)

        sx, sy, sz = config.voxel_size
        features: Dict[Coord, np.ndarray] = {}
        vox_labels: Dict[Coord, int] = {}
        for coord, idxs in buckets.items():
            pts = points[idxs]
            center = config.voxel_center(coord)
            count = len(idxs)
            mean_intensity = float(pts[:, 3].mean())
            mean_dz = float((pts[:, 2] - center[2]).mean() / max(sz, 1e-9))
            mean_range = float(np.hypot(pts[:, 0], pts[:, 1]).mean() / 100.0)
            features[coord] = np.array(
                [np.log1p(count), mean_intensity, mean_dz, mean_range])
            lbls = labels[idxs]
            fg = lbls[lbls >= 0]
            if fg.size:
                vals, counts = np.unique(fg, return_counts=True)
                vox_labels[coord] = int(vals[np.argmax(counts)])
            else:
                vox_labels[coord] = -1
        return features, vox_labels


class VectorizedVoxelize:
    """Whole-batch array binning, count-blocked means and 1-D label keys
    (byte-identical)."""

    def voxelize(self, points: np.ndarray, labels: np.ndarray,
                 scan_sizes: Sequence[int], config) -> List[Voxels]:
        sz = config.voxel_size[2]
        cells = []
        inside = np.ones(points.shape[0], dtype=bool)
        for col, (low, _), size, n in zip(
                range(3), (config.x_range, config.y_range, config.z_range),
                config.voxel_size, config.shape):
            cell = np.floor((points[:, col] - low) / size)
            inside &= (0 <= cell) & (cell < n)
            cells.append(cell)
        kept = np.flatnonzero(inside)
        i, j, k = (cell[kept].astype(np.int64) for cell in cells)
        key = (i * config.ny + j) * config.nz + k
        # The scan index leads the key: each scan owns a slab of
        # ``grid_cells`` keys (a lone scan's slab is 0).
        grid_cells = config.nx * config.ny * config.nz
        if len(scan_sizes) > 1:
            key += np.repeat(np.arange(len(scan_sizes)) * grid_cells,
                             scan_sizes)[kept]
        keys, first, inverse, counts = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True)
        # Number voxels by first occurrence: scan by scan, each in the
        # reference's dict order.
        by_first = np.argsort(first)
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(by_first.size)
        voxel = rank[inverse]
        counts = counts[by_first]
        heads = first[by_first]
        # Voxels by point count, then by voxel; points grouped by voxel in
        # that order, in point order within a voxel: the voxels of each
        # count hold one contiguous run of points.
        by_count = np.argsort(counts, kind="stable")
        order = kept[np.argsort(counts[voxel] * counts.size + voxel,
                                kind="stable")]

        center_z = config.z_range[0] + (k[heads] + 0.5) * sz
        per_point = np.stack([
            points[order, 3],
            points[order, 2] - np.repeat(center_z[by_count],
                                         counts[by_count]),
            np.hypot(points[order, 0], points[order, 1])])
        means = np.empty((3, counts.size))
        blocks, voxels_per_block = np.unique(counts, return_counts=True)
        v = p = 0
        for count, m in zip(blocks.tolist(), voxels_per_block.tolist()):
            # A (3, m, count) view: the same last-axis reduction as the
            # reference's per-voxel 1-D mean, and the same division.
            block = per_point[:, p:p + m * count].reshape(3, m, count)
            means[:, by_count[v:v + m]] = np.add.reduce(block, axis=-1) \
                / count
            v, p = v + m, p + m * count
        feats = np.stack([np.log1p(counts), means[0],
                          means[1] / max(sz, 1e-9), means[2] / 100.0],
                         axis=1)

        major = np.full(counts.size, -1, dtype=np.int64)
        lbls = labels[kept]
        fg = lbls >= 0
        if fg.any():
            # One key per (voxel, label) pair, in the pairs' order.
            span = int(lbls[fg].max()) + 1
            pairs, votes = np.unique(voxel[fg] * span + lbls[fg],
                                     return_counts=True)
            pv, pl = np.divmod(pairs, span)
            # Most votes first, smallest id among ties: each voxel's
            # first pair after this sort is its majority label.
            best = np.lexsort((pl, -votes, pv))
            pv, pl = pv[best], pl[best]
            lead = np.concatenate(([True], pv[1:] != pv[:-1]))
            major[pv[lead]] = pl[lead]

        coords = list(zip(i[heads].tolist(), j[heads].tolist(),
                          k[heads].tolist()))
        major = major.tolist()
        # The voxels come scan by scan: cut them where the scan changes.
        cuts = np.searchsorted(keys[by_first] // grid_cells,
                               np.arange(len(scan_sizes) + 1)).tolist()
        return [(dict(zip(coords[a:b], feats[a:b])),
                 dict(zip(coords[a:b], major[a:b])))
                for a, b in zip(cuts[:-1], cuts[1:])]


register_kernel("voxelize", "reference", ReferenceVoxelize())
register_kernel("voxelize", "vectorized", VectorizedVoxelize())
