"""R-MAE: Radially Masked Autoencoding for generative LiDAR sensing.

Implements Fig. 3's architecture: the (radially masked) voxelized point
cloud passes through a sparse 3-D convolutional encoder; voxel features
are scattered into a bird's-eye-view (BEV) latent map; an occupancy
decoder of deconvolution + batch-norm + ReLU layers reconstructs the full
3-D occupancy grid; binary cross-entropy supervises occupancy.

Pretraining = reconstruct the *full* scene from the *masked* scan.  The
pretrained encoder then initializes detection heads (Table I protocol) —
see :mod:`repro.detect.pipeline`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.layers import Conv2d, ConvTranspose2d, Module, Norm2d, ReLU
from ..nn.losses import bce_with_logits
from ..nn.optim import Adam
from ..nn.sequential import Sequential
from ..nn.sparse3d import (SparseConv3d, SparseGrad, SparseReLU,
                           SparseSequential, SparseVoxelTensor)
from ..obs.registry import get_registry
from ..voxel.grid import VoxelGridConfig, VoxelizedCloud
from ..voxel.masking import RadialMaskConfig, radial_mask

__all__ = ["RMAEConfig", "RMAE", "pretrain_rmae", "reconstruction_iou"]


@dataclass(frozen=True)
class RMAEConfig:
    """Architecture hyper-parameters."""

    feature_dim: int = VoxelizedCloud.FEATURE_DIM
    encoder_channels: Tuple[int, int] = (16, 24)
    decoder_channels: int = 16
    bev_downsample: int = 2  # encoder voxel coords -> BEV cell stride


class RMAE(Module):
    """Sparse encoder + dense BEV occupancy decoder.

    The encoder runs submanifold sparse convolutions over occupied voxels
    only (the paper's memory argument vs Transformer masking); the
    decoder is a small deconvolutional stack predicting per-z occupancy
    logits at full grid resolution.
    """

    def __init__(self, grid: VoxelGridConfig,
                 config: Optional[RMAEConfig] = None,
                 rng: Optional[np.random.Generator] = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.grid = grid
        self.config = config or RMAEConfig()
        c1, c2 = self.config.encoder_channels
        self.encoder = SparseSequential(
            SparseConv3d(self.config.feature_dim, c1, kernel=3, rng=rng,
                         name="rmae.enc1"),
            SparseReLU(),
            SparseConv3d(c1, c2, kernel=3, rng=rng, name="rmae.enc2"),
            SparseReLU(),
        )
        ds = self.config.bev_downsample
        if grid.nx % ds or grid.ny % ds:
            raise ValueError("grid x/y must be divisible by bev_downsample")
        dc = self.config.decoder_channels
        self.decoder = Sequential(
            ConvTranspose2d(c2, dc, kernel=4, stride=ds, pad=1, rng=rng,
                            name="rmae.dec1"),
            Norm2d(dc, name="rmae.dec1.bn"),
            ReLU(),
            Conv2d(dc, dc, kernel=3, stride=1, pad=1, rng=rng,
                   name="rmae.dec2"),
            Norm2d(dc, name="rmae.dec2.bn"),
            ReLU(),
            Conv2d(dc, grid.nz, kernel=3, stride=1, pad=1, rng=rng,
                   name="rmae.occ_head"),
        )
        self._bev_cache = None

    # ---------------------------------------------------------------- encode
    def sparse_input(self, clouds: Sequence[VoxelizedCloud]
                     ) -> SparseVoxelTensor:
        """The encoder's input: every cloud's occupied voxels as one
        batch, cloud ``b``'s voxel ``(i, j, k)`` at ``(b, i, j, k)``.

        The tensor reads the clouds' own feature dicts, in their order:
        no encoder layer writes to its input.
        """
        return SparseVoxelTensor.from_clouds(
            [cloud.features for cloud in clouds], self.config.feature_dim,
            self.grid.shape)

    def encode(self, cloud: VoxelizedCloud) -> SparseVoxelTensor:
        """Sparse features over the (possibly masked) occupied voxels: a
        batch of one through :meth:`encode_batch`."""
        return self.encode_batch([cloud])

    def encode_batch(self, clouds: Sequence[VoxelizedCloud]
                     ) -> SparseVoxelTensor:
        """Sparse features of a batch of clouds, as one tensor with the
        cloud index as the leading coordinate.

        One packing, one rulebook and one gather per layer serve the
        whole batch; cloud ``b``'s rows equal :meth:`encode` on
        ``clouds[b]`` bit for bit.  Pure inference: the encoder's
        backward caches are left as they were.  The training forwards run
        ``encoder.forward`` instead.
        """
        return self.encoder.forward_batch(self.sparse_input(clouds))

    def _scatter(self, sparse: SparseVoxelTensor):
        """The BEV maps (B, C, H, W) of a batched tensor, and the routing
        their backward needs.

        Packed tensors (the vectorized sparse-conv output) take one
        ``np.add.at`` over (cloud, cell) ids; dict tensors (the reference
        conv's output) take the original per-voxel loop, whose
        accumulation order the golden traces record.
        """
        ds = self.config.bev_downsample
        h, w = self.grid.nx // ds, self.grid.ny // ds
        b, c = sparse.grid_shape[0], sparse.channels
        if sparse.is_packed:
            coords, mat = sparse.packed()
            cell_id = (coords[:, 0] * h + coords[:, 1] // ds) * w \
                + coords[:, 2] // ds
            acc = np.zeros((b * h * w, c))
            np.add.at(acc, cell_id, mat)
            counts_flat = np.bincount(cell_id, minlength=b * h * w)
            nz = counts_flat > 0
            acc[nz] /= counts_flat[nz][:, None]
            return acc.reshape(b, h * w, c).transpose(0, 2, 1).reshape(
                b, c, h, w), ("packed", coords, cell_id, counts_flat)
        bev = np.zeros((b, c, h, w))
        counts = np.zeros((b, h, w))
        cells: Dict[Tuple[int, int, int], List] = {}
        for (cloud, i, j, k), f in sparse.features.items():
            cell = (cloud, i // ds, j // ds)
            bev[cloud, :, cell[1], cell[2]] += f
            counts[cell] += 1
            cells.setdefault(cell, []).append((cloud, i, j, k))
        nz = counts > 0
        bev.transpose(1, 0, 2, 3)[:, nz] /= counts[nz]
        return bev, ("dict", cells, counts)

    def bev_scatter(self, sparse: SparseVoxelTensor) -> np.ndarray:
        """Mean-scatter sparse voxel features into BEV maps (B, C, H, W).

        The training scatter: it keeps the routing
        :meth:`bev_scatter_backward` follows.
        """
        bev, self._bev_cache = self._scatter(sparse)
        return bev

    def bev_scatter_backward(self, grad_bev: np.ndarray):
        """Route BEV gradients back to the sparse voxels that fed them."""
        if self._bev_cache[0] == "packed":
            _, coords, cell_id, counts_flat = self._bev_cache
            g = grad_bev.transpose(0, 2, 3, 1).reshape(-1, grad_bev.shape[1])
            rows = g[cell_id] / counts_flat[cell_id][:, None]
            return SparseGrad(coords, rows)
        _, cells, counts = self._bev_cache
        grad: Dict[Tuple[int, int, int, int], np.ndarray] = {}
        for cell, coords in cells.items():
            share = grad_bev[cell[0], :, cell[1], cell[2]] / counts[cell]
            for coord in coords:
                grad[coord] = share.copy()
        return grad

    # ---------------------------------------------------------- full forward
    def forward(self, cloud: VoxelizedCloud) -> np.ndarray:
        """Occupancy logits (nz, nx, ny) reconstructed from the cloud.

        The training forward: it arms every layer's backward cache.
        Inference goes through :meth:`occupancy_probability_batch`.
        """
        obs = get_registry()
        t0 = time.perf_counter()
        sparse = self.encoder.forward(self.sparse_input([cloud]))
        bev = self.bev_scatter(sparse)
        logits = self.decoder.forward(bev)
        obs.histogram("rmae.reconstruct_s").observe(time.perf_counter() - t0)
        obs.counter("rmae.reconstructions").inc()
        obs.counter("rmae.active_voxels").inc(cloud.num_occupied)
        return logits[0]

    def occupancy_probability(self, cloud: VoxelizedCloud) -> np.ndarray:
        """Per-voxel occupancy probability (nx, ny, nz) in [0, 1].

        The continuous output behind :meth:`reconstruct_occupancy`;
        exposed separately so evaluation harnesses (and the golden-trace
        recorder) can diff the full probability field rather than its
        thresholding.  A batch of one through
        :meth:`occupancy_probability_batch`, so the live loop and the
        server run the same code.
        """
        return self.occupancy_probability_batch([cloud])[0]

    def reconstruct_occupancy(self, cloud: VoxelizedCloud,
                              threshold: float = 0.5) -> np.ndarray:
        """Binary occupancy prediction (nx, ny, nz)."""
        return self.occupancy_probability(cloud) > threshold

    # --------------------------------------------------------- batched paths
    def bev_scatter_batch(self, clouds: Sequence[VoxelizedCloud]
                          ) -> np.ndarray:
        """Sparse-encode a batch of clouds and mean-scatter it into BEV
        maps (B, C, H, W).

        One encoder pass over the batch (:meth:`encode_batch`) and one
        scatter over (cloud, cell) ids; callers batch the dense stages
        over the result.  Pure: the encoder's and the scatter's backward
        caches are left as they were.
        """
        return self._scatter(self.encode_batch(clouds))[0]

    def occupancy_probability_batch(self, clouds: List[VoxelizedCloud]
                                    ) -> np.ndarray:
        """Batched occupancy probabilities, (B, nx, ny, nz).

        One pure decoder pass over the stacked BEV latents replaces B
        per-sample passes; row ``i`` equals the sigmoid of
        :meth:`forward` on ``clouds[i]`` bit for bit, and no backward
        cache is touched.
        """
        if not clouds:
            return np.zeros((0, self.grid.nx, self.grid.ny, self.grid.nz))
        obs = get_registry()
        t0 = time.perf_counter()
        bev = self.bev_scatter_batch(clouds)
        logits = self.decoder.forward_batch(bev)
        obs.histogram("rmae.reconstruct_s").observe(time.perf_counter() - t0)
        obs.counter("rmae.reconstructions").inc(len(clouds))
        obs.counter("rmae.active_voxels").inc(
            sum(cloud.num_occupied for cloud in clouds))
        prob = 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
        return prob.transpose(0, 2, 3, 1)

    def training_step(self, masked: VoxelizedCloud,
                      full_occupancy: np.ndarray,
                      positive_weight: float = 4.0) -> float:
        """One reconstruction step; returns the BCE loss.

        ``full_occupancy`` is the dense (nx, ny, nz) target from the
        *unmasked* scan.  Occupied voxels are upweighted because the grid
        is mostly empty.
        """
        t0 = time.perf_counter()
        logits = self.forward(masked)  # (nz, nx, ny)
        target = full_occupancy.transpose(2, 0, 1)
        weight = np.where(target > 0.5, positive_weight, 1.0)
        loss, grad = bce_with_logits(logits, target, weight=weight)
        grad_bev = self.decoder.backward(grad[None])
        grad_sparse = self.bev_scatter_backward(grad_bev)
        self.encoder.backward(grad_sparse)
        obs = get_registry()
        obs.histogram("rmae.train_step_s").observe(time.perf_counter() - t0)
        obs.counter("rmae.train_steps").inc()
        return loss

    def reconstruction_macs(self, n_active_voxels: int) -> int:
        """Analytic MACs of one reconstruction pass (Table II's FLOPs/2)."""
        macs = 0
        for layer in self.encoder.layers:
            if isinstance(layer, SparseConv3d):
                macs += n_active_voxels * layer.macs_per_active_voxel()
        ds = self.config.bev_downsample
        h, w = self.grid.nx // ds, self.grid.ny // ds
        c1, c2 = self.config.encoder_channels
        dc = self.config.decoder_channels
        macs += c2 * dc * 16 * h * w              # deconv
        macs += dc * dc * 9 * self.grid.nx * self.grid.ny
        macs += dc * self.grid.nz * 9 * self.grid.nx * self.grid.ny
        return macs


def pretrain_rmae(model: RMAE, clouds: List[VoxelizedCloud],
                  mask_config: Optional[RadialMaskConfig] = None,
                  epochs: int = 5, lr: float = 3e-3,
                  rng: Optional[np.random.Generator] = None,
                  cache=None) -> List[float]:
    """Self-supervised pretraining loop: mask radially, reconstruct fully.

    Returns per-epoch mean losses.  A fresh random mask is drawn per
    cloud per epoch (mask-as-augmentation, as in MAE training).

    Pretraining is deterministic given (architecture, clouds, epochs,
    lr, RNG state), so the result is memoized through the
    :mod:`repro.runtime.cache` artifact cache; a second invocation with
    identical inputs loads the trained weights instead of recomputing.
    ``cache=False`` opts out (``REPRO_CACHE=0`` disables globally).
    """
    # Local import: the cache is an optional acceleration layer over
    # this module, not a dependency of the model itself.
    from ..runtime.cache import cached_fit

    mask_config = mask_config or RadialMaskConfig()
    rng = rng if rng is not None else np.random.default_rng(0)

    def train() -> List[float]:
        opt = Adam(model.parameters(), lr=lr)
        losses: List[float] = []
        for _ in range(epochs):
            total, count = 0.0, 0
            for cloud in clouds:
                keep, _ = radial_mask(cloud, mask_config, rng)
                masked = cloud.masked(keep)
                if masked.num_occupied == 0:
                    continue
                opt.zero_grad()
                loss = model.training_step(masked, cloud.occupancy_dense())
                opt.step()
                total += loss
                count += 1
            losses.append(total / max(count, 1))
        return losses

    return cached_fit(
        "rmae_pretrain",
        {"mask": mask_config, "epochs": epochs, "lr": lr, "clouds": clouds},
        model, rng, train, cache=cache)


def reconstruction_iou(predicted: np.ndarray, target: np.ndarray) -> float:
    """Intersection-over-union of two binary occupancy grids."""
    p = predicted.astype(bool)
    t = target.astype(bool)
    union = np.logical_or(p, t).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(p, t).sum() / union)
