"""BEV detection heads over the sparse-encoder latent (Table I backbones).

Two compact analogues of the paper's detectors:

* ``second_lite`` — single-stage, SECOND-style: one conv neck over the
  BEV latent, per-cell per-class sigmoid scores;
* ``pvrcnn_lite`` — two-stage, PV-RCNN-style: the same first stage plus a
  refinement block with more capacity (an extra conv stage standing in
  for the point-voxel RoI refinement).

Both consume the R-MAE encoder's BEV scatter, so any pretraining of that
encoder transfers directly — the property Table I measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..generative.rmae import RMAE, Norm2d
from ..nn.layers import Conv2d, Module, ReLU
from ..nn.losses import bce_with_logits
from ..nn.optim import Adam
from ..nn.sequential import Sequential
from ..sim.scenes import CLASS_NAMES, Scene
from ..voxel.grid import VoxelGridConfig, VoxelizedCloud
from .ap import Detection

__all__ = ["DetectorConfig", "BEVDetector", "build_target_maps",
           "finetune_detector"]


@dataclass(frozen=True)
class DetectorConfig:
    """Head architecture selector."""

    backbone: str = "second_lite"  # or "pvrcnn_lite"
    neck_channels: int = 16
    score_threshold: float = 0.3

    def __post_init__(self):
        if self.backbone not in ("second_lite", "pvrcnn_lite"):
            raise ValueError(f"unknown backbone {self.backbone!r}")


class BEVDetector(Module):
    """Encoder + BEV neck + per-class score maps."""

    def __init__(self, grid: VoxelGridConfig,
                 config: Optional[DetectorConfig] = None,
                 encoder: Optional[RMAE] = None,
                 rng: Optional[np.random.Generator] = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.grid = grid
        self.config = config or DetectorConfig()
        # The RMAE object supplies the sparse encoder and BEV scatter; a
        # pretrained instance can be passed in to transfer its weights.
        self.rmae = encoder if encoder is not None else RMAE(grid, rng=rng)
        c_in = self.rmae.config.encoder_channels[1]
        nc = self.config.neck_channels
        layers = [
            Conv2d(c_in, nc, kernel=3, stride=1, pad=1, rng=rng,
                   name="det.neck1"),
            Norm2d(nc, name="det.neck1.bn"),
            ReLU(),
        ]
        if self.config.backbone == "pvrcnn_lite":
            layers += [
                Conv2d(nc, nc, kernel=3, stride=1, pad=1, rng=rng,
                       name="det.refine"),
                Norm2d(nc, name="det.refine.bn"),
                ReLU(),
            ]
        layers.append(Conv2d(nc, len(CLASS_NAMES), kernel=3, stride=1, pad=1,
                             rng=rng, name="det.score"))
        self.neck = Sequential(*layers)

    def score_maps(self, cloud: VoxelizedCloud) -> np.ndarray:
        """Per-class logit maps, shape (n_classes, nx/ds, ny/ds)."""
        sparse = self.rmae.encode(cloud)
        bev = self.rmae.bev_scatter(sparse)
        return self.neck.forward(bev)[0]

    def score_maps_batch(self, clouds: List[VoxelizedCloud]) -> np.ndarray:
        """Batched logit maps, (B, n_classes, nx/ds, ny/ds).

        Each cloud still runs the sparse encoder individually (active
        sites differ per cloud), but the dense neck — the detector's
        dominant dense compute — runs once over the stacked BEV maps.
        Pure inference: training caches are untouched, and row ``i``
        matches :meth:`score_maps` on ``clouds[i]`` within kernel drift
        tolerances.
        """
        if not clouds:
            nc = len(CLASS_NAMES)
            ds = self.rmae.config.bev_downsample
            return np.zeros((0, nc, self.grid.nx // ds, self.grid.ny // ds))
        bev = self.rmae.bev_scatter_batch(clouds)
        return self.neck.forward_batch(bev)

    def training_step(self, cloud: VoxelizedCloud, targets: np.ndarray,
                      positive_weight: float = 12.0) -> float:
        """BCE on the class maps; returns the loss."""
        logits = self.score_maps(cloud)
        weight = np.where(targets > 0.5, positive_weight, 1.0)
        loss, grad = bce_with_logits(logits, targets, weight=weight)
        grad_bev = self.neck.backward(grad[None])
        grad_sparse = self.rmae.bev_scatter_backward(grad_bev)
        self.rmae.encoder.backward(grad_sparse)
        return loss

    def _cell_centroids(self, cloud: VoxelizedCloud, h: int, w: int
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mean world position of occupied voxels per BEV cell.

        Gives sub-cell localization: a detected pedestrian's centre snaps
        to where the points actually cluster instead of the cell centre.
        Returns row-major ``(h * w,)`` arrays: the x and y centroids (0
        in cells without voxels) and the voxel counts.  Each cell sums
        its voxel centres in cloud order, as a running sum would.
        """
        ds = self.rmae.config.bev_downsample
        sx, sy, _ = self.grid.voxel_size
        coords = np.array(list(cloud.features), dtype=np.int64).reshape(-1, 3)
        cell = (coords[:, 0] // ds) * w + coords[:, 1] // ds
        counts = np.bincount(cell, minlength=h * w)
        n = np.maximum(counts, 1)
        cx = np.bincount(cell, self.grid.x_range[0] + (coords[:, 0] + 0.5) * sx,
                         minlength=h * w) / n
        cy = np.bincount(cell, self.grid.y_range[0] + (coords[:, 1] + 0.5) * sy,
                         minlength=h * w) / n
        return cx, cy, counts

    def _peak_pick(self, logits: np.ndarray, cloud: VoxelizedCloud,
                   thr: float) -> List[Detection]:
        """Threshold + 3x3 local-maximum suppression on one logit map.

        A cell is kept unless its probability is below ``thr`` or more
        than 1e-12 below the largest in its 3x3 neighbourhood (cut at the
        map border); detections come in class, then row-major order.
        """
        probs = 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
        ds = self.rmae.config.bev_downsample
        sx, sy, _ = self.grid.voxel_size
        n_cls, h, w = probs.shape
        padded = np.full((n_cls, h + 2, w + 2), -np.inf)
        padded[:, 1:-1, 1:-1] = probs
        rows = np.maximum(np.maximum(padded[:, :-2], padded[:, 1:-1]),
                          padded[:, 2:])
        nbmax = np.maximum(np.maximum(rows[:, :, :-2], rows[:, :, 1:-1]),
                           rows[:, :, 2:])
        ci, i, j = np.nonzero(~(probs < thr) & ~(probs < nbmax - 1e-12))
        if not ci.size:
            return []
        cx, cy, counts = self._cell_centroids(cloud, h, w)
        cell = i * w + j
        has = counts[cell] > 0
        xs = np.where(has, cx[cell], self.grid.x_range[0] + (i + 0.5) * sx * ds)
        ys = np.where(has, cy[cell], self.grid.y_range[0] + (j + 0.5) * sy * ds)
        return [Detection(CLASS_NAMES[c], x, y, p) for c, x, y, p in zip(
            ci.tolist(), xs.tolist(), ys.tolist(), probs[ci, i, j].tolist())]

    def detect(self, cloud: VoxelizedCloud,
               score_threshold: Optional[float] = None) -> List[Detection]:
        """Peak-pick the score maps into detections with 3x3 NMS."""
        thr = (self.config.score_threshold if score_threshold is None
               else score_threshold)
        return self._peak_pick(self.score_maps(cloud), cloud, thr)

    def detect_batch(self, clouds: List[VoxelizedCloud],
                     score_threshold: Optional[float] = None
                     ) -> List[List[Detection]]:
        """Batched detection: one neck pass, per-cloud peak-picking.

        ``result[i]`` matches :meth:`detect` on ``clouds[i]`` up to
        kernel drift in the logits; the serving runtime uses this as the
        detector's micro-batch runner.
        """
        thr = (self.config.score_threshold if score_threshold is None
               else score_threshold)
        logits = self.score_maps_batch(clouds)
        return [self._peak_pick(logits[b], cloud, thr)
                for b, cloud in enumerate(clouds)]


def build_target_maps(scene: Scene, grid: VoxelGridConfig,
                      downsample: int = 2) -> np.ndarray:
    """Ground-truth class maps (n_classes, nx/ds, ny/ds) from a scene.

    A cell is positive for a class if a foreground object's centre falls
    inside it.
    """
    h, w = grid.nx // downsample, grid.ny // downsample
    targets = np.zeros((len(CLASS_NAMES), h, w))
    sx, sy, _ = grid.voxel_size
    for obj in scene.foreground():
        ci = CLASS_NAMES.index(obj.cls)
        # floor, not int(): a centre just below the lower bound must map
        # outside the grid, not into cell 0.
        i = int(np.floor((obj.center[0] - grid.x_range[0])
                         / (sx * downsample)))
        j = int(np.floor((obj.center[1] - grid.y_range[0])
                         / (sy * downsample)))
        if 0 <= i < h and 0 <= j < w:
            targets[ci, i, j] = 1.0
    return targets


def finetune_detector(detector: BEVDetector,
                      data: List[Tuple[VoxelizedCloud, np.ndarray]],
                      epochs: int = 10, lr: float = 3e-3,
                      rng: Optional[np.random.Generator] = None
                      ) -> List[float]:
    """Supervised fine-tuning on (cloud, target-map) pairs."""
    rng = rng if rng is not None else np.random.default_rng(0)
    opt = Adam(detector.parameters(), lr=lr)
    losses: List[float] = []
    idx = np.arange(len(data))
    for _ in range(epochs):
        rng.shuffle(idx)
        total = 0.0
        for i in idx:
            cloud, targets = data[i]
            if cloud.num_occupied == 0:
                continue
            opt.zero_grad()
            total += detector.training_step(cloud, targets)
            opt.step()
        losses.append(total / max(len(data), 1))
    return losses
