"""Event-camera (DVS) and frame-camera simulator with ground-truth flow.

The MVSEC substitute for Sec. VI.  A moving textured scene is rendered to
log-intensity frames; a DVS emits an event whenever a pixel's
log-intensity changes by more than the contrast threshold (the actual DVS
triggering mechanism).  Because we control the scene motion, dense
ground-truth optical flow is available for every sample.

A sample is a pair ``(event_volume, frames, flow)``:

* ``event_volume`` — (2, H, W) counts of positive / negative events
  accumulated over the inter-frame interval (the standard event-volume
  encoding used by EvFlowNet-style models);
* ``frames`` — (2, H, W) the bracketing intensity frames;
* ``flow`` — (2, H, W) ground-truth (dx, dy) pixel displacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = ["EventCameraConfig", "FlowSample", "EventCameraSimulator",
           "make_flow_dataset"]


@dataclass(frozen=True)
class EventCameraConfig:
    """Sensor geometry and DVS contrast threshold."""

    height: int = 16
    width: int = 16
    contrast_threshold: float = 0.15
    n_substeps: int = 4  # temporal resolution between the two frames
    noise_events_per_pixel: float = 0.01


@dataclass
class FlowSample:
    """One optical-flow training/eval sample.

    ``event_frames`` keeps the per-substep temporal structure — the spike
    trains SNN encoders consume; ``event_volume`` is its sum over time
    (the accumulated encoding ANN models consume).
    """

    event_volume: np.ndarray  # (2, H, W)
    frames: np.ndarray        # (2, H, W)
    flow: np.ndarray          # (2, H, W), pixels of displacement
    event_frames: np.ndarray = None  # (T, 2, H, W)

    @property
    def discretized_volume(self) -> np.ndarray:
        """Temporally discretized event image, (4, H, W).

        [pos-early, neg-early, pos-late, neg-late] — the standard
        EvFlowNet input encoding: without the early/late split, motion
        *direction* is unrecoverable from accumulated counts alone.
        """
        t = self.event_frames.shape[0]
        half = max(t // 2, 1)
        early = self.event_frames[:half].sum(axis=0)
        late = self.event_frames[half:].sum(axis=0)
        return np.concatenate([early, late], axis=0)

    @property
    def has_event_mask(self) -> np.ndarray:
        """Pixels that produced at least one event (MVSEC-style eval mask)."""
        return self.event_volume.sum(axis=0) > 0


def _texture(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Smooth random texture with enough gradient to trigger events."""
    base = rng.random((h, w))
    # Cheap smoothing: average with rolled copies (periodic boundary).
    smooth = base.copy()
    for shift in ((0, 1), (1, 0), (0, -1), (-1, 0)):
        smooth += np.roll(base, shift, axis=(0, 1))
    smooth /= 5.0
    # Add oriented sinusoids so translation produces structured change.
    yy, xx = np.mgrid[0:h, 0:w]
    fx, fy = rng.uniform(0.2, 0.9, size=2)
    phase = rng.uniform(0, 2 * np.pi)
    smooth = 0.5 * smooth + 0.5 * (0.5 + 0.5 * np.sin(fx * xx + fy * yy + phase))
    return np.clip(smooth, 0.02, 1.0)


def _shift_image(img: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """Translate by (dx, dy) pixels with bilinear sampling, periodic."""
    h, w = img.shape
    yy, xx = np.mgrid[0:h, 0:w]
    src_x = (xx - dx) % w
    src_y = (yy - dy) % h
    x0 = np.floor(src_x).astype(int) % w
    y0 = np.floor(src_y).astype(int) % h
    x1 = (x0 + 1) % w
    y1 = (y0 + 1) % h
    wx = src_x - np.floor(src_x)
    wy = src_y - np.floor(src_y)
    return ((1 - wy) * ((1 - wx) * img[y0, x0] + wx * img[y0, x1])
            + wy * ((1 - wx) * img[y1, x0] + wx * img[y1, x1]))


class EventCameraSimulator:
    """Generate flow samples from rigid scene translations.

    Each sample translates a random texture by a random (dx, dy); the DVS
    model integrates events across ``n_substeps`` intermediate renders.
    """

    def __init__(self, config: Optional[EventCameraConfig] = None,
                 rng: Optional[np.random.Generator] = None):
        self.config = config or EventCameraConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def sample(self, max_displacement: float = 3.0) -> FlowSample:
        cfg = self.config
        rng = self.rng
        tex = _texture(rng, cfg.height, cfg.width)
        dx = float(rng.uniform(-max_displacement, max_displacement))
        dy = float(rng.uniform(-max_displacement, max_displacement))

        log_prev = np.log(tex + 1e-3)
        frame0 = tex
        frame1 = tex
        per_step: List[np.ndarray] = []
        for step in range(1, cfg.n_substeps + 1):
            f = step / cfg.n_substeps
            frame1 = _shift_image(tex, dx * f, dy * f)
            log_cur = np.log(frame1 + 1e-3)
            diff = log_cur - log_prev
            thr = cfg.contrast_threshold
            pos_t = np.floor(np.clip(diff, 0, None) / thr)
            neg_t = np.floor(np.clip(-diff, 0, None) / thr)
            # Shot noise events per substep.
            noise = cfg.noise_events_per_pixel
            if noise > 0:
                pos_t = pos_t + rng.poisson(noise / cfg.n_substeps,
                                            size=pos_t.shape)
                neg_t = neg_t + rng.poisson(noise / cfg.n_substeps,
                                            size=neg_t.shape)
            per_step.append(np.stack([pos_t, neg_t]))
            log_prev = log_cur
        event_frames = np.stack(per_step)  # (T, 2, H, W)

        flow = np.zeros((2, cfg.height, cfg.width))
        flow[0, :, :] = dx
        flow[1, :, :] = dy
        return FlowSample(event_volume=event_frames.sum(axis=0),
                          frames=np.stack([frame0, frame1]),
                          flow=flow,
                          event_frames=event_frames)


def make_flow_dataset(n_samples: int, seed: int = 0,
                      config: Optional[EventCameraConfig] = None,
                      max_displacement: float = 3.0) -> List[FlowSample]:
    """A reproducible MVSEC-like dataset of flow samples."""
    sim = EventCameraSimulator(config=config,
                               rng=np.random.default_rng(seed))
    return [sim.sample(max_displacement=max_displacement)
            for _ in range(n_samples)]
