"""Low-level procedural drawing primitives for the synthetic datasets.

Every generator in :mod:`repro.data` composes images from these
primitives: smooth noise fields, Gaussian blobs, elliptical masks, band
structures, and stroke segments.  All functions are pure numpy, take an
explicit ``rng``, and draw into float images in [0, 1].
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def coordinate_grid(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return (yy, xx) index grids of shape (size, size)."""
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    return yy.astype(np.float64), xx.astype(np.float64)


def smooth_noise(size: int, rng: np.random.Generator, scale: int = 4,
                 amplitude: float = 1.0) -> np.ndarray:
    """Band-limited noise: coarse white noise upsampled with bilinear-ish
    smoothing; used for tissue texture and film grain."""
    coarse = rng.standard_normal((max(size // scale, 2),) * 2)
    # Upsample by repetition then box-blur twice for smoothness.
    field = np.repeat(np.repeat(coarse, scale, axis=0), scale, axis=1)
    field = field[:size, :size]
    if field.shape[0] < size or field.shape[1] < size:
        field = np.pad(field, ((0, size - field.shape[0]),
                               (0, size - field.shape[1])), mode="edge")
    field = box_blur(field, 2)
    field = box_blur(field, 2)
    peak = np.abs(field).max()
    if peak > 0:
        field = field / peak
    return field * amplitude


def box_blur(image: np.ndarray, radius: int) -> np.ndarray:
    """Separable box blur with edge padding.

    Each pass adds the ``2 * radius + 1`` scaled, shifted slices left to
    right, the order in which ``np.convolve`` sums one row, so the result
    is bit for bit that of convolving every row and then every column.
    """
    if radius <= 0:
        return image
    width = 2 * radius + 1
    scale = 1.0 / width
    padded = np.pad(image, radius, mode="edge")
    h, w = image.shape
    rows = padded[:, :w] * scale
    for j in range(1, width):
        rows += padded[:, j:j + w] * scale
    blurred = rows[:h] * scale
    for j in range(1, width):
        blurred += rows[j:j + h] * scale
    return blurred


def gaussian_blob(size: int, cy: float, cx: float, sigma_y: float,
                  sigma_x: float, angle: float = 0.0) -> np.ndarray:
    """Anisotropic Gaussian bump with values in [0, 1]."""
    yy, xx = coordinate_grid(size)
    dy, dx = yy - cy, xx - cx
    if angle:
        cos_a, sin_a = np.cos(angle), np.sin(angle)
        dy, dx = cos_a * dy - sin_a * dx, sin_a * dy + cos_a * dx
    return np.exp(-0.5 * ((dy / max(sigma_y, 1e-6)) ** 2
                          + (dx / max(sigma_x, 1e-6)) ** 2))


def ellipse_mask(size: int, cy: float, cx: float, ry: float, rx: float,
                 angle: float = 0.0, softness: float = 1.0) -> np.ndarray:
    """Soft-edged elliptical mask in [0, 1]."""
    yy, xx = coordinate_grid(size)
    dy, dx = yy - cy, xx - cx
    if angle:
        cos_a, sin_a = np.cos(angle), np.sin(angle)
        dy, dx = cos_a * dy - sin_a * dx, sin_a * dy + cos_a * dx
    dist = np.sqrt((dy / max(ry, 1e-6)) ** 2 + (dx / max(rx, 1e-6)) ** 2)
    return np.clip((1.0 - dist) / max(softness / max(ry, rx), 1e-6), 0, 1) \
        if softness != 1.0 else np.clip(1.0 - dist, 0, 1) ** 0.5


def horizontal_band(size: int, center: np.ndarray, thickness: float,
                    intensity: float = 1.0) -> np.ndarray:
    """A horizontal band whose per-column centre line is ``center``
    (array of length ``size``); used for OCT retinal layers."""
    yy, _ = coordinate_grid(size)
    dist = np.abs(yy - center[None, :].repeat(size, axis=0)
                  if center.ndim == 1 else yy - center)
    band = np.clip(1.0 - dist / max(thickness, 1e-6), 0, 1)
    return band * intensity


def stroke(size: int, y0: float, x0: float, y1: float, x1: float,
           thickness: float = 1.0, intensity: float = 1.0) -> np.ndarray:
    """Anti-aliased line segment rendered as distance-to-segment falloff."""
    yy, xx = coordinate_grid(size)
    py, px = yy - y0, xx - x0
    vy, vx = y1 - y0, x1 - x0
    norm = vy * vy + vx * vx
    t = np.clip((py * vy + px * vx) / max(norm, 1e-9), 0, 1)
    dy, dx = py - t * vy, px - t * vx
    dist = np.sqrt(dy * dy + dx * dx)
    return np.clip(1.0 - dist / max(thickness, 1e-6), 0, 1) * intensity


def wavy_line(size: int, base_y: float, amplitude: float, frequency: float,
              phase: float) -> np.ndarray:
    """Per-column y-coordinates of a sinusoidal centre line."""
    x = np.arange(size)
    return base_y + amplitude * np.sin(2 * np.pi * frequency * x / size
                                       + phase)


def normalize01(image: np.ndarray) -> np.ndarray:
    """Clip into the [0, 1] display range."""
    return np.clip(image, 0.0, 1.0)


def vignette(size: int, strength: float = 0.3) -> np.ndarray:
    """Radial darkening toward corners, mimicking acquisition falloff."""
    yy, xx = coordinate_grid(size)
    c = (size - 1) / 2
    r = np.sqrt((yy - c) ** 2 + (xx - c) ** 2) / (np.sqrt(2) * c)
    return 1.0 - strength * r ** 2
