"""Angle-map types: modulo-pi orientation, modulo-2pi direction, sin/cos encoding.

Orientation angles follow the repo convention FO = atan2(d(phi)/dx, d(phi)/dy)
reduced into [0, pi); direction keeps the full circle [0, 2*pi). Degenerate
pixels (vanishing gradient) carry a validity mask instead of an arbitrary angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


DECODE_MAGNITUDE_EPS = 1e-6


@dataclass(frozen=True)
class OrientationMap:
    """Per-pixel fringe orientation in [0, pi) with a validity mask."""

    angles: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        if self.angles.shape != self.valid.shape:
            raise ValueError("angles and validity mask shapes differ")

    @property
    def shape(self):
        return self.angles.shape


@dataclass(frozen=True)
class OrientationEncoding:
    """Two-channel (sin 2FO, cos 2FO) field, the network target/output."""

    sin2: np.ndarray
    cos2: np.ndarray

    def __post_init__(self):
        if self.sin2.shape != self.cos2.shape:
            raise ValueError("channel shapes differ")

    @property
    def shape(self):
        return self.sin2.shape

    def to_array(self) -> np.ndarray:
        """Stack as (2, rows, cols), channel order (sin, cos)."""
        return np.stack([self.sin2, self.cos2])


def encode_orientation(fo: OrientationMap) -> OrientationEncoding:
    """(sin 2FO, cos 2FO) per pixel; invalid pixels encode as (0, 1)."""
    doubled = 2.0 * fo.angles
    sin2 = np.where(fo.valid, np.sin(doubled), 0.0)
    cos2 = np.where(fo.valid, np.cos(doubled), 1.0)
    return OrientationEncoding(sin2=sin2, cos2=cos2)


def decode_orientation(enc: OrientationEncoding) -> OrientationMap:
    """FO = atan2(s, c)/2 mapped into [0, pi).

    Channels need not be unit norm (network outputs are approximate); pixels
    with s^2 + c^2 below the magnitude floor are marked invalid.
    """
    # in place, so no more than two full-size float maps are alive at once
    magnitude_sq = np.square(enc.sin2)
    magnitude_sq += np.square(enc.cos2)
    valid = magnitude_sq >= DECODE_MAGNITUDE_EPS
    del magnitude_sq
    angles = np.arctan2(enc.sin2, enc.cos2)
    angles *= 0.5
    # angles lie in [-pi/2, pi/2], where mod pi is the exact fold x + pi for
    # x < 0 and x + 0.0 otherwise, which maps -0.0 to +0.0 as np.mod does
    np.add(angles, np.pi, out=angles, where=angles < 0.0)
    angles += 0.0
    angles[~valid] = 0.0
    return OrientationMap(angles=angles, valid=valid)
