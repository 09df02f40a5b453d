"""Quantitative comparison: orientation error, channel RMSE, phase RMSE.

The orientation error is a modified RMSE on the sine of orientation differences
with the mean subtracted, so any constant offset (in particular integer
multiples of pi) contributes nothing — the right null space for mod-pi maps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericalError
from .maps import OrientationEncoding, OrientationMap


@dataclass(frozen=True)
class EvalReport:
    method: str
    orientation_error: float | None = None
    rmse_sin: float | None = None
    rmse_cos: float | None = None
    rmse_phase: float | None = None
    excluded_border: int = 0
    valid_pixel_fraction: float = 1.0

    def to_json(self) -> dict:
        return asdict(self)


def _border_mask(shape, exclude_border: int) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    b = exclude_border
    if b < 0:
        raise ValueError("exclude_border must be non-negative")
    if 2 * b >= min(shape):
        raise NumericalError(f"border {b} leaves no pixels of a {shape} map")
    mask[b : shape[0] - b, b : shape[1] - b] = True
    return mask


def orientation_error(
    fo: OrientationMap,
    ref: OrientationMap,
    exclude_border: int = 0,
) -> float:
    """Mean-subtracted RMS of sin(FO - FO_ref) over jointly valid pixels.

    Uses the (count - 1) denominator over the evaluated set; raises when fewer
    than two pixels survive the masks.
    """
    if fo.shape != ref.shape:
        raise ValueError(f"shape mismatch: {fo.shape} vs {ref.shape}")
    mask = fo.valid & ref.valid & _border_mask(fo.shape, exclude_border)
    n = int(mask.sum())
    if n < 2:
        raise NumericalError("fewer than two jointly valid pixels to compare")
    d = np.sin(fo.angles[mask] - ref.angles[mask])
    return float(np.sqrt(np.sum((d - d.mean()) ** 2) / (n - 1)))


def valid_fraction(
    fo: OrientationMap,
    ref: OrientationMap,
    exclude_border: int = 0,
) -> float:
    """Share of the evaluated region where both maps are valid."""
    if fo.shape != ref.shape:
        raise ValueError(f"shape mismatch: {fo.shape} vs {ref.shape}")
    region = _border_mask(fo.shape, exclude_border)
    return float((fo.valid & ref.valid & region).sum() / region.sum())


def rmse_channels(pred: OrientationEncoding, target: OrientationEncoding):
    """Per-channel RMS difference: (rmse_sin, rmse_cos)."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return (float(np.sqrt(np.mean((pred.sin2 - target.sin2) ** 2))),
            float(np.sqrt(np.mean((pred.cos2 - target.cos2) ** 2))))


def rmse_phase(
    phase: np.ndarray,
    ref: np.ndarray,
    exclude_border: int = 0,
) -> float:
    """RMS of (phase - ref) after piston removal, over the interior region."""
    phase = np.asarray(phase, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if phase.shape != ref.shape:
        raise ValueError(f"shape mismatch: {phase.shape} vs {ref.shape}")
    mask = _border_mask(phase.shape, exclude_border)
    d = phase[mask] - ref[mask]
    d -= d.mean()
    return float(np.sqrt(np.mean(d**2)))
