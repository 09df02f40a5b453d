"""The tests' reference implementations: the full-plane spiral filter, which
``hst.quadrature`` applies through its half-plane parts, and the circular
distances between mod-pi and mod-2pi angle maps that the orientation and
direction tests score against.
"""

import numpy as np

from fringeproc.image import MIN_ESTIMATOR_SIZE


def make_spiral_filter(rows: int, cols: int) -> np.ndarray:
    """S(u,v) = (u + i*v)/sqrt(u^2 + v^2) over signed integer frequency bins.

    Bin layout matches numpy's 2D DFT (DC at [0, 0], negative frequencies in the upper
    halves); S(0,0) = 0 removes the singular DC bin. ``quadrature`` applies
    this filter through its half-plane parts (``_half_plane_factors``).
    """
    n = MIN_ESTIMATOR_SIZE
    if rows < n or cols < n:
        raise ValueError(f"spiral filter needs at least an {n}x{n} grid")
    v = np.fft.fftfreq(rows) * rows  # y-frequency index per row
    u = np.fft.fftfreq(cols) * cols  # x-frequency index per column
    uu = u[np.newaxis, :]
    vv = v[:, np.newaxis]
    radius = np.hypot(uu, vv)
    radius[0, 0] = 1.0
    spiral = (uu + 1j * vv) / radius
    spiral[0, 0] = 0.0
    return spiral


def circular_orientation_error(a, b) -> np.ndarray:
    """Pointwise distance between mod-pi angles, in [0, pi/2]."""
    d = np.mod(np.asarray(a) - np.asarray(b), np.pi)
    return np.minimum(d, np.pi - d)


def circular_direction_error(a, b) -> np.ndarray:
    """Pointwise distance between mod-2pi angles, in [0, pi]."""
    d = np.mod(np.asarray(a) - np.asarray(b), 2.0 * np.pi)
    return np.minimum(d, 2.0 * np.pi - d)
