"""Spiral-phase quadrature and direction-guided phase demodulation.

A zero-mean fringe signal s = b*cos(phi) multiplied in the frequency domain by
the unit spiral S(u,v) = (u + i*v)/|u + i*v| and corrected by the local fringe
direction yields the quadrature -b*sin(phi); the wrapped phase then follows
from a four-quadrant arctangent and unwraps to a continuous estimate.

The direction maps here use the repo convention beta = atan2(dphi/dx, dphi/dy);
for that convention the correcting phase factor is exp(i*beta) (verified
against the analytic carrier quadrature; adding pi to beta flips the sign of
the output, the inherent global branch of single-frame direction data).
"""

from __future__ import annotations

import numpy as np

from .image import MIN_ESTIMATOR_SIZE, as_real_image, fft2, ifft2
from .unwrap import unwrap_phase_2d

QUADRATURE_MEAN_WARN = 0.05
DEMOD_MAGNITUDE_EPS = 1e-12


def make_spiral_filter(rows: int, cols: int) -> np.ndarray:
    """S(u,v) = (u + i*v)/sqrt(u^2 + v^2) over signed integer frequency bins.

    Bin layout matches fft2 (DC at [0, 0], negative frequencies in the upper
    halves); S(0,0) = 0 removes the singular DC bin.
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


def quadrature(s: np.ndarray, beta: np.ndarray):
    """Quadrature of a zero-mean fringe signal, guided by the direction map.

    Returns (s_H, warnings): s_H = Re(exp(i*beta) * ifft2(S * fft2(s))). For
    s = b*cos(phi) this approximates -b*sin(phi). A clearly non-zero-mean
    input is reported as a warning, not a failure.
    """
    s = as_real_image(s)
    beta = as_real_image(beta)
    if s.shape != beta.shape:
        raise ValueError(f"shape mismatch: signal {s.shape}, direction {beta.shape}")
    warnings = []
    rms = float(np.sqrt(np.mean(s**2)))
    if rms > 0 and abs(float(s.mean())) > QUADRATURE_MEAN_WARN * rms:
        warnings.append(
            f"input mean {float(s.mean()):.4g} exceeds {QUADRATURE_MEAN_WARN:.0%} "
            f"of its RMS {rms:.4g}; the spiral transform expects zero-mean input"
        )
    spiral = make_spiral_filter(*s.shape)
    vortex = ifft2(spiral * fft2(s))
    # exp(i*beta) = cos(beta) + i*sin(beta) without the complex exp; the
    # + 0.0 maps a sine of -0.0 to +0.0, as exp(1j * beta) does
    phasor = np.empty(beta.shape, dtype=np.complex128)
    np.cos(beta, out=phasor.real)
    np.sin(beta, out=phasor.imag)
    phasor.imag += 0.0
    s_h = np.multiply(phasor, vortex, out=phasor).real
    return s_h, warnings


def demodulate_phase(s: np.ndarray, s_h: np.ndarray):
    """Wrapped phase in [-pi, pi) from the fringe signal and its quadrature.

    phi = atan2(-s_H, s), consistent with s = b*cos(phi), s_H = -b*sin(phi).
    Pixels where both inputs vanish are set to 0 and reported in the mask.
    """
    s = as_real_image(s)
    s_h = as_real_image(s_h)
    if s.shape != s_h.shape:
        raise ValueError(f"shape mismatch: {s.shape} vs {s_h.shape}")
    defined = s**2 + s_h**2 >= DEMOD_MAGNITUDE_EPS
    phi = np.arctan2(-s_h, s)
    phi = np.where(phi >= np.pi, phi - 2.0 * np.pi, phi)  # fold +pi into [-pi, pi)
    phi = np.where(defined, phi, 0.0)
    return phi, defined


def demodulate(fringe: np.ndarray, beta: np.ndarray):
    """Full demodulation: quadrature -> wrapped phase -> 2D unwrap.

    The fringe is expected prefiltered (zero-mean, normalized amplitude).
    Returns (wrapped, unwrapped, info); the unwrapped phase is piston-free
    (mean subtracted), and info carries warnings plus the undefined-pixel mask.
    """
    s_h, warnings = quadrature(fringe, beta)
    wrapped, defined = demodulate_phase(fringe, s_h)
    unwrapped = unwrap_phase_2d(wrapped)
    unwrapped = unwrapped - unwrapped.mean()
    info = {
        "warnings": warnings,
        "defined_fraction": float(defined.mean()),
    }
    return wrapped, unwrapped, info
