"""Spiral-phase quadrature and direction-guided phase demodulation.

A zero-mean fringe signal s = b*cos(phi) multiplied in the frequency domain by
the unit spiral S(u,v) = (u + i*v)/|u + i*v| and corrected by the local fringe
direction yields the quadrature -b*sin(phi); the wrapped phase then follows
from a four-quadrant arctangent and unwraps to a continuous estimate.

The signal is real, so its spectrum is carried on the real FFT's half plane,
and the spiral filter acts there through its Hermitian and anti-Hermitian
parts, which give the real and imaginary parts of the vortex; on an even
grid's Nyquist row and column they take the exact mirror formula (see
``_half_plane_factors``). Larkin, Bone & Oldfield (JOSA A 18(8), 2001)
define the transform.

The direction maps here use the repo convention beta = atan2(dphi/dx, dphi/dy);
for that convention the correcting phase factor is exp(i*beta) (verified
against the analytic carrier quadrature; adding pi to beta flips the sign of
the output, the inherent global branch of single-frame direction data).
"""

from __future__ import annotations

import numpy as np

from .image import MIN_ESTIMATOR_SIZE, as_real_image
from .unwrap import unwrap_phase_2d

QUADRATURE_MEAN_WARN = 0.05
DEMOD_MAGNITUDE_EPS = 1e-12


def _half_plane_factors(rows: int, cols: int):
    """The Hermitian and anti-Hermitian parts of the spiral filter on the
    real FFT's half plane (columns 0 .. cols // 2), as (H, -i * A).

    With S' the filter at the mirrored bin (-k mod the grid), H = (S +
    conj(S')) / 2 and A = (S - conj(S')) / 2, so for a real signal's
    spectrum F, H * F and -i * A * F are the spectra of the real and the
    imaginary part of IDFT(S * F), IDFT the inverse 2D DFT. Off the Nyquist
    lines the mirror negates both frequencies, and the factors are i * v / r
    and -i * u / r. On an even grid's Nyquist row (v = -rows / 2) and column
    (u = -cols / 2) the mirror keeps that frequency, and the same formula
    gives H = (u_N + i * v) / r, -i * A = (v_N - i * u) / r, with u_N, v_N
    zero off their line. Every numerator is an exact small integer.
    """
    v = np.fft.fftfreq(rows) * rows
    u = (np.fft.fftfreq(cols) * cols)[: cols // 2 + 1]
    v_nyquist = np.where(v == -rows / 2, v, 0.0)  # no such bin on an odd side
    u_nyquist = np.where(u == -cols / 2, u, 0.0)
    inv_radius = u * u + (v * v)[:, np.newaxis]  # exact integers
    inv_radius[0, 0] = 1.0  # the DC bin's numerators are all 0
    np.sqrt(inv_radius, out=inv_radius)
    np.divide(1.0, inv_radius, out=inv_radius)
    real_part = np.empty(inv_radius.shape, dtype=np.complex128)
    imag_part = np.empty(inv_radius.shape, dtype=np.complex128)
    np.multiply(u_nyquist, inv_radius, out=real_part.real)
    np.multiply((v - v_nyquist)[:, np.newaxis], inv_radius, out=real_part.imag)
    np.multiply(v_nyquist[:, np.newaxis], inv_radius, out=imag_part.real)
    np.multiply(u_nyquist - u, inv_radius, out=imag_part.imag)
    return real_part, imag_part


def quadrature(s: np.ndarray, beta: np.ndarray):
    """Quadrature of a zero-mean fringe signal, guided by the direction map.

    Returns (s_H, warnings): s_H = Re(exp(i*beta) * IDFT(S * DFT(s))), with
    DFT the unnormalised 2D DFT and IDFT its inverse. For s = b*cos(phi)
    this approximates -b*sin(phi). A clearly non-zero-mean input is reported
    as a warning, not a failure.

    The signal is real, so one rfft2 carries its spectrum, and the vortex
    IDFT(S * DFT(s)) comes out as two real inverse transforms: its real
    part from the filter's Hermitian part and its imaginary part from the
    anti-Hermitian one (``_half_plane_factors``, built on each call). Then
    s_H = cos(beta) * Re - sin(beta) * Im.
    """
    s = as_real_image(s, min_size=MIN_ESTIMATOR_SIZE)
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
    spectrum = np.fft.rfft2(s)
    real_part, imag_part = _half_plane_factors(*s.shape)
    real_part *= spectrum
    imag_part *= spectrum
    re = np.fft.irfft2(real_part, s=s.shape)
    im = np.fft.irfft2(imag_part, s=s.shape)
    re *= np.cos(beta)
    im *= np.sin(beta)
    re -= im
    return re, warnings


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
