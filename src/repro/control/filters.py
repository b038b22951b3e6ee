"""Second-order digital filter design.

The case-study controllers low-pass the noisy wireless level measurement
before the PID.  We use the standard RBJ biquad low-pass (bilinear
transform, Q = 1/sqrt(2) for a Butterworth response).  The composed law
(:mod:`repro.control.compiler` and :mod:`repro.control.controller`)
evaluates it in direct form II transposed -- two state variables, which
is exactly the amount of filter state that task migration must carry
across nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BiquadCoefficients:
    """Normalized (a0 = 1) biquad coefficients."""

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float


def lowpass_coefficients(cutoff_hz: float, dt_sec: float,
                         q: float = 1.0 / math.sqrt(2.0),
                         ) -> BiquadCoefficients:
    """RBJ audio-EQ-cookbook low-pass biquad design."""
    if cutoff_hz <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff_hz}")
    if dt_sec <= 0:
        raise ValueError(f"dt must be positive, got {dt_sec}")
    nyquist = 0.5 / dt_sec
    if cutoff_hz >= nyquist:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz at/above Nyquist {nyquist} Hz")
    w0 = 2.0 * math.pi * cutoff_hz * dt_sec
    alpha = math.sin(w0) / (2.0 * q)
    cos_w0 = math.cos(w0)
    a0 = 1.0 + alpha
    return BiquadCoefficients(
        b0=((1.0 - cos_w0) / 2.0) / a0,
        b1=(1.0 - cos_w0) / a0,
        b2=((1.0 - cos_w0) / 2.0) / a0,
        a1=(-2.0 * cos_w0) / a0,
        a2=(1.0 - alpha) / a0,
    )
