"""Adaptive reference integrator for the coupled Bloch equations.

Driven by the same Segment list as nobleline.dynamics.evolve_exact, and
independent of its eigenmode solution, it is the oracle the tests check the
exact engine against. It runs DOP853 from scipy.integrate on the real state
vector (F_x, F_y, R_x, R_y); nothing in the package calls it.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
from scipy.integrate import solve_ivp

from nobleline.dynamics import SpinTrajectory
from nobleline.model import TWO_PI, SystemParams, ValidityError


def segment_drive(segments):
    """S3(t), for t from 0 to the summed durations, of a Segment list.

    Each segment's phase is referred to its own start, as in evolve_exact;
    raised-cosine edges are evaluated continuously, not as that engine's
    constant-amplitude substeps, so the reference integrator checks them.
    """
    starts, pieces, t_end = [], [], 0.0
    for seg in segments:
        amp = complex(seg.amplitude)
        starts.append(t_end)
        pieces.append((t_end, seg.duration, amp.real, amp.imag,
                       TWO_PI * seg.omega, seg.ramp))
        t_end += seg.duration
    cos, sin = math.cos, math.sin  # local names: s3 runs on every RHS call

    def s3(t: float) -> float:
        start, dur, a_re, a_im, w, ramp = pieces[bisect_right(starts, t) - 1]
        tau = t - start
        value = a_re * cos(w * tau) + a_im * sin(w * tau)
        if ramp:
            inside = min(tau, dur - tau)
            if inside < ramp:
                return 0.5 * (1.0 - cos(math.pi * inside / ramp)) * value
        return value

    return s3


def bloch_rhs(t: float, y, system: SystemParams, drive):
    """Right-hand side of the coupled Bloch equations; drive(t) is S3(t)."""
    f_x, f_y, r_x, r_y = y
    s3 = drive(t)
    return (
        TWO_PI * (system.omega_a * f_y - system.exchange_ab * r_y
                  - system.gamma_a * f_x),
        TWO_PI * (-system.omega_a * f_x + system.exchange_ab * r_x
                  - system.gamma_a * f_y + system.drive_coeff * s3),
        TWO_PI * (system.omega_b * r_y - system.exchange_ba * f_y
                  - system.gamma_b * r_x),
        TWO_PI * (-system.omega_b * r_x + system.exchange_ba * f_x
                  - system.gamma_b * r_y),
    )


def integrate_bloch(system: SystemParams, segments,
                    initial: tuple[complex, complex] = (0j, 0j),
                    rtol: float = 1e-9, atol: float = 1e-12, t_eval=None,
                    sample_rate: float | None = None) -> SpinTrajectory:
    """Integrate the Bloch equations through the segments evolve_exact takes.

    Adaptive DOP853 (scipy) from 0 to the summed durations, starting from
    the pair (f, r): independent of the eigenmode solution, and far slower
    for mHz lines, it is the reference the exact engine is checked against.
    Sampling: explicit t_eval wins, else a uniform grid at sample_rate, else
    the steps taken.
    """
    f, r = initial
    y0 = np.array([f.real, f.imag, r.real, r.imag], dtype=float)
    t1 = sum(seg.duration for seg in segments)
    if not t1 > 0:
        raise ValidityError("integrate_bloch needs at least one segment")
    if t_eval is None and sample_rate is not None:
        n = int(math.floor(t1 * sample_rate)) + 1
        t_eval = np.arange(n) / sample_rate
    sol = solve_ivp(bloch_rhs, (0.0, t1), y0,
                    args=(system, segment_drive(segments)), method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True, t_eval=t_eval)
    if not sol.success:
        last = float(sol.t[-1]) if sol.t.size else 0.0
        raise ValidityError(f"integrator stopped at t = {last:.6g} s: "
                            f"{sol.message}")
    return SpinTrajectory(times=sol.t, f=sol.y[0] + 1j * sol.y[1],
                          r=sol.y[2] + 1j * sol.y[3])
