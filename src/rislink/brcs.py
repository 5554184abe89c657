"""Bistatic radar cross section: link inversion, angle sweeps, references.

The BRCS convention inverts the bistatic radar equation at the antenna
reference points, so feeding sigma back into the radar equation reproduces
the link's |S_RxTx|^2 exactly. Sweeps keep the common reference range R on
both sides of the radar equation; the per-element distance spread is
already contained in the reduced coupling.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import MAX_ANGLE_RAD, InputError, check
from .farfield import ElementPattern, Scenario, _rows, assemble_full_matrix, element_paths
from .loads import IDEAL_VARACTOR, LoadVector, VaractorModel, load_gammas
from .network import ScatterMatrix

DBSM_FLOOR = -100.0
_SIGMA_FLOOR_M2 = 10.0 ** (DBSM_FLOOR / 10.0)


class BrcsCurve:
    """Sampled sigma(alpha) in dBsm over a receiver-angle sweep."""

    def __init__(self, alphas_rad, sigma_dbsm, label: str):
        alphas = np.array(alphas_rad, dtype=float)
        sigma = np.array(sigma_dbsm, dtype=float)
        if alphas.ndim != 1 or alphas.shape != sigma.shape or alphas.size == 0:
            raise ValueError("curve needs matching non-empty 1-d alpha/sigma arrays")
        if not np.all(np.diff(alphas) > 0):
            raise ValueError("alphas must be strictly increasing")
        if not np.all(np.isfinite(sigma)):
            raise ValueError("sigma values must be finite (nulls are floored)")
        alphas.flags.writeable = False
        sigma.flags.writeable = False
        self.alphas_rad, self.sigma_dbsm, self.label = alphas, sigma, label

    @classmethod
    def from_sigma_m2(cls, alphas_rad, sigma_m2, label: str) -> "BrcsCurve":
        sigma = np.asarray(sigma_m2, dtype=float)
        dbsm = 10.0 * np.log10(np.maximum(sigma, _SIGMA_FLOOR_M2))
        return cls(np.asarray(alphas_rad, dtype=float), dbsm, label)


def brcs_from_coupling(
    s_rx_tx: complex,
    d_tx_m: float,
    d_rx_m: float,
    g_tx_lin: float,
    g_rx_lin: float,
    lambda_m: float,
) -> float:
    """Bistatic RCS in m^2 equivalent to the given Tx -> Rx coupling.

    sigma = (4*pi)^3 * d_tx^2 * d_rx^2 * |S_RxTx|^2 / (G_tx * G_rx * lambda^2);
    an :class:`InputError` if that overflows a float.
    """
    check("s_rx_tx", s_rx_tx, "of finite magnitude")
    for name, value in (("d_tx_m", d_tx_m), ("d_rx_m", d_rx_m), ("g_tx_lin", g_tx_lin), ("g_rx_lin", g_rx_lin),
                        ("lambda_m", lambda_m)):
        check(name, value, "positive and finite")
    return _sigma_m2([s_rx_tx], d_tx_m, d_rx_m, g_tx_lin, g_rx_lin, lambda_m)[0]


def _sigma_m2(s21: list[complex], d_tx_m: float, d_rx_m: float, g_tx_lin: float, g_rx_lin: float,
              lambda_m: float) -> list[float]:
    """``brcs_from_coupling`` of each coupling in ``s21``, the other values checked by the caller."""
    try:
        sigma = [(4.0 * math.pi) ** 3 * d_tx_m**2 * d_rx_m**2 * abs(s) ** 2 / (g_tx_lin * g_rx_lin * lambda_m**2)
                 for s in s21]
    except (OverflowError, ZeroDivisionError):
        sigma = [math.inf]
    if not all(value < math.inf for value in sigma):  # NaN fails too
        raise InputError("the bistatic RCS overflows a float")
    return sigma


def sweep_rx_angle(
    scn: Scenario,
    ris: ScatterMatrix,
    patterns: Sequence[ElementPattern],
    caps: LoadVector,
    alphas_rad: Sequence[float] | np.ndarray,
    model: VaractorModel = IDEAL_VARACTOR,
) -> BrcsCurve:
    """sigma(alpha) of the loaded RIS link over a receiver-angle grid.

    The loads stay fixed while the receiver moves, so only the Rx coupling
    row r(alpha) of the full matrix changes:
    S_RxTx(alpha) = direct + r(alpha) @ Gamma*(I - S_ii*Gamma)^-1 * t.
    S_ii, the Tx column t and the zero direct term do not depend on alpha, so
    the full matrix is assembled once and its kernel's ``s_rx_tx`` solves for
    the loaded-port waves once, then dots each angle's row with them.

    The Rx paths of every grid angle come from one :func:`element_paths`
    call. They give every angle's row, and they pick the angle at which the
    full matrix is assembled: the grid angle whose nearest element distance
    is the smallest, the first such angle on a tie. So the assembly's one
    far-field warning covers every angle of the sweep and names its nearest
    distance. That angle is a grid end on [-90, 90] deg, but the pick reads
    the distances themselves and does not rely on it.
    """
    alphas = np.asarray(alphas_rad, dtype=float)
    if alphas.size == 0:
        raise ValueError("alpha grid is empty")
    if not np.all(np.abs(alphas) <= MAX_ANGLE_RAD):
        raise ValueError("sweep angles must lie within [-90, 90] deg (front halfspace)")

    d, gamma = element_paths(scn, "rx", alphas)
    nearest = alphas.flat[int(np.argmin(d.min(axis=1, initial=math.inf)))]
    full = assemble_full_matrix(scn.replace(alpha_rad=float(nearest)), ris, patterns)
    kernel = full.kernel
    if len(caps) != kernel.n_ris:
        raise ValueError(f"{len(caps)} loads for {kernel.n_ris} RIS ports")
    gam = load_gammas(caps, full.freq_hz, full.z0_ohm, model).as_array
    s21 = kernel.s_rx_tx(gam, _rows(scn, patterns, "rx", d, gamma))
    sigma = _sigma_m2(s21.tolist(), scn.r_m, scn.r_m, scn.g_tx_lin, scn.g_rx_lin, scn.wavelength_m)
    return BrcsCurve.from_sigma_m2(alphas, sigma, "ris")


def flat_reflector_reference(
    width_m: float,
    height_m: float,
    lambda_m: float,
    beta_rad: float,
    alphas_rad: Sequence[float] | np.ndarray,
) -> BrcsCurve:
    """Physical-optics BRCS of a flat rectangular plate of the same size.

    sigma(alpha) = 4*pi*(A*cos(beta))^2/lambda^2 * sinc^2(k*w/2*(sin a - sin b))
    with A = w*h; the peak sits at the specular direction alpha = beta. An
    :class:`InputError` if sigma overflows a float.
    """
    for name, value in (("width_m", width_m), ("height_m", height_m), ("lambda_m", lambda_m)):
        check(name, value, "positive and finite")
    check("beta_rad", beta_rad, "within [-pi/2, pi/2]")
    alphas = np.asarray(alphas_rad, dtype=float)
    area = width_m * height_m
    k = 2.0 * math.pi / lambda_m
    try:
        peak = 4.0 * math.pi * (area * math.cos(beta_rad)) ** 2 / lambda_m**2
    except (OverflowError, ZeroDivisionError):
        peak = math.inf
    with np.errstate(all="ignore"):  # an overflow is reported below, without numpy's warnings
        arg = 0.5 * k * width_m * (np.sin(alphas) - math.sin(beta_rad))
        sigma = peak * np.sinc(arg / math.pi) ** 2
    if not np.isfinite(sigma).all():
        raise InputError("the flat-plate RCS overflows a float")
    return BrcsCurve.from_sigma_m2(alphas, sigma, "reflector")


def export_csv(curves: Sequence[BrcsCurve], path: str | Path) -> None:
    """Write curves as ``alpha_deg,<label>,...`` rows with 6 significant digits.

    All curves must share the same alpha grid; identical input yields
    byte-identical files.
    """
    if not curves:
        raise ValueError("no curves to export")
    grid = curves[0].alphas_rad
    for curve in curves[1:]:
        if not np.array_equal(curve.alphas_rad, grid):
            raise ValueError("curves must share the same alpha grid")
    labels = [curve.label.replace(",", "_") for curve in curves]
    lines = ["alpha_deg," + ",".join(labels)]
    for i, alpha in enumerate(grid):
        row = [f"{math.degrees(alpha):.6g}"]
        row.extend(f"{curve.sigma_dbsm[i]:.6g}" for curve in curves)
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
