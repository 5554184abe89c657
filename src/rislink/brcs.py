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

from .farfield import MAX_ANGLE_RAD, ElementPattern, Scenario, assemble_full_matrix, coupling_rows, element_paths
from .loads import IDEAL_VARACTOR, LoadVector, VaractorModel
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

    sigma = (4*pi)^3 * d_tx^2 * d_rx^2 * |S_RxTx|^2 / (G_tx * G_rx * lambda^2)
    """
    if not (d_tx_m > 0 and d_rx_m > 0):
        raise ValueError("distances must be positive")
    return (
        (4.0 * math.pi) ** 3
        * d_tx_m**2
        * d_rx_m**2
        * abs(s_rx_tx) ** 2
        / (g_tx_lin * g_rx_lin * lambda_m**2)
    )


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
    S_RxTx(alpha) = S_RxTx + r(alpha) @ Gamma*(I - S_ii*Gamma)^-1 * t.
    S_ii, the Tx column and the zero direct term do not depend on alpha, so
    the full matrix is assembled once and its kernel (``full.kernel``) solves
    for the loaded-port waves once; the coupling rows of every angle then
    come from one call, each row dotted with them.

    Assembly takes alpha at the grid end that brings the Rx nearest an
    element, so its one far-field warning covers every angle of the sweep.
    An end suffices: the Rx at alpha lies d^2 = R^2 + x^2 + z^2 +
    2*x*R*sin(alpha) from the element at (x, z) (:func:`element_paths`),
    monotone in alpha on [-90, 90] deg, so each element is nearest at the
    smallest or the largest grid angle.
    """
    alphas = np.asarray(alphas_rad, dtype=float)
    if alphas.size == 0:
        raise ValueError("alpha grid is empty")
    if not np.all(np.abs(alphas) <= MAX_ANGLE_RAD):
        raise ValueError("sweep angles must lie within [-90, 90] deg (front halfspace)")
    lam = scn.wavelength_m

    ends = [float(alphas.min()), float(alphas.max())]
    nearest = element_paths(scn, "rx", ends)[0].min(axis=1, initial=math.inf)
    full = assemble_full_matrix(scn.replace(alpha_rad=ends[int(np.argmin(nearest))]), ris, patterns)
    kernel = full.kernel
    if len(caps) != kernel.n_ris:
        raise ValueError(f"{len(caps)} loads for {kernel.n_ris} RIS ports")
    wave = kernel.tx_wave(model.gammas(caps.as_array, full.freq_hz, full.z0_ohm))

    # One dot per row: a matrix-vector product sums in another order and moves sigma in its last bits.
    s21 = kernel.s_ee[1, 0] + np.array([r @ wave for r in coupling_rows(scn, patterns, "rx", alphas)])
    sigma = [brcs_from_coupling(s, scn.r_m, scn.r_m, scn.g_tx_lin, scn.g_rx_lin, lam) for s in s21.tolist()]
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
    with A = w*h; the peak sits at the specular direction alpha = beta.
    """
    if not (width_m > 0 and height_m > 0):
        raise ValueError("plate dimensions must be positive")
    alphas = np.asarray(alphas_rad, dtype=float)
    area = width_m * height_m
    k = 2.0 * math.pi / lambda_m
    peak = 4.0 * math.pi * (area * math.cos(beta_rad)) ** 2 / lambda_m**2
    arg = 0.5 * k * width_m * (np.sin(alphas) - math.sin(beta_rad))
    sigma = peak * np.sinc(arg / math.pi) ** 2
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
