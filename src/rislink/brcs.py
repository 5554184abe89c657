"""Bistatic radar cross section: link inversion, angle sweeps, references.

The BRCS convention inverts the bistatic radar equation at the antenna
reference points, so feeding sigma back into the radar equation reproduces
the link's |S_RxTx|^2 exactly. Sweeps keep the common reference range R on
both sides of the radar equation; the per-element distance spread is
already contained in the reduced coupling.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import RislinkError
from .farfield import MAX_ANGLE_RAD, ElementPattern, Scenario, assemble_full_matrix, coupling_rows
from .loads import IDEAL_VARACTOR, LoadVector, VaractorModel
from .network import ScatterMatrix

DBSM_FLOOR = -100.0
_SIGMA_FLOOR_M2 = 10.0 ** (DBSM_FLOOR / 10.0)


@dataclass(frozen=True, eq=False)
class BrcsCurve:
    """Sampled sigma(alpha) in dBsm over a receiver-angle sweep."""

    alphas_rad: np.ndarray
    sigma_dbsm: np.ndarray
    label: str
    fingerprint: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        alphas = np.array(self.alphas_rad, dtype=float)
        sigma = np.array(self.sigma_dbsm, dtype=float)
        if alphas.ndim != 1 or alphas.shape != sigma.shape or alphas.size == 0:
            raise ValueError("curve needs matching non-empty 1-d alpha/sigma arrays")
        if not np.all(np.diff(alphas) > 0):
            raise ValueError("alphas must be strictly increasing")
        if not np.all(np.isfinite(sigma)):
            raise ValueError("sigma values must be finite (nulls are floored)")
        alphas.flags.writeable = False
        sigma.flags.writeable = False
        object.__setattr__(self, "alphas_rad", alphas)
        object.__setattr__(self, "sigma_dbsm", sigma)

    @classmethod
    def from_sigma_m2(cls, alphas_rad, sigma_m2, label: str, fingerprint=()) -> "BrcsCurve":
        sigma = np.asarray(sigma_m2, dtype=float)
        dbsm = 10.0 * np.log10(np.maximum(sigma, _SIGMA_FLOOR_M2))
        return cls(np.asarray(alphas_rad, dtype=float), dbsm, label, tuple(fingerprint))

    @property
    def peak_alpha_rad(self) -> float:
        return float(self.alphas_rad[int(np.argmax(self.sigma_dbsm))])

    def value_at(self, alpha_rad: float) -> float:
        idx = int(np.argmin(np.abs(self.alphas_rad - alpha_rad)))
        if abs(self.alphas_rad[idx] - alpha_rad) > 1e-9:
            raise KeyError(f"alpha {math.degrees(alpha_rad):.3f} deg is not on the curve grid")
        return float(self.sigma_dbsm[idx])


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


def _caps_fingerprint(caps: LoadVector) -> str:
    return hashlib.sha256(caps.as_array.tobytes()).hexdigest()[:16]


def sweep_rx_angle(
    scn: Scenario,
    ris: ScatterMatrix,
    patterns: Sequence[ElementPattern],
    caps: LoadVector,
    alphas_rad: Sequence[float] | np.ndarray,
    model: VaractorModel = IDEAL_VARACTOR,
    label: str = "ris",
) -> BrcsCurve:
    """sigma(alpha) of the loaded RIS link over a receiver-angle grid.

    The loads stay fixed while the receiver moves, so only the Rx coupling
    row r(alpha) of the full matrix changes:
    S_RxTx(alpha) = S_RxTx + r(alpha) @ Gamma*(I - S_ii*Gamma)^-1 * t.
    The full matrix is assembled once, at the scenario's own angles (which
    gives the one far-field warning), and its kernel (``full.kernel``) solves
    for the loaded-port waves once; the coupling rows of every angle then
    come from one call, each row dotted with them.
    """
    alphas = np.asarray(alphas_rad, dtype=float)
    if alphas.size == 0:
        raise ValueError("alpha grid is empty")
    if not np.all(np.abs(alphas) <= MAX_ANGLE_RAD):
        raise ValueError("sweep angles must lie within [-90, 90] deg (front halfspace)")
    lam = scn.wavelength_m

    full = assemble_full_matrix(scn, ris, patterns)
    kernel = full.kernel
    if len(caps) != kernel.n_ris:
        raise ValueError(f"{len(caps)} loads for {kernel.n_ris} RIS ports")
    wave = kernel.tx_wave(kernel.gammas(caps.as_array, model))

    # One dot per row: a matrix-vector product sums in another order and moves sigma in its last bits.
    s21 = kernel.s_ee[1, 0] + np.array([r @ wave for r in coupling_rows(scn, patterns, "rx", alphas)])
    sigma = [brcs_from_coupling(s, scn.r_m, scn.r_m, scn.g_tx_lin, scn.g_rx_lin, lam) for s in s21.tolist()]
    fingerprint = (
        ("beta_deg", f"{math.degrees(scn.beta_rad):.6g}"),
        ("r_m", f"{scn.r_m:.6g}"),
        ("freq_hz", f"{scn.freq_hz:.9g}"),
        ("caps_sha256", _caps_fingerprint(caps)),
    )
    return BrcsCurve.from_sigma_m2(alphas, sigma, label, fingerprint)


def flat_reflector_reference(
    width_m: float,
    height_m: float,
    lambda_m: float,
    beta_rad: float,
    alphas_rad: Sequence[float] | np.ndarray,
    label: str = "reflector",
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
    fingerprint = (
        ("beta_deg", f"{math.degrees(beta_rad):.6g}"),
        ("width_m", f"{width_m:.6g}"),
        ("height_m", f"{height_m:.6g}"),
    )
    return BrcsCurve.from_sigma_m2(alphas, sigma, label, fingerprint)


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
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise RislinkError(f"failed to write {path}: {exc}") from exc
