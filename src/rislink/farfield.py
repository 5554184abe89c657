"""Link geometry, far-field coupling synthesis and full-matrix assembly.

The surface lies in the x-z plane with its normal along +y. Tx and Rx sit
in the z = 0 azimuth plane at range R from the surface origin, at angles
beta (Tx) and alpha (Rx) measured from the normal, positive toward +x.
The Rx-side relations reuse the Tx-side formulas with the angle -alpha in
place of beta, so user-facing angles match the usual setup sketch.

Coupling between an antenna and an element is the spherical-wave link

    sqrt(1 - |S_mm|^2) * sqrt(G_side * G_m(azimuth)) / (4*pi*d/lambda)

with path phase ``-2*pi*d/lambda``; element pattern phase is not modeled.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import GeometryError, InputError, PatternCoverageError, PatternError, check
from .network import ScatterMatrix

SPEED_OF_LIGHT = 299_792_458.0

Side = Literal["tx", "rx"]

_ASIN_SLACK = 1e-9


class FarFieldValidityWarning(UserWarning):
    """An antenna sits closer than the 2*D^2/lambda far-field distance."""


class ElementGeometry:
    """Position of one RIS element on the surface (meters)."""

    def __init__(self, index_m: int, x_m: float, z_m: float):
        self.index_m = check("index_m", index_m, "an integer >= 1")
        self.x_m, self.z_m = check("x_m", x_m), check("z_m", z_m)


class ElementPattern:
    """Sampled azimuth gain pattern of one element plus its self coefficient.

    Gains are linear (not dB) and interpolated linearly between azimuth
    samples; the sampling must cover every azimuth that will be queried.
    """

    def __init__(self, index_m: int, azimuth_rad, gain_lin, s_mm: complex = 0j):
        check("index_m", index_m, "an integer >= 1")
        az = np.array(azimuth_rad, dtype=float)
        g = np.array(gain_lin, dtype=float)
        if az.ndim != 1 or az.shape != g.shape or az.size < 2:
            raise ValueError("pattern needs matching 1-d azimuth/gain arrays with >= 2 samples")
        if not np.all(np.diff(az) > 0):
            raise ValueError(f"element {index_m}: azimuth samples must be strictly increasing")
        if not np.all(np.isfinite(g)) or np.any(g < 0):
            raise ValueError(f"element {index_m}: gains must be finite and >= 0")
        check("s_mm", s_mm, "of magnitude <= 1 + 1e-9")
        az.flags.writeable = False
        g.flags.writeable = False
        self.index_m, self.azimuth_rad, self.gain_lin, self.s_mm = index_m, az, g, complex(s_mm)

    @classmethod
    def _checked(cls, index_m: int, azimuth_rad: np.ndarray, gain_lin: np.ndarray, s_mm: complex) -> "ElementPattern":
        """For ``parse_pattern_table``: float arrays that pass every check of ``__init__``, locked, not copied."""
        pattern = cls.__new__(cls)
        azimuth_rad.flags.writeable = gain_lin.flags.writeable = False
        pattern.index_m, pattern.azimuth_rad, pattern.gain_lin, pattern.s_mm = index_m, azimuth_rad, gain_lin, s_mm
        return pattern

    @classmethod
    def isotropic(
        cls,
        index_m: int,
        gain_lin: float = 1.0,
        s_mm: complex = 0j,
        span_rad: tuple[float, float] = (-math.pi / 2, math.pi / 2),
    ) -> "ElementPattern":
        return cls(index_m, np.array(span_rad), np.array([gain_lin, gain_lin]), s_mm)

    @property
    def coverage_rad(self) -> tuple[float, float]:
        return float(self.azimuth_rad[0]), float(self.azimuth_rad[-1])

    def gain(self, azimuth_rad: float | np.ndarray) -> float | np.ndarray:
        az = np.asarray(azimuth_rad)
        lo, hi = self.coverage_rad
        outside = (az < lo - 1e-12) | (az > hi + 1e-12)
        if outside.any():
            raise PatternCoverageError(
                f"element {self.index_m}: azimuth {math.degrees(az[outside].flat[0]):.3f} deg outside "
                f"sampled range [{math.degrees(lo):.3f}, {math.degrees(hi):.3f}] deg"
            )
        # Interpolation rounding can dip a hair below a null; gains are never negative.
        return np.maximum(np.interp(az, self.azimuth_rad, self.gain_lin), 0.0)


class Scenario:
    """Geometry and antenna parameters of one Tx-RIS-Rx link."""

    def __init__(self, r_m: float, alpha_rad: float, beta_rad: float, freq_hz: float, g_tx_lin: float,
                 g_rx_lin: float, elements: tuple[ElementGeometry, ...]):
        for name, value in (("r_m", r_m), ("freq_hz", freq_hz), ("g_tx_lin", g_tx_lin), ("g_rx_lin", g_rx_lin)):
            check(name, value, "positive and finite")
        # Closed interval: +-90 deg is needed by full-hemisphere BRCS sweeps.
        check("alpha_rad", alpha_rad, "within [-pi/2, pi/2]")
        check("beta_rad", beta_rad, "within [-pi/2, pi/2]")
        elements = tuple(elements)
        numbers = [e.index_m for e in elements]
        if len(set(numbers)) != len(numbers):
            raise ValueError("element numbers must be unique")
        self.r_m, self.alpha_rad, self.beta_rad, self.freq_hz = r_m, alpha_rad, beta_rad, freq_hz
        self.g_tx_lin, self.g_rx_lin, self.elements = g_tx_lin, g_rx_lin, elements

    def replace(self, **changes) -> "Scenario":
        """This scenario with ``changes`` applied, checked as the constructor checks."""
        return Scenario(**{**vars(self), **changes})

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.freq_hz

    @property
    def element_numbers(self) -> tuple[int, ...]:
        return tuple(e.index_m for e in self.elements)


def element_paths(
    scn: Scenario, side: Side, angles_rad: Sequence[float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distances d (m) and azimuths gamma (rad) from the side's antenna to each element.

    ``angles_rad`` are antenna angles (beta for Tx, alpha for Rx), by default
    the scenario's own; both results are (angles x elements) arrays. With
    angle = beta for Tx and -alpha for Rx, d = sqrt(R^2 + x_m^2 + z_m^2 -
    2*x_m*R*sin(angle)) and sin(gamma) = (R*sin(angle) - x_m) / d, so as
    R -> infinity gamma - angle = -(x_m/R)*cos(angle) + O((x_m/R)^2) for any
    z_m. An element at the origin sees d = R and gamma = angle exactly.
    ``math.asin`` per entry keeps every entry bit-identical to the scalar formula.
    """
    if side not in ("tx", "rx"):
        raise ValueError(f"side must be 'tx' or 'rx', got {side!r}")
    own = scn.beta_rad if side == "tx" else scn.alpha_rad
    angles = np.atleast_1d(np.asarray(own if angles_rad is None else angles_rad, dtype=float))
    angles = angles if side == "tx" else -angles
    r = scn.r_m
    x = np.array([e.x_m for e in scn.elements], dtype=float)
    try:
        base = np.array([r**2 + e.x_m**2 + e.z_m**2 for e in scn.elements], dtype=float)
    except OverflowError:
        raise InputError(f"the range {r} m or an element coordinate overflows a float when squared") from None
    sin = np.sin(angles)[:, np.newaxis]
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.sqrt(base - 2.0 * x * r * sin)
        arg = (r * sin - x) / d
    bad = ~(np.abs(arg) <= 1.0 + _ASIN_SLACK)
    if bad.any():
        raise GeometryError(f"azimuth sine argument {float(arg[bad][0])!r} outside [-1, 1]")
    gamma = np.array([math.asin(v) for v in np.clip(arg, -1.0, 1.0).ravel().tolist()]).reshape(arg.shape)
    origin = np.array([e.x_m == 0.0 and e.z_m == 0.0 for e in scn.elements], dtype=bool)
    d[:, origin] = r
    gamma[:, origin] = angles[:, np.newaxis]
    return d, gamma


def coupling_rows(
    scn: Scenario, patterns: Sequence[ElementPattern], side: Side, angles_rad: Sequence[float] | None = None
) -> np.ndarray:
    """The side's full-link matrix rows, its coupling to each of ``scn.elements``, one per angle.

    ``angles_rad`` are antenna angles as in :func:`element_paths`. ``patterns`` are those of
    ``scn.elements``, in their order, as :func:`assemble_full_matrix` checks. A coupling, or
    a squared distance in :func:`element_paths`, that overflows a float is an :class:`InputError`.
    """
    d, gamma = element_paths(scn, side, angles_rad)
    gain = np.empty_like(gamma)
    for k, pat in enumerate(patterns):
        gain[:, k] = pat.gain(gamma[:, k])
    # Python abs per element: np.abs rounds some |s_mm| differently.
    mismatch = np.array([math.sqrt(max(0.0, 1.0 - abs(p.s_mm) ** 2)) for p in patterns], dtype=float)
    lam, gain_side = scn.wavelength_m, scn.g_tx_lin if side == "tx" else scn.g_rx_lin
    with np.errstate(all="ignore"):  # an overflow is reported below, without numpy's warnings
        magnitude = mismatch * np.sqrt(gain_side * gain) / (4.0 * math.pi * d / lam)
        phase = -2.0 * math.pi * d / lam
        rows = magnitude * (np.cos(phase) + 1j * np.sin(phase))
    if not np.isfinite(rows).all():
        raise InputError(f"the {side} coupling overflows a float: a distance, the wavelength or a gain is extreme")
    return rows


def farfield_limit_distance(scn: Scenario) -> float:
    """Far-field validity distance 2*D^2/lambda, D = element bounding-box diagonal."""
    if not scn.elements:
        return 0.0
    xs = [e.x_m for e in scn.elements]
    zs = [e.z_m for e in scn.elements]
    diag = math.hypot(max(xs) - min(xs), max(zs) - min(zs))
    return 2.0 * diag * diag / scn.wavelength_m  # a product overflows to inf, where ** raises OverflowError


def _warn_if_nearfield(scn: Scenario) -> None:
    limit = farfield_limit_distance(scn)
    d_min = min(float(element_paths(scn, side)[0].min(initial=math.inf)) for side in ("tx", "rx"))
    if d_min < limit:
        warnings.warn(
            FarFieldValidityWarning(
                f"antenna distance {d_min:.3f} m is below the far-field limit "
                f"{limit:.3f} m; coupling accuracy degrades"
            ),
            stacklevel=3,
        )


def assemble_full_matrix(
    scn: Scenario,
    ris: ScatterMatrix,
    patterns: Sequence[ElementPattern],
) -> ScatterMatrix:
    """Assemble the (N+2)x(N+2) link matrix from a RIS-only matrix.

    The Tx port comes first, the RIS block (copied verbatim from ``ris``)
    in the middle and the Rx port last. Tx-RIS and Rx-RIS rows/columns are
    filled with :func:`coupling_rows`; the Tx and Rx self terms and
    the direct Tx-Rx term are zero (obstructed line of sight). The result
    is symmetric by construction. Warns with :class:`FarFieldValidityWarning`
    when an antenna is closer to an element than 2*D^2/lambda.
    """
    if not ris.is_ris_only:
        raise PatternError("assemble_full_matrix expects a RIS-only scatter matrix")
    n = len(scn.elements)
    if ris.element_numbers != scn.element_numbers:
        raise PatternError(
            f"ris port numbering {ris.element_numbers} does not match "
            f"scenario elements {scn.element_numbers}"
        )
    if len(patterns) != n:
        raise PatternError(f"{len(patterns)} patterns for {n} elements")
    for i, (pat, el) in enumerate(zip(patterns, scn.elements)):
        if pat.index_m != el.index_m:
            raise PatternError(
                f"pattern order mismatch at position {i}: pattern {pat.index_m}, element {el.index_m}"
            )
        if abs(pat.s_mm - ris.entries[i, i]) > 1e-6:
            raise PatternError(
                f"element {el.index_m}: pattern s_mm {pat.s_mm:.8f} does not match "
                f"ris diagonal {ris.entries[i, i]:.8f}"
            )

    _warn_if_nearfield(scn)

    full = np.zeros((n + 2, n + 2), dtype=complex)
    full[1 : n + 1, 1 : n + 1] = ris.entries
    full[0, 1 : n + 1] = full[1 : n + 1, 0] = coupling_rows(scn, patterns, "tx")[0]
    full[n + 1, 1 : n + 1] = full[1 : n + 1, n + 1] = coupling_rows(scn, patterns, "rx")[0]

    return ScatterMatrix.full_link(full, scn.freq_hz, scn.element_numbers, ris.z0_ohm)


class ExpDecayCoupling:
    """Synthetic RIS model: a common self term, and coupling that decays exponentially with element spacing.

    With ``c0 = 0`` the elements are isolated.
    """

    def __init__(self, s_mm: complex = 0j, c0: float = 0.1, rolloff_m: float = 0.05):
        self.s_mm = check("s_mm", s_mm, "of magnitude <= 1")
        self.c0 = check("c0", c0, "finite and >= 0")
        self.rolloff_m = check("rolloff_m", rolloff_m, "positive and finite")


def synth_ris_matrix(
    elements: Sequence[ElementGeometry] | Iterable[ElementGeometry],
    freq_hz: float,
    model: ExpDecayCoupling,
    z0_ohm: float = 50.0,
) -> ScatterMatrix:
    """Synthesize a passive reciprocal RIS-only matrix from element layout.

    A stand-in for the single full-wave simulation: the diagonal carries the
    model's self coefficient and off-diagonal terms fall off as
    ``c0*exp(-d/rolloff)`` with the path phase of the element spacing ``d``;
    with ``c0 = 0`` they are exact zeros. The result is rescaled if needed so its largest
    singular value does not exceed 1.
    """
    check("freq_hz", freq_hz, "positive and finite")
    elements = tuple(elements)
    if not elements:
        raise ValueError("synth_ris_matrix needs at least one element")
    n = len(elements)
    entries = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(entries, complex(model.s_mm))
    if model.c0:  # 0.0 times a complex phase would leave -0.0 imaginary parts
        lam = SPEED_OF_LIGHT / freq_hz
        for i in range(n):
            for j in range(i + 1, n):
                d = math.hypot(
                    elements[i].x_m - elements[j].x_m, elements[i].z_m - elements[j].z_m
                )
                value = model.c0 * math.exp(-d / model.rolloff_m) * np.exp(-2j * math.pi * d / lam)
                entries[i, j] = entries[j, i] = value
    s_max = float(np.linalg.svd(entries, compute_uv=False).max()) if n else 0.0
    if s_max > 1.0:
        entries /= s_max
    return ScatterMatrix.ris_only(entries, freq_hz, [e.index_m for e in elements], z0_ohm)
