"""Varactor load modeling and bounded capacitance optimization.

Each RIS port is terminated by a series R-L-C load whose capacitance is the
tuning variable. ``cap_to_gamma`` maps a capacitance to its reflection
coefficient; ``optimize`` searches the box-bounded capacitance space for
maximum Tx -> Rx power transfer with a deterministic multi-start simplex
search plus optional coordinate-wise golden-section polish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnoptimizableError
from .farfield import Scenario, distance_to_element
from .network import ReflectionVector, ScatterMatrix

_SIMPLEX_FATOL = 1e-10
_POLISH_PASSES = 2
_POLISH_TOL_PF = 1e-7


@dataclass(frozen=True)
class LoadBounds:
    """Feasible capacitance range of the tuning varactors, in farads."""

    c_min_f: float
    c_max_f: float

    def __post_init__(self):
        if not (0 < self.c_min_f < self.c_max_f):
            raise ValueError(
                f"bounds require 0 < c_min < c_max, got [{self.c_min_f}, {self.c_max_f}]"
            )

    def contains(self, c_f: float, rel_slack: float = 1e-9) -> bool:
        slack = rel_slack * self.c_max_f
        return self.c_min_f - slack <= c_f <= self.c_max_f + slack

    def clip(self, c_f: float) -> float:
        return min(self.c_max_f, max(self.c_min_f, c_f))


@dataclass(frozen=True)
class LoadVector:
    """Per-element load capacitances in farads, aligned with RIS port order."""

    caps_f: tuple[float, ...]

    def __post_init__(self):
        caps = tuple(float(c) for c in self.caps_f)
        for i, c in enumerate(caps):
            if not (math.isfinite(c) and c > 0):
                raise ValueError(f"capacitance {i + 1} must be finite and positive, got {c}")
        object.__setattr__(self, "caps_f", caps)

    @classmethod
    def of(cls, values) -> "LoadVector":
        return cls(tuple(float(v) for v in values))

    @classmethod
    def uniform(cls, c_f: float, n: int) -> "LoadVector":
        return cls((float(c_f),) * n)

    def __len__(self) -> int:
        return len(self.caps_f)

    @property
    def as_array(self) -> np.ndarray:
        return np.array(self.caps_f)


@dataclass(frozen=True)
class VaractorModel:
    """Series parasitics of the load; the default is an ideal capacitor."""

    series_resistance_ohm: float = 0.0
    series_inductance_h: float = 0.0

    def __post_init__(self):
        if self.series_resistance_ohm < 0 or self.series_inductance_h < 0:
            raise ValueError("varactor parasitics must be non-negative")


IDEAL_VARACTOR = VaractorModel()


def cap_to_gamma(
    c_f: float,
    freq_hz: float,
    z0_ohm: float = 50.0,
    model: VaractorModel = IDEAL_VARACTOR,
) -> complex:
    """Reflection coefficient of a series R-L-C load at the given frequency.

    Z_L = R_s + j*(2*pi*f*L_s - 1/(2*pi*f*C)); gamma = (Z_L - Z0)/(Z_L + Z0).
    The ideal model gives |gamma| = 1.
    """
    if not c_f > 0:
        raise ValueError(f"capacitance must be positive, got {c_f}")
    if not (freq_hz > 0 and z0_ohm > 0):
        raise ValueError("frequency and reference impedance must be positive")
    w = 2.0 * math.pi * freq_hz
    z_load = complex(model.series_resistance_ohm, w * model.series_inductance_h - 1.0 / (w * c_f))
    return (z_load - z0_ohm) / (z_load + z0_ohm)


def load_gammas(
    caps: LoadVector,
    freq_hz: float,
    z0_ohm: float = 50.0,
    model: VaractorModel = IDEAL_VARACTOR,
) -> ReflectionVector:
    return ReflectionVector.of(cap_to_gamma(c, freq_hz, z0_ohm, model) for c in caps.caps_f)


def _check_caps(caps: LoadVector, bounds: LoadBounds, n: int) -> None:
    if len(caps) != n:
        raise ValueError(f"{len(caps)} capacitances for {n} RIS ports")
    for i, c in enumerate(caps.caps_f):
        if not bounds.contains(c):
            raise ValueError(
                f"capacitance {i + 1} = {c * 1e12:.6g} pF outside bounds "
                f"[{bounds.c_min_f * 1e12:.6g}, {bounds.c_max_f * 1e12:.6g}] pF"
            )


def objective(
    full: ScatterMatrix,
    caps: LoadVector,
    bounds: LoadBounds,
    model: VaractorModel = IDEAL_VARACTOR,
) -> float:
    """Tx -> Rx power transfer of the link under the given loads, in [0, 1]."""
    kernel = full.kernel
    _check_caps(caps, bounds, kernel.n_ris)
    return kernel.transfer(caps.as_array, model)


def objective_gradient(
    full: ScatterMatrix,
    caps: LoadVector,
    bounds: LoadBounds,
    model: VaractorModel = IDEAL_VARACTOR,
) -> np.ndarray:
    """Analytic gradient d(objective)/dC in 1/farad (one forward and one adjoint solve)."""
    kernel = full.kernel
    _check_caps(caps, bounds, kernel.n_ris)
    return kernel.gradient(caps.as_array, model)


def _ideal_phase(c_f: float, freq_hz: float, z0_ohm: float) -> float:
    return float(np.angle(cap_to_gamma(c_f, freq_hz, z0_ohm)))


def _wrap(angle: float) -> float:
    return math.atan2(math.sin(angle), math.cos(angle))


def phase_gradient_seed(
    scn: Scenario,
    bounds: LoadBounds,
    model: VaractorModel = IDEAL_VARACTOR,
    z0_ohm: float = 50.0,
) -> LoadVector:
    """Physics-informed start vector for the optimizer.

    Picks each capacitance so the element's reflection phase cancels the
    round-trip path phase 2*pi*(d_tx + d_rx)/lambda modulo 2*pi, or the
    nearest phase achievable inside the bounds. The phase -> capacitance
    inversion assumes an ideal load; with parasitics it is still only a
    starting point.
    """
    w = 2.0 * math.pi * scn.freq_hz
    wl_s = w * model.series_inductance_h
    lam = scn.wavelength_m
    # arg(gamma) decreases with C, so c_max gives the lowest phase.
    phase_lo = _ideal_phase(bounds.c_max_f, scn.freq_hz, z0_ohm)
    phase_hi = _ideal_phase(bounds.c_min_f, scn.freq_hz, z0_ohm)

    caps = []
    for el in scn.elements:
        path = distance_to_element(scn, el.index_m, "tx") + distance_to_element(scn, el.index_m, "rx")
        target = _wrap(2.0 * math.pi * path / lam)
        if phase_lo <= target <= phase_hi:
            reactance = z0_ohm / math.tan(target / 2.0)
            c = 1.0 / (w * (wl_s - reactance))
        elif abs(_wrap(target - phase_lo)) <= abs(_wrap(target - phase_hi)):
            c = bounds.c_max_f
        else:
            c = bounds.c_min_f
        caps.append(bounds.clip(c))
    return LoadVector.of(caps)


@dataclass(frozen=True)
class OptimizerOptions:
    """Search configuration; identical options and seed give identical results."""

    starts: int = 8
    max_evals: int = 2000
    seed: int = 0
    polish: bool = True
    initial: LoadVector | None = None

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.max_evals < 10:
            raise ValueError("max_evals must be >= 10")


@dataclass(frozen=True)
class StartTrace:
    """Evaluation record of one multi-start run (objectives, best-so-far)."""

    start_index: int
    initial_pf: tuple[float, ...]
    n_evals: int
    best_objective: float
    best_history: tuple[float, ...]


@dataclass(frozen=True)
class OptimizeResult:
    caps: LoadVector
    objective: float
    trace: tuple[StartTrace, ...] = field(repr=False)


def _golden_max(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns the best point seen."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
        x, f = (c, fc) if fc >= fd else (d, fd)
        if f > best_f:
            best_x, best_f = x, f
    return best_x, best_f


def optimize(
    full: ScatterMatrix,
    bounds: LoadBounds,
    model: VaractorModel = IDEAL_VARACTOR,
    opts: OptimizerOptions | None = None,
) -> OptimizeResult:
    """Search the bounded capacitance space for maximum power transfer.

    Multi-start bounded Nelder-Mead (the caller may supply a physics-informed
    first start via ``opts.initial``, remaining starts are seeded-random),
    then optional coordinate-wise golden-section polish. The starts run one
    after another; the best start wins, exact objective ties break to the
    lowest start index, so results are reproducible bit-for-bit for a fixed
    seed.

    Inputs are checked once here; every evaluation then runs the matrix's
    ``LinkKernel`` on the clipped capacitance array, with no per-call
    validation (the bounds and the varactor model already guarantee
    positive, in-range capacitances and passive loads).

    Raises
    ------
    UnoptimizableError
        If the Tx or Rx side has no coupling to any RIS port, making the
        objective constant.
    """
    from scipy.optimize import Bounds, minimize

    opts = opts or OptimizerOptions()
    kernel = full.kernel
    n = kernel.n_ris
    if n == 0:
        raise ValueError("full matrix has no RIS ports to load")

    # Rows of s_ei and columns of s_ie are the (Tx, Rx) couplings to the RIS ports.
    tx_coupling = max(np.abs(kernel.s_ei[0]).max(), np.abs(kernel.s_ie[:, 0]).max())
    rx_coupling = max(np.abs(kernel.s_ei[1]).max(), np.abs(kernel.s_ie[:, 1]).max())
    if tx_coupling == 0.0 or rx_coupling == 0.0:
        raise UnoptimizableError("unoptimizable: no Tx or Rx coupling to the RIS ports")

    lo_pf, hi_pf = bounds.c_min_f * 1e12, bounds.c_max_f * 1e12

    def eval_pf(u: np.ndarray) -> float:
        return kernel.transfer(np.clip(u, lo_pf, hi_pf) * 1e-12, model)

    rng = np.random.default_rng(opts.seed)
    if opts.initial is not None:
        first = np.array([bounds.clip(c) * 1e12 for c in opts.initial.caps_f])
        if first.size != n:
            raise ValueError(f"initial vector has {first.size} entries for {n} ports")
    else:
        first = np.full(n, 0.5 * (lo_pf + hi_pf))
    start_points = [first] + [rng.uniform(lo_pf, hi_pf, n) for _ in range(opts.starts - 1)]

    def run_start(index: int, x0: np.ndarray) -> tuple[StartTrace, np.ndarray]:
        history: list[float] = []
        best = {"f": -math.inf, "x": x0.copy()}

        def recorded(u: np.ndarray) -> float:
            value = eval_pf(u)
            if value > best["f"]:
                best["f"] = value
                best["x"] = np.clip(np.asarray(u, dtype=float), lo_pf, hi_pf).copy()
            history.append(best["f"])
            return value

        minimize(
            lambda u: -recorded(u),
            x0,
            method="Nelder-Mead",
            bounds=Bounds(lo_pf, hi_pf),
            options={"maxfev": opts.max_evals, "fatol": _SIMPLEX_FATOL, "xatol": 1e-8},
        )

        if opts.polish:
            for _ in range(_POLISH_PASSES):
                for k in range(n):
                    x = best["x"].copy()

                    def line(value: float, k=k, x=x) -> float:
                        x[k] = value
                        return recorded(x)

                    _golden_max(line, lo_pf, hi_pf, _POLISH_TOL_PF)

        trace = StartTrace(index, tuple(x0), len(history), best["f"], tuple(history))
        return trace, best["x"]

    outcomes = [run_start(index, x0) for index, x0 in enumerate(start_points)]

    best_trace, best_x = outcomes[0]
    for trace, x in outcomes[1:]:
        if trace.best_objective > best_trace.best_objective:
            best_trace, best_x = trace, x

    caps = LoadVector.of(best_x * 1e-12)
    return OptimizeResult(caps, best_trace.best_objective, tuple(t for t, _ in outcomes))

