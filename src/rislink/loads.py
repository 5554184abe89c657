"""Varactor load modeling and bounded capacitance optimization.

Each RIS port is terminated by a series R-L-C load whose capacitance is the
tuning variable. ``cap_to_gamma`` maps a capacitance to its reflection
coefficient; ``optimize`` searches the box-bounded capacitance space for
maximum Tx -> Rx power transfer with a deterministic multi-start simplex
search plus optional coordinate-wise golden-section polish. The simplex
search is ``_nelder_mead``, a clipped Nelder-Mead (Nelder & Mead 1965) that
evaluates the same points as SciPy's bounded Nelder-Mead; the package needs
numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnoptimizableError
from .farfield import Scenario, _distance
from .network import ReflectionVector, ScatterMatrix

_SIMPLEX_XATOL = 1e-8
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
        path = _distance(scn, el, "tx") + _distance(scn, el, "rx")
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


class _BudgetSpent(Exception):
    """The evaluation budget of ``_nelder_mead`` ran out."""


def _nelder_mead(fun, x0, lo, hi, maxfev, xatol, fatol) -> tuple[np.ndarray, float]:
    """Minimize ``fun`` over the box [lo, hi] with the clipped Nelder-Mead simplex.

    The steps, coefficients (reflect 1, expand 2, contract 1/2, shrink 1/2),
    clipping, sorting and stop test are SciPy's bounded Nelder-Mead
    (``minimize(method="Nelder-Mead", bounds=..., options={"maxfev",
    "xatol", "fatol"})``), spelled the same way so that the evaluated points
    are bit-identical, which the test suite checks: the initial simplex
    scales one coordinate of x0 by 1.05 per vertex and reflects vertices
    above ``hi`` back inside; an iteration that reaches ``maxfev`` stops
    where it is and the simplex is re-sorted; the search stops once every
    vertex lies within ``xatol`` and every value within ``fatol`` of the
    best. Requires lo > 0. Every point passed to ``fun`` lies inside the
    box. Returns the best vertex and its value.
    """
    nfev = 0

    def f(x: np.ndarray) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return fun(x)

    x0 = np.clip(x0, lo, hi)
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        sim[k + 1] = x0
        sim[k + 1, k] = (1 + 0.05) * x0[k]
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # Sorted twice, as the reference does: argsort need not be stable on ties.
    for _ in range(2):
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]

    while nfev < maxfev:
        try:
            if np.max(np.abs(sim[1:] - sim[0])) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = np.clip(2 * xbar - sim[-1], lo, hi)
            fxr = f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = np.clip(3 * xbar - 2 * sim[-1], lo, hi)
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lo, hi)
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = np.clip(0.5 * xbar + 0.5 * sim[-1], lo, hi)
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lo, hi)
                    fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0], float(fsim[0])


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

    Multi-start clipped Nelder-Mead, ``_nelder_mead`` (the caller may supply
    a physics-informed first start via ``opts.initial``, remaining starts are
    seeded-random), then optional coordinate-wise golden-section polish. The
    starts run one after another; the best start wins, exact objective ties
    break to the lowest start index, so results are reproducible bit-for-bit
    for a fixed seed.

    Inputs are checked once here; every evaluation then runs the matrix's
    ``LinkKernel`` on a capacitance array that lies inside the bounds (the
    simplex clips every point, golden-section points stay inside), with no
    per-call validation (the bounds and the varactor model already guarantee
    positive, in-range capacitances and passive loads).

    Raises
    ------
    UnoptimizableError
        If the Tx or Rx side has no coupling to any RIS port, making the
        objective constant.
    """
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
        return kernel.transfer(u * 1e-12, model)

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
                best["x"] = u.copy()
            history.append(best["f"])
            return value

        _nelder_mead(lambda u: -recorded(u), x0, lo_pf, hi_pf, opts.max_evals, _SIMPLEX_XATOL, _SIMPLEX_FATOL)

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

