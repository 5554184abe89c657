"""Varactor load modeling and bounded capacitance optimization.

Each RIS port is terminated by a series R-L-C load whose capacitance is the
tuning variable. ``cap_to_gamma`` maps a capacitance to its reflection
coefficient; ``optimize`` searches the box-bounded capacitance space for
maximum Tx -> Rx power transfer by deterministic multi-start coordinate
ascent. With every other load held, the link is a Moebius function of one
load, so each coordinate step maximizes its capacitance exactly in closed
form (``_coordinate_max``). Each pass factorizes the loaded system once;
a step reads its Moebius coefficients from that factorization and a taken
step updates it by one outer product (``_terms``), so a step costs O(N^2),
not a solve. The package needs numpy only.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import UnoptimizableError
from .farfield import Scenario, element_paths
from .network import LinkKernel, ReflectionVector, ScatterMatrix, series_gamma

#: A start ends after a pass over every element that raises its best by no more than this, relatively.
_PASS_RTOL = 1e-12


class LoadBounds:
    """Feasible capacitance range of the tuning varactors, in farads."""

    def __init__(self, c_min_f: float, c_max_f: float):
        if not (0 < c_min_f < c_max_f):
            raise ValueError(f"bounds require 0 < c_min < c_max, got [{c_min_f}, {c_max_f}]")
        self.c_min_f, self.c_max_f = c_min_f, c_max_f

    def contains(self, c_f: float) -> bool:
        slack = 1e-9 * self.c_max_f
        return self.c_min_f - slack <= c_f <= self.c_max_f + slack

    def clip(self, c_f: float) -> float:
        return min(self.c_max_f, max(self.c_min_f, c_f))


class LoadVector:
    """Per-element load capacitances in farads, aligned with RIS port order."""

    def __init__(self, caps_f: tuple[float, ...]):
        caps = tuple(float(c) for c in caps_f)
        for i, c in enumerate(caps):
            if not (math.isfinite(c) and c > 0):
                raise ValueError(f"capacitance {i + 1} must be finite and positive, got {c}")
        self.caps_f = caps

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


class VaractorModel:
    """Series parasitics of the load; the default is an ideal capacitor."""

    def __init__(self, series_resistance_ohm: float = 0.0, series_inductance_h: float = 0.0):
        if series_resistance_ohm < 0 or series_inductance_h < 0:
            raise ValueError("varactor parasitics must be non-negative")
        self.series_resistance_ohm, self.series_inductance_h = series_resistance_ohm, series_inductance_h


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
    return series_gamma(c_f, freq_hz, z0_ohm, model)


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
    for path in (element_paths(scn, "tx")[0][0] + element_paths(scn, "rx")[0][0]).tolist():
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


class OptimizerOptions:
    """Search configuration; identical options and seed give identical results."""

    def __init__(self, starts: int = 8, max_evals: int = 2000, seed: int = 0, initial: LoadVector | None = None):
        if starts < 1:
            raise ValueError("starts must be >= 1")
        if max_evals < 10:
            raise ValueError("max_evals must be >= 10")
        if seed < 0:
            raise ValueError("seed must be >= 0")
        self.starts, self.max_evals, self.seed, self.initial = starts, max_evals, seed, initial

    def replace(self, **changes) -> "OptimizerOptions":
        """These options with ``changes`` applied, checked as the constructor checks."""
        return OptimizerOptions(**{**vars(self), **changes})


class StartTrace(NamedTuple):
    """Record of one start; ``n_solves`` counts the first point, one factorization per pass and the final transfer."""

    start_index: int
    initial_pf: tuple[float, ...]
    n_evals: int
    best_objective: float
    best_history: tuple[float, ...]
    n_passes: int
    n_solves: int


class OptimizeResult(NamedTuple):
    caps: LoadVector
    objective: float
    trace: tuple[StartTrace, ...]


def _real_roots(a: float, b: float, c: float) -> tuple[float, ...]:
    """Real roots of a*x**2 + b*x + c, without cancellation between -b and the square root."""
    if a == 0.0:
        return (-c / b,) if b != 0.0 else ()
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return (q / a, c / q) if q != 0.0 else (0.0,)


def _coordinate_max(
    terms: tuple[complex, complex, complex], kernel: LinkKernel, bounds: LoadBounds, model: VaractorModel
) -> tuple[float, float]:
    """Capacitance of one element, in farads, that maximizes the transfer with every other load held, and that transfer.

    ``terms`` are (A, B, C) with S_RxTx = A + B*g/(1 - C*g) for the element's
    load g (``_terms``), and with z = R_s + jX the load's
    g = (z - z0)/(z + z0), so S = (p0 + p1*X)/(q0 + q1*X) and
    |S|^2 = N(X)/D(X) is a ratio of real quadratics in the reactance X. Its
    maximum over [X(c_min), X(c_max)] lies at an endpoint or at a real root of
    the derivative's numerator, a quadratic; X increases with C, so
    C = 1/(w*(w*L_s - X)).
    """
    a, b, c = terms
    w = 2.0 * math.pi * kernel.freq_hz
    wl, rs, z0 = w * model.series_inductance_h, model.series_resistance_ohm, kernel.z0_ohm
    p0, p1 = a * (rs + z0) + (b - a * c) * (rs - z0), 1j * (a + b - a * c)
    q0, q1 = (rs + z0) - c * (rs - z0), 1j * (1.0 - c)
    n0, n1, n2 = abs(p0) ** 2, 2.0 * (p0 * p1.conjugate()).real, abs(p1) ** 2
    d0, d1, d2 = abs(q0) ** 2, 2.0 * (q0 * q1.conjugate()).real, abs(q1) ** 2

    def reactance(c_f: float) -> float:
        return wl - 1.0 / (w * c_f)

    def power(c_f: float) -> float:
        x = reactance(c_f)
        return (n0 + x * (n1 + x * n2)) / (d0 + x * (d1 + x * d2))

    x_lo, x_hi = reactance(bounds.c_min_f), reactance(bounds.c_max_f)
    roots = _real_roots(n2 * d1 - n1 * d2, 2.0 * (n2 * d0 - n0 * d2), n1 * d0 - n0 * d1)
    inside = [bounds.clip(1.0 / (w * (wl - x))) for x in roots if x_lo < x < x_hi]
    best = max((bounds.c_min_f, bounds.c_max_f, *inside), key=power)
    return best, power(best)


def _terms(
    kernel: LinkKernel, q: np.ndarray, gam: np.ndarray, rg: np.ndarray, k: int
) -> tuple[complex, complex, complex]:
    """(A, B, C) with S_RxTx = A + B*g/(1 - C*g) when load k is g and every other load is ``gam``.

    From q = [P | w] = (I - S_ii*Gamma)^-1 [S_ii | t] (Tx column t) and rg = r*Gamma (Rx row r), Sherman-Morrison
    on matching load k gives v = P[:, k]/(1 + gamma_k*P_kk) and u = w - v*gamma_k*w_k, so A = S_ee[1, 0] + rg'*u,
    B = (r_k + rg'*v)*u_k and C = v_k, where rg' is rg with entry k zeroed: O(N), no solve.
    """
    if kernel.checks_conditioning:
        kernel.system(np.where(np.arange(gam.size) == k, 0.0, gam))
    v = q[:, k] / (1.0 + gam[k] * q[k, k])
    u = q[:, -1] - v * (gam[k] * q[k, -1])
    held = rg.copy()
    held[k] = 0.0
    return kernel.s_ee[1, 0] + held @ u, (kernel.s_ei[1, k] + held @ v) * u[k], v[k]


def optimize(
    full: ScatterMatrix,
    bounds: LoadBounds,
    model: VaractorModel = IDEAL_VARACTOR,
    opts: OptimizerOptions | None = None,
) -> OptimizeResult:
    """Search the bounded capacitance space for maximum power transfer.

    Multi-start exact coordinate ascent: the caller may supply a
    physics-informed first start via ``opts.initial``, the remaining starts
    are seeded-random. Each step sets one element's capacitance to the exact
    maximum of the transfer over that coordinate (``_coordinate_max``) and
    keeps it unless that maximum, in closed form, falls below the best so
    far. Passes run over the elements in port order until a pass raises the
    best by no more than ``_PASS_RTOL`` relatively, or the start has
    recorded ``opts.max_evals`` evaluations (its first point and one per
    step). A pass solves (I - S_ii*Gamma) once against [S_ii | t]; its steps
    read (A, B, C) from those columns (``_terms``) and a taken step updates
    them by one outer product. A start's objective is one exact
    ``LinkKernel.transfer`` of its final loads. The best start wins, exact
    objective ties break to the lowest start index, so results are
    reproducible bit-for-bit for a fixed seed.

    Inputs are checked once here; the kernel then runs on capacitances
    inside the bounds, with no per-call validation. For a non-passive S_ii
    every solve, and every step's held and stepped loads, keep the kernel's
    conditioning check.

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
    rng = np.random.default_rng(opts.seed)
    if opts.initial is not None:
        first = np.array([bounds.clip(c) * 1e12 for c in opts.initial.caps_f])
        if first.size != n:
            raise ValueError(f"initial vector has {first.size} entries for {n} ports")
    else:
        first = np.full(n, 0.5 * (lo_pf + hi_pf))
    start_points = [first] + [rng.uniform(lo_pf, hi_pf, n) for _ in range(opts.starts - 1)]

    def run_start(index: int, x0_pf: np.ndarray) -> tuple[StartTrace, np.ndarray]:
        # The clip undoes an ulp that the pF -> F conversion can put outside the bounds.
        caps = np.clip(x0_pf * 1e-12, bounds.c_min_f, bounds.c_max_f)
        gam = kernel.gammas(caps, model)
        best = kernel.transfer(caps, model)
        history = [best]
        passes = 0
        while len(history) < opts.max_evals:
            before = best
            passes += 1
            q, rg = kernel.columns(gam), kernel.s_ei[1] * gam
            for k in range(n):
                if len(history) == opts.max_evals:
                    break
                c_k, value = _coordinate_max(_terms(kernel, q, gam, rg, k), kernel, bounds, model)
                g = series_gamma(c_k, kernel.freq_hz, kernel.z0_ohm, model)
                if kernel.checks_conditioning:
                    kernel.system(np.where(np.arange(n) == k, g, gam))
                if value >= best:
                    # Gamma_k += delta changes I - S_ii*Gamma by -delta*S_ii[:, k]*e_k^T: one outer product updates q.
                    delta = g - gam[k]
                    q += np.outer(q[:, k] * (delta / (1.0 - delta * q[k, k])), q[k])
                    best, caps[k], gam[k], rg[k] = value, c_k, g, kernel.s_ei[1, k] * g
                history.append(best)
            if best - before <= _PASS_RTOL * before:
                break
        best = kernel.transfer(caps, model)
        return StartTrace(index, tuple(x0_pf), len(history), best, tuple(history), passes, passes + 2), caps

    outcomes = [run_start(index, x0) for index, x0 in enumerate(start_points)]

    best_trace, best_caps = outcomes[0]
    for trace, caps in outcomes[1:]:
        if trace.best_objective > best_trace.best_objective:
            best_trace, best_caps = trace, caps

    return OptimizeResult(LoadVector.of(best_caps), best_trace.best_objective, tuple(t for t, _ in outcomes))
