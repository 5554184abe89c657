"""Varactor load modeling and bounded capacitance optimization.

Each RIS port is terminated by a series R-L-C load whose capacitance is the
tuning variable. ``VaractorModel`` holds the one copy of that load law: the
reactance X(C) and its inverse C(X), the reflection coefficient Gamma(C) and
dGamma/dC; the link kernel (``network.LinkKernel``) takes reflection
coefficients only. ``optimize`` searches the box-bounded capacitance space for
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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError, UnoptimizableError, check
from .network import LinkKernel, ReflectionVector, ScatterMatrix

#: A start ends after a pass over every element that raises its best by no more than this, relatively.
_PASS_RTOL = 1e-12


class LoadBounds:
    """Feasible capacitance range of the tuning varactors, in farads."""

    def __init__(self, c_min_f: float, c_max_f: float):
        check("c_min_f", c_min_f, "positive and finite")
        check("c_max_f", c_max_f, "positive and finite")
        if not c_min_f < c_max_f:
            raise ValueError(f"c_max_f must be greater than c_min_f = {c_min_f}, got {c_max_f}")
        self.c_min_f, self.c_max_f = c_min_f, c_max_f

    def contains(self, c_f: float) -> bool:
        slack = 1e-9 * self.c_max_f
        return self.c_min_f - slack <= c_f <= self.c_max_f + slack

    def clip(self, c_f: float) -> float:
        return min(self.c_max_f, max(self.c_min_f, c_f))


class LoadVector:
    """Per-element load capacitances in farads, aligned with RIS port order."""

    def __init__(self, caps_f: tuple[float, ...]):
        self.caps_f = tuple(check("caps_f", float(c), "positive and finite") for c in caps_f)

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
    """Series R-L-C load, Z_L = R_s + jX with X(C) = w*L_s - 1/(w*C) at w = 2*pi*f; the default is an ideal capacitor.

    The methods check nothing; ``cap_to_gamma`` and ``load_gammas`` are the checked entries.
    """

    def __init__(self, series_resistance_ohm: float = 0.0, series_inductance_h: float = 0.0):
        self.series_resistance_ohm = check("series_resistance_ohm", series_resistance_ohm, "finite and >= 0")
        self.series_inductance_h = check("series_inductance_h", series_inductance_h, "finite and >= 0")

    def reactance(self, c_f: float | np.ndarray, w: float) -> float | np.ndarray:
        """X(C) in ohm, for a capacitance or an array of them."""
        return w * self.series_inductance_h - 1.0 / (w * c_f)

    def capacitance(self, x_ohm: float, w: float) -> float:
        """C(X) in farads, the inverse of ``reactance``; X increases with C."""
        return 1.0 / (w * (w * self.series_inductance_h - x_ohm))

    def gamma(self, c_f: float, freq_hz: float, z0_ohm: float) -> complex:
        """gamma = (Z_L - Z0)/(Z_L + Z0); the ideal model gives |gamma| = 1."""
        z_load = complex(self.series_resistance_ohm, self.reactance(c_f, 2.0 * math.pi * freq_hz))
        return (z_load - z0_ohm) / (z_load + z0_ohm)

    def gammas(self, caps_f: np.ndarray, freq_hz: float, z0_ohm: float) -> np.ndarray:
        """``gamma`` of every capacitance, by Python's complex division: numpy's rounds differently."""
        return np.array([self.gamma(c, freq_hz, z0_ohm) for c in caps_f.tolist()], dtype=complex)

    def dgamma_dc(self, caps_f: np.ndarray, freq_hz: float, z0_ohm: float) -> np.ndarray:
        """dgamma/dC in 1/farad of every capacitance: 2*Z0/(Z_L + Z0)^2 * j/(w*C^2)."""
        w = 2.0 * math.pi * freq_hz
        z_load = self.series_resistance_ohm + 1j * self.reactance(caps_f, w)
        return 2.0 * z0_ohm / (z_load + z0_ohm) ** 2 * (1j / (w * caps_f**2))


IDEAL_VARACTOR = VaractorModel()


def cap_to_gamma(
    c_f: float,
    freq_hz: float,
    z0_ohm: float = 50.0,
    model: VaractorModel = IDEAL_VARACTOR,
) -> complex:
    """Reflection coefficient ``model.gamma`` of one capacitance, with its inputs checked as ``load_gammas`` does."""
    return load_gammas(LoadVector((c_f,)), freq_hz, z0_ohm, model).gammas[0]


def load_gammas(
    caps: LoadVector,
    freq_hz: float,
    z0_ohm: float = 50.0,
    model: VaractorModel = IDEAL_VARACTOR,
) -> ReflectionVector:
    """Reflection coefficients of the loads; ``LoadVector`` already holds finite, positive capacitances.

    An :class:`InputError` if a load's reactance at ``freq_hz`` overflows a float.
    """
    check("freq_hz", freq_hz, "positive and finite")
    check("z0_ohm", z0_ohm, "positive and finite")
    try:  # valid loads are passive, so only an overflow leaves a gamma that ReflectionVector refuses
        return ReflectionVector.of(model.gamma(c, freq_hz, z0_ohm) for c in caps.caps_f)
    except (ZeroDivisionError, ValueError):
        raise InputError(f"a load's reactance at {freq_hz} Hz overflows a float") from None


def _check_caps(caps_f: Sequence[float], bounds: LoadBounds, element_numbers: Sequence[int]) -> None:
    """Refuse capacitances, one per element of ``element_numbers``, that are not within ``bounds``."""
    if len(caps_f) != len(element_numbers):
        raise ValueError(f"{len(caps_f)} capacitances for {len(element_numbers)} RIS ports")
    for m, c in zip(element_numbers, caps_f):
        if not bounds.contains(c):
            raise ValueError(
                f"element {m} capacitance {c * 1e12:.6g} pF outside bounds "
                f"[{bounds.c_min_f * 1e12:.6g}, {bounds.c_max_f * 1e12:.6g}] pF"
            )


def objective(
    full: ScatterMatrix,
    caps: LoadVector,
    bounds: LoadBounds,
    model: VaractorModel = IDEAL_VARACTOR,
) -> float:
    """Tx -> Rx power transfer of the link under the given loads, in [0, 1]."""
    _check_caps(caps.caps_f, bounds, full.element_numbers)
    return full.kernel.transfer(model.gammas(caps.as_array, full.freq_hz, full.z0_ohm))


def objective_gradient(
    full: ScatterMatrix,
    caps: LoadVector,
    bounds: LoadBounds,
    model: VaractorModel = IDEAL_VARACTOR,
) -> np.ndarray:
    """Analytic gradient d(objective)/dC in 1/farad: 2*Re(conj(S_RxTx) * dS_RxTx/dgamma * dgamma/dC)."""
    _check_caps(caps.caps_f, bounds, full.element_numbers)
    caps_f = caps.as_array
    s21, ds_dgamma = full.kernel.gradient(model.gammas(caps_f, full.freq_hz, full.z0_ohm))
    return 2.0 * np.real(np.conj(s21) * ds_dgamma * model.dgamma_dc(caps_f, full.freq_hz, full.z0_ohm))


def phase_gradient_seed(
    full: ScatterMatrix,
    bounds: LoadBounds,
    model: VaractorModel = IDEAL_VARACTOR,
) -> LoadVector:
    """Physics-informed start vector for the optimizer, read from the assembled link ``full``.

    Picks each capacitance so the element's reflection phase cancels its path
    phase -arg(t_k*r_k) (the kernel's Tx column ``t`` and Rx row ``r``), or the
    nearest phase achievable inside the bounds; a pattern null (t_k or r_k
    zero) targets 0.
    The phase -> capacitance inversion assumes an ideal load at ``full.z0_ohm``;
    with parasitics it is still only a starting point.
    """
    f, z0 = full.freq_hz, full.z0_ohm
    w = 2.0 * math.pi * f
    # arg(gamma) of an ideal load decreases with C, so c_max gives the lowest phase.
    phase_lo, phase_hi = (float(np.angle(cap_to_gamma(c, f, z0))) for c in (bounds.c_max_f, bounds.c_min_f))

    caps = []
    for target in (-np.angle(full.kernel.t * full.kernel.r)).tolist():
        if phase_lo <= target <= phase_hi:
            c = model.capacitance(z0 / math.tan(target / 2.0), w)
        elif abs(math.remainder(target - phase_lo, math.tau)) <= abs(math.remainder(target - phase_hi, math.tau)):
            c = bounds.c_max_f
        else:
            c = bounds.c_min_f
        caps.append(bounds.clip(c))
    return LoadVector.of(caps)


class OptimizerOptions:
    """Search configuration; identical options and seed give identical results."""

    def __init__(self, starts: int = 8, max_evals: int = 2000, seed: int = 0, initial: LoadVector | None = None):
        check("starts", starts, "an integer >= 1")
        check("max_evals", max_evals, "an integer >= 10")
        check("seed", seed, "an integer >= 0")
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
    terms: tuple[complex, complex, complex], bounds: LoadBounds, model: VaractorModel,
    w: float, rs: float, z0: float, x_lo: float, x_hi: float,
) -> tuple[float, float]:
    """Capacitance of one element, in farads, that maximizes the transfer with every other load held, and that transfer.

    ``terms`` are (A, B, C) with S_RxTx = A + B*g/(1 - C*g) for the element's
    load g (``_terms``), and with z = R_s + jX the load's
    g = (z - z0)/(z + z0), so S = (p0 + p1*X)/(q0 + q1*X) and
    |S|^2 = N(X)/D(X) is a ratio of real quadratics in the reactance X. Its
    maximum over [X(c_min), X(c_max)] = [``x_lo``, ``x_hi``] lies at an endpoint
    or at a real root of the derivative's numerator, a quadratic, mapped back
    by ``model.capacitance``. ``w`` is the angular frequency, ``rs`` the
    varactor's series resistance and ``z0`` the reference impedance; ``optimize``
    passes them and the reactances, computed once, to every step.
    """
    a, b, c = terms
    p0, p1 = a * (rs + z0) + (b - a * c) * (rs - z0), 1j * (a + b - a * c)
    q0, q1 = (rs + z0) - c * (rs - z0), 1j * (1.0 - c)
    n0, n1, n2 = abs(p0) ** 2, 2.0 * (p0 * p1.conjugate()).real, abs(p1) ** 2
    d0, d1, d2 = abs(q0) ** 2, 2.0 * (q0 * q1.conjugate()).real, abs(q1) ** 2

    def power(c_f: float) -> float:
        x = model.reactance(c_f, w)
        return (n0 + x * (n1 + x * n2)) / (d0 + x * (d1 + x * d2))

    roots = _real_roots(n2 * d1 - n1 * d2, 2.0 * (n2 * d0 - n0 * d2), n1 * d0 - n0 * d1)
    inside = [bounds.clip(model.capacitance(x, w)) for x in roots if x_lo < x < x_hi]
    best = max((bounds.c_min_f, bounds.c_max_f, *inside), key=power)
    return best, power(best)


def _terms(
    kernel: LinkKernel, q: np.ndarray, gam: np.ndarray, rg: np.ndarray, k: int
) -> tuple[complex, complex, complex]:
    """(A, B, C) with S_RxTx = A + B*g/(1 - C*g) when load k is g and every other load is ``gam``.

    From q = [P | w] = (I - S_ii*Gamma)^-1 [S_ii | t] and rg = r*Gamma (the kernel's ``t`` and ``r``), Sherman-Morrison
    on matching load k gives v = P[:, k]/(1 + gamma_k*P_kk) and u = w - v*gamma_k*w_k, so A = direct + rg'*u,
    B = (r_k + rg'*v)*u_k and C = v_k, where rg' is rg with entry k zeroed: O(N), no solve.
    """
    if kernel.checks_conditioning:
        kernel.system(np.where(np.arange(gam.size) == k, 0.0, gam))
    v = q[:, k] / (1.0 + gam[k] * q[k, k])
    u = q[:, -1] - v * (gam[k] * q[k, -1])
    held = rg.copy()
    held[k] = 0.0
    return complex(kernel.direct + held @ u), complex((kernel.r[k] + held @ v) * u[k]), complex(v[k])


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
        If the link's Tx column t or its Rx row r is zero: S_RxTx depends on
        the loads only through t and r, so the objective is constant.
    InputError
        If ``c_max_f`` in pF, or eight times the square of the reactance at ``c_min_f``, overflows a float.
    """
    opts = opts or OptimizerOptions()
    kernel, f, z0 = full.kernel, full.freq_hz, full.z0_ohm
    n = kernel.n_ris
    if n == 0:
        raise ValueError("full matrix has no RIS ports to load")

    if not (kernel.t.any() and kernel.r.any()):
        raise UnoptimizableError("unoptimizable: no Tx or Rx coupling to the RIS ports")

    lo_pf, hi_pf = bounds.c_min_f * 1e12, bounds.c_max_f * 1e12
    if hi_pf == math.inf:
        raise InputError(f"c_max_f = {bounds.c_max_f} F overflows a float in pF")
    w = 2.0 * math.pi * f
    x_min = model.reactance(bounds.c_min_f, w) if w * bounds.c_min_f > 0.0 else -math.inf
    # _coordinate_max's quadratics in X scale X^2 by |p1|^2 and |q1|^2, each at most 4 on a passive link
    # (|1 - C| <= 2, and |S| <= 1 at the open load, g = 1). With 8 X^2 finite, neither overflows at c_min_f.
    if not math.isfinite(8.0 * x_min * x_min):
        raise InputError(
            f"c_min_f = {bounds.c_min_f} F: the square of its reactance at {f} Hz overflows a float "
            f"once scaled by the link's coefficients"
        )
    # What every step of _coordinate_max needs: w, R_s, z0 and the reactances at the bounds.
    step = (w, model.series_resistance_ohm, z0, model.reactance(bounds.c_min_f, w), model.reactance(bounds.c_max_f, w))
    if opts.initial is not None:
        first = np.array([bounds.clip(c) * 1e12 for c in opts.initial.caps_f])
        if first.size != n:
            raise ValueError(f"initial vector has {first.size} entries for {n} ports")
    else:
        first = np.full(n, 0.5 * (lo_pf + hi_pf))
    start_points = [first]
    if opts.starts > 1:  # importing numpy.random costs about 12 ms, which one start need not pay
        rng = np.random.default_rng(opts.seed)
        start_points += [rng.uniform(lo_pf, hi_pf, n) for _ in range(opts.starts - 1)]

    traces: list[StartTrace] = []
    for index, x0_pf in enumerate(start_points):
        # The clip undoes an ulp that the pF -> F conversion can put outside the bounds.
        caps = np.clip(x0_pf * 1e-12, bounds.c_min_f, bounds.c_max_f)
        gam = model.gammas(caps, f, z0)  # gam[k] follows caps[k] bit for bit: both change only together
        best = kernel.transfer(gam)
        history = [best]
        passes = 0
        while len(history) < opts.max_evals:
            before = best
            passes += 1
            q, rg = kernel.columns(gam), kernel.r * gam
            for k in range(n):
                if len(history) == opts.max_evals:
                    break
                c_k, value = _coordinate_max(_terms(kernel, q, gam, rg, k), bounds, model, *step)
                g = model.gamma(c_k, f, z0)
                if kernel.checks_conditioning:
                    kernel.system(np.where(np.arange(n) == k, g, gam))
                if value >= best:
                    # Gamma_k += delta changes I - S_ii*Gamma by -delta*S_ii[:, k]*e_k^T: one outer product updates q.
                    delta = g - gam[k]
                    q += np.outer(q[:, k] * (delta / (1.0 - delta * q[k, k])), q[k])
                    best, caps[k], gam[k], rg[k] = value, c_k, g, kernel.r[k] * g
                history.append(best)
            if best - before <= _PASS_RTOL * before:
                break
        trace = StartTrace(index, tuple(x0_pf), len(history), kernel.transfer(gam), tuple(history), passes, passes + 2)
        traces.append(trace)
        if index == 0 or trace.best_objective > best_trace.best_objective:  # an exact tie keeps the earlier start
            best_trace, best_caps = trace, caps

    return OptimizeResult(LoadVector.of(best_caps), best_trace.best_objective, tuple(traces))
