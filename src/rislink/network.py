"""Complex scatter-matrix data model and loaded-port network algebra.

Every matrix has one fixed port layout: the N RIS element ports in the
middle, numbered by their 1-based element numbers, with the Tx port before
them and the Rx port after them. A matrix with N ports is RIS-only; one
with N + 2 ports is a link, Tx at port 0 and Rx at the last port. All
operations are pure functions on effectively immutable values (entry arrays
are locked after construction), so instances can be shared freely across
threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import IllConditionedLoadError

if TYPE_CHECKING:
    from .loads import VaractorModel

#: Reciprocal condition numbers of (I - S_ii*Gamma) below this are rejected;
#: physical loaded passive networks never reach exact singularity, so a
#: near-singular system flags bad data rather than physics.
RCOND_LIMIT = 1e-12

#: Rounding slack on |gamma| <= 1 accepted for passive loads.
GAMMA_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class ScatterMatrix:
    """Square complex scatter matrix at one frequency, in the Tx | RIS | Rx layout.

    Parameters
    ----------
    entries : array_like
        P x P complex wave ratios.
    freq_hz : float
        Frequency the matrix is valid at, in Hz.
    element_numbers : tuple of int
        Unique 1-based numbers of the RIS element ports, in port order. Their
        count N is P (RIS-only) or P - 2 (link, Tx first and Rx last).
    z0_ohm : float
        Real reference impedance, identical for every port.
    """

    entries: np.ndarray
    freq_hz: float
    element_numbers: tuple[int, ...]
    z0_ohm: float = 50.0

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be square, got shape {entries.shape}")
        numbers = tuple(operator.index(m) for m in self.element_numbers)
        if entries.shape[0] - len(numbers) not in (0, 2):
            raise ValueError(f"{len(numbers)} element numbers for a {entries.shape[0]}-port matrix")
        if len(set(numbers)) != len(numbers) or min(numbers, default=1) < 1:
            raise ValueError(f"element numbers must be unique and >= 1, got {numbers}")
        if not self.freq_hz > 0:
            raise ValueError(f"freq_hz must be positive, got {self.freq_hz}")
        if not self.z0_ohm > 0:
            raise ValueError(f"z0_ohm must be positive, got {self.z0_ohm}")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "element_numbers", numbers)

    # -- constructors ------------------------------------------------------

    @classmethod
    def ris_only(
        cls,
        entries,
        freq_hz: float,
        element_numbers: Iterable[int] | None = None,
        z0_ohm: float = 50.0,
    ) -> "ScatterMatrix":
        """N-port matrix whose ports are all RIS elements (default numbering 1..N)."""
        numbers = range(1, len(entries) + 1) if element_numbers is None else element_numbers
        matrix = cls(entries, freq_hz, tuple(numbers), z0_ohm)
        if not matrix.is_ris_only:
            raise ValueError(f"{matrix.n_ports - 2} element numbers for a {matrix.n_ports}-port RIS-only matrix")
        return matrix

    @classmethod
    def full_link(
        cls,
        entries,
        freq_hz: float,
        element_numbers: Iterable[int],
        z0_ohm: float = 50.0,
    ) -> "ScatterMatrix":
        """(N+2)-port matrix ordered Tx, RIS elements, Rx."""
        matrix = cls(entries, freq_hz, tuple(element_numbers), z0_ohm)
        if matrix.is_ris_only:
            raise ValueError(f"a link needs a Tx and an Rx port beside its {matrix.n_ports} element ports")
        return matrix

    # -- port layout -------------------------------------------------------

    @property
    def n_ports(self) -> int:
        return self.entries.shape[0]

    @property
    def is_ris_only(self) -> bool:
        return len(self.element_numbers) == self.n_ports

    @property
    def tx_index(self) -> int:
        if self.is_ris_only:
            raise ValueError("RIS-only matrix has no Tx port")
        return 0

    @property
    def rx_index(self) -> int:
        if self.is_ris_only:
            raise ValueError("RIS-only matrix has no Rx port")
        return self.n_ports - 1

    @property
    def ris_indices(self) -> tuple[int, ...]:
        first = 0 if self.is_ris_only else 1
        return tuple(range(first, first + len(self.element_numbers)))

    @cached_property
    def kernel(self) -> "LinkKernel":
        """Loaded-link kernel of this Tx/RIS/Rx matrix, built on first use."""
        return LinkKernel(self)


class LinkKernel:
    """Loaded-link transfer of one Tx/RIS/Rx matrix, on plain arrays.

    The matrix is split once into its external (Tx, Rx) and RIS blocks, so an
    evaluation is the linear solve plus a few array operations: no index
    lookups, no fancy indexing and no validation. Callers check their inputs
    at their own boundary; get the kernel through ``ScatterMatrix.kernel``,
    which builds it once per matrix.

    Conditioning: with s = sigma_max(S_ii) < 1 and every |gamma| <= 1,
    cond2(I - S_ii*Gamma) <= (1 + s)/(1 - s) (||I - S_ii*Gamma|| <= 1 + s, and
    the Neumann series gives ||(I - S_ii*Gamma)^-1|| <= 1/(1 - s)). When that
    bound (with s scaled by 1 + GAMMA_SLACK) is below half of 1/RCOND_LIMIT
    (the half absorbs rounding in the computed s), no passive load can trip
    the conditioning check and evaluations skip it; otherwise every
    evaluation computes cond2 as ``reduce_loaded`` always did.
    """

    def __init__(self, full: ScatterMatrix):
        ext = [full.tx_index, full.rx_index]
        ris = list(full.ris_indices)
        s = full.entries
        self.freq_hz = full.freq_hz
        self.z0_ohm = full.z0_ohm
        self.n_ris = len(ris)
        self.s_ee = s[np.ix_(ext, ext)]
        self.s_ei = s[np.ix_(ext, ris)]
        self.s_ie = s[np.ix_(ris, ext)]
        self.s_ii = s[np.ix_(ris, ris)]
        self._eye = np.eye(self.n_ris, dtype=complex)
        self.cond_bound = _passive_cond_bound(self.s_ii)
        self.checks_conditioning = self.cond_bound >= 0.5 / RCOND_LIMIT

    def gammas(self, caps_f: np.ndarray, model: VaractorModel) -> np.ndarray:
        """``series_gamma`` of every capacitance."""
        return np.array([series_gamma(c, self.freq_hz, self.z0_ohm, model) for c in caps_f.tolist()], dtype=complex)

    def system(self, gam: np.ndarray) -> np.ndarray:
        """I - S_ii*Gamma, rejected if ill-conditioned (see the class docstring)."""
        # gam[np.newaxis, :], not gam: numpy picks its complex-multiply loop
        # by operand shape, and only this spelling matches the reference bits.
        system = self._eye - self.s_ii * gam[np.newaxis, :]
        if self.checks_conditioning:
            cond = np.linalg.cond(system)
            if not np.isfinite(cond) or 1.0 / cond < RCOND_LIMIT:
                raise IllConditionedLoadError(float(cond))
        return system

    def reduce(self, gam: np.ndarray) -> np.ndarray:
        """2x2 (Tx, Rx) matrix with the RIS ports terminated by ``gam``."""
        if not self.n_ris:
            return self.s_ee.copy()
        return self.s_ee + self.s_ei @ (gam[:, np.newaxis] * np.linalg.solve(self.system(gam), self.s_ie))

    def tx_wave(self, gam: np.ndarray) -> np.ndarray:
        """Gamma*(I - S_ii*Gamma)^-1*t for the Tx column t; S_RxTx = S_ee[1, 0] + r @ this for Rx row r."""
        return gam * np.linalg.solve(self.system(gam), self.s_ie[:, 0])

    def columns(self, gam: np.ndarray) -> np.ndarray:
        """(I - S_ii*Gamma)^-1 [S_ii | t] for the Tx column t: one factorization, N + 1 right-hand sides."""
        return np.linalg.solve(self.system(gam), np.column_stack((self.s_ii, self.s_ie[:, 0])))

    def transfer(self, caps_f: np.ndarray, model: VaractorModel) -> float:
        """|S_RxTx|^2 under the given load capacitances (farads)."""
        return float(abs(self.reduce(self.gammas(caps_f, model))[1, 0]) ** 2)

    def gradient(self, caps_f: np.ndarray, model: VaractorModel) -> np.ndarray:
        """d(transfer)/dC in 1/farad, from one forward and one adjoint solve."""
        gam = self.gammas(caps_f, model)
        row, col = self.s_ei[1], self.s_ie[:, 0]
        system = self.system(gam)
        p = np.linalg.solve(system, col)
        s21 = self.s_ee[1, 0] + row @ (gam * p)
        y = np.linalg.solve(system.T, row * gam)
        ds_dgamma = (row + self.s_ii.T @ y) * p

        w = 2.0 * math.pi * self.freq_hz
        z_load = model.series_resistance_ohm + 1j * (w * model.series_inductance_h - 1.0 / (w * caps_f))
        dgamma_dc = 2.0 * self.z0_ohm / (z_load + self.z0_ohm) ** 2 * (1j / (w * caps_f**2))
        return 2.0 * np.real(np.conj(s21) * ds_dgamma * dgamma_dc)


def series_gamma(c_f: float, freq_hz: float, z0_ohm: float, model: VaractorModel) -> complex:
    """gamma = (Z_L - Z0)/(Z_L + Z0) of a series R-L-C load, Z_L = R_s + j*(w*L_s - 1/(w*C)); no input checks."""
    w = 2.0 * math.pi * freq_hz
    z_load = complex(model.series_resistance_ohm, w * model.series_inductance_h - 1.0 / (w * c_f))
    return (z_load - z0_ohm) / (z_load + z0_ohm)


def _passive_cond_bound(s_ii: np.ndarray) -> float:
    """Upper bound on cond2(I - S_ii*Gamma) over all |gamma| <= 1 + GAMMA_SLACK; inf if none."""
    if not s_ii.size:
        return 1.0
    if not np.isfinite(s_ii).all():
        return math.inf
    s = float(np.linalg.norm(s_ii, 2)) * (1.0 + GAMMA_SLACK)
    return (1.0 + s) / (1.0 - s) if s < 1.0 else math.inf


@dataclass(frozen=True)
class ReflectionVector:
    """Reflection coefficients terminating the RIS ports, in port order.

    Passive loads satisfy ``|gamma| <= 1``; purely reactive ideal loads sit
    exactly on the unit circle.
    """

    gammas: tuple[complex, ...]

    def __post_init__(self):
        gammas = tuple(complex(g) for g in self.gammas)
        for i, g in enumerate(gammas):
            if not abs(g) <= 1.0 + GAMMA_SLACK:
                raise ValueError(f"|gamma_{i + 1}| = {abs(g):.6f} exceeds 1 (active load)")
        object.__setattr__(self, "gammas", gammas)

    @classmethod
    def of(cls, values: Iterable[complex]) -> "ReflectionVector":
        return cls(tuple(complex(v) for v in values))

    def __len__(self) -> int:
        return len(self.gammas)

    @property
    def as_array(self) -> np.ndarray:
        return np.array(self.gammas, dtype=complex)


def reduce_loaded(full: ScatterMatrix, loads: ReflectionVector) -> ScatterMatrix:
    """Terminate the RIS ports with reflective loads and reduce to Tx/Rx.

    Computes ``S_red = S_ee + S_ei * Gamma * (I - S_ii * Gamma)^-1 * S_ie``
    where ``e`` are the external (Tx, Rx) ports, ``i`` the RIS ports and
    ``Gamma = diag(loads)``.

    Parameters
    ----------
    full : ScatterMatrix
        Matrix with one Tx port, one Rx port and N RIS ports.
    loads : ReflectionVector
        N reflection coefficients aligned with the RIS port order.

    Returns
    -------
    ScatterMatrix
        2x2 matrix with (Tx, Rx) port order.

    Raises
    ------
    IllConditionedLoadError
        If ``I - S_ii*Gamma`` is singular beyond the conditioning threshold.
    """
    kernel = full.kernel
    if len(loads) != kernel.n_ris:
        raise ValueError(f"{len(loads)} loads for {kernel.n_ris} RIS ports")
    return ScatterMatrix.full_link(kernel.reduce(loads.as_array), full.freq_hz, (), full.z0_ohm)


def power_transfer(reduced: ScatterMatrix) -> float:
    """Transducer power gain |S_RxTx|^2 of a reduced Tx/Rx two-port.

    With matched terminations this lies in [0, 1] for any passive network.
    """
    if reduced.n_ports != 2 or reduced.element_numbers:
        raise ValueError("power_transfer expects a 2x2 matrix of Tx and Rx ports")
    return float(abs(reduced.entries[1, 0]) ** 2)


def check_passivity(s: ScatterMatrix, tol: float = 1e-6) -> bool:
    """True iff every singular value is <= 1 + tol."""
    if s.n_ports == 0:
        return True
    singular = np.linalg.svd(s.entries, compute_uv=False)
    return bool(singular.max() <= 1.0 + tol)


def check_reciprocity(s: ScatterMatrix, tol: float = 1e-12) -> bool:
    """True iff max |S_ij - S_ji| is <= tol."""
    if s.n_ports == 0:
        return True
    return bool(np.abs(s.entries - s.entries.T).max() <= tol)
