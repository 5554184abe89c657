"""Complex scatter-matrix data model and loaded-port network algebra.

Every matrix has one fixed port layout: the N RIS element ports in the
middle, numbered by their 1-based element numbers, with the Tx port before
them and the Rx port after them. A matrix with N ports is RIS-only; one
with N + 2 ports is a link, Tx at port 0 and Rx at the last port. All
operations are pure functions on values that are not changed after
construction: entry arrays stay locked (``writeable = False``), so instances
can be shared freely across threads. The loaded-link kernel (``LinkKernel``)
takes the loads as reflection coefficients; turning a capacitance into one is
the load model's job (``loads.VaractorModel``).
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import IllConditionedLoadError, InputError, check

#: Reciprocal condition numbers of (I - S_ii*Gamma) below this are rejected;
#: physical loaded passive networks never reach exact singularity, so a
#: near-singular system flags bad data rather than physics.
RCOND_LIMIT = 1e-12

#: Rounding slack on |gamma| <= 1 accepted for passive loads.
GAMMA_SLACK = 1e-9


class ScatterMatrix:
    """Square complex scatter matrix at one frequency, in the Tx | RIS | Rx layout.

    Parameters
    ----------
    entries : array_like
        P x P complex wave ratios, all finite.
    freq_hz : float
        Frequency the matrix is valid at, in Hz.
    element_numbers : tuple of int
        Unique 1-based numbers of the RIS element ports, in port order. Their
        count N is P (RIS-only) or P - 2 (link, Tx first and Rx last).
    z0_ohm : float
        Real reference impedance, identical for every port.
    """

    def __init__(self, entries, freq_hz: float, element_numbers: tuple[int, ...], z0_ohm: float = 50.0):
        entries = np.array(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be square, got shape {entries.shape}")
        numbers = tuple(operator.index(check("element_numbers", m, "an integer >= 1")) for m in element_numbers)
        if entries.shape[0] - len(numbers) not in (0, 2):
            raise ValueError(f"{len(numbers)} element numbers for a {entries.shape[0]}-port matrix")
        if len(set(numbers)) != len(numbers):
            raise ValueError(f"element numbers must be unique, got {numbers}")
        if not np.isfinite(entries).all():
            raise ValueError(f"entries must be finite, got {entries[~np.isfinite(entries)][0]}")
        check("freq_hz", freq_hz, "positive and finite")
        check("z0_ohm", z0_ohm, "positive and finite")
        entries.flags.writeable = False
        self.entries, self.freq_hz, self.element_numbers, self.z0_ohm = entries, freq_hz, numbers, z0_ohm

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
    """Loaded-link transfer of one Tx/RIS/Rx matrix, on plain arrays of reflection coefficients.

    The matrix is split once into its external (Tx, Rx) and RIS blocks, so an
    evaluation is the linear solve plus a few array operations: no index
    lookups, no fancy indexing and no validation. Callers check their inputs
    at their own boundary; get the kernel through ``ScatterMatrix.kernel``,
    which builds it once per matrix. The parts of the link transfer
    S_RxTx = direct + r*Gamma*(I - S_ii*Gamma)^-1*t are named here, and only
    here: ``t`` is the Tx column (the RIS ports' coupling from Tx), ``r`` the
    Rx row (their coupling to Rx) and ``direct`` the Tx -> Rx entry.

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
        self.n_ris = len(ris)
        self.s_ee = s[np.ix_(ext, ext)]
        self.s_ei = s[np.ix_(ext, ris)]
        self.s_ie = s[np.ix_(ris, ext)]
        self.s_ii = s[np.ix_(ris, ris)]
        self.t, self.r, self.direct = self.s_ie[:, 0], self.s_ei[1], self.s_ee[1, 0]
        self._eye = np.eye(self.n_ris, dtype=complex)
        self.cond_bound = _passive_cond_bound(self.s_ii)
        self.checks_conditioning = self.cond_bound >= 0.5 / RCOND_LIMIT

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

    def s_rx_tx(self, gam: np.ndarray, rows: Iterable[np.ndarray]) -> np.ndarray:
        """S_RxTx under the loads ``gam`` with each of ``rows`` as the Rx row r: one solve, then one dot per row."""
        wave = gam * np.linalg.solve(self.system(gam), self.t)
        # One dot per row: a matrix-vector product sums in another order and moves the last bits.
        return self.direct + np.array([r @ wave for r in rows])

    def columns(self, gam: np.ndarray) -> np.ndarray:
        """(I - S_ii*Gamma)^-1 [S_ii | t]: one factorization, N + 1 right-hand sides."""
        return np.linalg.solve(self.system(gam), np.column_stack((self.s_ii, self.t)))

    def transfer(self, gam: np.ndarray) -> float:
        """|S_RxTx|^2 with the RIS ports terminated by ``gam``."""
        return float(abs(self.reduce(gam)[1, 0]) ** 2)

    def gradient(self, gam: np.ndarray) -> tuple[complex, np.ndarray]:
        """S_RxTx and dS_RxTx/dgamma under the loads ``gam``, from one forward and one adjoint solve."""
        system = self.system(gam)
        p = np.linalg.solve(system, self.t)
        y = np.linalg.solve(system.T, self.r * gam)
        return self.direct + self.r @ (gam * p), (self.r + self.s_ii.T @ y) * p


def _passive_cond_bound(s_ii: np.ndarray) -> float:
    """Upper bound on cond2(I - S_ii*Gamma) over all |gamma| <= 1 + GAMMA_SLACK; inf if none.

    sigma_max(S_ii) <= sqrt(||S_ii||_1 * ||S_ii||_inf) costs O(N^2); the SVD runs only where that bound does not clear.
    """
    if not s_ii.size:
        return 1.0
    magnitudes = np.abs(s_ii)
    s = math.sqrt(magnitudes.sum(axis=0).max() * magnitudes.sum(axis=1).max()) * (1.0 + GAMMA_SLACK)
    if not (s < 1.0 and (1.0 + s) / (1.0 - s) < 0.5 / RCOND_LIMIT):
        s = float(np.linalg.norm(s_ii, 2)) * (1.0 + GAMMA_SLACK)
    return (1.0 + s) / (1.0 - s) if s < 1.0 else math.inf


class ReflectionVector:
    """Reflection coefficients terminating the RIS ports, in port order.

    Passive loads satisfy ``|gamma| <= 1``; purely reactive ideal loads sit
    exactly on the unit circle.
    """

    def __init__(self, gammas: tuple[complex, ...]):
        gammas = tuple(complex(g) for g in gammas)
        for i, g in enumerate(gammas):
            if not abs(g) <= 1.0 + GAMMA_SLACK:
                raise ValueError(f"|gamma_{i + 1}| = {abs(g):.6f} exceeds 1 (active load)")
        self.gammas = gammas

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
    InputError
        If the reduced matrix overflows a float, as a finite but extreme coupling can make it.
    """
    kernel = full.kernel
    if len(loads) != kernel.n_ris:
        raise ValueError(f"{len(loads)} loads for {kernel.n_ris} RIS ports")
    with np.errstate(all="ignore"):  # an overflow is reported below, without numpy's warnings
        reduced = kernel.reduce(loads.as_array)
    if not np.isfinite(reduced).all():
        raise InputError("the reduced two-port overflows a float: a coupling of the link is extreme")
    return ScatterMatrix.full_link(reduced, full.freq_hz, (), full.z0_ohm)


def check_passivity(s: ScatterMatrix, tol: float = 1e-6) -> bool:
    """True iff every singular value is <= 1 + tol."""
    if s.n_ports == 0:
        return True
    singular = np.linalg.svd(s.entries, compute_uv=False)
    return bool(singular.max() <= 1.0 + tol)
