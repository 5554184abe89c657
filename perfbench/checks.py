"""Output checks against an in-process reference built from rislink's public API.

Each check names the command whose output failed, so a failure is counted
against the operation that produced it.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

import numpy as np
import rislink as rl

from workloads import Workload

OUTPUTS = {"synthesize": "full.s{p}p", "optimize": "caps.csv", "sweep": "brcs.csv"}
_OBJECTIVE_RE = re.compile(r"objective ([-+0-9.eE]+)")


def _sig_digits_tol(value: float, digits: int = 6) -> float:
    """Largest rounding error of ``value`` printed with ``digits`` significant digits, with slack."""
    exponent = math.floor(math.log10(abs(value))) if value else 0
    return 0.6 * 10.0 ** (exponent - digits + 1)


class Reference:
    """The workload's link, assembled in-process the way the CLI assembles it."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.cfg = cfg = rl.read_scenario(wl.config)
        scn = cfg.scenario
        if isinstance(cfg.ris, rl.RisFile):
            ris = rl.matrix_at_frequency(rl.read_touchstone(cfg.ris.path), scn.freq_hz,
                                         cfg.ris.freq_tol_hz, element_numbers=scn.element_numbers)
        else:
            ris = rl.synth_ris_matrix(scn.elements, scn.freq_hz, cfg.ris.model)
        if isinstance(cfg.patterns, rl.PatternsFile):
            by_m = {p.index_m: p for p in rl.parse_pattern_table(cfg.patterns.path.read_text(encoding="utf-8"))}
            patterns = [by_m[m] for m in scn.element_numbers]
        else:
            patterns = [rl.ElementPattern.isotropic(m, cfg.patterns.gain_lin, s_mm=complex(ris.entries[i, i]))
                        for i, m in enumerate(scn.element_numbers)]
        self.ris, self.patterns = ris, patterns
        self.full = rl.assemble_full_matrix(scn, ris, patterns)
        self.alphas_deg = np.degrees(cfg.sweep.alphas_rad())

    def read_caps(self, path: Path) -> np.ndarray:
        rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:] if line]
        numbers = tuple(int(r[0]) for r in rows)
        if numbers != self.cfg.scenario.element_numbers:
            raise ValueError(f"{path.name}: element numbers {numbers} do not match the scenario")
        return np.array([float(r[1]) for r in rows]) * 1e-12

    def power_transfer(self, caps_f: np.ndarray) -> float:
        """|S21|^2 of the link loaded with ``caps_f``, through ``reduce_loaded``."""
        var, w, z0 = self.cfg.varactor, 2 * math.pi * self.cfg.scenario.freq_hz, self.full.z0_ohm
        z_load = var.series_resistance_ohm + 1j * (w * var.series_inductance_h - 1.0 / (w * caps_f))
        reduced = rl.reduce_loaded(self.full, rl.ReflectionVector.of((z_load - z0) / (z_load + z0)))
        return float(abs(reduced.entries[reduced.rx_index, reduced.tx_index]) ** 2)

    def reflector_dbsm(self) -> np.ndarray:
        """Physical-optics flat-plate BRCS, floored at -100 dBsm like the CLI's export."""
        scn, plate = self.cfg.scenario, self.cfg.reflector
        lam, beta = scn.wavelength_m, scn.beta_rad
        peak = 4 * math.pi * (plate.width_m * plate.height_m * math.cos(beta)) ** 2 / lam**2
        u = math.pi * plate.width_m / lam * (np.sin(np.radians(self.alphas_deg)) - math.sin(beta))
        sigma = peak * np.sinc(u / math.pi) ** 2
        return 10 * np.log10(np.maximum(sigma, 1e-10))

    def ris_dbsm(self, power: float) -> float:
        """Bistatic radar equation inverted at range R for a link power transfer."""
        scn = self.cfg.scenario
        sigma = (4 * math.pi) ** 3 * scn.r_m**4 * power / (scn.g_tx_lin * scn.g_rx_lin * scn.wavelength_m**2)
        return 10 * math.log10(max(sigma, 1e-10))

    # -- per-command checks; each returns a list of failure messages ---------

    def check(self, command: str, out: Path, stdout: str, caps_path: Path | None) -> list[str]:
        path = out / OUTPUTS[command].format(p=self.full.n_ports)
        if not path.is_file():
            return [f"{command}: missing output {path.name}"]
        try:
            return getattr(self, f"_check_{command}")(path, stdout, caps_path)
        except (rl.RislinkError, ValueError, IndexError) as exc:
            return [f"{command}: unreadable output {path.name}: {exc}"]

    def _check_synthesize(self, path: Path, stdout: str, caps_path: Path | None) -> list[str]:
        doc = rl.read_touchstone(path)
        if len(doc.points) != 1:
            return [f"synthesize: {len(doc.points)} frequency points in {path.name}"]
        freq, matrix = doc.points[0]
        err = float(np.abs(matrix - self.full.entries).max())
        if freq != self.full.freq_hz or err > 1e-12:
            return [f"synthesize: {path.name} differs from the in-process assembly by {err:.3g}"]
        return []

    def _check_optimize(self, path: Path, stdout: str, caps_path: Path | None) -> list[str]:
        caps = self.read_caps(path)
        b = self.cfg.bounds
        slack = 1e-9 * b.c_max_f
        if np.any(caps < b.c_min_f - slack) or np.any(caps > b.c_max_f + slack):
            return ["optimize: caps.csv leaves the configured bounds"]
        match = _OBJECTIVE_RE.search(stdout)
        if match is None:
            return ["optimize: no objective on stdout"]
        printed, power = float(match.group(1)), self.power_transfer(caps)
        if abs(printed - power) > 1e-5 * power:
            return [f"optimize: stdout objective {printed:.6g} but caps.csv gives {power:.6g}"]
        return []

    def _check_sweep(self, path: Path, stdout: str, caps_path: Path | None) -> list[str]:
        lines = path.read_text(encoding="utf-8").splitlines()
        if lines[0] != "alpha_deg,ris,reflector":
            return [f"sweep: unexpected brcs.csv header {lines[0]!r}"]
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        failures = []
        if table.shape != (self.alphas_deg.size, 3) or np.abs(table[:, 0] - self.alphas_deg).max() > 1e-4:
            return ["sweep: brcs.csv angle grid differs from the configured sweep"]
        reflector = self.reflector_dbsm()
        tol = np.array([_sig_digits_tol(v) for v in reflector])
        if np.any(np.abs(table[:, 2] - reflector) > tol):
            failures.append("sweep: reflector column differs from the physical-optics plate formula")
        alpha = math.degrees(self.cfg.scenario.alpha_rad)
        row = int(np.argmin(np.abs(self.alphas_deg - alpha)))
        expected = self.ris_dbsm(self.power_transfer(self.read_caps(caps_path)))
        if abs(self.alphas_deg[row] - alpha) > 1e-9:
            failures.append(f"sweep: configured alpha {alpha:g} deg is not on the sweep grid")
        elif abs(table[row, 1] - expected) > _sig_digits_tol(expected):
            failures.append(f"sweep: ris column at alpha {alpha:g} deg is {table[row, 1]:g} dBsm, "
                            f"the radar equation gives {expected:.6g}")
        return failures


def digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
