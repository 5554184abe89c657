"""Workload definitions and the seeded input generator.

The generator uses numpy and the standard library only and writes the
Touchstone, pattern and caps text itself, so a defect in rislink's own
readers or writers cannot hide in the inputs it is measured on.

Generated RIS matrices are reciprocal and scaled to a largest singular value
of at most 0.95 (passive), and every geometry sits beyond the 2*D^2/lambda
far-field distance, which keeps the known non-passive short-range
extrapolation (R = 0.1 m on the board) out of the timed workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

C0 = 299_792_458.0
FREQ_HZ = 3.55e9
PITCH_X_M = 0.040
PITCH_Z_M = 0.0468
C_MIN_F, C_MAX_F = 0.23e-12, 2.1e-12
BOARD_CONFIG = Path("scenarios/board_7x2/scenario.cfg")


@dataclass
class Workload:
    """Inputs of one benchmark run and the CLI commands it runs, in order."""

    name: str
    config: Path
    commands: tuple[str, ...]
    n_elements: int
    cli_seed: int
    caps_input: Path | None = None
    input_files: list[Path] = field(default_factory=list)
    freq_points: int = 0

    @property
    def input_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.input_files)

    def sizes(self) -> dict:
        return {
            "n_elements": self.n_elements,
            "input_bytes": self.input_bytes,
            "freq_points": self.freq_points,
            "commands": list(self.commands),
        }


def prepare(name: str, seed: int, root: Path, inputs: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    if name == "board_7x2":
        config = root / BOARD_CONFIG
        files = [config, config.parent / "patterns.csv"]
        return Workload(name, config, ("synthesize", "optimize", "sweep"), 14, seed,
                        input_files=files)
    rng = np.random.default_rng([seed, 1 if name == "wide_touchstone" else 2])
    if name == "wide_touchstone":
        return _wide_touchstone(rng, seed, inputs)
    if name == "lossy_mid":
        return _lossy_mid(rng, seed, inputs)
    raise ValueError(f"unknown workload {name!r}")


def _grid(rows: int, cols: int) -> np.ndarray:
    """Element (x, z) positions in metres, numbered row-major like grid.* keys."""
    r, c = np.divmod(np.arange(rows * cols), cols)
    return np.column_stack([(c - (cols - 1) / 2) * PITCH_X_M, (r - (rows - 1) / 2) * PITCH_Z_M])


def farfield_distance(xz: np.ndarray) -> float:
    span = xz.max(axis=0) - xz.min(axis=0)
    return 2.0 * float(span @ span) / (C0 / FREQ_HZ)


def _config_text(lines: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


def _common_keys(r_m: float, alpha_deg: float, beta_deg: float, rows: int, cols: int) -> dict:
    return {
        "freq": "3.55 GHz",
        "range": f"{r_m:g} m",
        "alpha": f"{alpha_deg:g} deg",
        "beta": f"{beta_deg:g} deg",
        "gain_tx_db": "11 dB",
        "gain_rx_db": "11 dB",
        "grid.rows": str(rows),
        "grid.cols": str(cols),
        "grid.pitch_x": f"{PITCH_X_M * 1e3:g} mm",
        "grid.pitch_z": f"{PITCH_Z_M * 1e3:g} mm",
        "bounds.c_min": f"{C_MIN_F * 1e12:g} pF",
        "bounds.c_max": f"{C_MAX_F * 1e12:g} pF",
        "sweep.start": "-90 deg",
        "sweep.stop": "90 deg",
        "sweep.step": "1 deg",
        "reflector.width": f"{cols * PITCH_X_M * 1e3:g} mm",
        "reflector.height": f"{rows * PITCH_Z_M * 1e3:g} mm",
    }


def _wide_touchstone(rng: np.random.Generator, seed: int, inputs: Path) -> Workload:
    """8x16 surface from an 11-point .s128p file, a 1-degree pattern table and caps.csv."""
    rows, cols, r_m, alpha_deg, beta_deg = 8, 16, 12.0, -15.0, 25.0
    xz = _grid(rows, cols)
    n = len(xz)
    assert r_m > farfield_distance(xz)
    freqs = 3.50e9 + 10e6 * np.arange(11)

    dist = np.hypot(xz[:, :1] - xz[:, 0], xz[:, 1:] - xz[:, 1])
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    jitter = 1.0 + 0.05 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    jitter = np.where(upper, jitter, jitter.T)
    self_mag = 0.35 + 0.05 * rng.random(n)
    self_phase = -0.6 + 0.1 * rng.random(n)

    fmt = "{:.10e}".format
    ts_lines = [f"! {n}-port RIS matrix generated by perfbench (seed {seed})", "# Hz S RI R 50"]
    diag_text: list[tuple[str, str]] = []
    for f in freqs:
        coupling = 0.08 * np.exp(-dist / 0.045) * np.exp(-2j * math.pi * f * dist / C0) * jitter
        s = np.where(upper | upper.T, coupling, 0.0)
        s[np.diag_indices(n)] = self_mag * np.exp(1j * (self_phase - 2 * math.pi * (f - FREQ_HZ) * 1e-9))
        s *= min(1.0, 0.95 / np.linalg.svd(s, compute_uv=False)[0])
        text = [[(fmt(v.real), fmt(v.imag)) for v in row] for row in s]
        if f == FREQ_HZ:
            diag_text = [text[i][i] for i in range(n)]
        for i, row in enumerate(text):
            for j in range(0, n, 4):
                line = " ".join(f"{re} {im}" for re, im in row[j : j + 4])
                ts_lines.append(f"{f:.0f} {line}" if i == 0 and j == 0 else line)
    ris_path = inputs / f"ris.s{n}p"
    ris_path.write_text("\n".join(ts_lines) + "\n", encoding="utf-8")

    az = np.arange(-90, 91)
    tilt = rng.uniform(-5.0, 5.0, n)
    power = rng.uniform(1.2, 1.6, n)
    peak = rng.uniform(4.5, 5.5, n)
    pat_lines = ["m,azimuth_deg,gain_dbi"]
    for m in range(n):
        cos = np.maximum(np.cos(np.radians(az - tilt[m])), 1e-4)
        gain = peak[m] + 10.0 * power[m] * np.log10(cos)
        pat_lines.extend(f"{m + 1},{a},{g:.6f}" for a, g in zip(az, gain))
    pat_lines.append("m,smm_re,smm_im")
    pat_lines.extend(f"{m + 1},{re},{im}" for m, (re, im) in enumerate(diag_text))
    pat_path = inputs / "patterns.csv"
    pat_path.write_text("\n".join(pat_lines) + "\n", encoding="utf-8")

    caps = _focusing_caps(xz, r_m, alpha_deg, beta_deg) * np.exp(0.03 * rng.standard_normal(n))
    caps = np.clip(caps, C_MIN_F, C_MAX_F)
    caps_path = inputs / "caps.csv"
    caps_path.write_text(
        "m,c_pf\n" + "".join(f"{m + 1},{c * 1e12:.12g}\n" for m, c in enumerate(caps)),
        encoding="utf-8",
    )

    keys = _common_keys(r_m, alpha_deg, beta_deg, rows, cols)
    keys.update({"ris.file": ris_path.name, "patterns.file": pat_path.name, "out.dir": "out"})
    config = inputs / "scenario.cfg"
    config.write_text(_config_text(keys), encoding="utf-8")
    return Workload("wide_touchstone", config, ("synthesize", "sweep"), n, seed,
                    caps_input=caps_path, input_files=[config, ris_path, pat_path, caps_path],
                    freq_points=len(freqs))


def _focusing_caps(xz: np.ndarray, r_m: float, alpha_deg: float, beta_deg: float) -> np.ndarray:
    """Ideal-varactor capacitances whose reflection phase cancels each round-trip path phase."""
    x, z = xz[:, 0], xz[:, 1]

    def dist(angle_deg: float) -> np.ndarray:
        return np.sqrt(r_m**2 + x**2 + z**2 - 2 * x * r_m * math.sin(math.radians(angle_deg)))

    k = 2 * math.pi * FREQ_HZ / C0
    target = np.exp(1j * k * (dist(beta_deg) + dist(-alpha_deg)))
    grid = np.linspace(C_MIN_F, C_MAX_F, 4000)
    reactance = -1.0 / (2 * math.pi * FREQ_HZ * grid)
    gamma = (1j * reactance - 50.0) / (1j * reactance + 50.0)
    return grid[np.argmax(np.real(np.conj(target)[:, None] * gamma[None, :]), axis=1)]


def _lossy_mid(rng: np.random.Generator, seed: int, inputs: Path) -> Workload:
    """4x12 synthetic exp_decay surface with a lossy varactor and isotropic patterns."""
    rows, cols, r_m = 4, 12, 6.0
    assert r_m > farfield_distance(_grid(rows, cols))
    keys = _common_keys(r_m, -20.0, 40.0, rows, cols)
    keys.update({
        "ris.model": "exp_decay",
        "ris.smm_re": f"{rng.uniform(0.18, 0.22):.4f}",
        "ris.smm_im": f"{rng.uniform(-0.05, 0.05):.4f}",
        "ris.c0": f"{rng.uniform(0.09, 0.11):.4f}",
        "ris.rolloff": f"{rng.uniform(45.0, 55.0):.2f} mm",
        "patterns.gain_db": f"{rng.uniform(4.8, 5.2):.3f} dB",
        "varactor.rs": f"{rng.uniform(1.8, 2.2):.3f} ohm",
        "varactor.ls": f"{rng.uniform(0.45, 0.55):.3f} nH",
        "opt.starts": "1",  # one start keeps optimize near 5 s, leaving time for more samples
        "out.dir": "out",
    })
    config = inputs / "scenario.cfg"
    config.write_text(f"# generated by perfbench (seed {seed})\n" + _config_text(keys), encoding="utf-8")
    return Workload("lossy_mid", config, ("synthesize", "optimize", "sweep"), rows * cols, seed,
                    input_files=[config])
