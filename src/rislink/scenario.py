"""Scenario configuration: flat "key = value unit" text files.

Every dimensioned value carries an explicit unit suffix; blank lines and
'#' comments are ignored. One table, :data:`KEYS`, holds every key with the
kind of its value, its default and whether it must be positive. Every
numeric value must be finite.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import MAX_ANGLE_RAD, ConfigError, decoded
from .farfield import ElementGeometry, ExpDecayCoupling, Scenario
from .loads import LoadBounds, OptimizerOptions, VaractorModel

#: Unit families: unit name (matched case-insensitively) -> SI scale. A ``gain`` in dB reads as linear.
_UNITS = {
    "length": {"m": 1.0, "mm": 1e-3, "cm": 1e-2},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "angle": {"deg": math.pi / 180.0, "rad": 1.0},
    "capacitance": {"F": 1.0, "nF": 1e-9, "pF": 1e-12},
    "resistance": {"ohm": 1.0},
    "inductance": {"H": 1.0, "nH": 1e-9, "pH": 1e-12},
    "gain": {"dB": 1.0},
}

#: Marks a key without a default: reading it when the config lacks it is an error.
REQUIRED = object()

#: key -> (kind, default, positive). The kind is a unit family of ``_UNITS``,
#: ``number``, ``int`` or ``text``; a default of None means "not set". Which
#: keys a config must or may set depends on the sources it picks: grid.* or
#: element.*, ris.file or ris.model, patterns.file or patterns.gain_db.
#: ``element.<m>.x|z`` stands for the coordinates of element m.
KEYS: dict[str, tuple[str, object, bool]] = {
    "freq": ("frequency", REQUIRED, True),
    "range": ("length", REQUIRED, True),
    "alpha": ("angle", REQUIRED, False),
    "beta": ("angle", REQUIRED, False),
    "gain_tx_db": ("gain", REQUIRED, False),
    "gain_rx_db": ("gain", REQUIRED, False),
    "grid.rows": ("int", REQUIRED, False),
    "grid.cols": ("int", REQUIRED, False),
    "grid.pitch_x": ("length", REQUIRED, True),
    "grid.pitch_z": ("length", REQUIRED, True),
    "grid.offset_x": ("length", 0.0, False),
    "grid.offset_z": ("length", 0.0, False),
    "element.<m>.x": ("length", REQUIRED, False),
    "element.<m>.z": ("length", REQUIRED, False),
    "bounds.c_min": ("capacitance", REQUIRED, False),
    "bounds.c_max": ("capacitance", REQUIRED, False),
    "ris.file": ("text", None, False),
    "ris.freq_tol": ("frequency", 1e3, True),
    "ris.model": ("text", None, False),
    "ris.smm_re": ("number", 0.0, False),
    "ris.smm_im": ("number", 0.0, False),
    "ris.c0": ("number", REQUIRED, False),
    "ris.rolloff": ("length", REQUIRED, True),
    "patterns.file": ("text", None, False),
    "patterns.gain_db": ("gain", None, False),
    "varactor.rs": ("resistance", 0.0, False),
    "varactor.ls": ("inductance", 0.0, False),
    "sweep.start": ("angle", -math.pi / 2, False),
    "sweep.stop": ("angle", math.pi / 2, False),
    "sweep.step": ("angle", math.radians(1.0), True),
    "reflector.width": ("length", REQUIRED, True),
    "reflector.height": ("length", REQUIRED, True),
    "opt.starts": ("int", 8, False),
    "opt.max_evals": ("int", 2000, False),
    "opt.seed": ("int", 0, False),
    "out.dir": ("text", ".", False),
}

_ELEMENT_KEY = re.compile(r"element\.(\d{1,9})\.([xz])")


#: Most angles a sweep grid may hold; a finer ``sweep.step`` is refused before any array is allocated.
MAX_SWEEP_ANGLES = 1_000_000


class RisFile(NamedTuple):
    path: Path
    freq_tol_hz: float = 1e3


class RisSynthesis(NamedTuple):
    model: ExpDecayCoupling


class PatternsFile(NamedTuple):
    path: Path


class PatternsUniform(NamedTuple):
    gain_lin: float


class SweepGrid:
    def __init__(self, start_rad: float, stop_rad: float, step_rad: float):
        for key, angle in (("sweep.start", start_rad), ("sweep.stop", stop_rad)):
            if not abs(angle) <= MAX_ANGLE_RAD:
                raise ConfigError(f"{key} must lie within [-90, 90] deg, got {math.degrees(angle):g} deg")
        if stop_rad < start_rad:
            raise ConfigError("sweep grid is empty (stop < start)")
        # round((stop - start)/step) + 1 <= MAX_SWEEP_ANGLES, tested without dividing: a zero or NaN step fails it.
        if not stop_rad - start_rad < (MAX_SWEEP_ANGLES - 0.5) * step_rad:
            raise ConfigError(
                f"sweep.step {math.degrees(step_rad):g} deg gives more than {MAX_SWEEP_ANGLES:,} angles"
            )
        self.start_rad, self.stop_rad, self.step_rad = start_rad, stop_rad, step_rad

    def alphas_rad(self) -> np.ndarray:
        """start, start + step, ... up to stop; a last step that would pass stop is dropped."""
        count = int(round((self.stop_rad - self.start_rad) / self.step_rad)) + 1
        alphas = self.start_rad + self.step_rad * np.arange(count)
        return alphas[alphas <= self.stop_rad + 1e-12]


class ReflectorSpec(NamedTuple):
    width_m: float
    height_m: float


class ScenarioConfig(NamedTuple):
    """Fully resolved run configuration."""

    scenario: Scenario
    bounds: LoadBounds
    ris: RisFile | RisSynthesis
    patterns: PatternsFile | PatternsUniform
    varactor: VaractorModel
    sweep: SweepGrid
    reflector: ReflectorSpec | None
    optimizer: OptimizerOptions
    out_dir: Path
    raw: dict[str, str]


def _spec(key: str) -> tuple[str, object, bool]:
    """The :data:`KEYS` entry of ``key``; ``element.<m>.x|z`` covers every element."""
    return KEYS[_ELEMENT_KEY.sub(r"element.<m>.\2", key)]


def _parse(key: str, text: str):
    """The value of ``key`` given as ``text``, in SI units, checked against :data:`KEYS`."""
    kind, _, positive = _spec(key)
    if kind == "text":
        if "\0" in text:  # no OS call accepts it in a path
            raise ConfigError(f"{key}: value contains a NUL character")
        return text
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {text!r}") from None
    number, scale = text, 1.0
    if kind != "number":
        units = _UNITS[kind]
        parts = text.split()
        if len(parts) != 2:
            raise ConfigError(f"{key}: expected '<number> <unit>' with unit in ({'/'.join(units)})")
        number, unit = parts
        scale = next((s for name, s in units.items() if name.lower() == unit.lower()), None)
        if scale is None:
            raise ConfigError(f"{key}: unknown unit {unit!r}, expected one of ({'/'.join(units)})")
    try:
        value = float(number) * scale
        if kind == "gain" and math.isfinite(value):
            value = 10.0 ** (value / 10.0)
    except ValueError:
        raise ConfigError(f"{key}: invalid number {number!r}") from None
    except OverflowError:
        value = math.inf
    if not (0 < value < math.inf if positive else math.isfinite(value)):
        raise ConfigError(f"{key} must be {'positive and ' if positive else ''}finite, got {text!r}")
    return value


def _build(keys: str, make, **fields):
    """``make(**fields)``, with a ValueError from its validation raised as a ConfigError naming ``keys``."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from None


def _grid_elements(
    rows: int, cols: int, pitch_x_m: float, pitch_z_m: float, offset_x_m: float = 0.0, offset_z_m: float = 0.0
) -> tuple[ElementGeometry, ...]:
    """Regular element grid: cols along x, rows along z, centered, numbered row by row from 1.

    The pitches arrive positive: :data:`KEYS` refuses any other ``grid.pitch_x|z``.
    """
    if rows < 1 or cols < 1:
        raise ConfigError("grid.rows and grid.cols must be >= 1")
    return _build("grid.*", lambda: tuple(
        ElementGeometry(
            r * cols + c + 1,
            (c - (cols - 1) / 2.0) * pitch_x_m + offset_x_m,
            (r - (rows - 1) / 2.0) * pitch_z_m + offset_z_m,
        )
        for r in range(rows)
        for c in range(cols)
    ))


def load_scenario(config_text: str, base_dir: str | Path | None = None) -> ScenarioConfig:
    """Parse a config document into a fully validated :class:`ScenarioConfig`.

    Relative file references resolve against ``base_dir`` (default: the
    current directory). Keys that are not in :data:`KEYS`, and keys that the
    chosen sources do not read, are rejected.
    """
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    values: dict[str, str] = {}
    for line_no, raw in enumerate(config_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {line_no}: empty key or value")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        values[key] = value
    used: set[str] = set()

    def get(key: str):
        used.add(key)
        if key in values:
            return _parse(key, values[key])
        default = _spec(key)[1]
        if default is REQUIRED:
            raise ConfigError(f"missing mandatory key {key!r}")
        return default

    def build(make, keys: dict[str, str], **fields):
        """:func:`_build` of ``make`` with ``fields`` and each field of ``keys`` read from its config key, in order."""
        return _build("/".join(keys.values()), make, **fields, **{field: get(key) for field, key in keys.items()})

    def path(key: str) -> Path:
        file = base / get(key)
        try:
            found = file.is_file()
        except OSError as exc:
            raise ConfigError(f"{key}: cannot look up the referenced file: {exc.strerror}") from None
        if not found:
            raise ConfigError(f"{key}: referenced file does not exist: {file}")
        return file

    has_grid = any(k.startswith("grid.") for k in values)
    numbers = sorted({int(match[1]) for k in values if (match := _ELEMENT_KEY.fullmatch(k))})
    if has_grid and numbers:
        raise ConfigError("use either grid.* or element.* coordinates, not both")
    if not (has_grid or numbers):
        raise ConfigError("no elements defined: add grid.* keys or element.<m>.x/z entries")
    if has_grid:
        fields = ("rows", "cols", "pitch_x", "pitch_z", "offset_x", "offset_z")
        elements = _grid_elements(*(get(f"grid.{field}") for field in fields))
    else:
        elements = tuple(build(ElementGeometry, {"x_m": f"element.{m}.x", "z_m": f"element.{m}.z"}, index_m=m)
                         for m in numbers)
    scenario = build(Scenario, {"r_m": "range", "alpha_rad": "alpha", "beta_rad": "beta", "freq_hz": "freq",
                                "g_tx_lin": "gain_tx_db", "g_rx_lin": "gain_rx_db"}, elements=elements)
    bounds = build(LoadBounds, {"c_min_f": "bounds.c_min", "c_max_f": "bounds.c_max"})

    model = get("ris.model")
    if (get("ris.file") is None) == (model is None):
        raise ConfigError("set exactly one of ris.file or ris.model")
    if model is None:
        ris = RisFile(path("ris.file"), get("ris.freq_tol"))
    elif model in ("isolated", "exp_decay"):  # isolated: exp_decay with c0 = 0, reading neither ris.c0 nor ris.rolloff
        decay = {"c0": get("ris.c0"), "rolloff_m": get("ris.rolloff")} if model == "exp_decay" else {"c0": 0.0}
        keys = "ris.smm_re/ris.smm_im" + ("/ris.c0/ris.rolloff" if model == "exp_decay" else "")
        ris = RisSynthesis(_build(keys, ExpDecayCoupling, s_mm=complex(get("ris.smm_re"), get("ris.smm_im")), **decay))
    else:
        raise ConfigError(f"ris.model must be isolated or exp_decay, got {model!r}")

    gain_lin = get("patterns.gain_db")
    if (get("patterns.file") is None) == (gain_lin is None):
        raise ConfigError("set exactly one of patterns.file or patterns.gain_db")
    patterns = PatternsFile(path("patterns.file")) if gain_lin is None else PatternsUniform(gain_lin)

    varactor = build(VaractorModel, {"series_resistance_ohm": "varactor.rs", "series_inductance_h": "varactor.ls"})
    sweep = SweepGrid(get("sweep.start"), get("sweep.stop"), get("sweep.step"))
    reflector = None
    if "reflector.width" in values or "reflector.height" in values:
        reflector = ReflectorSpec(get("reflector.width"), get("reflector.height"))
    optimizer = build(OptimizerOptions, {"starts": "opt.starts", "max_evals": "opt.max_evals", "seed": "opt.seed"})
    out_dir = base / get("out.dir")

    unknown = sorted(set(values) - used)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    return ScenarioConfig(scenario, bounds, ris, patterns, varactor, sweep, reflector, optimizer, out_dir, raw=values)


def read_scenario(path: str | Path) -> ScenarioConfig:
    """Load a config file; relative references resolve against its directory."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file does not exist: {path}")
    return load_scenario(decoded(path.read_bytes(), ConfigError, f"{path}: "), base_dir=path.parent)
