"""Scenario configuration: flat "key = value unit" text files.

Every dimensioned value carries an explicit unit suffix; blank lines and
'#' comments are ignored. Documented keys:

    freq = 3.55 GHz              carrier frequency (Hz/kHz/MHz/GHz)
    range = 2 m                  Tx/Rx range R (m/mm/cm)
    alpha = 0 deg                Rx angle from the surface normal (deg/rad)
    beta = 30 deg                Tx angle from the surface normal (deg/rad)
    gain_tx_db = 11 dB           Tx antenna gain
    gain_rx_db = 11 dB           Rx antenna gain

    grid.rows = 2                element grid generator (cols along x,
    grid.cols = 7                rows along z, centered on the origin)
    grid.pitch_x = 40 mm
    grid.pitch_z = 46.8 mm
    grid.offset_x = 0 mm         optional
    grid.offset_z = 0 mm         optional
    element.<m>.x = -120 mm      alternative: explicit per-element coordinates
    element.<m>.z = -23.4 mm

    bounds.c_min = 0.23 pF       varactor capacitance range (F/pF/nF)
    bounds.c_max = 2.1 pF

    ris.file = ris.s14p          RIS matrix from a Touchstone file, or
    ris.model = exp_decay        synthesize one (isolated | exp_decay)
    ris.smm_re = 0.2             synthetic self coefficient
    ris.smm_im = 0.0
    ris.c0 = 0.1                 exp_decay coupling amplitude
    ris.rolloff = 50 mm          exp_decay coupling length scale
    ris.freq_tol = 1 kHz         file frequency-matching tolerance

    patterns.file = patterns.csv element patterns from a CSV table, or
    patterns.gain_db = 5 dB      isotropic patterns with this gain

    varactor.rs = 0 ohm          optional series parasitics
    varactor.ls = 0 nH

    sweep.start = -90 deg        receiver-angle sweep grid (inclusive)
    sweep.stop = 90 deg
    sweep.step = 1 deg
    reflector.width = 308 mm     flat-plate reference dimensions
    reflector.height = 96 mm

    opt.starts = 8               optimizer settings
    opt.max_evals = 2000
    opt.seed = 0
    out.dir = out                output directory
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ConfigError
from .farfield import MAX_ANGLE_RAD, ElementGeometry, ExpDecayCoupling, IsolatedCoupling, Scenario
from .loads import LoadBounds, OptimizerOptions, VaractorModel

_LENGTH_UNITS = {"m": 1.0, "mm": 1e-3, "cm": 1e-2}
_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_ANGLE_UNITS = {"rad": 1.0, "deg": math.pi / 180.0}
_CAP_UNITS = {"f": 1.0, "nf": 1e-9, "pf": 1e-12}
_RES_UNITS = {"ohm": 1.0}
_IND_UNITS = {"h": 1.0, "nh": 1e-9, "ph": 1e-12}


@dataclass(frozen=True)
class GridLayout:
    """Regular element grid: cols along x, rows along z, centered layout."""

    rows: int
    cols: int
    pitch_x_m: float
    pitch_z_m: float
    offset_x_m: float = 0.0
    offset_z_m: float = 0.0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigError("grid.rows and grid.cols must be >= 1")
        if self.pitch_x_m <= 0 or self.pitch_z_m <= 0:
            raise ConfigError("grid pitches must be positive")

    def elements(self) -> tuple[ElementGeometry, ...]:
        out = []
        for r in range(self.rows):
            for c in range(self.cols):
                m = r * self.cols + c + 1
                x = (c - (self.cols - 1) / 2.0) * self.pitch_x_m + self.offset_x_m
                z = (r - (self.rows - 1) / 2.0) * self.pitch_z_m + self.offset_z_m
                out.append(ElementGeometry(m, x, z))
        return tuple(out)


@dataclass(frozen=True)
class RisFile:
    path: Path
    freq_tol_hz: float = 1e3


@dataclass(frozen=True)
class RisSynthesis:
    model: IsolatedCoupling | ExpDecayCoupling


RisSource = Union[RisFile, RisSynthesis]


@dataclass(frozen=True)
class PatternsFile:
    path: Path


@dataclass(frozen=True)
class PatternsUniform:
    gain_lin: float


PatternsSource = Union[PatternsFile, PatternsUniform]


@dataclass(frozen=True)
class SweepGrid:
    start_rad: float
    stop_rad: float
    step_rad: float

    def __post_init__(self):
        for key, angle in (("sweep.start", self.start_rad), ("sweep.stop", self.stop_rad)):
            if not abs(angle) <= MAX_ANGLE_RAD:
                raise ConfigError(f"{key} must lie within [-90, 90] deg, got {math.degrees(angle):g} deg")
        if not 0 < self.step_rad < math.inf:
            raise ConfigError("sweep.step must be positive and finite")
        if self.stop_rad < self.start_rad:
            raise ConfigError("sweep grid is empty (stop < start)")

    def alphas_rad(self) -> np.ndarray:
        """start, start + step, ... up to stop; a last step that would pass stop is dropped."""
        count = int(round((self.stop_rad - self.start_rad) / self.step_rad)) + 1
        alphas = self.start_rad + self.step_rad * np.arange(count)
        return alphas[alphas <= self.stop_rad + 1e-12]


@dataclass(frozen=True)
class ReflectorSpec:
    width_m: float
    height_m: float

    def __post_init__(self):
        if self.width_m <= 0 or self.height_m <= 0:
            raise ConfigError("reflector dimensions must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved run configuration."""

    scenario: Scenario
    bounds: LoadBounds
    ris: RisSource
    patterns: PatternsSource
    varactor: VaractorModel
    sweep: SweepGrid
    reflector: ReflectorSpec | None
    optimizer: OptimizerOptions
    out_dir: Path
    raw: dict[str, str]


class _KeyValues:
    def __init__(self, text: str):
        self.values: dict[str, str] = {}
        self.consumed: set[str] = set()
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ConfigError(f"line {line_no}: empty key or value")
            if key in self.values:
                raise ConfigError(f"line {line_no}: duplicate key {key!r}")
            self.values[key] = value

    def has(self, key: str) -> bool:
        return key in self.values

    def take(self, key: str) -> str | None:
        self.consumed.add(key)
        return self.values.get(key)

    def require(self, key: str) -> str:
        value = self.take(key)
        if value is None:
            raise ConfigError(f"missing mandatory key {key!r}")
        return value

    def unconsumed(self) -> list[str]:
        return sorted(set(self.values) - self.consumed)


def _quantity(key: str, text: str, units: dict[str, float], unit_names: str) -> float:
    parts = text.split()
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected '<number> <unit>' with unit in ({unit_names})")
    try:
        number = float(parts[0])
    except ValueError:
        raise ConfigError(f"{key}: invalid number {parts[0]!r}") from None
    scale = units.get(parts[1].lower())
    if scale is None:
        raise ConfigError(f"{key}: unknown unit {parts[1]!r}, expected one of ({unit_names})")
    return number * scale


def _db(key: str, text: str) -> float:
    parts = text.split()
    if len(parts) != 2 or parts[1].lower() != "db":
        raise ConfigError(f"{key}: expected '<number> dB'")
    try:
        return float(parts[0])
    except ValueError:
        raise ConfigError(f"{key}: invalid number {parts[0]!r}") from None


def _number(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a plain number, got {text!r}") from None


def _integer(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _build(keys: str, make, **fields):
    """``make(**fields)``, with a ValueError from its validation raised as a ConfigError naming ``keys``."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from None


def _parse_elements(kv: _KeyValues) -> tuple[ElementGeometry, ...]:
    has_grid = any(k.startswith("grid.") for k in kv.values)
    explicit = sorted(
        {k.split(".")[1] for k in kv.values if k.startswith("element.")}, key=lambda s: int(s)
    ) if any(k.startswith("element.") for k in kv.values) else []
    if has_grid and explicit:
        raise ConfigError("use either grid.* or element.* coordinates, not both")
    if not has_grid and not explicit:
        raise ConfigError("no elements defined: add grid.* keys or element.<m>.x/z entries")

    if has_grid:
        grid = GridLayout(
            rows=_integer("grid.rows", kv.require("grid.rows")),
            cols=_integer("grid.cols", kv.require("grid.cols")),
            pitch_x_m=_quantity("grid.pitch_x", kv.require("grid.pitch_x"), _LENGTH_UNITS, "m/mm/cm"),
            pitch_z_m=_quantity("grid.pitch_z", kv.require("grid.pitch_z"), _LENGTH_UNITS, "m/mm/cm"),
            offset_x_m=_optional_length(kv, "grid.offset_x", 0.0),
            offset_z_m=_optional_length(kv, "grid.offset_z", 0.0),
        )
        return _build("grid.*", grid.elements)

    elements = []
    for token in explicit:
        try:
            m = int(token)
        except ValueError:
            raise ConfigError(f"invalid element number {token!r}") from None
        x = _quantity(f"element.{m}.x", kv.require(f"element.{m}.x"), _LENGTH_UNITS, "m/mm/cm")
        z = _quantity(f"element.{m}.z", kv.require(f"element.{m}.z"), _LENGTH_UNITS, "m/mm/cm")
        elements.append(_build(f"element.{m}.x/element.{m}.z", ElementGeometry, index_m=m, x_m=x, z_m=z))
    return tuple(elements)


def _optional_length(kv: _KeyValues, key: str, default: float) -> float:
    value = kv.take(key)
    return default if value is None else _quantity(key, value, _LENGTH_UNITS, "m/mm/cm")


def _parse_ris(kv: _KeyValues, base_dir: Path) -> RisSource:
    file_value = kv.take("ris.file")
    model_value = kv.take("ris.model")
    if (file_value is None) == (model_value is None):
        raise ConfigError("set exactly one of ris.file or ris.model")
    if file_value is not None:
        path = _referenced_file(base_dir, file_value, "ris.file")
        tol_value = kv.take("ris.freq_tol")
        tol = 1e3 if tol_value is None else _quantity("ris.freq_tol", tol_value, _FREQ_UNITS, "Hz/kHz/MHz/GHz")
        return RisFile(path, tol)

    s_mm = complex(
        _number("ris.smm_re", kv.take("ris.smm_re") or "0"),
        _number("ris.smm_im", kv.take("ris.smm_im") or "0"),
    )
    if model_value == "isolated":
        return RisSynthesis(_build("ris.smm_re/ris.smm_im", IsolatedCoupling, s_mm=s_mm))
    if model_value == "exp_decay":
        return RisSynthesis(
            _build(
                "ris.smm_re/ris.smm_im/ris.c0/ris.rolloff",
                ExpDecayCoupling,
                s_mm=s_mm,
                c0=_number("ris.c0", kv.require("ris.c0")),
                rolloff_m=_quantity("ris.rolloff", kv.require("ris.rolloff"), _LENGTH_UNITS, "m/mm/cm"),
            )
        )
    raise ConfigError(f"ris.model must be isolated or exp_decay, got {model_value!r}")


def _parse_patterns(kv: _KeyValues, base_dir: Path) -> PatternsSource:
    file_value = kv.take("patterns.file")
    gain_value = kv.take("patterns.gain_db")
    if (file_value is None) == (gain_value is None):
        raise ConfigError("set exactly one of patterns.file or patterns.gain_db")
    if file_value is not None:
        return PatternsFile(_referenced_file(base_dir, file_value, "patterns.file"))
    return PatternsUniform(10.0 ** (_db("patterns.gain_db", gain_value) / 10.0))


def _referenced_file(base_dir: Path, value: str, key: str) -> Path:
    path = Path(value)
    if not path.is_absolute():
        path = base_dir / path
    if not path.is_file():
        raise ConfigError(f"{key}: referenced file does not exist: {path}")
    return path


def load_scenario(config_text: str, base_dir: str | Path | None = None) -> ScenarioConfig:
    """Parse a config document into a fully validated :class:`ScenarioConfig`.

    Relative file references resolve against ``base_dir`` (default: the
    current directory). Unknown keys are rejected.
    """
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    kv = _KeyValues(config_text)

    freq_hz = _quantity("freq", kv.require("freq"), _FREQ_UNITS, "Hz/kHz/MHz/GHz")
    scenario = _build(
        "range/alpha/beta/freq/gain_tx_db/gain_rx_db",
        Scenario,
        r_m=_quantity("range", kv.require("range"), _LENGTH_UNITS, "m/mm/cm"),
        alpha_rad=_quantity("alpha", kv.require("alpha"), _ANGLE_UNITS, "deg/rad"),
        beta_rad=_quantity("beta", kv.require("beta"), _ANGLE_UNITS, "deg/rad"),
        freq_hz=freq_hz,
        g_tx_lin=10.0 ** (_db("gain_tx_db", kv.require("gain_tx_db")) / 10.0),
        g_rx_lin=10.0 ** (_db("gain_rx_db", kv.require("gain_rx_db")) / 10.0),
        elements=_parse_elements(kv),
    )

    c_min = _quantity("bounds.c_min", kv.require("bounds.c_min"), _CAP_UNITS, "F/nF/pF")
    c_max = _quantity("bounds.c_max", kv.require("bounds.c_max"), _CAP_UNITS, "F/nF/pF")
    bounds = _build("bounds.c_min/bounds.c_max", LoadBounds, c_min_f=c_min, c_max_f=c_max)

    ris = _parse_ris(kv, base)
    patterns = _parse_patterns(kv, base)

    varactor = _build(
        "varactor.rs/varactor.ls",
        VaractorModel,
        series_resistance_ohm=(
            _quantity("varactor.rs", kv.take("varactor.rs"), _RES_UNITS, "ohm")
            if kv.has("varactor.rs") else 0.0
        ),
        series_inductance_h=(
            _quantity("varactor.ls", kv.take("varactor.ls"), _IND_UNITS, "H/nH/pH")
            if kv.has("varactor.ls") else 0.0
        ),
    )

    sweep = SweepGrid(
        start_rad=_optional_angle(kv, "sweep.start", -math.pi / 2),
        stop_rad=_optional_angle(kv, "sweep.stop", math.pi / 2),
        step_rad=_optional_angle(kv, "sweep.step", math.radians(1.0)),
    )

    reflector = None
    if kv.has("reflector.width") or kv.has("reflector.height"):
        reflector = ReflectorSpec(
            width_m=_quantity("reflector.width", kv.require("reflector.width"), _LENGTH_UNITS, "m/mm/cm"),
            height_m=_quantity("reflector.height", kv.require("reflector.height"), _LENGTH_UNITS, "m/mm/cm"),
        )

    optimizer = _build(
        "opt.starts/opt.max_evals",
        OptimizerOptions,
        starts=_integer("opt.starts", kv.take("opt.starts") or "8"),
        max_evals=_integer("opt.max_evals", kv.take("opt.max_evals") or "2000"),
        seed=_integer("opt.seed", kv.take("opt.seed") or "0"),
    )

    out_dir = Path(kv.take("out.dir") or ".")
    if not out_dir.is_absolute():
        out_dir = base / out_dir

    unknown = kv.unconsumed()
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")

    return ScenarioConfig(
        scenario=scenario,
        bounds=bounds,
        ris=ris,
        patterns=patterns,
        varactor=varactor,
        sweep=sweep,
        reflector=reflector,
        optimizer=optimizer,
        out_dir=out_dir,
        raw=dict(kv.values),
    )


def _optional_angle(kv: _KeyValues, key: str, default: float) -> float:
    value = kv.take(key)
    return default if value is None else _quantity(key, value, _ANGLE_UNITS, "deg/rad")


def read_scenario(path: str | Path) -> ScenarioConfig:
    """Load a config file; relative references resolve against its directory."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file does not exist: {path}")
    return load_scenario(path.read_text(encoding="utf-8"), base_dir=path.parent)
