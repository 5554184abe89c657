"""Touchstone v1 (.sNp) reading, writing and frequency selection.

Supported grammar: '!' comments (full-line and trailing), a single '#'
option line with defaults ``GHz S MA R 50`` filled in for missing tokens,
and whitespace-separated data values with free line wrapping. RI, MA and
DB value formats are normalized to complex. For 2-port files the v1
column-major quirk applies (S21 precedes S12 on the data line); 3 ports
and up are row-major. Touchstone v2 files ('[Version]' etc.) are rejected.

Only S-parameters are accepted; mixed-mode ports and noise data are out of
scope. Writing always normalizes to ``# HZ S RI R <z0>`` with shortest
round-tripping decimal literals, so parse(write(doc)) reproduces the
document exactly.
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import FrequencyNotFoundError, TouchstoneError
from .network import ScatterMatrix

FREQ_MULTIPLIERS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_VALUE_FORMATS = ("ri", "ma", "db")
_OPTION_DEFAULTS = ("ghz", "s", "ma", "r", "50")
_EXTENSION_RE = re.compile(r"\.s([0-9]+)p$", re.IGNORECASE)

#: Complex values written per line before wrapping (v1 readability limit).
_VALUES_PER_LINE = 4
#: The line boundaries of ``str.splitlines``.
_EOL_RE = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
#: Characters of data per block of the exact conversion (about 2,000 lines), which bounds its peak memory.
_BLOCK_CHARS = 1 << 18


class TouchstoneOptions(NamedTuple):
    """Decoded '#' option line."""

    freq_unit: str = "ghz"
    parameter: str = "s"
    value_format: str = "ma"
    z0_ohm: float = 50.0

    @property
    def freq_multiplier(self) -> float:
        return FREQ_MULTIPLIERS[self.freq_unit]


class TouchstoneDocument:
    """Parsed multiport S-parameter file: option line plus frequency points."""

    def __init__(self, n_ports: int, options: TouchstoneOptions, points: tuple[tuple[float, np.ndarray], ...]):
        if n_ports < 1:
            raise TouchstoneError(f"invalid port count {n_ports}")
        checked = []
        previous = -np.inf
        for freq_hz, matrix in points:
            matrix = np.array(matrix, dtype=complex)
            if matrix.shape != (n_ports, n_ports):
                raise TouchstoneError(f"matrix shape {matrix.shape} does not match {n_ports} ports")
            if freq_hz <= previous:
                raise TouchstoneError("frequencies must be strictly increasing")
            previous = freq_hz
            matrix.flags.writeable = False
            checked.append((float(freq_hz), matrix))
        self.n_ports, self.options, self.points = n_ports, options, tuple(checked)

    @property
    def frequencies_hz(self) -> tuple[float, ...]:
        return tuple(f for f, _ in self.points)


def _parse_option_line(tokens: list[str], line_no: int) -> TouchstoneOptions:
    toks = [t.lower() for t in tokens]
    toks.extend(_OPTION_DEFAULTS[len(toks):])
    unit, parameter, value_format = toks[0], toks[1], toks[2]
    if unit not in FREQ_MULTIPLIERS:
        raise TouchstoneError(f"unknown frequency unit {unit!r}", line_no)
    if parameter != "s":
        raise TouchstoneError(
            f"only S-parameters are supported, got parameter type {parameter!r}", line_no
        )
    if value_format not in _VALUE_FORMATS:
        raise TouchstoneError(f"unknown value format {value_format!r}", line_no)
    if toks[3] != "r":
        raise TouchstoneError(f"expected 'R' before the reference impedance, got {toks[3]!r}", line_no)
    try:
        z0 = float(toks[4])
    except ValueError:
        raise TouchstoneError(f"invalid reference impedance {toks[4]!r}", line_no) from None
    if not z0 > 0:
        raise TouchstoneError(f"reference impedance must be positive, got {z0}", line_no)
    if len(toks) > 5:
        raise TouchstoneError("trailing tokens after the reference impedance", line_no)
    return TouchstoneOptions(unit, parameter, value_format, z0)


def _pairs_to_complex(pairs: np.ndarray, value_format: str) -> np.ndarray:
    a, b = pairs[:, 0], pairs[:, 1]
    if value_format == "ri":
        return a + 1j * b
    if value_format == "ma":
        return a * np.exp(1j * np.radians(b))
    return 10.0 ** (a / 20.0) * np.exp(1j * np.radians(b))


def parse_touchstone(text: str | bytes, n_ports: int | None = None) -> TouchstoneDocument:
    """Parse Touchstone v1 text into a :class:`TouchstoneDocument`.

    ``n_ports`` may be omitted for 1- and 2-port files, whose single-line
    points make the count unambiguous; larger files need the explicit count
    (``read_touchstone`` derives it from the file extension). The data after
    the option line is converted in one ``np.fromstring`` call; where that
    call may disagree with ``float()`` (see ``_fast_values``), the exact
    conversion runs instead, in blocks of lines with one ``float()`` per token.
    Only a defect sends the text through a line-by-line re-scan, which names
    its line. NaN and infinities are rejected, and so are values that
    overflow when converted to hertz or to a linear magnitude.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TouchstoneError(f"file is not valid UTF-8 text: {exc}") from None

    pieces, pos = [], 0
    while (bang := text.find("!", pos)) >= 0:  # a comment runs from '!' to the end of its line
        pieces.append(text[pos:bang])
        eol = _EOL_RE.search(text, bang)
        pos = eol.start() if eol else len(text)
    pieces.append(text[pos:])
    body = "".join(filter(None, pieces))  # one piece is joined without a copy
    start = body.find("#")
    if start < 0 or body[:start].strip():
        _rescan(body)
        raise TouchstoneError("missing option line ('#')")
    eol = _EOL_RE.search(body, start)
    data = end = eol.start() if eol else len(body)
    options = _parse_option_line(body[start + 1 : data].split(), len(body[: start + 1].splitlines()))
    values = _fast_values(body[data:])
    if values is None:  # the exact conversion, one float() per token: it decides every case the fast path leaves
        blocks = [np.empty(0)]
        try:  # a '#' or '[' among the data fails the float conversion too
            while end < len(body):
                start, end = end, body.find("\n", end + _BLOCK_CHARS)
                end = len(body) if end < 0 else end
                blocks.append(np.array(body[start:end].split(), dtype=float))
        except ValueError:
            _rescan(body)
            raise
        values = np.concatenate(blocks)
        finite = np.isfinite(values)  # fast-path values are all finite
        if not finite.all():
            k = int(np.argmin(finite))
            raise TouchstoneError(f"non-finite value {float(values[k])!r}", _rescan(body, k))
    if not values.size:
        raise TouchstoneError("file contains no data")

    if n_ports is None:
        first_line = next(line.split() for line in body[data:].splitlines() if line.strip())
        n_ports = {3: 1, 9: 2}.get(len(first_line))
        if n_ports is None:
            raise TouchstoneError(
                "cannot infer port count from line shape; pass n_ports explicitly "
                "or load via read_touchstone()"
            )
    per_point = 1 + 2 * n_ports * n_ports
    if values.size % per_point != 0:
        boundary = (values.size // per_point) * per_point
        raise TouchstoneError(
            f"wrong value count for {n_ports}-port data: {values.size} values is not "
            f"a multiple of {per_point}",
            _rescan(body, min(boundary, values.size - 1)),
        )
    table = values.reshape(-1, per_point)
    with np.errstate(over="ignore", invalid="ignore"):
        freqs = table[:, 0] * options.freq_multiplier
        flat = _pairs_to_complex(table[:, 1:].reshape(-1, 2), options.value_format)
    # A finite token can overflow in conversion: a frequency times its unit, or a DB magnitude.
    if not (np.isfinite(freqs).all() and np.isfinite(flat).all()):
        finite = np.column_stack((np.isfinite(freqs), np.isfinite(flat).reshape(len(table), -1).repeat(2, axis=1)))
        k = int(np.argmin(finite))
        raise TouchstoneError(f"value {float(values[k])!r} overflows in conversion", _rescan(body, k))
    falling = np.flatnonzero(freqs[1:] <= freqs[:-1])
    if falling.size:
        line = _rescan(body, per_point * (1 + falling[0]))
        raise TouchstoneError("frequencies must be strictly increasing", line)
    matrices = flat.reshape(len(table), n_ports, n_ports)
    if n_ports == 2:  # v1 two-port order is S11 S21 S12 S22 (column-major quirk).
        matrices = matrices.transpose(0, 2, 1)
    return TouchstoneDocument(n_ports, options, tuple(zip(freqs, matrices)))


def _fast_values(data: str) -> np.ndarray | None:
    """The data values in one ``np.fromstring`` call, or None where it may disagree with ``float()``.

    ``fromstring`` refuses some tokens ``float()`` takes (``1_0``, non-ASCII
    digits and spaces), reads NaN from some it refuses (``nan(abc)``) and
    reads whitespace alone as -1; None sends each of these to the exact conversion.
    """
    if data.isspace():
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # older numpy only warns on an unread token
        try:
            values = np.fromstring(data, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    return values if np.isfinite(values).all() else None


def _rescan(body: str, index: int = -1) -> int:
    """Raise the first grammar error with its line, else return the line of data value ``index``.

    The error path only: the bulk conversion found a defect, and this line-by-line re-scan names its line.
    """
    options_seen, seen = False, 0
    for line_no, raw in enumerate(body.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("["):
            raise TouchstoneError(
                "Touchstone v2 keywords are not supported; export as Touchstone v1", line_no
            )
        if line.startswith("#"):
            if options_seen:
                raise TouchstoneError("multiple option lines", line_no)
            options_seen = True
            continue
        if not options_seen:
            raise TouchstoneError("data before the option line", line_no)
        for token in line.split():
            try:
                float(token)
            except ValueError:
                raise TouchstoneError(f"invalid numeric token {token!r}", line_no) from None
            seen += 1
            if seen > index >= 0:
                return line_no
    return 0


def ports_from_filename(path: str | Path) -> int:
    """Port count encoded in a .sNp filename."""
    match = _EXTENSION_RE.search(Path(path).name)
    if not match:
        raise TouchstoneError(f"cannot infer port count from filename {Path(path).name!r}")
    return int(match.group(1))


def read_touchstone(path: str | Path) -> TouchstoneDocument:
    """Read a .sNp file, cross-checking the extension's port count."""
    path = Path(path)
    n_ports = ports_from_filename(path)
    return parse_touchstone(path.read_bytes(), n_ports=n_ports)


def dumps_touchstone(doc: TouchstoneDocument) -> str:
    """Serialize to normalized v1 text (# HZ S RI R z0, exact decimals)."""
    lines = [f"# HZ S RI R {doc.options.z0_ohm!r}"]
    per_line = 2 * _VALUES_PER_LINE
    for freq_hz, matrix in doc.points:
        # One row per matrix row; a 2-port point is one row in v1 order S11 S21 S12 S22 (column-major quirk).
        rows = matrix.T.reshape(1, 4) if doc.n_ports == 2 else matrix
        prefix = f"{freq_hz!r} "
        for row in np.ascontiguousarray(rows).view(float).tolist():
            for j in range(0, len(row), per_line):
                lines.append(prefix + " ".join(map(repr, row[j : j + per_line])))
                prefix = ""
    return "\n".join(lines) + "\n"


def write_touchstone(doc: TouchstoneDocument, path: str | Path) -> None:
    path = Path(path)
    if _EXTENSION_RE.search(path.name) and ports_from_filename(path) != doc.n_ports:
        raise TouchstoneError(
            f"filename {path.name!r} implies {ports_from_filename(path)} ports "
            f"but document has {doc.n_ports}"
        )
    path.write_text(dumps_touchstone(doc), encoding="utf-8")


def document_from_matrix(matrix: ScatterMatrix) -> TouchstoneDocument:
    """Single-point document for one scatter matrix (RI format, Hz)."""
    options = TouchstoneOptions("hz", "s", "ri", matrix.z0_ohm)
    return TouchstoneDocument(matrix.n_ports, options, ((matrix.freq_hz, matrix.entries),))


def matrix_at_frequency(
    doc: TouchstoneDocument,
    f_hz: float,
    tol_hz: float,
    element_numbers: Sequence[int] | None = None,
) -> ScatterMatrix:
    """Pick the point within ``tol_hz`` of ``f_hz`` as a RIS-only :class:`ScatterMatrix`.

    No interpolation is performed; the model is single-frequency by design.
    Ports are RIS elements numbered 1..N unless ``element_numbers`` says otherwise.
    """
    if not doc.points:
        raise FrequencyNotFoundError("document contains no frequency points")
    deltas = [abs(f - f_hz) for f in doc.frequencies_hz]
    best = int(np.argmin(deltas))
    if deltas[best] > tol_hz:
        available = ", ".join(f"{f / 1e9:.9g} GHz" for f in doc.frequencies_hz)
        raise FrequencyNotFoundError(
            f"no point within {tol_hz:g} Hz of {f_hz / 1e9:.9g} GHz; available: {available}"
        )
    freq_hz, matrix = doc.points[best]
    return ScatterMatrix.ris_only(matrix, freq_hz, element_numbers, doc.options.z0_ohm)
