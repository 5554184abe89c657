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

A parsed export can be cached beside it through ``cache``
(``load_cached``/``store_cached``): its options, its frequencies and one
member per frequency point, keyed by the SHA-256 of the file's bytes and of
this module's code. A hit reads the frequencies and the one point it serves,
each as ``store_cached`` wrote it (``cache`` checks that), so it repeats
none of the parse's checks. The entry also holds the writer's ``repr``
tokens of the point the parsing run selected, which the writer splices into
a link matrix whose RIS block is that point instead of formatting it again.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import cache
from .errors import FrequencyNotFoundError, TouchstoneError, decoded
from .network import ScatterMatrix

FREQ_MULTIPLIERS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_VALUE_FORMATS = ("ri", "ma", "db")
_OPTION_DEFAULTS = ("ghz", "s", "ma", "r", "50")
_EXTENSION_RE = re.compile(r"\.s([0-9]+)p$", re.IGNORECASE)

#: Complex values written per line before wrapping (v1 readability limit).
_VALUES_PER_LINE = 4
#: Data tokens the reader converts at a time, which bounds the memory their strings take (about 4 MB).
_CHUNK_TOKENS = 1 << 16


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
    if not 0 < z0 < math.inf:
        raise TouchstoneError(f"reference impedance must be positive and finite, got {z0}", line_no)
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
    (``read_touchstone`` derives it from the file extension). One pass over
    the lines checks the grammar in file order and keeps the running count
    of data tokens at the end of each line, from which a defect's line is
    found. The tokens are converted with one ``float()`` each, in arrays of
    ``_CHUNK_TOKENS``, and a bad token is reported before a structural
    defect on a later line. NaN and infinities are rejected, and so are
    values that overflow when converted to hertz or to a linear magnitude.
    """
    if isinstance(text, bytes):
        text = decoded(text, TouchstoneError)
    options, defect, tokens, ends, blocks, done = None, None, [], [], [], 0

    def line_of(k: int) -> int:
        return bisect_right(ends, k) + 1

    for line_no, raw in enumerate(text.splitlines(), start=1):
        row = (raw.partition("!")[0] if "!" in raw else raw).split()  # a comment runs from '!' to the end of its line
        if row and (options is None or row[0][0] in "#["):
            if row[0][0] != "#" or options is not None:
                defect = TouchstoneError(
                    "Touchstone v2 keywords are not supported; export as Touchstone v1" if row[0][0] == "["
                    else "multiple option lines" if options else "data before the option line",
                    line_no,
                )
                break
            options, row = _parse_option_line(" ".join(row)[1:].split(), line_no), []
        tokens += row
        ends.append(done + len(tokens))  # the tokens up to the end of each line: token k is on line line_of(k)
        if len(tokens) >= _CHUNK_TOKENS:
            blocks.append(_floats(tokens, done, line_of))
            done, tokens = ends[-1], []
    blocks.append(_floats(tokens, done, line_of))  # a bad token before a structural defect is reported first
    if defect:
        raise defect
    if options is None:
        raise TouchstoneError("missing option line ('#')")
    values = np.concatenate(blocks)
    if not values.size:
        raise TouchstoneError("file contains no data")
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise TouchstoneError(f"non-finite value {float(values[k])!r}", line_of(k))

    if n_ports is None:
        n_ports = {3: 1, 9: 2}.get(ends[line_of(0) - 1])  # the token count of the first data line
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
            line_of(min(boundary, values.size - 1)),
        )
    table = values.reshape(-1, per_point)
    with np.errstate(over="ignore", invalid="ignore"):
        freqs = table[:, 0] * options.freq_multiplier
        flat = _pairs_to_complex(table[:, 1:].reshape(-1, 2), options.value_format)
    # A finite token can overflow in conversion: a frequency times its unit, or a DB magnitude.
    if not (np.isfinite(freqs).all() and np.isfinite(flat).all()):
        finite = np.column_stack((np.isfinite(freqs), np.isfinite(flat).reshape(len(table), -1).repeat(2, axis=1)))
        k = int(np.argmin(finite))
        raise TouchstoneError(f"value {float(values[k])!r} overflows in conversion", line_of(k))
    falling = np.flatnonzero(freqs[1:] <= freqs[:-1])
    if falling.size:
        raise TouchstoneError("frequencies must be strictly increasing", line_of(per_point * (1 + falling[0])))
    matrices = flat.reshape(len(table), n_ports, n_ports)
    if n_ports == 2:  # v1 two-port order is S11 S21 S12 S22 (column-major quirk).
        matrices = matrices.transpose(0, 2, 1)
    return TouchstoneDocument(n_ports, options, tuple(zip(freqs, matrices)))


def _floats(tokens: list[str], first: int, line_of: Callable[[int], int]) -> np.ndarray:
    """Data tokens ``first`` on as floats, one ``float()`` each; the first bad one raises with its line."""
    try:
        return np.array(tokens, dtype=float)
    except ValueError:
        for k, token in enumerate(tokens, start=first):
            try:
                float(token)
            except ValueError:
                raise TouchstoneError(f"invalid numeric token {token!r}", line_of(k)) from None
        raise


def ports_from_filename(path: str | Path) -> int:
    """Port count encoded in a .sNp filename."""
    match = _EXTENSION_RE.search(Path(path).name)
    if not match:
        raise TouchstoneError(f"cannot infer port count from filename {Path(path).name!r}")
    return int(match.group(1))


def read_touchstone(path: str | Path, data: str | None = None) -> TouchstoneDocument:
    """Read a .sNp file, or parse ``data``, its text already read; the extension gives the port count.

    A file that is not UTF-8 raises ``TouchstoneError("<path>: not valid UTF-8 text: ...")``.
    """
    path = Path(path)
    n_ports = ports_from_filename(path)
    return parse_touchstone(decoded(path.read_bytes(), TouchstoneError, f"{path}: ") if data is None else data, n_ports)


def load_cached(
    path: str | Path, digest: str, f_hz: float, tol_hz: float, element_numbers: Sequence[int] | None = None,
    spelled: bool = False,
) -> ScatterMatrix | tuple[ScatterMatrix, str | None] | None:
    """``matrix_at_frequency`` of the cached parse of the export ``path`` whose bytes have SHA-256 ``digest``, or None.

    The entry must carry this digest and this parser's key, and every member read must be as ``store_cached``
    wrote it (see ``cache``): the frequencies, the options and the one point that ``matrix_at_frequency`` picks.
    Anything else, a frequency outside ``tol_hz`` or a count of ``element_numbers`` that does not match included,
    is a miss. With ``spelled``, the point and its text (``store_cached``), or None for a text the entry does not
    hold as stored, which costs the point nothing.
    """
    def convert(read) -> ScatterMatrix | tuple[ScatterMatrix, str | None] | None:
        freqs = read("freqs_hz").tolist()
        best = _nearest(freqs, f_hz, tol_hz)
        if best is None:
            return None
        z0_ohm = float(str(read("options")).split()[-1])
        ris = ScatterMatrix.ris_only(read(f"point{best}"), freqs[best], element_numbers, z0_ohm)
        try:
            return (ris, read(f"text{best}").tobytes().decode("ascii")) if spelled else ris
        except KeyError:  # the point is served without its text
            return ris, None

    return cache.load(path, digest, __file__, convert)


def store_cached(path: str | Path, digest: str, doc: TouchstoneDocument, selected: int | None = None) -> None:
    """Cache ``doc`` as the parse of the export ``path`` whose bytes have SHA-256 ``digest`` (best effort).

    Each frequency point is a member of its own, so a hit reads one. Point ``selected``, if given, also gets
    ``text<selected>``: the ``repr`` of its values, row-major, re/im interleaved and joined by single spaces, in ASCII.
    """
    o = doc.options
    texts = {} if selected is None else {f"text{selected}": lambda: _text(doc.points[selected][1])}
    cache.store(
        path, digest, __file__,
        options=np.array(f"{o.freq_unit} {o.parameter} {o.value_format} r {o.z0_ohm!r}"),
        freqs_hz=np.array(doc.frequencies_hz, dtype=float),
        **{f"point{k}": matrix for k, (_, matrix) in enumerate(doc.points)},
        **texts,
    )


def _text(matrix: np.ndarray) -> np.ndarray:
    """The ``repr`` of each value of ``matrix``, row-major, re/im interleaved and joined by single spaces, in ASCII."""
    values = np.ascontiguousarray(matrix).view(float).ravel().tolist()
    return np.frombuffer(" ".join(map(repr, values)).encode("ascii"), np.uint8)


def _wrapped_rows(text: str, n: int, per_line: int) -> list[str]:
    """The rows of 2n tokens of ``text``, each wrapped as the writer wraps it after the row's first two values.

    The space before a row's first token becomes the split point, and the space before each token that starts a
    line becomes a line break; no token is copied out on its own.
    """
    chars = np.frombuffer(text.encode("ascii"), np.uint8).copy()
    spaces = np.flatnonzero(chars == 32)
    k = np.arange(1, spaces.size + 1) % (2 * n)  # the index within its row of the token after each space
    chars[spaces[k == 0]] = 0
    chars[spaces[(k + 2) % per_line == 0]] = ord("\n")
    return chars.tobytes().decode("ascii").split("\0")


def dumps_touchstone(doc: TouchstoneDocument, spelled: tuple[np.ndarray, str] | None = None) -> str:
    """Serialize to normalized v1 text (# HZ S RI R z0, exact decimals).

    ``spelled`` is (matrix, text), with ``text`` the ``repr`` of ``matrix``'s values, row-major, re/im interleaved
    and joined by single spaces, in ASCII (``store_cached``). A point whose inner block, ports 2 to P - 1, is
    bitwise ``matrix`` takes that block from ``text``; every other value is formatted with ``repr``.
    """
    lines = [f"# HZ S RI R {doc.options.z0_ohm!r}"]
    per_line, n = 2 * _VALUES_PER_LINE, doc.n_ports - 2
    inner = rows = None
    if spelled is not None and n > 0 and spelled[1].count(" ") == 2 * n * n - 1:
        inner = np.ascontiguousarray(spelled[0], dtype=complex).tobytes()
    tail = "\n" if (2 * n + 2) % per_line == 0 else " "  # a wrap, or not, before a RIS row's Rx value
    for freq_hz, matrix in doc.points:
        # One row per matrix row; a 2-port point is one row in v1 order S11 S21 S12 S22 (column-major quirk).
        values = np.ascontiguousarray(matrix.T.reshape(1, 4) if doc.n_ports == 2 else matrix).view(float)
        spliced = inner is not None and matrix[1:-1, 1:-1].tobytes() == inner
        if spliced:  # each RIS row is its Tx value, its text and its Rx value
            rows = rows or _wrapped_rows(spelled[1], n, per_line)
            edges = values[1:-1, [0, 1, -2, -1]].tolist()
        prefix = f"{freq_hz!r} "
        for i in range(len(values)):
            if spliced and 0 < i <= n:
                a, b, c, d = edges[i - 1]
                lines.append(f"{a!r} {b!r} {rows[i - 1]}{tail}{c!r} {d!r}")
                continue
            row = values[i].tolist()
            for j in range(0, len(row), per_line):
                lines.append(prefix + " ".join(map(repr, row[j : j + per_line])))
                prefix = ""
    lines.append("")
    return "\n".join(lines)


def write_touchstone(doc: TouchstoneDocument, path: str | Path, spelled: tuple[np.ndarray, str] | None = None) -> None:
    """Write ``dumps_touchstone(doc, spelled)`` to ``path``, whose .sNp extension, if any, must match the port count."""
    path = Path(path)
    if _EXTENSION_RE.search(path.name) and ports_from_filename(path) != doc.n_ports:
        raise TouchstoneError(
            f"filename {path.name!r} implies {ports_from_filename(path)} ports "
            f"but document has {doc.n_ports}"
        )
    path.write_text(dumps_touchstone(doc, spelled), encoding="utf-8")


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
    best = _nearest(doc.frequencies_hz, f_hz, tol_hz)
    if best is None:
        available = ", ".join(f"{f / 1e9:.9g} GHz" for f in doc.frequencies_hz)
        raise FrequencyNotFoundError(
            f"no point within {tol_hz:g} Hz of {f_hz / 1e9:.9g} GHz; available: {available}"
        )
    freq_hz, matrix = doc.points[best]
    return ScatterMatrix.ris_only(matrix, freq_hz, element_numbers, doc.options.z0_ohm)


def _nearest(freqs_hz: Sequence[float], f_hz: float, tol_hz: float) -> int | None:
    """Index of the first frequency nearest ``f_hz``, or None if it lies farther than ``tol_hz``."""
    deltas = [abs(f - f_hz) for f in freqs_hz]
    best = int(np.argmin(deltas))
    return None if deltas[best] > tol_hz else best
