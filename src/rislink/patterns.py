"""Element pattern table parsing (purpose-built CSV).

File layout, bit-exact::

    m,azimuth_deg,gain_dbi
    <element>,<azimuth in degrees>,<gain in dBi, -inf allowed>
    ...
    m,smm_re,smm_im
    <element>,<Re s_mm>,<Im s_mm>
    ...

Blank lines and lines starting with '#' are ignored. Gain rows may appear
in any order; each element needs a single s_mm row and azimuth coverage of
at least [-90, +90] degrees. Gains are converted dBi -> linear and azimuths
degrees -> radians on parse.
"""

from __future__ import annotations

import math
import re
from itertools import repeat
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import PatternError
from .farfield import ElementPattern

GAIN_HEADER = ("m", "azimuth_deg", "gain_dbi")
SMM_HEADER = ("m", "smm_re", "smm_im")
_HEADERS = [GAIN_HEADER, SMM_HEADER]

_REQUIRED_COVERAGE_DEG = 90.0
_COVERAGE_SLACK_DEG = 1e-9
#: Largest |s_mm| accepted, as in :class:`ElementPattern`.
_MAX_SMM = 1.0 + 1e-9
#: Every byte but ',' and '\n', which the row check deletes.
_NOT_COMMA_OR_EOL = bytes(sorted(set(range(256)) - set(b",\n")))


def _header(line: str) -> tuple[str, ...]:
    return tuple(cell.strip().lower() for cell in line.split(","))


def parse_pattern_table(text: str | bytes) -> list[ElementPattern]:
    """Parse a pattern CSV into per-element patterns, sorted by element number.

    Each column of a section is converted in one call and checked as an
    array, and every element's azimuths are checked at once. A defective
    row sends the table through a row-by-row re-scan that raises the error
    of the first one, with its line. NaN or infinite azimuths, NaN gains and
    |s_mm| > 1 are defects too.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = list(map(str.strip, text.splitlines()))
    numbers: Sequence[int] = range(1, len(lines) + 1)
    if "" in lines or "#" in text:
        numbers = [no for no, line in zip(numbers, lines) if line[:1] not in ("", "#")]
        lines = [line for line in lines if line[:1] not in ("", "#")]
    heads = [h.start() for h in re.finditer("[mM]", "".join(map(itemgetter(0), lines)))]
    split = heads[1] if len(heads) > 1 else len(lines)
    try:
        headers = [_header(lines[h]) for h in heads]
        if lines and heads[:1] != [0] or headers != _HEADERS[: len(heads)]:
            raise ValueError("misplaced header")
        gain_m, az_deg, gain_db = _columns(lines[1:split])
        smm_m, smm_re, smm_im = _columns(lines[split + 1 :])
        smm = dict(zip(smm_m.tolist(), map(complex, smm_re.tolist(), smm_im.tolist())))
        if (
            len(smm) < smm_m.size
            or not all(abs(s_mm) <= _MAX_SMM for s_mm in smm.values())
            or np.any(~np.isfinite(az_deg) | ~(gain_db < math.inf))
        ):
            raise ValueError("a row's values are out of range")
        # Python's pow per sample: numpy's power rounds some samples differently.
        gain_lin = np.fromiter(map(pow, repeat(10.0), (gain_db / 10.0).tolist()), float, gain_db.size)
    except (ValueError, OverflowError):
        _rescan(lines, numbers)
        raise

    if not gain_m.size:
        raise PatternError("pattern table contains no gain rows")
    order = np.lexsort((az_deg, gain_m))
    m_sorted, azimuths = gain_m[order], az_deg[order]
    cuts = np.flatnonzero(m_sorted[1:] != m_sorted[:-1]) + 1
    starts, stops = np.r_[0, cuts], np.r_[cuts, order.size]
    elements = m_sorted[starts].tolist()
    missing = sorted(set(elements) - set(smm))
    if missing:
        raise PatternError(f"missing s_mm rows for elements {missing}")
    orphaned = sorted(set(smm) - set(elements))
    if orphaned:
        raise PatternError(f"s_mm rows for elements without gain data: {orphaned}")

    # Every element at once, each in the row parser's order: exact duplicates in degrees, then
    # coverage, then distinct tiny degrees that round together in radians.
    az_rad, within = np.radians(azimuths), m_sorted[1:] == m_sorted[:-1]
    duplicate = within & (azimuths[1:] == azimuths[:-1])
    lo, hi = azimuths[starts], azimuths[stops - 1]
    reach = _REQUIRED_COVERAGE_DEG - _COVERAGE_SLACK_DEG
    uncovered = (lo > -reach) | (hi < reach)
    defective = uncovered.copy()
    # Rows p and p + 1 of one element collide in radians (a duplicate does too): that element is defective.
    defective[np.searchsorted(stops, np.flatnonzero(within & (az_rad[1:] == az_rad[:-1])), side="right")] = True
    if defective.any():
        k = int(np.argmax(defective))
        if uncovered[k] and not duplicate[starts[k] : stops[k] - 1].any():
            raise PatternError(
                f"element {elements[k]}: pattern covers [{lo[k]:g}, {hi[k]:g}] deg, "
                f"needs at least [-90, 90] deg"
            )
        raise PatternError(f"element {elements[k]}: duplicate azimuth sample")
    gain_lin = gain_lin[order]
    return [
        ElementPattern(m, az_rad[a:b], gain_lin[a:b], smm[m])
        for m, a, b in zip(elements, starts.tolist(), stops.tolist())
    ]


def _columns(lines: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element numbers and the two float columns of data rows, parsed as ``int()`` and ``float()`` do."""
    section = "\n".join(lines)
    # Two commas on every row: the section's commas and line breaks alone read ",,\n,,\n...,,".
    if section.encode().translate(None, _NOT_COMMA_OR_EOL) != b"\n".join(repeat(b",,", len(lines))):
        raise ValueError("expected 3 comma-separated values")
    cells = section.replace("\n", ",").split(",") if lines else []
    return np.array(cells[0::3], dtype=np.int64), *(np.array(cells[k::3], dtype=float) for k in (1, 2))


def _rescan(lines: list[str], numbers: Sequence[int]) -> None:
    """Raise the error of the first defective row, with its line: the error path only."""
    section: str | None = None
    smm: set[int] = set()
    for line_no, line in zip(numbers, lines):
        header = _header(line)
        if header == GAIN_HEADER and section is not None:
            raise PatternError(f"line {line_no}: unexpected repeated gain header")
        if header == SMM_HEADER and section != "gain":
            raise PatternError(f"line {line_no}: s_mm section before the gain section")
        if header in _HEADERS:
            section = "gain" if header == GAIN_HEADER else "smm"
            continue
        if section is None:
            raise PatternError(f"line {line_no}: expected header '{','.join(GAIN_HEADER)}' first")
        if len(header) != 3:
            raise PatternError(f"line {line_no}: expected 3 comma-separated values")
        try:
            m, a, b = int(header[0]), float(header[1]), float(header[2])
        except ValueError:
            raise PatternError(f"line {line_no}: invalid numeric value") from None
        if not -(2**63) <= m < 2**63:
            raise PatternError(f"line {line_no}: element number {m} is out of range")
        if section == "gain" and not math.isfinite(a):
            raise PatternError(f"line {line_no}: azimuth {a} deg is not finite")
        if section == "gain" and not b < math.inf:
            what = "+inf dBi is not physical" if b > 0 else "is not a number"
            raise PatternError(f"line {line_no}: gain {what}")
        if section == "gain":
            try:
                pow(10.0, b / 10.0)
            except OverflowError:
                raise PatternError(f"line {line_no}: gain {b:g} dBi overflows a float") from None
        if section == "smm" and m in smm:
            raise PatternError(f"line {line_no}: duplicate s_mm row for element {m}")
        if section == "smm" and not abs(complex(a, b)) <= _MAX_SMM:
            raise PatternError(f"line {line_no}: |s_mm| = {abs(complex(a, b)):.6f} exceeds 1")
        if section == "smm":
            smm.add(m)
