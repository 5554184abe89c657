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


def _header(line: str) -> tuple[str, ...]:
    return tuple(cell.strip().lower() for cell in line.split(","))


def parse_pattern_table(text: str | bytes) -> list[ElementPattern]:
    """Parse a pattern CSV into per-element patterns, sorted by element number.

    Each column of a section is converted in one call and checked as an
    array. A defective row sends the table through a row-by-row re-scan that
    raises the error of the first one, with its line. NaN or infinite
    azimuths, NaN gains and |s_mm| > 1 are defects too.
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
    except (ValueError, OverflowError):
        _rescan(lines, numbers)
        raise

    if not gain_m.size:
        raise PatternError("pattern table contains no gain rows")
    elements = sorted(set(gain_m.tolist()))
    missing = sorted(set(elements) - set(smm))
    if missing:
        raise PatternError(f"missing s_mm rows for elements {missing}")
    orphaned = sorted(set(smm) - set(elements))
    if orphaned:
        raise PatternError(f"s_mm rows for elements without gain data: {orphaned}")

    order = np.lexsort((az_deg, gain_m))
    # Python's pow per sample: numpy's power rounds some samples differently.
    gain_lin = np.array(list(map(pow, repeat(10.0), (gain_db / 10.0).tolist())))
    patterns = []
    for m, idx in zip(elements, np.split(order, np.flatnonzero(np.diff(gain_m[order])) + 1)):
        azimuths, az_rad = az_deg[idx], np.radians(az_deg[idx])
        if np.any(az_rad[1:] == az_rad[:-1]):  # in radians: distinct tiny degrees can round together
            raise PatternError(f"element {m}: duplicate azimuth sample")
        lo, hi = azimuths[0], azimuths[-1]
        if lo > -_REQUIRED_COVERAGE_DEG + _COVERAGE_SLACK_DEG or hi < _REQUIRED_COVERAGE_DEG - _COVERAGE_SLACK_DEG:
            raise PatternError(
                f"element {m}: pattern covers [{lo:g}, {hi:g}] deg, "
                f"needs at least [-90, 90] deg"
            )
        patterns.append(ElementPattern(m, az_rad, gain_lin[idx], smm[m]))
    return patterns


def _columns(lines: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element numbers and the two float columns of data rows, parsed as ``int()`` and ``float()`` do."""
    if set(map(str.count, lines, repeat(","))) - {2}:
        raise ValueError("expected 3 comma-separated values")
    cells = ",".join(lines).split(",") if lines else []
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
        if section == "smm" and m in smm:
            raise PatternError(f"line {line_no}: duplicate s_mm row for element {m}")
        if section == "smm" and not abs(complex(a, b)) <= _MAX_SMM:
            raise PatternError(f"line {line_no}: |s_mm| = {abs(complex(a, b)):.6f} exceeds 1")
        if section == "smm":
            smm.add(m)


def format_pattern_table(patterns: list[ElementPattern]) -> str:
    """Serialize patterns back to the CSV layout documented above."""
    lines = [",".join(GAIN_HEADER)]
    for pat in sorted(patterns, key=lambda p: p.index_m):
        for az, g in zip(pat.azimuth_rad, pat.gain_lin):
            dbi = 10.0 * math.log10(g) if g > 0 else float("-inf")
            lines.append(f"{pat.index_m},{math.degrees(az)!r},{dbi!r}")
    lines.append(",".join(SMM_HEADER))
    for pat in sorted(patterns, key=lambda p: p.index_m):
        lines.append(f"{pat.index_m},{pat.s_mm.real!r},{pat.s_mm.imag!r}")
    return "\n".join(lines) + "\n"
