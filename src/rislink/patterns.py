"""Element pattern table parsing (purpose-built CSV).

File layout, bit-exact::

    m,azimuth_deg,gain_dbi
    <element>,<azimuth in degrees>,<gain in dBi, -inf allowed>
    ...
    m,smm_re,smm_im
    <element>,<Re s_mm>,<Im s_mm>
    ...

Blank lines and lines starting with '#' are ignored. Element numbers are
integers >= 1. Gain rows may appear in any order; each element needs a
single s_mm row and azimuth coverage of at least [-90, +90] degrees, to
within ``COVERAGE_SLACK_DEG``. Gains are converted dBi -> linear and
azimuths degrees -> radians on parse. The parser reads the lines once,
checks each row as it reads it, and names the line of the first defective
row in the file. A parsed table can be cached beside it through
``cache`` (``load_cached_patterns``/``store_cached_patterns``): its rows'
element numbers, azimuths and linear gains, and each element's s_mm, keyed
by the SHA-256 of the file's bytes and of this module's code. A hit builds
the patterns from the members as they were stored, which ``cache`` checks,
and repeats none of the parse's checks.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import cache
from .errors import PatternError, decoded
from .farfield import COVERAGE_SLACK_DEG, ElementPattern

GAIN_HEADER = ("m", "azimuth_deg", "gain_dbi")
SMM_HEADER = ("m", "smm_re", "smm_im")

#: Largest |s_mm| accepted, as in :class:`ElementPattern`.
_MAX_SMM = 1.0 + 1e-9


def parse_pattern_table(text: str | bytes) -> list[ElementPattern]:
    """Parse a pattern CSV into per-element patterns, sorted by element number.

    One pass over the lines checks each row as it reads it, in file order: the headers and the cell count, then
    ``int()``/``float()`` per cell, an element number from 1 to below 2**63, a finite azimuth, a gain that is
    neither NaN nor +inf and does not overflow in linear, a repeated s_mm row and |s_mm| > 1. The error names
    the line of the first defective row. Then the table: gain and s_mm rows name the same elements, and each
    element in ascending order holds no azimuth twice in degrees, covers [-90, 90] deg to within
    ``COVERAGE_SLACK_DEG``, and holds no two azimuths that round together in radians.
    """
    if isinstance(text, bytes):
        text = decoded(text, PatternError)
    gains, smm, section = {}, {}, None  # element -> [(azimuth in degrees, linear gain)], element -> s_mm
    for line_no, line in enumerate(map(str.strip, text.splitlines()), start=1):
        if not line or line[0] == "#":
            continue
        cells = line.split(",")
        header = tuple(cell.strip().lower() for cell in cells) if line[0] in "mM" else None
        if header == GAIN_HEADER and section is not None:
            defect = "unexpected repeated gain header"
        elif header == SMM_HEADER and section != GAIN_HEADER:
            defect = "s_mm section before the gain section"
        elif header in (GAIN_HEADER, SMM_HEADER):
            section = header
            continue
        elif section is None:
            defect = f"expected header '{','.join(GAIN_HEADER)}' first"
        elif len(cells) != 3:
            defect = "expected 3 comma-separated values"
        elif not (defect := _row_defect(section, cells, gains, smm)):
            continue
        raise PatternError(f"line {line_no}: {defect}")

    if not gains:
        raise PatternError("pattern table contains no gain rows")
    missing = sorted(set(gains) - set(smm))
    if missing:
        raise PatternError(f"missing s_mm rows for elements {missing}")
    orphaned = sorted(set(smm) - set(gains))
    if orphaned:
        raise PatternError(f"s_mm rows for elements without gain data: {orphaned}")
    patterns, reach = [], 90.0 - COVERAGE_SLACK_DEG
    for m in sorted(gains):
        azimuths, gain_lin = map(np.array, zip(*sorted(gains[m])))
        if (azimuths[0] > -reach or azimuths[-1] < reach) and not (azimuths[1:] == azimuths[:-1]).any():
            raise PatternError(
                f"element {m}: pattern covers [{azimuths[0]:g}, {azimuths[-1]:g}] deg, needs at least [-90, 90] deg"
            )
        azimuth_rad = np.radians(azimuths)
        if (azimuth_rad[1:] == azimuth_rad[:-1]).any():  # a duplicate in degrees, or two that round together
            raise PatternError(f"element {m}: duplicate azimuth sample")
        patterns.append(ElementPattern._checked(m, azimuth_rad, gain_lin, smm[m]))
    return patterns


def _row_defect(section: tuple[str, ...], cells: list[str], gains: dict, smm: dict) -> str | None:
    """What is wrong with the data row ``cells`` of ``section``, or None once it is added to ``gains`` or ``smm``."""
    try:
        m, a, b = int(cells[0]), float(cells[1]), float(cells[2])
    except ValueError:
        return "invalid numeric value"
    if not 1 <= m < 2**63:
        return f"element number {m} is out of range"
    if section == SMM_HEADER:
        if m in smm:
            return f"duplicate s_mm row for element {m}"
        if not math.hypot(a, b) <= _MAX_SMM:
            return f"|s_mm| = {math.hypot(a, b):.6f} exceeds 1"
        smm[m] = complex(a, b)
        return None
    if not math.isfinite(a):
        return f"azimuth {a} deg is not finite"
    if not b < math.inf:
        return f"gain {'+inf dBi is not physical' if b > 0 else 'is not a number'}"
    try:  # Python's pow per sample: numpy's power rounds some samples differently
        gains.setdefault(m, []).append((a, pow(10.0, b / 10.0)))
    except OverflowError:
        return f"gain {b:g} dBi overflows a float"
    return None


def load_cached_patterns(path: str | Path, digest: str) -> list[ElementPattern] | None:
    """The cached parse of the table ``path`` whose bytes have SHA-256 ``digest``, or None.

    The entry must carry this digest and this parser's key, and its members must be as
    ``store_cached_patterns`` wrote them (see ``cache``): then they are the checked output of a parse, rows
    sorted by element and azimuth, and the patterns are built without repeating its checks. Anything else is a miss.
    """
    return cache.load(path, digest, __file__, _patterns_of)


def _patterns_of(read) -> list[ElementPattern]:
    m, az, gain, smm = map(read, ("m", "azimuth_rad", "gain_lin", "smm"))
    starts = np.flatnonzero(np.r_[True, m[1:] != m[:-1]])
    stops = np.r_[starts[1:], m.size]
    return [
        ElementPattern._checked(k, az[a:b], gain[a:b], s)
        for k, a, b, s in zip(m[starts].tolist(), starts.tolist(), stops.tolist(), smm.tolist())
    ]


def store_cached_patterns(path: str | Path, digest: str, patterns: list[ElementPattern]) -> None:
    """Cache ``patterns`` as the parse of the table ``path`` whose bytes have SHA-256 ``digest`` (best effort)."""
    cache.store(
        path, digest, __file__,
        m=np.repeat(np.array([p.index_m for p in patterns], dtype=np.int64), [p.azimuth_rad.size for p in patterns]),
        azimuth_rad=np.concatenate([p.azimuth_rad for p in patterns]),
        gain_lin=np.concatenate([p.gain_lin for p in patterns]),
        smm=np.array([p.s_mm for p in patterns], dtype=complex),
    )

