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
degrees -> radians on parse. The parser reads the lines once, checks the
rows as arrays, and names the line of the first defective row in the file.
A parsed table can be cached beside it through
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
from .farfield import ElementPattern

GAIN_HEADER = ("m", "azimuth_deg", "gain_dbi")
SMM_HEADER = ("m", "smm_re", "smm_im")
_HEADERS = [GAIN_HEADER, SMM_HEADER]

_REQUIRED_COVERAGE_DEG = 90.0
_COVERAGE_SLACK_DEG = 1e-9
#: Largest |s_mm| accepted, as in :class:`ElementPattern`.
_MAX_SMM = 1.0 + 1e-9


def parse_pattern_table(text: str | bytes) -> list[ElementPattern]:
    """Parse a pattern CSV into per-element patterns, sorted by element number.

    One pass over the lines checks the headers and the cell count of each
    row in file order and keeps each data row's line number. Each column is
    then converted in one call (``int()`` or ``float()`` per cell) and each
    row checked as an array: a bad number, an element number outside int64,
    a NaN or infinite azimuth, a NaN or +inf gain or one that overflows in
    linear, a repeated s_mm row and |s_mm| > 1. The error names the line of
    the first defective row, which wins over a structural defect on a later
    line. Every element's azimuths are then checked at once.
    """
    if isinstance(text, bytes):
        text = decoded(text, PatternError)
    rows, numbers, section, defect = [], [], None, None
    for line_no, line in enumerate(map(str.strip, text.splitlines()), start=1):
        if not line or line[0] == "#":
            continue
        if line[0] in "mM":  # a header, or a row whose element number is not a number
            header = tuple(cell.strip().lower() for cell in line.split(","))
            if header == GAIN_HEADER and section is not None:
                defect = line_no, "unexpected repeated gain header"
                break
            if header == SMM_HEADER and section != "gain":
                defect = line_no, "s_mm section before the gain section"
                break
            if header in _HEADERS:
                section, split = ("gain" if header == GAIN_HEADER else "smm"), len(rows)
                continue
        if section is None:
            defect = line_no, f"expected header '{','.join(GAIN_HEADER)}' first"
            break
        if line.count(",") != 2:
            defect = line_no, "expected 3 comma-separated values"
            break
        rows.append(line)
        numbers.append(line_no)
    if section != "smm":
        split = len(rows)

    def columns(rows: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Element numbers and the two values of ``rows``, one ``int()``/``float()`` per cell, a column per call."""
        cells = ",".join(rows).split(",") if rows else []
        return np.array(cells[0::3], np.int64), np.array(cells[1::3], float), np.array(cells[2::3], float)

    try:
        m, a, b = columns(rows)
    except (ValueError, OverflowError):  # a bad cell: its row is the defect, and the rows before it are checked
        for r, cells in enumerate(row.split(",") for row in rows):
            try:
                k = int(cells[0])
                float(cells[1]), float(cells[2])
            except ValueError:
                defect = numbers[r], "invalid numeric value"
                break
            if not -(2**63) <= k < 2**63:
                defect = numbers[r], f"element number {k} is out of range"
                break
        rows, split = rows[:r], min(split, r)
        m, a, b = columns(rows)
    gain_m, az_deg, gain_db, smm_m = m[:split], a[:split], b[:split], m[split:]
    # Python's pow per sample: numpy's power rounds some samples differently.
    gain_lin = np.fromiter(map(_linear, (gain_db / 10.0).tolist()), float, split)
    with np.errstate(over="ignore"):
        magnitude = np.hypot(a, b)  # |s_mm| on the s_mm rows, as abs(complex) computes it
    repeated = np.ones(smm_m.size, bool)
    repeated[np.unique(smm_m, return_index=True)[1]] = False
    failed = np.zeros((5, m.size), bool)  # each row's checks, in order
    failed[:3, :split] = ~np.isfinite(az_deg), ~(gain_db < math.inf), gain_lin == math.inf
    failed[3:, split:] = repeated, ~(magnitude[split:] <= _MAX_SMM)
    if failed.any():
        r = int(np.argmax(failed.any(axis=0)))
        k, x, y = m[r].item(), a[r].item(), b[r].item()
        defect = numbers[r], [
            f"azimuth {x} deg is not finite",
            f"gain {'+inf dBi is not physical' if y > 0 else 'is not a number'}",
            f"gain {y:g} dBi overflows a float",
            f"duplicate s_mm row for element {k}",
            f"|s_mm| = {magnitude[r]:.6f} exceeds 1",
        ][int(np.argmax(failed[:, r]))]
    if defect:
        raise PatternError("line {}: {}".format(*defect))
    smm = dict(zip(smm_m.tolist(), map(complex, a[split:].tolist(), b[split:].tolist())))

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
    return [  # the checks above are those of ElementPattern, so each is built without repeating them
        ElementPattern._checked(m, az_rad[a:b], gain_lin[a:b], smm[m])
        for m, a, b in zip(elements, starts.tolist(), stops.tolist())
    ]


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


def _linear(tenth_db: float) -> float:
    """``10 ** tenth_db`` as Python's pow rounds it, or inf where that overflows."""
    try:
        return pow(10.0, tenth_db)
    except OverflowError:
        return math.inf
