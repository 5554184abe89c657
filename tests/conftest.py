"""Shared generators and independent oracles for the test suite."""

import math
import numpy as np
import pytest

from rislink import (
    IDEAL_VARACTOR,
    ElementPattern,
    GeometryError,
    PatternError,
    ScatterMatrix,
    TouchstoneDocument,
    TouchstoneError,
)
from rislink.farfield import coupling_rows, element_paths
from rislink.patterns import GAIN_HEADER, SMM_HEADER
from rislink.touchstone import _pairs_to_complex, _parse_option_line


def random_passive(rng, n, scale=0.95):
    """Random complex n x n matrix rescaled so its largest singular value is `scale`."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m * (scale / np.linalg.svd(m, compute_uv=False).max())


def random_reciprocal_passive(rng, n, scale=0.9):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = 0.5 * (m + m.T)
    return m * (scale / np.linalg.svd(m, compute_uv=False).max())


def random_full_link(rng, n_ris, scale=0.95, freq_hz=3.55e9):
    entries = random_passive(rng, n_ris + 2, scale)
    return ScatterMatrix.full_link(entries, freq_hz, range(1, n_ris + 1))


def brute_force_reduce(entries, ext_indices, ris_indices, gammas):
    """Signal-flow oracle: solve b = S a with a_i = gamma_i b_i on loaded ports.

    Unit incident waves are applied at each external port in turn; the
    resulting outgoing waves at the external ports are the reduced matrix.
    Independent of the terminated-port reduction formula.
    """
    p = entries.shape[0]
    gamma_full = np.zeros(p, dtype=complex)
    for i, g in zip(ris_indices, gammas):
        gamma_full[i] = g
    system = np.eye(p, dtype=complex) - entries * gamma_full[np.newaxis, :]
    reduced = np.zeros((2, 2), dtype=complex)
    for col, source in enumerate(ext_indices):
        b = np.linalg.solve(system, entries[:, source])
        for row, sink in enumerate(ext_indices):
            reduced[row, col] = b[sink]
    return reduced


def brute_force_reduce_batch(entries, ext_indices, ris_indices, gammas):
    """``brute_force_reduce`` for every row of the (B, N) ``gammas``, as one stacked (B, P, P) solve.

    Returns the (B, 2, 2) reduced matrices, ordered like ``ext_indices``.
    """
    gammas = np.asarray(gammas, dtype=complex)
    p = entries.shape[0]
    gamma_full = np.zeros((gammas.shape[0], p), dtype=complex)
    gamma_full[:, list(ris_indices)] = gammas
    system = np.eye(p, dtype=complex) - entries[np.newaxis] * gamma_full[:, np.newaxis, :]
    sources = np.broadcast_to(entries[:, list(ext_indices)], (gammas.shape[0], p, 2))
    return np.linalg.solve(system, sources)[:, list(ext_indices), :]


def grid_transfer(full, caps_f, model=IDEAL_VARACTOR):
    """|S_RxTx|^2 of a full link for every row of the (B, N) capacitances, through the stacked oracle.

    The loads are the model's series R-L-C: Z = R + j(w*L - 1/(w*C)), gamma = (Z - Z0)/(Z + Z0).
    """
    w = 2.0 * np.pi * full.freq_hz
    x = w * model.series_inductance_h - 1.0 / (w * np.asarray(caps_f))
    z = model.series_resistance_ohm + 1j * x
    gammas = (z - full.z0_ohm) / (z + full.z0_ohm)
    reduced = brute_force_reduce_batch(full.entries, (full.tx_index, full.rx_index), full.ris_indices, gammas)
    return np.abs(reduced[:, 1, 0]) ** 2


def coordinate_terms(kernel, gam, k):
    """(A, B, C) with S_RxTx = A + B*g/(1 - C*g) when load k is g and every other load is ``gam``, by a fresh solve.

    With load k matched, u and v solve (I - S_ii*Gamma) against the Tx column
    t and S_ii[:, k]; Sherman-Morrison on the rank-one change of load k gives
    A = S_ee[1, 0] + r*Gamma*u, B = (r_k + r*Gamma*v)*u_k and C = v_k for the Rx row r.
    """
    held = np.array(gam, dtype=complex)
    held[k] = 0.0
    system = np.eye(kernel.n_ris) - kernel.s_ii * held[np.newaxis, :]
    u, v = np.linalg.solve(system, np.column_stack((kernel.s_ie[:, 0], kernel.s_ii[:, k]))).T
    row = kernel.s_ei[1]
    return kernel.s_ee[1, 0] + row @ (held * u), (row[k] + row @ (held * v)) * u[k], v[k]


def scalar_coupling(scn, pat, el, side):
    """One coupling entry by the scalar formula, one ``math`` call at a time.

    Returns (d, gamma, coupling) for the side's antenna at the scenario's own
    angle (beta for Tx, -alpha for Rx) and element ``el`` with pattern ``pat``.
    """
    angle = scn.beta_rad if side == "tx" else -scn.alpha_rad
    if el.x_m == 0.0 and el.z_m == 0.0:
        d, gamma = scn.r_m, angle
    else:
        d = math.sqrt(scn.r_m**2 + el.x_m**2 + el.z_m**2 - 2.0 * el.x_m * scn.r_m * math.sin(angle))
        arg = (scn.r_m * math.sin(angle) - el.x_m) / d
        if abs(arg) > 1.0 + 1e-9:
            raise GeometryError(f"azimuth sine argument {arg!r} outside [-1, 1]")
        gamma = math.asin(min(1.0, max(-1.0, arg)))
    lam = scn.wavelength_m
    gain_side = scn.g_tx_lin if side == "tx" else scn.g_rx_lin
    gain = max(0.0, float(np.interp(gamma, pat.azimuth_rad, pat.gain_lin)))
    mismatch = math.sqrt(max(0.0, 1.0 - abs(pat.s_mm) ** 2))
    magnitude = mismatch * math.sqrt(gain_side * gain) / (4.0 * math.pi * d / lam)
    phase = -2.0 * math.pi * d / lam
    return d, gamma, magnitude * complex(math.cos(phase), math.sin(phase))


def _only_element(scn, m):
    """``scn`` reduced to its element ``m``."""
    for el in scn.elements:
        if el.index_m == m:
            return scn.replace(elements=(el,))
    raise KeyError(f"scenario has no element {m}")


def distance_to_element(scn, m, side):
    """Distance in meters from the side's antenna to element ``m``, through ``element_paths``."""
    return float(element_paths(_only_element(scn, m), side)[0][0, 0])


def azimuth_to_element(scn, m, side):
    """Azimuth in radians of the side's antenna seen from element ``m``, through ``element_paths``."""
    return float(element_paths(_only_element(scn, m), side)[1][0, 0])


def coupling_coefficient(scn, pat, m, side):
    """Complex antenna-to-element coupling entry of element ``m``, through ``coupling_rows``."""
    return complex(coupling_rows(_only_element(scn, m), [pat], side)[0, 0])


def check_reciprocity(s, tol=1e-12):
    """True iff max |S_ij - S_ji| is <= tol."""
    if s.n_ports == 0:
        return True
    return bool(np.abs(s.entries - s.entries.T).max() <= tol)


def peak_alpha_rad(curve):
    """Receiver angle of a BRCS curve's largest sigma."""
    return float(curve.alphas_rad[int(np.argmax(curve.sigma_dbsm))])


def value_at(curve, alpha_rad):
    """Sigma (dBsm) of a BRCS curve at a grid angle; KeyError off the grid."""
    idx = int(np.argmin(np.abs(curve.alphas_rad - alpha_rad)))
    if abs(curve.alphas_rad[idx] - alpha_rad) > 1e-9:
        raise KeyError(f"alpha {math.degrees(alpha_rad):.3f} deg is not on the curve grid")
    return float(curve.sigma_dbsm[idx])


def format_pattern_table(patterns):
    """Patterns serialized to the pattern-table CSV layout, the writer side of round-trip tests."""
    lines = [",".join(GAIN_HEADER)]
    for pat in sorted(patterns, key=lambda p: p.index_m):
        for az, g in zip(pat.azimuth_rad, pat.gain_lin):
            dbi = 10.0 * math.log10(g) if g > 0 else float("-inf")
            lines.append(f"{pat.index_m},{math.degrees(az)!r},{dbi!r}")
    lines.append(",".join(SMM_HEADER))
    for pat in sorted(patterns, key=lambda p: p.index_m):
        lines.append(f"{pat.index_m},{pat.s_mm.real!r},{pat.s_mm.imag!r}")
    return "\n".join(lines) + "\n"


def same_patterns(a, b):
    """Equal element numbers and s_mm, and every azimuth and gain array equal bit for bit."""
    return len(a) == len(b) and all(
        (p.index_m, p.s_mm, p.azimuth_rad.tobytes(), p.gain_lin.tobytes())
        == (q.index_m, q.s_mm, q.azimuth_rad.tobytes(), q.gain_lin.tobytes())
        for p, q in zip(a, b)
    )


def line_parse_touchstone(text, n_ports=None):
    """Touchstone v1 read line by line, one ``float()`` per token: the oracle of ``parse_touchstone``.

    Same grammar, messages and check order.
    """
    options = None
    values, value_lines = [], []
    first_data_line_count = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            raise TouchstoneError(
                "Touchstone v2 keywords are not supported; export as Touchstone v1", line_no
            )
        if line.startswith("#"):
            if options is not None:
                raise TouchstoneError("multiple option lines", line_no)
            options = _parse_option_line(line[1:].split(), line_no)
            continue
        if options is None:
            raise TouchstoneError("data before the option line", line_no)
        numbers = []
        for token in line.split():
            try:
                numbers.append(float(token))
            except ValueError:
                raise TouchstoneError(f"invalid numeric token {token!r}", line_no) from None
        if first_data_line_count is None:
            first_data_line_count = len(numbers)
        values.extend(numbers)
        value_lines.extend([line_no] * len(numbers))

    if options is None:
        raise TouchstoneError("missing option line ('#')")
    if not values:
        raise TouchstoneError("file contains no data")
    for value, line_no in zip(values, value_lines):
        if not math.isfinite(value):
            raise TouchstoneError(f"non-finite value {value!r}", line_no)
    if n_ports is None:
        n_ports = {3: 1, 9: 2}.get(first_data_line_count)
        if n_ports is None:
            raise TouchstoneError(
                "cannot infer port count from line shape; pass n_ports explicitly "
                "or load via read_touchstone()"
            )
    per_point = 1 + 2 * n_ports * n_ports
    if len(values) % per_point != 0:
        boundary = (len(values) // per_point) * per_point
        raise TouchstoneError(
            f"wrong value count for {n_ports}-port data: {len(values)} values is not "
            f"a multiple of {per_point}",
            value_lines[min(boundary, len(values) - 1)],
        )
    data = np.asarray(values, dtype=float)
    points = []
    previous = -np.inf
    for k in range(len(values) // per_point):
        chunk = data[k * per_point : (k + 1) * per_point]
        freq_hz = chunk[0] * options.freq_multiplier
        if freq_hz <= previous:
            raise TouchstoneError("frequencies must be strictly increasing", value_lines[k * per_point])
        previous = freq_hz
        flat = _pairs_to_complex(chunk[1:].reshape(-1, 2), options.value_format)
        # v1 two-port order is S11 S21 S12 S22 (column-major quirk).
        matrix = np.array([[flat[0], flat[2]], [flat[1], flat[3]]]) if n_ports == 2 else flat.reshape(n_ports, n_ports)
        points.append((freq_hz, matrix))
    return TouchstoneDocument(n_ports, options, tuple(points))


def line_dumps_touchstone(doc):
    """Touchstone text written one value at a time, ``repr`` of each part: the oracle of ``dumps_touchstone``."""
    lines = [f"# HZ S RI R {doc.options.z0_ohm!r}"]
    n = doc.n_ports
    for freq_hz, matrix in doc.points:
        if n == 2:  # v1 two-port order is S11 S21 S12 S22 (column-major quirk), on one line.
            rows = [[matrix[0, 0], matrix[1, 0], matrix[0, 1], matrix[1, 1]]]
        else:  # four values to a line, wrapping within each matrix row.
            rows = [list(matrix[i, j : j + 4]) for i in range(n) for j in range(0, n, 4)]
        for k, row in enumerate(rows):
            text = " ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in row)
            lines.append(f"{freq_hz!r} {text}" if k == 0 else text)
    return "\n".join(lines) + "\n"


def line_parse_pattern_table(text):
    """A pattern table read row by row, one ``int()``/``float()`` per cell: the oracle of ``parse_pattern_table``.

    Same layout and messages, except that rows ``ElementPattern`` refuses raise its ValueError.
    """
    gain_rows, smm, section = {}, {}, None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = tuple(cell.strip() for cell in line.split(","))
        lowered = tuple(c.lower() for c in cells)
        if lowered == GAIN_HEADER:
            if section is not None:
                raise PatternError(f"line {line_no}: unexpected repeated gain header")
            section = "gain"
            continue
        if lowered == SMM_HEADER:
            if section != "gain":
                raise PatternError(f"line {line_no}: s_mm section before the gain section")
            section = "smm"
            continue
        if section is None:
            raise PatternError(f"line {line_no}: expected header '{','.join(GAIN_HEADER)}' first")
        if len(cells) != 3:
            raise PatternError(f"line {line_no}: expected 3 comma-separated values")
        try:
            m, a, b = int(cells[0]), float(cells[1]), float(cells[2])
        except ValueError:
            raise PatternError(f"line {line_no}: invalid numeric value") from None
        if not 1 <= m < 2**63:
            raise PatternError(f"line {line_no}: element number {m} is out of range")
        if section == "gain":
            if math.isinf(b) and b > 0:
                raise PatternError(f"line {line_no}: gain +inf dBi is not physical")
            try:
                10.0 ** (b / 10.0)
            except OverflowError:
                raise PatternError(f"line {line_no}: gain {b:g} dBi overflows a float") from None
            gain_rows.setdefault(m, []).append((a, b))
        else:
            if m in smm:
                raise PatternError(f"line {line_no}: duplicate s_mm row for element {m}")
            smm[m] = complex(a, b)
    if not gain_rows:
        raise PatternError("pattern table contains no gain rows")
    missing = sorted(set(gain_rows) - set(smm))
    if missing:
        raise PatternError(f"missing s_mm rows for elements {missing}")
    orphaned = sorted(set(smm) - set(gain_rows))
    if orphaned:
        raise PatternError(f"s_mm rows for elements without gain data: {orphaned}")
    patterns = []
    for m in sorted(gain_rows):
        rows = sorted(gain_rows[m])
        azimuths = [a for a, _ in rows]
        if len(set(azimuths)) != len(azimuths):
            raise PatternError(f"element {m}: duplicate azimuth sample")
        lo, hi = azimuths[0], azimuths[-1]
        if lo > -90.0 + 1e-9 or hi < 90.0 - 1e-9:
            raise PatternError(f"element {m}: pattern covers [{lo:g}, {hi:g}] deg, needs at least [-90, 90] deg")
        gain_lin = np.array([10.0 ** (g / 10.0) for _, g in rows])
        patterns.append(ElementPattern(m, np.radians(azimuths), gain_lin, smm[m]))
    return patterns


@pytest.fixture
def rng():
    return np.random.default_rng(20240355)
