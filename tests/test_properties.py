"""Property tests: array code against the scalar and line-by-line oracles in conftest."""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    azimuth_to_element,
    brute_force_reduce,
    coordinate_terms,
    coupling_coefficient,
    distance_to_element,
    line_dumps_touchstone,
    line_parse_pattern_table,
    line_parse_touchstone,
    random_full_link,
    random_passive,
    scalar_coupling,
)
from rislink import (
    BrcsCurve,
    ConfigError,
    ElementGeometry,
    ElementPattern,
    ExpDecayCoupling,
    LoadBounds,
    LoadVector,
    OptimizerOptions,
    PatternError,
    RislinkError,
    ScatterMatrix,
    Scenario,
    TouchstoneDocument,
    TouchstoneError,
    TouchstoneOptions,
    VaractorModel,
    assemble_full_matrix,
    cap_to_gamma,
    brcs_from_coupling,
    dumps_touchstone,
    flat_reflector_reference,
    load_gammas,
    load_scenario,
    optimize,
    parse_pattern_table,
    parse_touchstone,
    sweep_rx_angle,
    synth_ris_matrix,
)
from rislink import loads
from rislink.farfield import coupling_rows, element_paths
from rislink.scenario import _UNITS, KEYS

PROPERTY = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

angles = st.one_of(
    st.sampled_from([-math.pi / 2, math.pi / 2, 0.0]), st.floats(-math.pi / 2, math.pi / 2)
)


@st.composite
def links(draw):
    """A scenario with 1-6 elements, patterns covering [-90, 90] deg and, at times, an element at the origin."""
    n = draw(st.integers(1, 6))
    coord = st.floats(-0.3, 0.3)
    xz = [(draw(coord), draw(coord)) for _ in range(n)]
    if draw(st.booleans()):
        xz[draw(st.integers(0, n - 1))] = (0.0, 0.0)
    scn = Scenario(
        r_m=draw(st.floats(0.5, 1e4)),
        alpha_rad=draw(angles),
        beta_rad=draw(angles),
        freq_hz=draw(st.floats(1e8, 1e11)),
        g_tx_lin=draw(st.floats(0.1, 100.0)),
        g_rx_lin=draw(st.floats(0.1, 100.0)),
        elements=tuple(ElementGeometry(m + 1, x, z) for m, (x, z) in enumerate(xz)),
    )
    patterns = []
    for m in scn.element_numbers:
        samples = draw(st.integers(2, 9))
        gains = draw(st.lists(st.floats(0.0, 10.0), min_size=samples, max_size=samples))
        s_mm = draw(st.floats(0.0, 1.0)) * complex(math.cos(p := draw(st.floats(-math.pi, math.pi))), math.sin(p))
        patterns.append(ElementPattern(m, np.linspace(-math.pi / 2, math.pi / 2, samples), np.array(gains), s_mm))
    return scn, patterns


@PROPERTY
@given(links(), st.sampled_from(["tx", "rx"]), st.lists(angles, min_size=1, max_size=5))
def test_coupling_rows_match_scalar_oracle_bit_for_bit(link, side, side_angles):
    scn, patterns = link
    rows = coupling_rows(scn, patterns, side, side_angles)
    d, gamma = element_paths(scn, side, side_angles)
    assert rows.shape == d.shape == gamma.shape == (len(side_angles), len(scn.elements))
    for a, angle in enumerate(side_angles):
        local = scn.replace(**{"beta_rad" if side == "tx" else "alpha_rad": angle})
        for k, (pat, el) in enumerate(zip(patterns, scn.elements)):
            assert (d[a, k], gamma[a, k], rows[a, k]) == scalar_coupling(local, pat, el, side)
    for pat, el in zip(patterns, scn.elements):
        d_m, gamma_m, coupling = scalar_coupling(scn, pat, el, side)
        assert distance_to_element(scn, el.index_m, side) == d_m
        assert azimuth_to_element(scn, el.index_m, side) == gamma_m
        assert coupling_coefficient(scn, pat, el.index_m, side) == coupling


@PROPERTY
@pytest.mark.filterwarnings("ignore::rislink.FarFieldValidityWarning")
@given(links(), st.integers(0, 2**32 - 1), st.lists(angles, min_size=1, max_size=7, unique=True))
def test_sweep_equals_per_angle_reduction(link, seed, alphas):
    scn, patterns = link
    rng = np.random.default_rng(seed)
    n = len(scn.elements)
    ris = ScatterMatrix.ris_only(random_passive(rng, n, scale=0.9), scn.freq_hz)
    patterns = [ElementPattern(p.index_m, p.azimuth_rad, p.gain_lin, ris.entries[i, i]) for i, p in enumerate(patterns)]
    caps = LoadVector.of(rng.uniform(0.23e-12, 2.1e-12, n))
    alphas = sorted(alphas)
    gammas = load_gammas(caps, scn.freq_hz, ris.z0_ohm).as_array
    oracle = []
    for alpha in alphas:
        full = assemble_full_matrix(scn.replace(alpha_rad=alpha), ris, patterns)
        s21 = brute_force_reduce(full.entries, (full.tx_index, full.rx_index), full.ris_indices, gammas)[1, 0]
        oracle.append(brcs_from_coupling(s21, scn.r_m, scn.r_m, scn.g_tx_lin, scn.g_rx_lin, scn.wavelength_m))
    curve = sweep_rx_angle(scn, ris, patterns, caps, alphas)
    expected = BrcsCurve.from_sigma_m2(alphas, oracle, "oracle")
    sigma, expected = 10.0 ** (curve.sigma_dbsm / 10.0), 10.0 ** (expected.sigma_dbsm / 10.0)
    np.testing.assert_allclose(sigma, expected, rtol=1e-9, atol=1e-9 * expected.max())


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def documents(draw):
    n = draw(st.integers(1, 4))
    freqs = sorted(draw(st.sets(st.floats(1.0, 1e12), min_size=1, max_size=3)))
    points = tuple(
        (f, np.array(draw(st.lists(finite, min_size=2 * n * n, max_size=2 * n * n))).view(complex).reshape(n, n))
        for f in freqs
    )
    return TouchstoneDocument(n, TouchstoneOptions("hz", "s", "ri", draw(st.floats(1e-3, 1e6))), points)


def _bits(doc):
    return doc.n_ports, doc.options, [(f, m.tobytes()) for f, m in doc.points]


@PROPERTY
@given(documents())
def test_parse_of_dumps_is_identity(doc):
    again = parse_touchstone(dumps_touchstone(doc), n_ports=doc.n_ports)
    assert (again.n_ports, again.options, again.frequencies_hz) == (doc.n_ports, doc.options, doc.frequencies_hz)
    # Equal as numbers: RI pairs become a + 1j*b, which turns a -0.0 part into +0.0.
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(again.points, doc.points))


_EDGE_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, -1.7976931348623157e308)


@PROPERTY
@given(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9]), st.booleans(), st.data())
def test_dumps_equals_value_by_value_writer(n, fortran, data):
    """Row-wise text equals the per-value oracle, for rows that wrap and rows that do not, in either memory order."""
    value = st.one_of(st.sampled_from(_EDGE_VALUES), finite)
    freqs = sorted(data.draw(st.sets(st.floats(1.0, 1e12), min_size=2, max_size=3)))
    points = []
    for f in freqs:
        matrix = np.array(data.draw(st.lists(value, min_size=2 * n * n, max_size=2 * n * n))).view(complex).reshape(n, n)
        points.append((f, np.asfortranarray(matrix) if fortran else matrix))
    doc = TouchstoneDocument(n, TouchstoneOptions("hz", "s", "ri", data.draw(st.floats(1e-3, 1e6))), tuple(points))
    assert dumps_touchstone(doc) == line_dumps_touchstone(doc)


@PROPERTY
@given(st.sampled_from([3, 4, 5, 7, 10]), st.booleans(), st.data())
def test_dumps_with_spelled_inner_block_equals_value_by_value_writer(n, fortran, data):
    """A spliced text takes the place of the inner block (ports 2 to n - 1) of each point where it is bitwise its own.

    Each token is a planted spelling, its value's ``repr`` with a 0 after the sign, so the output shows where the
    tokens went: removing those zeros gives the oracle's text. A point whose block differs from the text's only in
    the sign of a zero keeps ``repr``, and so does every point given a text one token short.
    """
    value = st.one_of(st.sampled_from(_EDGE_VALUES), finite)

    def matrix():
        return np.array(data.draw(st.lists(value, min_size=2 * n * n, max_size=2 * n * n))).view(complex).reshape(n, n)

    spelled = matrix()
    spelled[1, 1] = complex(0.0, spelled[1, 1].imag)
    twin = spelled.copy()
    twin[1, 1] = complex(-0.0, twin[1, 1].imag)
    kinds = data.draw(st.lists(st.sampled_from(["spelled", "twin", "other"]), min_size=1, max_size=3))
    points = [(float(f), {"spelled": spelled, "twin": twin}.get(kind) if kind != "other" else matrix())
              for f, kind in enumerate(kinds, start=1)]
    points = tuple((f, np.asfortranarray(m) if fortran else m) for f, m in points)
    doc = TouchstoneDocument(n, TouchstoneOptions("hz", "s", "ri", data.draw(st.floats(1e-3, 1e6))), points)
    inner = spelled[1:-1, 1:-1]
    tokens = [re.sub("^(-?)", r"\g<1>0", repr(v)) for v in np.ascontiguousarray(inner).view(float).ravel().tolist()]
    text = " ".join(tokens)
    restored, planted = re.subn(r"(?<![^ \n])(-?)0(?=[0-9])", r"\1", dumps_touchstone(doc, (inner, text)))
    assert restored == line_dumps_touchstone(doc)
    assert planted == len(tokens) * sum(m[1:-1, 1:-1].tobytes() == inner.tobytes() for _, m in doc.points)
    assert "twin" not in kinds or planted < len(tokens) * len(kinds)
    assert dumps_touchstone(doc, (inner, " ".join(tokens[:-1]))) == line_dumps_touchstone(doc)


_FORMATS = (repr, "{:.6e}".format, "{:g}".format, "{:+.3f}".format)
# The last eight are tokens that ``np.fromstring`` and ``float()`` read differently, and their
# neighbours; the reader converts with ``float()`` alone, so they probe that block conversion.
_MUTANTS = ("zz", "1.2.3", "#", "[x]", "1e5x", None,
            "1_0", "NaN(1)", "nan(abc)", "\u0661", "1\xa02", "0x1p3", "1d0", "infinity")


@st.composite
def touchstone_layouts(draw, mutate=True):
    """Random v1 text: comment lines, trailing comments, free wrapping, CRLF or LF, tabs; sometimes one or two bad tokens.

    A bad token at the start of a line can be a structural defect ('#' or '[x]'). Returns (text, n_ports argument).
    """
    n = draw(st.integers(1, 3))
    fmt = draw(st.sampled_from(["ri", "ma", "db"]))
    option = f"# {draw(st.sampled_from(['Hz', 'kHz', 'MHz', 'GHz']))} S {fmt.upper()} R 50"
    value = st.floats(-400.0, 400.0, allow_nan=False)
    tokens = []
    freq = 0.0
    for _ in range(draw(st.integers(1, 3))):
        freq += draw(st.floats(-0.5, 10.0))
        tokens.append(repr(freq))
        tokens += [draw(st.sampled_from(_FORMATS))(draw(value)) for _ in range(2 * n * n)]
    for _ in range(draw(st.integers(0, 2)) if mutate else 0):
        k = draw(st.integers(0, len(tokens) - 1))
        mutant = draw(st.sampled_from(_MUTANTS))
        tokens[k : k + 1] = [] if mutant is None else [mutant]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [draw(st.sampled_from(["", "! header", "   "])) for _ in range(draw(st.integers(0, 2)))]
    lines.append(option + draw(st.sampled_from(["", " ! note"])))
    while tokens:
        width = draw(st.integers(1, 9))
        sep = draw(st.sampled_from([" ", "\t", " \t "]))
        line, tokens = sep.join(tokens[:width]), tokens[width:]
        lines.append(line + draw(st.sampled_from(["", " ", "\t! trailing"])))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["! comment", "", "\t"])))
    n_ports = None if n <= 2 and draw(st.booleans()) else n
    return eol.join(lines) + draw(st.sampled_from(["", eol])), n_ports


def _outcome(parse, text, n_ports):
    try:
        return _bits(parse(text, n_ports))
    except TouchstoneError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(touchstone_layouts())
def test_bulk_parser_equals_line_parser(layout):
    """Same document or same error; with two defects, the first in file order wins, as in the line parser."""
    text, n_ports = layout
    assert _outcome(parse_touchstone, text, n_ports) == _outcome(line_parse_touchstone, text, n_ports)


@PROPERTY
@given(touchstone_layouts(mutate=False), st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999"]), st.data())
def test_non_finite_token_names_its_line(layout, token, data):
    text, n_ports = layout
    assume(not isinstance(_outcome(line_parse_touchstone, text, n_ports), str))  # e.g. falling frequencies
    lines = text.splitlines()
    i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.strip()[:1] not in ("", "!", "#")]))
    lines[i] = " ".join([token] + lines[i].split("!")[0].split()[1:])
    with pytest.raises(TouchstoneError, match=f"^line {i + 1}: non-finite value"):
        parse_touchstone("\n".join(lines), n_ports)


_ROW_MUTANTS = ("1,zz,0", "1,0", "1,0,0,0", "1.0,0,0", "1,0,inf", "2,0,0", "1,,0", "m,azimuth_deg,gain_dbi",
                "M, SMM_RE ,smm_im", "x,1,2", "1_0,0,0", "1,0,nan", "1,nan,0", "1,1.2,0", "1,0,4000",
                "0,0,0", "-1,0,0")


@st.composite
def pattern_tables(draw):
    """Random tables: shuffled rows, comment and blank lines, header spelling, CRLF; sometimes one or two bad rows."""
    n = draw(st.integers(1, 4))
    fmt = draw(st.sampled_from(_FORMATS))
    gain = st.one_of(st.floats(-60.0, 30.0), st.just(-math.inf))
    rows = []
    for m in range(1, n + 1):
        inner = draw(st.lists(st.floats(-89.0, 89.0), max_size=4, unique=True))
        for az in [-90.0, 90.0, *inner]:
            rows.append(f"{m},{fmt(az)},{fmt(draw(gain))}")
    rows = draw(st.permutations(rows))
    smm = [f" {m} , {fmt(draw(st.floats(-0.7, 0.7)))},{fmt(draw(st.floats(-0.7, 0.7)))}" for m in range(1, n + 1)]
    lines = [draw(st.sampled_from(["m,azimuth_deg,gain_dbi", " M , Azimuth_Deg ,GAIN_DBI"])), *rows,
             draw(st.sampled_from(["m,smm_re,smm_im", "m , SMM_re,smm_IM "])), *draw(st.permutations(smm))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# note", "  ", "#m,smm_re,smm_im"])))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = draw(st.sampled_from(_ROW_MUTANTS))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def _patterns_outcome(parse, text):
    try:
        patterns = parse(text)
    except PatternError as exc:
        return str(exc)
    return [(p.index_m, p.azimuth_rad.tobytes(), p.gain_lin.tobytes(), p.s_mm) for p in patterns]


@settings(max_examples=300, deadline=None)
@given(pattern_tables())
def test_bulk_pattern_parser_equals_row_parser(text):
    """Same patterns or same error; with two bad rows, the first in file order wins, as in the row parser."""
    outcome = _patterns_outcome(parse_pattern_table, text)
    try:
        expected = _patterns_outcome(line_parse_pattern_table, text)
    except ValueError:  # a row ElementPattern refuses: the row parser raises a bare ValueError
        expected = None
    new_check = re.match(r"line ([0-9]+): (gain is not a number|azimuth .* is not finite|\|s_mm\| = )", str(outcome))
    if not new_check:
        assert outcome == expected if expected is not None else isinstance(outcome, str)
        return
    # A check the row parser lacks: the row it names fails it, and the row parser names no earlier line.
    line = int(new_check[1])
    _, a, b = (float(cell) for cell in text.splitlines()[line - 1].split(","))
    assert not abs(complex(a, b)) <= 1.0 + 1e-9 if "s_mm" in new_check[2] else not (math.isfinite(a) and b < math.inf)
    earlier = re.match("line ([0-9]+)", expected) if isinstance(expected, str) else None
    assert earlier is None or int(earlier[1]) >= line


def _assert_rel(got, want, what):
    assert abs(got - want) <= 1e-10 * abs(want), (what, got, want)


def _assert_fresh(kernel, q, gam):
    """[P | w] against a fresh solve of (I - S_ii*Gamma) for the loads ``gam``."""
    rhs = np.column_stack((kernel.s_ii, kernel.s_ie[:, 0]))
    fresh = np.linalg.solve(np.eye(kernel.n_ris) - kernel.s_ii * gam[np.newaxis, :], rhs)
    assert np.abs(q - fresh).max() <= 1e-10 * np.abs(fresh).max()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([*range(1, 9), 48]),
    st.sampled_from([VaractorModel(), VaractorModel(2.0, 0.5e-9)]),
    st.integers(0, 2**32 - 1),
)
def test_rank_one_updates_match_fresh_solves_over_a_start(n, model, seed):
    """Each (A, B, C) and stepped value of a start, and [P | w] at each step and pass end, against fresh solves."""
    rng = np.random.default_rng(seed)
    full = random_full_link(rng, n)
    bounds = LoadBounds(0.23e-12, 2.1e-12)
    steps = []  # (q, gam, k) per step; q and gam are the optimizer's own arrays, updated in place
    terms, coordinate_max = loads._terms, loads._coordinate_max

    def checked_terms(kernel, q, gam, rg, k):
        if steps and steps[-1][0] is not q:  # a new pass: the last one's q after its last step
            _assert_fresh(kernel, *steps[-1][:2])
        _assert_fresh(kernel, q, gam)
        np.testing.assert_allclose(rg, kernel.s_ei[1] * gam, rtol=1e-14)
        got = terms(kernel, q, gam, rg, k)
        for value, want, what in zip(got, coordinate_terms(kernel, gam, k), "ABC"):
            _assert_rel(value, want, what)
        steps.append((q, gam, k))
        return got

    def checked_max(abc, *args):
        c_k, value = coordinate_max(abc, *args)
        _, gam, k = steps[-1]
        stepped = gam.copy()
        stepped[k] = cap_to_gamma(c_k, full.freq_hz, full.z0_ohm, model)
        s21 = brute_force_reduce(full.entries, (full.tx_index, full.rx_index), full.ris_indices, stepped)[1, 0]
        _assert_rel(value, abs(s21) ** 2, "value")
        return c_k, value

    initial = LoadVector.of(rng.uniform(bounds.c_min_f, bounds.c_max_f, n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(loads, "_terms", checked_terms)
        patch.setattr(loads, "_coordinate_max", checked_max)
        (trace,) = optimize(full, bounds, model, OptimizerOptions(starts=1, initial=initial)).trace
    _assert_fresh(full.kernel, *steps[-1][:2])
    assert len({id(q) for q, _, _ in steps}) == trace.n_passes and len(steps) == trace.n_evals - 1


# A valid document is one pick from each group; the fuzz then overwrites, drops, repeats and adds lines.
_CONFIG_GROUPS = (
    [{"freq": "3.55 GHz", "range": "2 m", "alpha": "0 deg", "beta": "30 deg", "gain_tx_db": "11 dB",
      "gain_rx_db": "11 dB", "bounds.c_min": "0.23 pF", "bounds.c_max": "2.1 pF"}],
    [{"grid.rows": "2", "grid.cols": "7", "grid.pitch_x": "40 mm", "grid.pitch_z": "46.8 mm"},
     {"element.1.x": "-20 mm", "element.1.z": "0 mm", "element.2.x": "20 mm", "element.2.z": "12 mm"}],
    [{"ris.model": "exp_decay", "ris.c0": "0.1", "ris.rolloff": "50 mm"}, {"ris.model": "isolated"},
     {"ris.file": "ris.s2p"}],
    [{"patterns.file": "patterns.csv"}, {"patterns.gain_db": "5 dB"}],
    [{}, {"reflector.width": "308 mm", "reflector.height": "96 mm"}],
)
_VALID = {key: value for group in _CONFIG_GROUPS for pick in group for key, value in pick.items()} | {
    "grid.offset_x": "1 cm", "grid.offset_z": "-2 mm", "ris.freq_tol": "2 kHz", "ris.smm_re": "0.3",
    "ris.smm_im": "-0.2", "varactor.rs": "1.5 ohm", "varactor.ls": "0.2 nH", "sweep.start": "-30 deg",
    "sweep.stop": "1 rad", "sweep.step": "2.5 deg", "opt.starts": "3", "opt.max_evals": "50", "opt.seed": "4",
    "out.dir": "out",
}
_TEXTS = {
    "ris.file": ["ris.s2p", "absent.s2p", "x" * 5000, "/", "patterns.csv"],
    "ris.model": ["isolated", "exp_decay", "EXP_DECAY", "other"],
    "patterns.file": ["patterns.csv", "absent.csv", "x" * 5000, "."],
    "out.dir": ["out", "/", "a b"],
}
_BAD_ELEMENT_KEYS = ["element.a.x", "element.x", "element.1.y", "element.1", "element..x", "element.1.x.z",
                     "element.0.x", "element.-1.x", "element.01.x", "element.\u0661.x", "element.1234567890.x"]
_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(-10, 10).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e6", "-1e6", "1e308", "-0.0", "5e-324", "abc", "1_0", "0x10", ""]),
)


def _config_value(key):
    """Values for ``key`` drawn from its :data:`KEYS` kind: valid ones, wrong units, non-finite and junk."""
    return st.one_of(st.just(_VALID[key]), _bad_config_value(key))


def _bad_config_value(key):
    kind = KEYS[key if key in KEYS else "element.<m>.x"][0]
    if kind == "text":
        return st.one_of(st.sampled_from(_TEXTS[key]), st.text(max_size=8))
    if kind == "int":  # grid.rows/cols stay small, so no example builds a huge grid
        return st.one_of(st.integers(-2, 64).map(str), st.sampled_from(["1.5", "nan", "x", "1e3"]))
    if key == "sweep.step":  # at least 0.01 deg, so no sweep grid is huge
        number = st.one_of(st.floats(0.01, 400.0).map(repr), st.sampled_from(["0", "-1", "nan", "inf", "x"]))
    else:
        number = _NUMBERS
    units = list(_UNITS.get(kind, {"": 1.0})) + ["MM", "furlong", "m m"]
    return st.tuples(number, st.sampled_from(units)).map(lambda nu: f"{nu[0]} {nu[1]}".strip())


@st.composite
def config_documents(draw):
    lines = {}
    for group in _CONFIG_GROUPS:
        lines.update(draw(st.sampled_from(group)))
    for key in draw(st.lists(st.sampled_from([k for k in KEYS if "<m>" not in k] + ["element.1.x"]), max_size=3)):
        lines[key] = draw(_config_value(key))
    if draw(st.integers(0, 4)) == 0:
        del lines[draw(st.sampled_from(sorted(lines)))]
    text = [f"{key} = {value}" for key, value in lines.items()]
    if draw(st.integers(0, 4)) == 0:
        text.append(f"{draw(st.sampled_from(_BAD_ELEMENT_KEYS))} = {draw(_config_value('element.1.x'))}")
    if text and draw(st.integers(0, 4)) == 0:
        text.append(draw(st.sampled_from(text)))  # a duplicate key
    if draw(st.integers(0, 4)) == 0:
        junk = st.one_of(st.text(max_size=12), st.sampled_from(["= 1", "freq =", "no equals sign", "# comment"]))
        text.append(draw(junk))
    return "\n".join(draw(st.permutations(text))) + "\n"


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("config")
    (base / "ris.s2p").write_text("")
    (base / "patterns.csv").write_text("")
    return base


@settings(max_examples=500, deadline=None)
@given(config_documents())
def test_config_fuzz_raises_only_config_error(config_dir, text):
    """Any document either loads, with every number finite, or raises ConfigError naming the problem."""
    try:
        cfg = load_scenario(text, config_dir)
    except ConfigError as exc:
        assert str(exc)
        return
    scn = cfg.scenario
    numbers = [scn.r_m, scn.alpha_rad, scn.beta_rad, scn.freq_hz, scn.g_tx_lin, scn.g_rx_lin,
               cfg.bounds.c_min_f, cfg.bounds.c_max_f, cfg.varactor.series_resistance_ohm,
               cfg.varactor.series_inductance_h, *(c for e in scn.elements for c in (e.x_m, e.z_m))]
    assert all(math.isfinite(v) for v in numbers)
    assert cfg.sweep.alphas_rad().size >= 1


# The checked boundary: every numeric parameter of these constructors and entry functions, with a valid value,
# and the first use of what a call returns, which gives an array.
_EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e308, 5e-324)
_COUNT_EDGES = (*_EDGES, 2.5, 0, -1)
_PLACES = (ElementGeometry(1, -0.02, 0.0), ElementGeometry(2, 0.02, 0.01))
_SCN = Scenario(2.0, 0.0, 0.5, 3.55e9, 12.6, 12.6, _PLACES)
_RIS = synth_ris_matrix(_PLACES, 3.55e9, ExpDecayCoupling(0.2, c0=0.1, rolloff_m=0.05))
_ISOTROPIC = [ElementPattern.isotropic(m, 1.5, s_mm=0.2) for m in (1, 2)]
_FULL = assemble_full_matrix(_SCN, _RIS, _ISOTROPIC)
_CAPS = LoadVector.of([0.23e-12, 2.1e-12])


def _link_of(element):
    scn = _SCN.replace(elements=(element, ElementGeometry(99, 0.0, 0.0)))
    ris = synth_ris_matrix(scn.elements, 3.55e9, ExpDecayCoupling(0.2, c0=0.0))
    patterns = [ElementPattern.isotropic(m, 1.5, s_mm=0.2) for m in scn.element_numbers]
    return assemble_full_matrix(scn, ris, patterns).entries


def _coupling_of(pattern):
    return coupling_rows(_SCN.replace(elements=(ElementGeometry(pattern.index_m, 0.0, 0.0),)), [pattern], "tx")


def _one_element_link(element_numbers, freq_hz, z0_ohm):
    return ScatterMatrix(_FULL.entries[:3, :3], freq_hz, (element_numbers,), z0_ohm)


_BOUNDARY = {  # name: (call, {parameter: valid value}, integer parameters, first use)
    "Scenario": (lambda **kw: Scenario(**kw, elements=_PLACES),
                 dict(r_m=2.0, alpha_rad=0.0, beta_rad=0.5, freq_hz=3.55e9, g_tx_lin=12.6, g_rx_lin=12.6), (),
                 lambda scn: assemble_full_matrix(scn, _RIS, _ISOTROPIC).entries),
    "ElementGeometry": (ElementGeometry, dict(index_m=1, x_m=0.02, z_m=-0.01), ("index_m",), _link_of),
    "ElementPattern": (lambda index_m, s_mm: ElementPattern(index_m, [-math.pi / 2, math.pi / 2], [1.0, 2.0], s_mm),
                       dict(index_m=1, s_mm=0.2 - 0.1j), ("index_m",), _coupling_of),
    "VaractorModel": (VaractorModel, dict(series_resistance_ohm=1.5, series_inductance_h=0.2e-9), (),
                      lambda model: load_gammas(_CAPS, 3.55e9, 50.0, model).as_array),
    "LoadBounds": (LoadBounds, dict(c_min_f=0.23e-12, c_max_f=2.1e-12), (),
                   lambda bounds: optimize(_FULL, bounds, opts=OptimizerOptions(2, 20)).caps.as_array),
    "OptimizerOptions": (OptimizerOptions, dict(starts=2, max_evals=20, seed=3), ("starts", "max_evals", "seed"),
                         lambda opts: optimize(_FULL, LoadBounds(0.23e-12, 2.1e-12), opts=opts).caps.as_array),
    "ExpDecayCoupling": (ExpDecayCoupling, dict(s_mm=0.2, c0=0.1, rolloff_m=0.05), (),
                         lambda model: synth_ris_matrix(_PLACES, 3.55e9, model).entries),
    "ScatterMatrix": (_one_element_link, dict(element_numbers=1, freq_hz=3.55e9, z0_ohm=50.0), ("element_numbers",),
                      lambda full: full.kernel.reduce(np.array([0.5j]))),
    "load_gammas": (lambda **kw: load_gammas(_CAPS, **kw), dict(freq_hz=3.55e9, z0_ohm=50.0), (),
                    lambda gammas: gammas.as_array),
    "brcs_from_coupling": (brcs_from_coupling, dict(s_rx_tx=0.01 + 0.02j, d_tx_m=2.0, d_rx_m=2.0, g_tx_lin=12.6,
                                                    g_rx_lin=12.6, lambda_m=0.0845), (), np.array),
    "flat_reflector_reference": (lambda **kw: flat_reflector_reference(**kw, alphas_rad=np.radians([-90, 0, 45])),
                                 dict(width_m=0.308, height_m=0.096, lambda_m=0.0845, beta_rad=0.5), (),
                                 lambda curve: curve.sigma_dbsm),
}


@st.composite
def boundary_calls(draw):
    name = draw(st.sampled_from(sorted(_BOUNDARY)))
    _, valid, counts, _ = _BOUNDARY[name]
    values = {key: draw(st.one_of(st.just(value), st.sampled_from(_COUNT_EDGES if key in counts else _EDGES)))
              for key, value in valid.items()}
    return name, values


@settings(max_examples=600, deadline=None)
@pytest.mark.filterwarnings("ignore::rislink.FarFieldValidityWarning")
@given(boundary_calls())
def test_boundary_refuses_by_name_or_builds_what_works(call):
    """A call raises "<parameter> must be <rule>, got <value>", or its result's first use is finite or raises a
    RislinkError."""
    name, values = call
    make, _, _, use = _BOUNDARY[name]
    try:
        result = use(make(**values))
    except ValueError as exc:
        refused = re.fullmatch(r"(\w+) must be .+, got .+", str(exc))
        assert refused and refused[1] in values, str(exc)
        return
    except RislinkError:
        return
    assert np.isfinite(result).all()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.1, math.nan)])
def test_scatter_matrix_refuses_a_non_finite_entry_by_name(value):
    entries = np.full((2, 2), 0.1, dtype=complex)
    entries[1, 0] = value
    with pytest.raises(ValueError, match=f"^entries must be finite, got {re.escape(str(complex(value)))}$"):
        ScatterMatrix.ris_only(entries, 3.55e9)
