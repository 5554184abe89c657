"""Property tests: array code against the scalar and line-by-line oracles in conftest."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_reduce,
    coordinate_terms,
    line_parse_pattern_table,
    line_parse_touchstone,
    random_full_link,
    random_passive,
    scalar_coupling,
)
from rislink import (
    BrcsCurve,
    ElementGeometry,
    ElementPattern,
    LoadBounds,
    LoadVector,
    OptimizerOptions,
    PatternError,
    ScatterMatrix,
    Scenario,
    TouchstoneDocument,
    TouchstoneError,
    TouchstoneOptions,
    VaractorModel,
    assemble_full_matrix,
    azimuth_to_element,
    cap_to_gamma,
    brcs_from_coupling,
    coupling_coefficient,
    distance_to_element,
    dumps_touchstone,
    load_gammas,
    optimize,
    parse_pattern_table,
    parse_touchstone,
    sweep_rx_angle,
)
from rislink import loads
from rislink.farfield import coupling_rows, element_paths

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
        local = replace(scn, **{"beta_rad" if side == "tx" else "alpha_rad": angle})
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
        full = assemble_full_matrix(replace(scn, alpha_rad=alpha), ris, patterns)
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


_FORMATS = (repr, "{:.6e}".format, "{:g}".format, "{:+.3f}".format)
_MUTANTS = ("zz", "1.2.3", "#", "[x]", "1e5x", None)


@st.composite
def touchstone_layouts(draw, mutate=True):
    """Random v1 text: comment lines, trailing comments, free wrapping, CRLF or LF, tabs; sometimes one bad token.

    Returns (text, n_ports argument).
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
    if mutate and draw(st.booleans()):
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
                "M, SMM_RE ,smm_im", "x,1,2", "1_0,0,0", "1,0,nan", "1,nan,0", "1,1.2,0", "1,0,4000")


@st.composite
def pattern_tables(draw):
    """Random tables: shuffled rows, comment and blank lines, header spelling, CRLF; sometimes one bad row."""
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
    if draw(st.booleans()):
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

    def checked_max(abc, kernel, *args):
        c_k, value = coordinate_max(abc, kernel, *args)
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
