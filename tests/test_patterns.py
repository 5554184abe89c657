import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import format_pattern_table, same_patterns
from rislink import (ElementGeometry, ElementPattern, ExpDecayCoupling, LoadVector, PatternError, Scenario,
                     parse_pattern_table, patterns, sweep_rx_angle, synth_ris_matrix)
from rislink.cache import CACHE_DIR
from rislink.errors import MAX_ANGLE_RAD
from rislink.farfield import COVERAGE_SLACK_DEG
from rislink.patterns import load_cached_patterns, store_cached_patterns

BASIC = """\
m,azimuth_deg,gain_dbi
1,-90,-inf
1,0,5
1,90,-inf
m,smm_re,smm_im
1,0.1,-0.05
"""


class TestParse:
    def test_basic_table(self):
        patterns = parse_pattern_table(BASIC)
        assert len(patterns) == 1
        pat = patterns[0]
        assert pat.index_m == 1
        assert pat.gain(0.0) == pytest.approx(10 ** 0.5, rel=1e-12)
        assert pat.gain(math.radians(90)) == 0.0
        assert pat.s_mm == 0.1 - 0.05j

    def test_order_insensitive(self):
        shuffled = (
            "m,azimuth_deg,gain_dbi\n"
            "1,90,-inf\n1,-90,-inf\n1,0,5\n"
            "m,smm_re,smm_im\n1,0.1,-0.05\n"
        )
        a = parse_pattern_table(BASIC)[0]
        b = parse_pattern_table(shuffled)[0]
        assert np.array_equal(a.azimuth_rad, b.azimuth_rad)
        assert np.array_equal(a.gain_lin, b.gain_lin)

    def test_db_to_linear(self):
        text = "m,azimuth_deg,gain_dbi\n1,-90,-3.0103\n1,90,-3.0103\nm,smm_re,smm_im\n1,0,0\n"
        pat = parse_pattern_table(text)[0]
        # Oracle: 10^(dB/10).
        assert pat.gain(0.3) == pytest.approx(10 ** (-3.0103 / 10), rel=1e-12)
        assert pat.gain(0.3) == pytest.approx(0.5, abs=1e-6)

    def test_multiple_elements_sorted(self):
        text = (
            "m,azimuth_deg,gain_dbi\n"
            "2,-90,0\n2,90,0\n1,-90,3\n1,90,3\n"
            "m,smm_re,smm_im\n2,0,0\n1,0,0\n"
        )
        patterns = parse_pattern_table(text)
        assert [p.index_m for p in patterns] == [1, 2]

    def test_comments_and_blanks_ignored(self):
        text = "# pattern export\n\n" + BASIC
        assert parse_pattern_table(text)[0].index_m == 1

    def test_error_line_counts_comments_and_blanks(self):
        text = "# export\n\n" + BASIC.replace("1,0,5", "1,0,nan").replace("m,smm_re", "# mid\n\nm,smm_re")
        with pytest.raises(PatternError, match="^line 5: gain is not a number"):
            parse_pattern_table(text)
        text = "# export\n\n" + BASIC.replace("1,0.1,-0.05", "1,2,0").replace("m,smm_re", "# mid\n\nm,smm_re")
        with pytest.raises(PatternError, match=r"^line 10: \|s_mm\|"):
            parse_pattern_table(text)

    @pytest.mark.parametrize("edge", [89.9999999995, 90.0 - COVERAGE_SLACK_DEG])
    def test_table_short_of_90_deg_by_the_slack_serves_every_angle(self, edge):
        text = f"m,azimuth_deg,gain_dbi\n1,{-edge!r},0\n1,{edge!r},0\nm,smm_re,smm_im\n1,0.1,0\n"
        (pattern,) = parse_pattern_table(text)
        for azimuth in (-MAX_ANGLE_RAD, -math.pi / 2, math.pi / 2, MAX_ANGLE_RAD):
            assert pattern.gain(azimuth) == 1.0
        scn = Scenario(2.0, 0.0, math.radians(30), 3.55e9, 10.0, 10.0, (ElementGeometry(1, 0.0, 0.0),))
        ris = synth_ris_matrix(scn.elements, scn.freq_hz, ExpDecayCoupling(0.1))
        curve = sweep_rx_angle(scn, ris, [pattern], LoadVector.uniform(1e-12, 1), np.radians([-90.0, 0.0, 90.0]))
        assert np.isfinite(curve.sigma_dbsm).all()

    def test_headers_are_case_and_space_insensitive(self):
        text = BASIC.replace("m,azimuth_deg,gain_dbi", " M , Azimuth_Deg ,GAIN_DBI").replace("m,smm_re", "M ,smm_re")
        assert parse_pattern_table(text)[0].s_mm == 0.1 - 0.05j

    def test_parsed_patterns_equal_validated_ones_and_are_read_only(self):
        board = Path(__file__).resolve().parents[1] / "scenarios" / "board_7x2" / "patterns.csv"
        for text in (BASIC, board.read_text()):
            for pat in parse_pattern_table(text):
                checked = ElementPattern(pat.index_m, pat.azimuth_rad, pat.gain_lin, pat.s_mm)
                assert type(pat.index_m) is int and type(pat.s_mm) is complex and pat.s_mm == checked.s_mm
                for parsed, validated in ((pat.azimuth_rad, checked.azimuth_rad), (pat.gain_lin, checked.gain_lin)):
                    assert (parsed.dtype, parsed.shape, parsed.tobytes()) == (
                        validated.dtype, validated.shape, validated.tobytes()
                    )
                    with pytest.raises(ValueError, match="read-only"):
                        parsed[0] = 1.0


def big_table(last_gain_row):
    """20 elements at 1-degree steps whose last of 3,620 gain rows is ``last_gain_row``: (text, that row's line)."""
    rows = [f"{m},{az},{0.1 * az}" for m in range(1, 21) for az in range(-90, 91)]
    rows[-1] = last_gain_row
    lines = ["m,azimuth_deg,gain_dbi", *rows, "m,smm_re,smm_im", *(f"{m},0.1,0" for m in range(1, 21))]
    return "\n".join(lines) + "\n", len(rows) + 1


class TestParseErrors:
    def test_coverage_gap(self):
        text = "m,azimuth_deg,gain_dbi\n1,-45,0\n1,90,0\nm,smm_re,smm_im\n1,0,0\n"
        with pytest.raises(PatternError, match="covers"):
            parse_pattern_table(text)

    def test_duplicate_azimuth(self):
        text = "m,azimuth_deg,gain_dbi\n1,-90,0\n1,-90,1\n1,90,0\nm,smm_re,smm_im\n1,0,0\n"
        with pytest.raises(PatternError, match="duplicate azimuth"):
            parse_pattern_table(text)

    def test_azimuths_equal_in_radians_are_duplicates(self):
        text = "m,azimuth_deg,gain_dbi\n1,-90,0\n1,0,0\n1,5e-324,0\n1,90,0\nm,smm_re,smm_im\n1,0,0\n"
        with pytest.raises(PatternError, match="element 1: duplicate azimuth sample"):
            parse_pattern_table(text)

    def test_duplicate_named_before_coverage_gap_of_the_same_element(self):
        text = "m,azimuth_deg,gain_dbi\n1,-90,0\n1,90,0\n2,0,0\n2,0,1\n2,90,0\nm,smm_re,smm_im\n1,0,0\n2,0,0\n"
        with pytest.raises(PatternError, match="^element 2: duplicate azimuth sample$"):
            parse_pattern_table(text)
        with pytest.raises(PatternError, match=r"^element 2: pattern covers \[0, 90\] deg"):
            parse_pattern_table(text.replace("2,0,1", "2,1,1"))

    def test_first_defective_element_is_named(self):
        text = "m,azimuth_deg,gain_dbi\n3,-90,0\n3,-90,1\n3,90,0\n2,-45,0\n2,90,0\nm,smm_re,smm_im\n2,0,0\n3,0,0\n"
        with pytest.raises(PatternError, match="^element 2: pattern covers"):
            parse_pattern_table(text)

    def test_row_counts_of_cells_that_balance_still_name_the_row(self):
        # Four cells, then two: the section still holds 3 cells per row, and every cell is an integer.
        text = "m,azimuth_deg,gain_dbi\n1,-90,0,5\n1,90\nm,smm_re,smm_im\n1,0,0\n"
        with pytest.raises(PatternError, match="^line 2: expected 3 comma-separated values$"):
            parse_pattern_table(text)

    def test_missing_smm(self):
        text = "m,azimuth_deg,gain_dbi\n1,-90,0\n1,90,0\nm,smm_re,smm_im\n"
        with pytest.raises(PatternError, match="missing s_mm"):
            parse_pattern_table(text)

    def test_orphan_smm(self):
        text = "m,azimuth_deg,gain_dbi\n1,-90,0\n1,90,0\nm,smm_re,smm_im\n1,0,0\n7,0,0\n"
        with pytest.raises(PatternError, match="without gain"):
            parse_pattern_table(text)

    def test_duplicate_smm(self):
        text = "m,azimuth_deg,gain_dbi\n1,-90,0\n1,90,0\nm,smm_re,smm_im\n1,0,0\n1,0,0\n"
        with pytest.raises(PatternError, match="duplicate s_mm"):
            parse_pattern_table(text)

    def test_missing_header(self):
        with pytest.raises(PatternError, match="expected header"):
            parse_pattern_table("1,-90,0\n")

    def test_positive_infinite_gain_rejected(self):
        text = "m,azimuth_deg,gain_dbi\n1,-90,inf\n1,90,0\nm,smm_re,smm_im\n1,0,0\n"
        with pytest.raises(PatternError, match="inf"):
            parse_pattern_table(text)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,0,nan", "line 3: gain is not a number"),
            ("1,nan,0", "line 3: azimuth nan deg is not finite"),
            ("1,-inf,0", "line 3: azimuth -inf deg is not finite"),
            ("1,0,4000", "line 3: gain 4000 dBi overflows a float"),
        ],
    )
    def test_non_finite_gain_row_names_its_line(self, row, message):
        with pytest.raises(PatternError, match=f"^{message}$"):
            parse_pattern_table(BASIC.replace("1,0,5", row))
        text, line = big_table(row)
        with pytest.raises(PatternError, match=f"^line {line}: {message.split(': ', 1)[1]}$"):
            parse_pattern_table(text)

    def test_largest_gain_short_of_overflow_accepted(self):
        (pattern,) = parse_pattern_table(BASIC.replace("1,0,5", "1,0,3082"))
        assert pattern.gain_lin.max() == pow(10.0, 308.2)

    @pytest.mark.parametrize("smm", ["1.2,0", "0.8,0.8", "nan,0", "0,inf", "1.7e308,1.7e308"])
    def test_smm_outside_unit_disk_names_its_line(self, smm):
        with pytest.raises(PatternError, match=r"^line 6: \|s_mm\| = .* exceeds 1$"):
            parse_pattern_table(BASIC.replace("1,0.1,-0.05", f"1,{smm}"))

    def test_smm_on_unit_circle_accepted(self):
        assert parse_pattern_table(BASIC.replace("1,0.1,-0.05", "1,0.6,0.8"))[0].s_mm == 0.6 + 0.8j

    def test_element_number_keeps_int_semantics(self):
        with pytest.raises(PatternError, match="line 3: invalid numeric value"):
            parse_pattern_table(BASIC.replace("1,0,5", "1.0,0,5"))
        for m in (2**63, 0, -1):  # ElementPattern refuses an element number below 1
            with pytest.raises(PatternError, match=f"^line 3: element number {m} is out of range$"):
                parse_pattern_table(BASIC.replace("1,0,5", f"{m},0,5"))
        assert parse_pattern_table(BASIC.replace("1,0,5", " +1 ,0,5"))[0].gain(0.0) == pytest.approx(10**0.5)

    def test_bad_cell(self):
        text = "m,azimuth_deg,gain_dbi\n1,abc,0\nm,smm_re,smm_im\n1,0,0\n"
        with pytest.raises(PatternError, match="invalid numeric"):
            parse_pattern_table(text)

    def test_empty_table(self):
        with pytest.raises(PatternError, match="no gain rows"):
            parse_pattern_table("m,azimuth_deg,gain_dbi\nm,smm_re,smm_im\n")

    def test_bytes_that_are_not_utf8(self):
        with pytest.raises(PatternError, match=r"^file is not valid UTF-8 text: .*0xff in position 27"):
            parse_pattern_table(b"m,azimuth_deg,gain_dbi\n1,0,\xff\n")


class TestFormat:
    def test_round_trip(self):
        original = [
            ElementPattern(2, np.radians([-90.0, -10.0, 45.0, 90.0]), np.array([0.0, 1.2, 3.4, 0.5]), 0.2 + 0.1j),
            ElementPattern(1, np.radians([-90.0, 0.0, 90.0]), np.array([1.0, 2.0, 1.0]), -0.3j),
        ]
        again = parse_pattern_table(format_pattern_table(original))
        assert [p.index_m for p in again] == [1, 2]
        by_m = {p.index_m: p for p in again}
        for pat in original:
            back = by_m[pat.index_m]
            np.testing.assert_allclose(back.azimuth_rad, pat.azimuth_rad, rtol=1e-12)
            np.testing.assert_allclose(back.gain_lin, pat.gain_lin, rtol=1e-12, atol=1e-300)
            assert back.s_mm == pat.s_mm


class TestCache:
    @pytest.fixture
    def table(self, tmp_path):
        """Two elements in shuffled rows with a comment, a -inf dBi null and |s_mm| = 1."""
        text = (
            "# solver export\nm,azimuth_deg,gain_dbi\n2,90,1.5\n1,-90,-inf\n2,-90.5,0\n1,90,3\n1,12.25,4\n2,0,-7\n"
            "m,smm_re,smm_im\n2,0.6,0.8\n1,0.1,-0.05\n"
        )
        path = tmp_path / "patterns.csv"
        path.write_text(text)
        return path

    def digest(self, path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_hit_equals_a_fresh_parse_bit_for_bit(self, table):
        digest = self.digest(table)
        assert load_cached_patterns(table, digest) is None
        store_cached_patterns(table, digest, parse_pattern_table(table.read_bytes()))
        assert [p.name for p in (table.parent / CACHE_DIR).iterdir()] == ["patterns.csv.npz"]
        cached = load_cached_patterns(table, digest)
        assert cached is not None and same_patterns(cached, parse_pattern_table(table.read_bytes()))
        assert [p.index_m for p in cached] == [1, 2] and type(cached[0].s_mm) is complex
        assert not any(p.azimuth_rad.flags.writeable or p.gain_lin.flags.writeable for p in cached)

    def test_entry_of_another_parser_version_is_not_served(self, table, monkeypatch, tmp_path):
        other = tmp_path / "patterns.py"
        other.write_bytes(Path(patterns.__file__).read_bytes() + b"# another version\n")
        with monkeypatch.context() as patched:
            patched.setattr(patterns, "__file__", str(other))
            store_cached_patterns(table, self.digest(table), parse_pattern_table(table.read_bytes()))
            assert load_cached_patterns(table, self.digest(table)) is not None
        assert load_cached_patterns(table, self.digest(table)) is None

    def test_damaged_entries_miss_and_never_raise(self, table, rng):
        digest = self.digest(table)
        fresh = parse_pattern_table(table.read_bytes())
        store_cached_patterns(table, digest, fresh)
        entry = table.parent / CACHE_DIR / "patterns.csv.npz"
        good = entry.read_bytes()
        for trial in range(300):
            damaged = bytearray(good)
            if trial % 2:
                damaged = damaged[: rng.integers(len(good))]
            else:
                for k in rng.integers(len(good), size=1 + trial % 3):
                    damaged[k] ^= 1 << rng.integers(8)
            entry.write_bytes(bytes(damaged))
            cached = load_cached_patterns(table, digest)
            assert cached is None or same_patterns(cached, fresh), trial
