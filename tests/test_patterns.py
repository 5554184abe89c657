import math

import numpy as np
import pytest

from rislink import ElementPattern, PatternError, format_pattern_table, parse_pattern_table

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

    def test_headers_are_case_and_space_insensitive(self):
        text = BASIC.replace("m,azimuth_deg,gain_dbi", " M , Azimuth_Deg ,GAIN_DBI").replace("m,smm_re", "M ,smm_re")
        assert parse_pattern_table(text)[0].s_mm == 0.1 - 0.05j


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
        ],
    )
    def test_non_finite_gain_row_names_its_line(self, row, message):
        with pytest.raises(PatternError, match=f"^{message}$"):
            parse_pattern_table(BASIC.replace("1,0,5", row))

    @pytest.mark.parametrize("smm", ["1.2,0", "0.8,0.8", "nan,0", "0,inf"])
    def test_smm_outside_unit_disk_names_its_line(self, smm):
        with pytest.raises(PatternError, match=r"^line 6: \|s_mm\| = .* exceeds 1$"):
            parse_pattern_table(BASIC.replace("1,0.1,-0.05", f"1,{smm}"))

    def test_smm_on_unit_circle_accepted(self):
        assert parse_pattern_table(BASIC.replace("1,0.1,-0.05", "1,0.6,0.8"))[0].s_mm == 0.6 + 0.8j

    def test_element_number_keeps_int_semantics(self):
        with pytest.raises(PatternError, match="line 3: invalid numeric value"):
            parse_pattern_table(BASIC.replace("1,0,5", "1.0,0,5"))
        with pytest.raises(PatternError, match="line 3: element number .* is out of range"):
            parse_pattern_table(BASIC.replace("1,0,5", f"{2**63},0,5"))
        assert parse_pattern_table(BASIC.replace("1,0,5", " +1 ,0,5"))[0].gain(0.0) == pytest.approx(10**0.5)

    def test_bad_cell(self):
        text = "m,azimuth_deg,gain_dbi\n1,abc,0\nm,smm_re,smm_im\n1,0,0\n"
        with pytest.raises(PatternError, match="invalid numeric"):
            parse_pattern_table(text)

    def test_empty_table(self):
        with pytest.raises(PatternError, match="no gain rows"):
            parse_pattern_table("m,azimuth_deg,gain_dbi\nm,smm_re,smm_im\n")


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
