import math
import re
from pathlib import Path

import numpy as np
import pytest

from rislink import (
    FrequencyNotFoundError,
    ScatterMatrix,
    TouchstoneDocument,
    TouchstoneError,
    TouchstoneOptions,
    document_from_matrix,
    dumps_touchstone,
    matrix_at_frequency,
    parse_touchstone,
    read_touchstone,
    write_touchstone,
)

GOLDEN = Path(__file__).parent / "golden" / "sample.s2p"


class TestParseBasics:
    def test_single_value_ma(self):
        doc = parse_touchstone("# GHz S MA R 50\n3.55 0.5 90\n")
        assert doc.n_ports == 1
        freq, matrix = doc.points[0]
        assert freq == 3.55e9
        assert matrix[0, 0] == pytest.approx(0.5j, abs=1e-12)
        assert doc.options.z0_ohm == 50.0

    def test_ri_equivalent(self):
        ma = parse_touchstone("# GHz S MA R 50\n3.55 0.5 90\n")
        ri = parse_touchstone("# GHz S RI R 50\n3.55 0.0 0.5\n")
        assert ri.points[0][1][0, 0] == pytest.approx(ma.points[0][1][0, 0], abs=1e-12)

    def test_db_conversion(self):
        doc = parse_touchstone("# GHz S DB R 50\n3.55 -6.0206 90\n")
        # dB -> linear oracle: 10^(dB/20).
        assert abs(doc.points[0][1][0, 0]) == pytest.approx(10 ** (-6.0206 / 20), rel=1e-12)
        assert abs(doc.points[0][1][0, 0]) == pytest.approx(0.5, abs=1e-6)
        assert math.degrees(np.angle(doc.points[0][1][0, 0])) == pytest.approx(90.0)

    def test_option_line_defaults(self):
        doc = parse_touchstone("#\n1.0 0.5 0\n")
        assert doc.options == TouchstoneOptions("ghz", "s", "ma", 50.0)
        assert doc.points[0][0] == 1e9

    def test_partial_option_line(self):
        doc = parse_touchstone("# MHz\n1.0 0.5 45\n")
        assert doc.options.freq_unit == "mhz"
        assert doc.points[0][0] == 1e6

    def test_comments_everywhere(self):
        text = "! header\n# GHz S RI R 50 ! trailing\n! mid\n1.0 0.5 0.0 ! data note\n"
        doc = parse_touchstone(text)
        assert doc.points[0][1][0, 0] == 0.5

    def test_format_equivalence_two_port(self):
        mags = np.array([[0.11, 0.12], [0.21, 0.22]])
        degs = np.array([[10.0, 20.0], [30.0, 40.0]])
        # v1 two-port line order: S11 S21 S12 S22.
        order = [(0, 0), (1, 0), (0, 1), (1, 1)]
        ma = "# GHz S MA R 50\n1.0 " + " ".join(
            f"{mags[i, j]} {degs[i, j]}" for i, j in order
        )
        ri_vals = mags * np.exp(1j * np.radians(degs))
        ri = "# GHz S RI R 50\n1.0 " + " ".join(
            f"{float(ri_vals[i, j].real)!r} {float(ri_vals[i, j].imag)!r}" for i, j in order
        )
        db = "# GHz S DB R 50\n1.0 " + " ".join(
            f"{20 * math.log10(mags[i, j])!r} {degs[i, j]}" for i, j in order
        )
        parsed = [parse_touchstone(t).points[0][1] for t in (ma, ri, db)]
        np.testing.assert_allclose(parsed[0], parsed[1], atol=1e-9)
        np.testing.assert_allclose(parsed[0], parsed[2], atol=1e-9)
        np.testing.assert_allclose(parsed[0], ri_vals, atol=1e-9)

    def test_two_port_column_major_quirk_golden(self):
        doc = read_touchstone(GOLDEN)
        assert doc.n_ports == 2
        freq, matrix = doc.points[0]
        assert freq == 1e9
        expected = np.array([[0.11 + 0.01j, 0.12 + 0.03j], [0.21 + 0.02j, 0.22 + 0.04j]])
        np.testing.assert_allclose(matrix, expected, atol=0)
        assert doc.points[1][1][1, 0] == 0.41 - 0.02j

    def test_three_port_row_major_with_wrapping(self):
        text = (
            "# Hz S RI R 50\n"
            "1.0 1 0 2 0\n"
            "3 0\n"
            "4 0 5 0 6 0\n"
            "7 0 8 0 9 0\n"
        )
        doc = parse_touchstone(text, n_ports=3)
        np.testing.assert_allclose(doc.points[0][1].real, np.arange(1, 10).reshape(3, 3))


class TestParseErrors:
    def test_rejects_v2(self):
        with pytest.raises(TouchstoneError, match="v2"):
            parse_touchstone("[Version] 2.0\n# GHz S MA R 50\n1 0.5 0\n")

    def test_rejects_non_s_parameter(self):
        with pytest.raises(TouchstoneError, match="only S-parameters"):
            parse_touchstone("# GHz Z MA R 50\n1 0.5 0\n")

    def test_rejects_unknown_format(self):
        with pytest.raises(TouchstoneError, match="value format"):
            parse_touchstone("# GHz S XX R 50\n1 0.5 0\n")

    def test_rejects_bad_unit(self):
        with pytest.raises(TouchstoneError, match="frequency unit"):
            parse_touchstone("# THz S MA R 50\n1 0.5 0\n")

    def test_rejects_missing_option_line(self):
        with pytest.raises(TouchstoneError, match="option line"):
            parse_touchstone("1.0 0.5 0\n")

    def test_rejects_wrong_value_count_with_line_number(self):
        with pytest.raises(TouchstoneError, match="line 3"):
            parse_touchstone("# GHz S RI R 50\n1.0 0.5 0.0\n2.0 0.5\n")

    def test_rejects_non_monotone_frequency(self):
        with pytest.raises(TouchstoneError, match="increasing"):
            parse_touchstone("# GHz S RI R 50\n2.0 0.5 0.0\n1.0 0.5 0.0\n")

    def test_rejects_bad_token(self):
        with pytest.raises(TouchstoneError, match="invalid numeric token"):
            parse_touchstone("# GHz S RI R 50\n1.0 0.5 zz\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
    def test_rejects_non_finite_value_with_line_number(self, token):
        text = f"! c\n# GHz S RI R 50\n1.0 0.5 0.0\n2.0 0.5\n{token}\n"
        with pytest.raises(TouchstoneError, match="^line 5: non-finite value"):
            parse_touchstone(text)

    def test_rejects_non_finite_frequency_with_line_number(self):
        with pytest.raises(TouchstoneError, match="^line 3: non-finite value nan"):
            parse_touchstone("# GHz S RI R 50\n1.0 0.5 0.0\nnan 0.5 0.0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# GHz S DB R 50\n1.0 3 0\n2.0 7000 0\n", "^line 3: value 7000.0 overflows in conversion$"),
            ("# GHz S RI R 50\n1.0 0.5 0\n1e300 0.5 0\n", "^line 3: value 1e\\+300 overflows in conversion$"),
        ],
    )
    def test_rejects_value_overflowing_in_conversion_with_line_number(self, text, message):
        with pytest.raises(TouchstoneError, match=message):
            parse_touchstone(text)

    def test_error_lines_count_crlf_and_comment_lines(self):
        text = "! a\r\n\r\n# GHz S RI R 50 ! b\r\n! c\r\n1.0 0.5 0.0\r\n2.0 0.5 zz\r\n"
        with pytest.raises(TouchstoneError, match="^line 6: invalid numeric token 'zz'$"):
            parse_touchstone(text)
        with pytest.raises(TouchstoneError, match="^line 6: multiple option lines$"):
            parse_touchstone(text.replace("2.0 0.5 zz", "# GHz"))
        with pytest.raises(TouchstoneError, match="^line 3: unknown value format 'xx'$"):
            parse_touchstone(text.replace("RI", "XX"))

    def test_token_removal_fuzz(self):
        """Removing any single data token must make the file unparseable."""
        lines = GOLDEN.read_text().splitlines()
        data_lines = [i for i, ln in enumerate(lines) if ln and ln[0] not in "!#"]
        cases = 0
        for i in data_lines:
            tokens = lines[i].split()
            for k in range(len(tokens)):
                mutated = lines.copy()
                mutated[i] = " ".join(tokens[:k] + tokens[k + 1 :])
                with pytest.raises(TouchstoneError):
                    parse_touchstone("\n".join(mutated), n_ports=2)
                cases += 1
        assert cases == 18

    def test_extension_cross_check(self, tmp_path):
        path = tmp_path / "wrong.s2p"
        path.write_text("# GHz S RI R 50\n1.0 0.5 0.0\n")
        with pytest.raises(TouchstoneError, match="wrong value count"):
            read_touchstone(path)

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text("# GHz S RI R 50\n1.0 0.5 0.0\n")
        with pytest.raises(TouchstoneError, match="port count"):
            read_touchstone(path)

    @pytest.mark.parametrize("data", ["", "\n", "  \n\t\n", " ! only a comment\n! another\n   "])
    def test_no_data_after_option_line(self, data):
        with pytest.raises(TouchstoneError, match="^file contains no data$"):
            parse_touchstone("# GHz S RI R 50" + data)

    @pytest.mark.parametrize(
        "line, values",
        [("1_0 0.5 0", (10.0, 0.5, 0.0)), ("\u0661 0.5 0", (1.0, 0.5, 0.0)), ("1\xa00.5 0", (1.0, 0.5, 0.0))],
    )
    def test_tokens_only_float_reads_are_read_as_float_does(self, line, values):
        doc = parse_touchstone(f"# Hz S RI R 50\n{line}\n")
        assert (doc.frequencies_hz[0], doc.points[0][1][0, 0]) == (values[0], complex(*values[1:]))

    @pytest.mark.parametrize("token", ["NaN(1)", "nan(abc)", "-nan(ind)", "0x1p3", "1d0"])
    def test_token_float_refuses_is_named_even_after_a_nan(self, token):
        # fromstring reads the first three as NaN: the error is still the bad token's, not the earlier NaN's.
        with pytest.raises(TouchstoneError, match=f"^line 4: invalid numeric token '{re.escape(token)}'$"):
            parse_touchstone(f"# GHz S RI R 50\n1.0 0.5 0\n2.0 nan 0\n3.0 {token} 0\n")

    def test_inference_needs_explicit_ports_for_large_files(self):
        text = "# Hz S RI R 50\n1.0 1 0 2 0 3 0\n4 0 5 0 6 0\n7 0 8 0 9 0\n"
        with pytest.raises(TouchstoneError, match="infer port count"):
            parse_touchstone(text)


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        doc = read_touchstone(GOLDEN)
        text = dumps_touchstone(doc)
        again = parse_touchstone(text, n_ports=2)
        assert again.n_ports == doc.n_ports
        assert again.frequencies_hz == doc.frequencies_hz
        for (fa, ma), (fb, mb) in zip(doc.points, again.points):
            assert fa == fb
            assert np.array_equal(ma, mb)
        # Serialization is normalized, so a second round trip is bit-stable.
        assert dumps_touchstone(again) == text

    def test_16_port_round_trip(self, rng, tmp_path):
        entries = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        doc = TouchstoneDocument(
            16, TouchstoneOptions("hz", "s", "ri", 50.0), ((3.55e9, entries),)
        )
        path = tmp_path / "full.s16p"
        write_touchstone(doc, path)
        again = read_touchstone(path)
        assert np.array_equal(again.points[0][1], entries)

    def test_write_checks_extension(self, tmp_path):
        doc = parse_touchstone("# GHz S RI R 50\n1.0 0.5 0.0\n")
        with pytest.raises(TouchstoneError, match="implies"):
            write_touchstone(doc, tmp_path / "full.s3p")


class TestMatrixAtFrequency:
    def make_doc(self):
        return parse_touchstone("# GHz S RI R 50\n3.55 0.5 0.0\n")

    def test_exact_match(self):
        sm = matrix_at_frequency(self.make_doc(), 3.55e9, tol_hz=1.0)
        assert isinstance(sm, ScatterMatrix)
        assert sm.freq_hz == 3.55e9
        assert sm.is_ris_only
        assert sm.element_numbers == (1,)

    def test_outside_tolerance_lists_available(self):
        with pytest.raises(FrequencyNotFoundError, match="3.55 GHz"):
            matrix_at_frequency(self.make_doc(), 3.6e9, tol_hz=1e6)

    def test_within_tolerance(self):
        sm = matrix_at_frequency(self.make_doc(), 3.5500001e9, tol_hz=1e3)
        assert sm.freq_hz == 3.55e9

    def test_element_numbers_override(self):
        sm = matrix_at_frequency(self.make_doc(), 3.55e9, tol_hz=1.0, element_numbers=(5,))
        assert sm.is_ris_only
        assert sm.element_numbers == (5,)
        with pytest.raises(ValueError, match="2 element numbers for a 1-port matrix"):
            matrix_at_frequency(self.make_doc(), 3.55e9, tol_hz=1.0, element_numbers=(1, 2))


def test_document_from_matrix_round_trip(rng):
    entries = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sm = ScatterMatrix.full_link(entries, 3.55e9, [1, 2], z0_ohm=75.0)
    doc = document_from_matrix(sm)
    again = parse_touchstone(dumps_touchstone(doc), n_ports=4)
    assert again.options.z0_ohm == 75.0
    assert np.array_equal(again.points[0][1], sm.entries)
