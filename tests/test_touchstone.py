import hashlib
import math
import re
import zipfile
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
from rislink import touchstone
from rislink.cache import CACHE_DIR
from rislink.touchstone import load_cached, store_cached

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


def big_export(last_token):
    """A 2-port export with over 256 KB of data whose last data line ends in ``last_token``: (text, that line's number).

    Its 72,000 tokens span more than one array of the reader's conversion.
    """
    rng = np.random.default_rng(7)
    lines = ["! 8,000 points", "# GHz S RI R 50"]
    lines += [" ".join(map(repr, [1.0 + k, *rng.uniform(-0.5, 0.5, 8).tolist()])) for k in range(8000)]
    lines[-1] = f"{lines[-1].rsplit(' ', 1)[0]} {last_token}"
    assert sum(map(len, lines[2:])) > 256 * 1024
    return "\n".join(lines) + "\n", len(lines)


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

    @pytest.mark.parametrize("z0", ["inf", "1e400", "nan", "0"])
    def test_rejects_reference_impedance_not_positive_and_finite(self, z0):
        with pytest.raises(TouchstoneError, match="^line 2: reference impedance must be positive and finite, got"):
            parse_touchstone(f"! c\n# GHz S RI R {z0}\n1.0 0.5 0.0\n")

    def test_rejects_non_monotone_frequency(self):
        with pytest.raises(TouchstoneError, match="increasing"):
            parse_touchstone("# GHz S RI R 50\n2.0 0.5 0.0\n1.0 0.5 0.0\n")

    def test_rejects_bad_token(self):
        for text, line in [("# GHz S RI R 50\n1.0 0.5 zz\n", 2), big_export("zz")]:
            with pytest.raises(TouchstoneError, match=f"^line {line}: invalid numeric token 'zz'$"):
                parse_touchstone(text)

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
    def test_rejects_non_finite_value_with_line_number(self, token):
        text = f"! c\n# GHz S RI R 50\n1.0 0.5 0.0\n2.0 0.5\n{token}\n"
        for text, line in [(text, 5), big_export(token)]:
            with pytest.raises(TouchstoneError, match=f"^line {line}: non-finite value"):
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

    def test_file_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "bad.s1p"
        path.write_bytes(b"# GHz S RI R 50\n! caf\xe9\n1.0 0.5 0.0\n")
        with pytest.raises(TouchstoneError, match=f"^{re.escape(str(path))}: not valid UTF-8 text: .*0xe9"):
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


def same_matrix(a, b):
    """Equal frequency, reference impedance and element numbers, and entries equal bit for bit."""
    x, y = a.entries, b.entries
    return (a.freq_hz, a.z0_ohm, a.element_numbers, x.dtype, x.shape, x.tobytes()) == (
        b.freq_hz, b.z0_ohm, b.element_numbers, y.dtype, y.shape, y.tobytes()
    )


class TestCache:
    TOL_HZ = 1e3

    @pytest.fixture(params=[2, 5])
    def export(self, request, rng, tmp_path):
        """A 3-point DB-format export, with -0.0 and a value that round-trips only as written."""
        n = request.param
        values = np.round(rng.uniform(-40.0, 40.0, (3, 2 * n * n)), 6)
        values[0, :2] = -0.0, 1e-300
        lines = ["! solver export", "# MHz S DB R 75.25"]
        lines += [f"{f} " + " ".join(map(repr, row)) for f, row in zip((3549.9, 3550.0, 3550.1), values.tolist())]
        path = tmp_path / f"ris.s{n}p"
        path.write_text("\n".join(lines) + "\n")
        return path

    def digest(self, path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def hit(self, export, f_hz, digest=None):
        return load_cached(export, digest or self.digest(export), f_hz, self.TOL_HZ)

    def text(self, export, digest, f_hz):
        """The text ``load_cached(..., spelled=True)`` serves with the point, or None."""
        hit = load_cached(export, digest, f_hz, self.TOL_HZ, spelled=True)
        return None if hit is None else hit[1]

    def write_entry(self, export, points):
        """The entry ``store_cached`` writes, damaged after: its points replaced by ``points``, its record kept."""
        store_cached(export, self.digest(export), read_touchstone(export))
        entry = export.parent / CACHE_DIR / f"{export.name}.npz"
        with np.load(entry) as stored:
            members = {name: stored[name] for name in stored.files if not name.startswith("point")}
        with open(entry, "wb") as file:
            np.savez(file, **members, **points)

    def test_hit_equals_a_fresh_parse_bit_for_bit(self, export):
        digest, fresh = self.digest(export), read_touchstone(export)
        assert self.hit(export, fresh.frequencies_hz[0], digest) is None
        store_cached(export, digest, fresh)
        assert [p.name for p in (export.parent / CACHE_DIR).iterdir()] == [f"{export.name}.npz"]
        with np.load(export.parent / CACHE_DIR / f"{export.name}.npz") as entry:
            assert sorted(entry.files) == ["crc32", "freqs_hz", "key", "options", "point0", "point1", "point2"]
        for f_hz in fresh.frequencies_hz:
            for asked in (f_hz, f_hz - 0.4 * self.TOL_HZ, f_hz + self.TOL_HZ):
                cached = self.hit(export, asked, digest)
                assert same_matrix(cached, matrix_at_frequency(fresh, asked, self.TOL_HZ))
                assert not cached.entries.flags.writeable
        numbers = tuple(range(11, 11 + fresh.n_ports))
        cached = load_cached(export, digest, fresh.frequencies_hz[2], self.TOL_HZ, numbers)
        assert same_matrix(cached, matrix_at_frequency(fresh, fresh.frequencies_hz[2], self.TOL_HZ, numbers))

    def test_text_of_the_selected_point_is_its_repr_tokens_in_row_major_order(self, export):
        digest, fresh = self.digest(export), read_touchstone(export)
        store_cached(export, digest, fresh, 1)
        with np.load(export.parent / CACHE_DIR / f"{export.name}.npz") as entry:
            assert "text1" in entry.files and "text0" not in entry.files
        matrix = np.ascontiguousarray(fresh.points[1][1])  # a 2-port point is stored transposed, in column order
        expected = " ".join(repr(v) for v in matrix.view(float).ravel().tolist())
        for asked in (fresh.frequencies_hz[1], fresh.frequencies_hz[1] + 0.4 * self.TOL_HZ):
            assert self.text(export, digest, asked) == expected
        assert self.text(export, digest, fresh.frequencies_hz[0]) is None
        assert self.text(export, digest, fresh.frequencies_hz[1] + 2 * self.TOL_HZ) is None
        assert self.text(export, "0" * 64, fresh.frequencies_hz[1]) is None

    def test_frequency_outside_the_tolerance_or_port_count_off_misses(self, export):
        digest, fresh = self.digest(export), read_touchstone(export)
        store_cached(export, digest, fresh)
        assert self.hit(export, fresh.frequencies_hz[-1] + 1.01 * self.TOL_HZ, digest) is None
        assert load_cached(export, digest, fresh.frequencies_hz[0], self.TOL_HZ, range(1, fresh.n_ports)) is None

    def test_other_points_may_be_damaged_and_the_selected_point_is_still_served(self, export):
        fresh = read_touchstone(export)
        matrices = [m for _, m in fresh.points]
        store_cached(export, self.digest(export), fresh)
        nan = np.full_like(matrices[0], np.nan)
        self.write_entry(export, {"point0": nan, "point1": matrices[1], "point2": nan[:1]})
        assert same_matrix(self.hit(export, fresh.frequencies_hz[1]),
                           matrix_at_frequency(fresh, fresh.frequencies_hz[1], self.TOL_HZ))
        assert self.hit(export, fresh.frequencies_hz[0]) is None and self.hit(export, fresh.frequencies_hz[2]) is None

    @pytest.mark.parametrize("damage", ["nan", "inf", "wrong_shape", "real", "missing", "another_point"])
    def test_damaged_selected_point_misses_and_is_rewritten(self, export, damage):
        fresh = read_touchstone(export)
        points = {f"point{k}": m for k, (_, m) in enumerate(fresh.points)}
        selected = points["point1"].copy()
        if damage in ("nan", "inf"):
            selected[0, -1] = complex(0.5, float(damage))
        points["point1"] = {  # another_point: a member as it was stored under another name
            "wrong_shape": selected[:, :-1], "real": selected.real, "another_point": points["point0"],
        }.get(damage, selected)
        if damage == "missing":
            del points["point1"]
        (export.parent / CACHE_DIR).mkdir()
        self.write_entry(export, points)
        f_hz, other_hz = fresh.frequencies_hz[1], fresh.frequencies_hz[0]
        assert self.hit(export, f_hz) is None
        assert same_matrix(self.hit(export, other_hz), matrix_at_frequency(fresh, other_hz, self.TOL_HZ))
        store_cached(export, self.digest(export), fresh)
        assert same_matrix(self.hit(export, f_hz), matrix_at_frequency(fresh, f_hz, self.TOL_HZ))

    def test_one_byte_edit_misses(self, export):
        f_hz = read_touchstone(export).frequencies_hz[0]
        store_cached(export, self.digest(export), read_touchstone(export))
        text = export.read_text()
        export.write_text(text.replace("75.25", "75.35"))
        assert self.hit(export, f_hz) is None

    def test_entry_of_another_parser_version_is_not_served(self, export, monkeypatch, tmp_path):
        f_hz = read_touchstone(export).frequencies_hz[0]
        other = tmp_path / "touchstone.py"
        other.write_bytes(Path(touchstone.__file__).read_bytes() + b"# another version\n")
        with monkeypatch.context() as patched:
            patched.setattr(touchstone, "__file__", str(other))
            store_cached(export, self.digest(export), read_touchstone(export))
            assert self.hit(export, f_hz) is not None
        assert self.hit(export, f_hz) is None

    def test_damaged_entries_miss_and_never_raise(self, export, rng):
        digest = self.digest(export)
        store_cached(export, digest, read_touchstone(export))
        entry = export.parent / CACHE_DIR / f"{export.name}.npz"
        good = entry.read_bytes()
        with zipfile.ZipFile(entry) as archive:  # where the compression method, flags and sizes of each member live
            headers = [k for info in archive.infolist() for k in range(info.header_offset, info.header_offset + 30)]
        fresh = read_touchstone(export)
        for trial in range(600):
            damaged = bytearray(good)
            if trial % 3 == 0:
                damaged = damaged[: rng.integers(len(good))]
            else:
                where = rng.choice(headers) if trial % 3 == 1 else rng.integers(len(good))
                for k in [where, *rng.integers(len(good), size=trial % 3)]:
                    damaged[k] ^= 1 << rng.integers(8)
            entry.write_bytes(bytes(damaged))
            f_hz = fresh.frequencies_hz[trial % 3]
            cached = self.hit(export, f_hz, digest)
            assert cached is None or same_matrix(cached, matrix_at_frequency(fresh, f_hz, self.TOL_HZ)), trial

    def test_unwritable_cache_directory_is_skipped(self, export):
        (export.parent / CACHE_DIR).write_text("a file where the directory belongs")
        store_cached(export, self.digest(export), read_touchstone(export))
        assert self.hit(export, read_touchstone(export).frequencies_hz[0]) is None
        assert sorted(p.name for p in export.parent.iterdir()) == sorted([CACHE_DIR, export.name])
