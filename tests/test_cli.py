import codecs
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rislink.cli
from conftest import grid_transfer, line_dumps_touchstone, same_patterns
from rislink import (
    FarFieldValidityWarning,
    SweepGrid,
    TouchstoneDocument,
    TouchstoneOptions,
    __version__,
    document_from_matrix,
    read_scenario,
    read_touchstone,
    write_touchstone,
)
from rislink.cli import _build_patterns, _build_ris, main
from rislink.farfield import assemble_full_matrix
from rislink import cache
from rislink.cache import CACHE_DIR
from rislink.patterns import load_cached_patterns, parse_pattern_table, store_cached_patterns
from rislink.touchstone import load_cached, store_cached

TOY = """\
freq = 3.55 GHz
range = 2 m
alpha = 0 deg
beta = 30 deg
gain_tx_db = 11 dB
gain_rx_db = 11 dB
element.1.x = -20 mm
element.1.z = 0 mm
element.2.x = 20 mm
element.2.z = 12 mm
bounds.c_min = 0.23 pF
bounds.c_max = 2.1 pF
ris.model = exp_decay
ris.smm_re = 0.25
ris.smm_im = -0.1
ris.c0 = 0.12
ris.rolloff = 60 mm
patterns.gain_db = 5 dB
sweep.start = -90 deg
sweep.stop = 90 deg
sweep.step = 5 deg
reflector.width = 308 mm
reflector.height = 96 mm
opt.starts = 6
opt.seed = 0
"""

SINGLE = """\
freq = 3.55 GHz
range = 2 m
alpha = 0 deg
beta = 0 deg
gain_tx_db = 11 dB
gain_rx_db = 11 dB
element.1.x = 0 mm
element.1.z = 0 mm
bounds.c_min = 0.23 pF
bounds.c_max = 2.1 pF
ris.model = isolated
patterns.gain_db = 0 dB
"""


@pytest.fixture
def toy_cfg(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY)
    return path


class TestSynthesize:
    def test_single_element_matches_api(self, tmp_path):
        cfg_path = tmp_path / "one.cfg"
        cfg_path.write_text(SINGLE)
        out = tmp_path / "run"
        assert main(["synthesize", str(cfg_path), "--out", str(out)]) == 0
        doc = read_touchstone(out / "full.s3p")
        assert doc.n_ports == 3

        cfg = read_scenario(cfg_path)
        ris = _build_ris(cfg)
        full = assemble_full_matrix(cfg.scenario, ris, _build_patterns(cfg, ris))
        assert np.array_equal(doc.points[0][1], full.entries)
        manifest = json.loads((out / "manifest.synthesize.json").read_text())
        assert manifest["command"] == "synthesize"
        assert manifest["outputs"] == ["full.s3p"]
        assert "config" in manifest["input_hashes"]

    def test_board_config_synthesizes_16_ports(self, tmp_path):
        repo = Path(__file__).resolve().parents[1]
        cfg_path = repo / "scenarios" / "board_7x2" / "scenario.cfg"
        out = tmp_path / "board"
        assert main(["synthesize", str(cfg_path), "--out", str(out)]) == 0
        doc = read_touchstone(out / "full.s16p")
        assert doc.n_ports == 16
        assert doc.points[0][0] == 3.55e9

    def test_board_from_touchstone_file_matches_synthesized_model(self, tmp_path):
        board = Path(__file__).resolve().parents[1] / "scenarios" / "board_7x2"
        text = (board / "scenario.cfg").read_text()
        outputs = {}
        for source in ("model", "file"):
            run = tmp_path / source
            run.mkdir()
            (run / "patterns.csv").write_bytes((board / "patterns.csv").read_bytes())
            if source == "file":
                ris = _build_ris(read_scenario(board / "scenario.cfg"))
                write_touchstone(document_from_matrix(ris), run / "board.s14p")
                lines = [ln for ln in text.splitlines() if not ln.startswith("ris.")]
                text = "\n".join(lines) + "\nris.file = board.s14p\n"
            cfg = run / "scenario.cfg"
            cfg.write_text(text)
            out = str(run / "out")
            assert main(["synthesize", str(cfg), "--out", out]) == 0
            assert main(["optimize", str(cfg), "--seed", "7", "--out", out]) == 0
            assert main(["sweep", str(cfg), str(run / "out" / "caps.csv"), "--out", out]) == 0
            outputs[source] = {name: (run / "out" / name).read_bytes() for name in ("full.s16p", "caps.csv", "brcs.csv")}
        assert "ris.file" in json.loads((tmp_path / "file" / "out" / "manifest.sweep.json").read_text())["config"]
        assert outputs["file"] == outputs["model"]

    def test_missing_pattern_file_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(TOY.replace("patterns.gain_db = 5 dB", "patterns.file = absent.csv"))
        assert main(["synthesize", str(cfg_path)]) == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_invalid_bounds_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(TOY.replace("bounds.c_max = 2.1 pF", "bounds.c_max = 0.1 pF"))
        assert main(["synthesize", str(cfg_path)]) == 2
        assert "c_min" in capsys.readouterr().err


FILE_CFG = "".join(
    line + "\n" for line in TOY.splitlines() if not line.startswith(("ris.", "patterns.", "opt."))
) + "ris.file = ris.s2p\npatterns.file = patterns.csv\n"
RIS_S2P = "# GHz S RI R 50\n3.55 0.2 0 0.05 0 0.05 0 0.2 0\n"
PATTERNS = """\
m,azimuth_deg,gain_dbi
1,-90,0
1,90,0
2,-90,0
2,90,0
m,smm_re,smm_im
1,0.2,0
2,0.2,0
"""


class TestInputFiles:
    """A defect in the RIS or pattern file exits 2 with its line, never with a traceback."""

    def write(self, tmp_path, ris=RIS_S2P, patterns=PATTERNS):
        (tmp_path / "ris.s2p").write_text(ris)
        (tmp_path / "patterns.csv").write_text(patterns)
        (tmp_path / "caps.csv").write_text("m,c_pf\n1,1.0\n2,1.0\n")
        cfg = tmp_path / "files.cfg"
        cfg.write_text(FILE_CFG)
        return cfg

    def test_valid_files_run(self, tmp_path):
        cfg = self.write(tmp_path)
        assert main(["synthesize", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert main(["sweep", str(cfg), str(tmp_path / "caps.csv"), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command", ["synthesize", "sweep"])
    def test_non_finite_touchstone_value_exits_2(self, tmp_path, capsys, command):
        cfg = self.write(tmp_path, ris=RIS_S2P.replace("0.05 0 0.05", "nan 0 0.05"))
        args = [str(tmp_path / "caps.csv")] if command == "sweep" else []
        assert main([command, str(cfg), *args, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "line 2: non-finite value nan" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "ris, message",
        [
            ("# GHz S DB R 50\n3.55 -14 0 -26 0 -26 0 7000 0\n", "line 2: value 7000.0 overflows in conversion"),
            ("# GHz S RI R 50\n1e300 0.2 0 0.05 0 0.05 0 0.2 0\n", "line 2: value 1e+300 overflows in conversion"),
        ],
    )
    def test_touchstone_value_overflowing_in_conversion_exits_2(self, tmp_path, capsys, ris, message):
        cfg = self.write(tmp_path, ris=ris)
        assert main(["synthesize", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,90,nan", "line 3: gain is not a number"),
            ("1,nan,0", "line 3: azimuth nan deg is not finite"),
            ("1,90,4000", "line 3: gain 4000 dBi overflows a float"),
        ],
    )
    def test_bad_gain_row_exits_2(self, tmp_path, capsys, row, message):
        cfg = self.write(tmp_path, patterns=PATTERNS.replace("1,90,0", row))
        assert main(["synthesize", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_touchstone_port_count_not_matching_scenario_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path)
        cfg.write_text(FILE_CFG.replace("ris.s2p", "ris.s3p"))
        (tmp_path / "ris.s3p").write_text("# GHz S RI R 50\n3.55" + " 0.2 0 0 0 0 0 0 0" * 2 + " 0.2 0\n")
        assert main(["synthesize", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "3 ports for 2 scenario elements" in err and "Traceback" not in err
        assert not (tmp_path / CACHE_DIR).exists()

    @pytest.mark.parametrize("z0", ["inf", "1e400"])
    @pytest.mark.parametrize("command", ["synthesize", "optimize", "sweep"])
    def test_non_finite_reference_impedance_exits_2(self, tmp_path, capsys, command, z0):
        cfg = self.write(tmp_path, ris=RIS_S2P.replace("R 50", f"R {z0}"))
        args = [str(tmp_path / "caps.csv")] if command == "sweep" else []
        assert main([command, str(cfg), *args, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: line 1: reference impedance must be positive and finite, got inf"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("damaged", ["config", "ris", "patterns", "caps"])
    def test_latin_1_byte_exits_2_naming_the_file(self, tmp_path, capsys, damaged):
        cfg = self.write(tmp_path)
        path = {"config": cfg, "ris": tmp_path / "ris.s2p", "patterns": tmp_path / "patterns.csv",
                "caps": tmp_path / "caps.csv"}[damaged]
        path.write_bytes(path.read_bytes() + "# café\n".encode("latin-1"))
        assert main(["sweep", str(cfg), str(tmp_path / "caps.csv"), "--out", str(tmp_path / "o")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {path}: not valid UTF-8 text: ") and "0xe9" in line
        assert not (tmp_path / "o").exists() and not (tmp_path / CACHE_DIR / f"{path.name}.npz").exists()

    @pytest.mark.parametrize("marked", ["config", "ris", "patterns", "caps"])
    def test_leading_byte_order_mark_reads_as_without_one(self, tmp_path, marked):
        # Spreadsheet programs start a UTF-8 CSV with a byte-order mark by default.
        outputs, manifests = {}, {}
        for run in ("plain", "marked"):
            (tmp_path / run).mkdir()
            cfg = self.write(tmp_path / run)
            path = {"config": cfg, "ris": tmp_path / run / "ris.s2p", "patterns": tmp_path / run / "patterns.csv",
                    "caps": tmp_path / run / "caps.csv"}[marked]
            if run == "marked":
                path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
            out = tmp_path / run / "o"
            assert main(["synthesize", str(cfg), "--out", str(out)]) == 0
            assert main(["optimize", str(cfg), "--out", str(out)]) == 0
            assert main(["sweep", str(cfg), str(path.parent / "caps.csv"), "--out", str(out)]) == 0
            outputs[run] = {name: (out / name).read_bytes() for name in ("full.s4p", "caps.csv", "brcs.csv")}
            manifests[run] = json.loads((out / "manifest.sweep.json").read_text())
            assert manifests[run]["input_hashes"][marked] == hashlib.sha256(path.read_bytes()).hexdigest()
            del manifests[run]["created_utc"], manifests[run]["input_hashes"][marked]
        assert outputs["marked"] == outputs["plain"]
        assert manifests["marked"] == manifests["plain"]

    def test_smm_above_one_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, patterns=PATTERNS.replace("1,0.2,0", "1,1.5,0"))
        assert main(["synthesize", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "line 7: |s_mm| = 1.500000 exceeds 1" in err and "Traceback" not in err


class TestOptimize:
    def test_caps_match_brute_force_grid(self, toy_cfg, tmp_path):
        out = tmp_path / "opt"
        assert main(["optimize", str(toy_cfg), "--out", str(out)]) == 0
        rows = (out / "caps.csv").read_text().splitlines()
        assert rows[0] == "m,c_pf,gamma_re,gamma_im"
        caps = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
        assert set(caps) == {1, 2}

        cfg = read_scenario(toy_cfg)
        ris = _build_ris(cfg)
        full = assemble_full_matrix(cfg.scenario, ris, _build_patterns(cfg, ris))
        axis = np.linspace(cfg.bounds.c_min_f, cfg.bounds.c_max_f, 300)
        c1, c2 = np.meshgrid(axis, axis, indexing="ij")
        grid = np.column_stack((c1.ravel(), c2.ravel()))
        values = grid_transfer(full, grid, cfg.varactor)
        best, best_caps = values.max(), grid[np.argmax(values)]
        assert abs(caps[1] * 1e-12 - best_caps[0]) <= 0.005e-12
        assert abs(caps[2] * 1e-12 - best_caps[1]) <= 0.005e-12

        manifest = json.loads((out / "manifest.optimize.json").read_text())
        achieved = float(manifest["config"]["achieved_objective"])
        assert achieved >= best - 1e-9

    def test_same_seed_gives_identical_bytes(self, toy_cfg, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["optimize", str(toy_cfg), "--seed", "7", "--out", str(out1)]) == 0
        assert main(["optimize", str(toy_cfg), "--seed", "7", "--out", str(out2)]) == 0
        assert (out1 / "caps.csv").read_bytes() == (out2 / "caps.csv").read_bytes()

    def test_different_seed_may_differ_but_stays_feasible(self, toy_cfg, tmp_path):
        out = tmp_path / "alt"
        assert main(["optimize", str(toy_cfg), "--seed", "3", "--out", str(out)]) == 0
        rows = (out / "caps.csv").read_text().splitlines()[1:]
        for row in rows:
            c_pf = float(row.split(",")[1])
            assert 0.23 <= c_pf <= 2.1

    def test_one_element_paths_pass_per_antenna(self, toy_cfg, tmp_path, monkeypatch):
        # The seed reads the assembled link, so assembly's one pass per antenna is the run's only geometry.
        sides = []
        element_paths = rislink.farfield.element_paths

        def spy(scn, side, *args):
            sides.append(side)
            return element_paths(scn, side, *args)

        for name, module in list(sys.modules.items()):  # every module that binds the function, under any name
            if name.startswith("rislink"):
                for attr, value in list(vars(module).items()):
                    if value is element_paths:
                        monkeypatch.setattr(module, attr, spy)
        assert main(["optimize", str(toy_cfg), "--out", str(tmp_path / "o")]) == 0
        assert sides == ["tx", "rx"]

    @pytest.mark.parametrize("line", [
        "opt.starts = 0",
        "opt.max_evals = 5",
        "varactor.rs = -1 ohm",
        "range = -2 m",
        "alpha = 120 deg",
        "ris.smm_re = 2",
        # Non-finite values and keys that used to end in a traceback.
        "alpha = nan deg",
        "freq = inf GHz",
        "gain_tx_db = 1e6 dB",
        "patterns.gain_db = 1e6 dB",
        "element.a.x = 0 mm",
        "element.x = 0 mm",
        "reflector.width = nan mm",
        "patterns.gain_db = nan dB",
        "ris.c0 = nan",
        "ris.smm_re = nan",
        "varactor.rs = nan ohm",
        "varactor.ls = inf nH",
        "opt.seed = -1",
        "out.dir = a\0b",
    ])
    def test_out_of_range_config_value_exits_2(self, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        text = "".join(ln + "\n" for ln in TOY.splitlines() if not ln.startswith(key + " ")) + line + "\n"
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text)
        assert main(["optimize", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and "Traceback" not in err


class TestSweep:
    def run_optimize(self, toy_cfg, out):
        assert main(["optimize", str(toy_cfg), "--out", str(out)]) == 0
        return out / "caps.csv"

    def test_sweep_emits_ris_and_reflector_columns(self, toy_cfg, tmp_path):
        out = tmp_path / "swp"
        caps = self.run_optimize(toy_cfg, out)
        assert main(["sweep", str(toy_cfg), str(caps), "--out", str(out)]) == 0
        lines = (out / "brcs.csv").read_text().splitlines()
        assert lines[0] == "alpha_deg,ris,reflector"
        assert len(lines) == 1 + 37  # -90..90 in 5 deg steps
        columns = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        peak_alpha = columns[np.argmax(columns[:, 1]), 0]
        assert abs(peak_alpha) <= 5.0  # optimized for alpha = 0
        reflector_peak = columns[np.argmax(columns[:, 2]), 0]
        assert reflector_peak == pytest.approx(30.0, abs=1e-9)

    def test_reflector_only_mode(self, toy_cfg, tmp_path):
        out = tmp_path / "ref"
        assert main(["sweep", str(toy_cfg), "--out", str(out)]) == 0
        lines = (out / "brcs.csv").read_text().splitlines()
        assert lines[0] == "alpha_deg,reflector"

    def test_beta_override_moves_specular_peak(self, toy_cfg, tmp_path):
        out = tmp_path / "b0"
        assert main(["sweep", str(toy_cfg), "--beta", "0", "--out", str(out)]) == 0
        lines = (out / "brcs.csv").read_text().splitlines()[1:]
        columns = np.array([[float(v) for v in ln.split(",")] for ln in lines])
        assert columns[np.argmax(columns[:, 1]), 0] == pytest.approx(0.0, abs=1e-9)

    def test_missing_reflector_exits_2(self, tmp_path, capsys):
        text = "\n".join(ln for ln in TOY.splitlines() if not ln.startswith("reflector."))
        cfg_path = tmp_path / "noref.cfg"
        cfg_path.write_text(text)
        assert main(["sweep", str(cfg_path)]) == 2
        assert "reflector" in capsys.readouterr().err

    def test_empty_alpha_grid_exits_2(self, tmp_path, capsys):
        text = TOY.replace("sweep.start = -90 deg", "sweep.start = 10 deg")
        text = text.replace("sweep.stop = 90 deg", "sweep.stop = -10 deg")
        cfg_path = tmp_path / "empty.cfg"
        cfg_path.write_text(text)
        assert main(["sweep", str(cfg_path)]) == 2
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, old, new",
        [("sweep.start", "-90 deg", "-150 deg"), ("sweep.stop", "90 deg", "120 deg"),
         ("sweep.start", "-90 deg", "-1.6 rad")],
    )
    def test_sweep_bound_beyond_90_deg_exits_2(self, tmp_path, capsys, key, old, new):
        cfg_path = tmp_path / "wide.cfg"
        cfg_path.write_text(TOY.replace(f"{key} = {old}", f"{key} = {new}"))
        assert main(["sweep", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{key} must lie within [-90, 90] deg" in err and "Traceback" not in err

    def test_sweep_grid_stops_at_its_last_step_inside_stop(self, toy_cfg, tmp_path):
        cfg_path = tmp_path / "step7.cfg"
        cfg_path.write_text(toy_cfg.read_text().replace("sweep.step = 5 deg", "sweep.step = 7 deg"))
        assert main(["sweep", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "brcs.csv").read_text().splitlines()
        assert [rows[1].split(",")[0], rows[-1].split(",")[0]] == ["-90", "85"]
        assert len(rows) == 1 + 26

    def test_sweep_step_beyond_a_million_angles_exits_2(self, tmp_path, capsys, monkeypatch):
        # 1e-12 deg over 180 deg would be 1.8e14 angles, 1.28 PiB of float64: the config check refuses it
        # before the grid is built, so building it fails the test instead of trying to allocate.
        monkeypatch.setattr(SweepGrid, "alphas_rad", lambda grid: pytest.fail("sweep grid built"))
        board = Path(__file__).resolve().parents[1] / "scenarios" / "board_7x2"
        (tmp_path / "patterns.csv").write_bytes((board / "patterns.csv").read_bytes())
        text = (board / "scenario.cfg").read_text().replace("sweep.step = 1 deg", "sweep.step = 1e-12 deg")
        (tmp_path / "scenario.cfg").write_text(text)
        assert main(["sweep", str(tmp_path / "scenario.cfg"), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep.step ") and "1,000,000 angles" in err and "Traceback" not in err

    @pytest.mark.parametrize("range_, beta, n_warnings", [("2 m", "30 deg", 0), ("1.45 m", "0 deg", 1)])
    def test_sweep_checks_far_field_over_its_whole_grid(self, tmp_path, range_, beta, n_warnings):
        # At R = 1.45 m the Rx at alpha = 0 sits 1.45 m or more from every element, beyond
        # 2*D^2/lambda = 1.416 m, but at +-90 deg it comes to 1.330 m of an end element.
        board = Path(__file__).resolve().parents[1] / "scenarios" / "board_7x2"
        text = (board / "scenario.cfg").read_text()
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(text.replace("range = 2 m", f"range = {range_}").replace("beta = 30 deg", f"beta = {beta}"))
        (tmp_path / "patterns.csv").write_bytes((board / "patterns.csv").read_bytes())
        caps = tmp_path / "caps.csv"
        caps.write_text("m,c_pf\n" + "".join(f"{m},1.0\n" for m in range(1, 15)))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(["optimize", str(cfg), "--out", str(tmp_path / "o")]) == 0
            assert record == []
            assert main(["sweep", str(cfg), str(caps), "--out", str(tmp_path / "o")]) == 0
        assert [type(w.message) for w in record] == [FarFieldValidityWarning] * n_warnings
        assert all(str(w.message).startswith("antenna distance 1.330 m is below") for w in record)

    @pytest.mark.parametrize("c_pf", ["5.0", "nan", "inf", "0", "-1"])
    def test_caps_out_of_bounds_exit_2(self, toy_cfg, tmp_path, capsys, c_pf):
        caps = tmp_path / "caps.csv"
        caps.write_text(f"m,c_pf,gamma_re,gamma_im\n1,{c_pf},0,0\n2,1.0,0,0\n")
        assert main(["sweep", str(toy_cfg), str(caps), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "element 1" in err and "outside" in err

    def test_caps_missing_element_exit_2(self, toy_cfg, tmp_path):
        caps = tmp_path / "caps.csv"
        caps.write_text("m,c_pf,gamma_re,gamma_im\n1,1.0,0,0\n")
        assert main(["sweep", str(toy_cfg), str(caps), "--out", str(tmp_path / "o")]) == 2

    def test_caps_unknown_element_exit_2(self, toy_cfg, tmp_path, capsys):
        caps = tmp_path / "caps.csv"
        caps.write_text("m,c_pf,gamma_re,gamma_im\n1,1.0,0,0\n2,1.0,0,0\n99,1.0,0,0\n")
        assert main(["sweep", str(toy_cfg), str(caps), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "elements [99]" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestOverrides:
    def test_alpha_override_recorded_and_used(self, toy_cfg, tmp_path):
        out = tmp_path / "a30"
        assert main(["optimize", str(toy_cfg), "--alpha", "15", "--out", str(out)]) == 0
        assert (out / "caps.csv").is_file()

    def test_out_of_range_alpha_override_exits_2(self, toy_cfg, tmp_path, capsys):
        assert main(["optimize", str(toy_cfg), "--alpha", "120", "--out", str(tmp_path / "o")]) == 2
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--seed", "-1")])
    def test_non_finite_angle_or_negative_seed_override_exits_2(self, toy_cfg, tmp_path, capsys, flag, value):
        assert main(["optimize", str(toy_cfg), flag, value, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and "Traceback" not in err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["synthesize", str(tmp_path / "none.cfg")]) == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("command, output", [("synthesize", "full.s4p"), ("optimize", "caps.csv"),
                                                 ("sweep", "brcs.csv")])
    @pytest.mark.parametrize("target", ["file", "through_file", "output_is_directory"])
    def test_unwritable_output_exits_2(self, toy_cfg, tmp_path, capsys, command, output, target):
        (tmp_path / "file").write_text("")
        out = tmp_path / {"file": "file", "through_file": "file/sub", "output_is_directory": "o"}[target]
        if target == "output_is_directory":
            (out / output).mkdir(parents=True)
        assert main([command, str(toy_cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


BOARD = Path(__file__).resolve().parents[1] / "scenarios" / "board_7x2"


class TestTouchstoneCache:
    """A ris.file export is parsed once; later runs on the same bytes load the parse from __rislink_cache__."""

    @pytest.fixture
    def board(self, tmp_path):
        """The board driven by a two-point board.s14p in its own directory; outputs go elsewhere."""
        run = tmp_path / "board"
        run.mkdir()
        (run / "patterns.csv").write_bytes((BOARD / "patterns.csv").read_bytes())
        ris = _build_ris(read_scenario(BOARD / "scenario.cfg"))
        points = ((3.5e9, 0.5 * ris.entries), (3.55e9, ris.entries))
        doc = TouchstoneDocument(14, document_from_matrix(ris).options, points)
        write_touchstone(doc, run / "board.s14p")
        lines = [ln for ln in (BOARD / "scenario.cfg").read_text().splitlines() if not ln.startswith("ris.")]
        (run / "scenario.cfg").write_text("\n".join(lines) + "\nris.file = board.s14p\nris.freq_tol = 1 MHz\n")
        return run

    @pytest.fixture
    def parses(self, monkeypatch):
        """The paths the CLI parses in full."""
        calls = []
        read = rislink.cli.read_touchstone
        monkeypatch.setattr(rislink.cli, "read_touchstone", lambda path, data: calls.append(path) or read(path, data))
        return calls

    def pipeline(self, board, out):
        cfg = str(board / "scenario.cfg")
        assert main(["synthesize", cfg, "--out", str(out)]) == 0
        assert main(["optimize", cfg, "--seed", "7", "--out", str(out)]) == 0
        assert main(["sweep", cfg, str(out / "caps.csv"), "--out", str(out)]) == 0
        outputs = {name: (out / name).read_bytes() for name in ("full.s16p", "caps.csv", "brcs.csv")}
        for manifest in out.glob("manifest.*.json"):
            outputs[manifest.name] = {k: v for k, v in json.loads(manifest.read_text()).items() if k != "created_utc"}
        return outputs

    def test_warm_runs_skip_the_parse_and_match_cold_runs(self, board, tmp_path, parses):
        export = board / "board.s14p"
        cold = self.pipeline(board, tmp_path / "cold")
        assert parses == [export]
        assert sorted(p.name for p in (board / CACHE_DIR).iterdir()) == ["board.s14p.npz", "patterns.csv.npz"]
        warm = self.pipeline(board, tmp_path / "warm")
        assert parses == [export]
        assert warm == cold and len(cold) == 6
        digest = hashlib.sha256(export.read_bytes()).hexdigest()
        commands = ("synthesize", "optimize", "sweep")
        for run in (cold, warm):  # the first command of the cold run missed, every other one hit
            assert {run[f"manifest.{c}.json"]["input_hashes"]["ris"] for c in commands} == {digest}
        assert not any(p.name == CACHE_DIR for p in (tmp_path / "cold").rglob("*"))

        export.write_bytes(export.read_bytes().replace(b"HZ", b"Hz", 1))  # same document, other bytes: a miss
        edited = self.pipeline(board, tmp_path / "edited")
        assert edited["full.s16p"] == cold["full.s16p"]
        assert parses == [export, export]
        digest = hashlib.sha256(export.read_bytes()).hexdigest()
        assert {edited[f"manifest.{c}.json"]["input_hashes"]["ris"] for c in commands} == {digest}

    @pytest.mark.parametrize(
        "damage", ["garbage", "truncated", "wrong_digest", "wrong_shape", "point_missing", "nan", "not_increasing"]
    )
    def test_damaged_entry_is_parsed_again_and_rewritten(self, board, tmp_path, parses, damage):
        export, cfg = board / "board.s14p", str(board / "scenario.cfg")
        assert main(["synthesize", cfg, "--out", str(tmp_path / "cold")]) == 0
        entry = board / CACHE_DIR / "board.s14p.npz"
        digest = hashlib.sha256(export.read_bytes()).hexdigest()
        freqs, matrices = np.array([3.5e9, 3.55e9]), [m for _, m in read_touchstone(export).points]
        if damage == "wrong_shape":
            matrices[1] = matrices[1][:13, :13]
        elif damage == "point_missing":
            matrices = matrices[:1]
        elif damage == "nan":
            matrices[1] = matrices[1].copy()
            matrices[1][3, 4] = np.nan
        elif damage == "not_increasing":
            freqs, matrices = freqs[::-1], matrices[::-1]
        if damage == "garbage":
            entry.write_bytes(b"PK\x03\x04" + bytes(range(256)) * 8)
        elif damage == "truncated":
            entry.write_bytes(entry.read_bytes()[:-100])
        elif damage == "wrong_digest":
            store_cached(export, "0" * 64, read_touchstone(export))
        else:
            with open(entry, "wb") as file:
                np.savez(file, key=np.array(cache.key(digest, rislink.touchstone.__file__)),
                         options=np.array("hz s ri r 50.0"), freqs_hz=freqs,
                         **{f"point{k}": m for k, m in enumerate(matrices)})
        assert self.hit(export, digest) is None
        assert main(["synthesize", cfg, "--out", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "full.s16p").read_bytes() == (tmp_path / "cold" / "full.s16p").read_bytes()
        assert len(parses) == 2
        cached, fresh = self.hit(export, digest), read_touchstone(export).points[1][1]
        assert cached is not None and cached.entries.tobytes() == fresh.tobytes()

    def test_entries_without_a_record_miss_and_are_rewritten(self, board, tmp_path, parses, monkeypatch):
        """Entries as an earlier version wrote them: every member under the right key, and no record of them."""
        tables, parse = [], rislink.cli.parse_pattern_table
        monkeypatch.setattr(rislink.cli, "parse_pattern_table", lambda text: tables.append(text) or parse(text))
        cfg, export, table = str(board / "scenario.cfg"), board / "board.s14p", board / "patterns.csv"
        assert main(["synthesize", cfg, "--out", str(tmp_path / "cold")]) == 0
        for entry in (board / CACHE_DIR).iterdir():
            with np.load(entry) as stored:
                members = {name: stored[name] for name in stored.files if name != "crc32"}
            with open(entry, "wb") as file:
                np.savez(file, **members)
        digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (export, table)]
        assert self.hit(export, digests[0]) is None and load_cached_patterns(table, digests[1]) is None
        assert main(["synthesize", cfg, "--out", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "full.s16p").read_bytes() == (tmp_path / "cold" / "full.s16p").read_bytes()
        assert len(parses) == len(tables) == 2
        assert self.hit(export, digests[0]) is not None and load_cached_patterns(table, digests[1]) is not None

    def test_cold_synthesize_reads_the_export_once(self, board, tmp_path, monkeypatch):
        reads, read_bytes = [], Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path.name) or read_bytes(path))
        assert main(["synthesize", str(board / "scenario.cfg"), "--out", str(tmp_path / "out")]) == 0
        assert reads.count("board.s14p") == 1 and (board / CACHE_DIR / "board.s14p.npz").exists()

    def test_warm_synthesize_opens_the_export_entry_once(self, board, tmp_path, monkeypatch):
        cfg = str(board / "scenario.cfg")
        assert main(["synthesize", cfg, "--out", str(tmp_path / "cold")]) == 0
        opened, load = [], rislink.cache.load  # the entries the run opens, by their input's name
        monkeypatch.setattr(rislink.cache, "load", lambda path, *rest: opened.append(path.name) or load(path, *rest))
        assert main(["synthesize", cfg, "--out", str(tmp_path / "warm")]) == 0
        assert opened.count("board.s14p") == 1
        assert (tmp_path / "warm" / "full.s16p").read_bytes() == (tmp_path / "cold" / "full.s16p").read_bytes()

    def test_a_hit_decodes_nothing(self, board, tmp_path, monkeypatch):
        """Only a miss decodes an input's bytes: a hit's key is the SHA-256 of bytes that already parsed as UTF-8."""
        decodes, decoded = [], rislink.cli.decoded  # the files the CLI decodes, as the error would name them
        monkeypatch.setattr(rislink.cli, "decoded", lambda data, error, where: decodes.append(where) or
                            decoded(data, error, where))
        cfg, out = str(board / "scenario.cfg"), tmp_path / "out"
        runs = [["synthesize", cfg], ["optimize", cfg, "--seed", "7"], ["sweep", cfg, str(out / "caps.csv")],
                ["synthesize", cfg]]
        seen = []
        for args in runs:
            assert main([*args, "--out", str(out)]) == 0
            seen.append(decodes[:])
            decodes.clear()
        export, table, caps = (f"{path}: " for path in (board / "board.s14p", board / "patterns.csv", out / "caps.csv"))
        assert seen == [[export, table], [], [caps], []]

    def hit(self, export, digest):
        """The cached point the board's scenario selects, or None."""
        scn = read_scenario(export.parent / "scenario.cfg").scenario
        return load_cached(export, digest, scn.freq_hz, 1e6, scn.element_numbers)

    @pytest.mark.parametrize("freq", ["3.5012 GHz", "3.62 GHz"])
    def test_frequency_outside_the_tolerance_exits_2_alike_cold_and_warm(self, board, tmp_path, capsys, parses, freq):
        cfg = board / "scenario.cfg"
        cfg.write_text(cfg.read_text().replace("freq = 3.55 GHz", f"freq = {freq}"))
        errors = []
        for run in ("cold", "warm"):
            assert main(["synthesize", str(cfg), "--out", str(tmp_path / run)]) == 2
            errors.append(capsys.readouterr().err)
        available = "available: 3.5 GHz, 3.55 GHz"
        assert errors[0] == errors[1] == f"error: no point within 1e+06 Hz of {freq[:-4]} GHz; {available}\n"
        assert len(parses) == 2 and not (board / CACHE_DIR / "board.s14p.npz").exists()  # a failed run stores nothing

    def test_invalid_export_fails_alike_twice_and_is_not_cached(self, board, tmp_path, capsys):
        export = board / "board.s14p"
        export.write_text(export.read_text().replace("3500000000.0 ", "nan ", 1))
        errors = []
        for run in ("a", "b"):
            assert main(["synthesize", str(board / "scenario.cfg"), "--out", str(tmp_path / run)]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and "line 2: non-finite value nan" in errors[0]
        assert not (board / CACHE_DIR).exists()

    @pytest.mark.skipif(os.geteuid() == 0, reason="root writes into a read-only directory")
    def test_read_only_export_directory_runs_and_writes_nothing_there(self, board, tmp_path, parses):
        before = sorted(p.name for p in board.iterdir())
        board.chmod(0o555)
        try:
            assert self.pipeline(board, tmp_path / "a") == self.pipeline(board, tmp_path / "b")
        finally:
            board.chmod(0o755)
        assert sorted(p.name for p in board.iterdir()) == before
        assert len(parses) == 4

    @pytest.mark.parametrize("blocked", ["directory_name_taken", "rename_refused"])
    def test_entry_that_cannot_be_written_is_skipped_without_leftovers(self, board, tmp_path, monkeypatch, blocked):
        def refuse(source, target):
            raise PermissionError(13, "Permission denied", str(target))

        if blocked == "directory_name_taken":
            (board / CACHE_DIR).write_text("")
        else:
            monkeypatch.setattr(rislink.cache.os, "replace", refuse)
        before = sorted(p.relative_to(board) for p in board.rglob("*"))
        assert self.pipeline(board, tmp_path / "a") == self.pipeline(board, tmp_path / "b")
        made = [Path(CACHE_DIR)] if blocked == "rename_refused" else []  # the directory, empty
        assert sorted(p.relative_to(board) for p in board.rglob("*")) == sorted(before + made)

    @pytest.mark.parametrize("command", ["synthesize", "optimize", "sweep"])
    def test_non_passive_diagonal_with_uniform_patterns_exits_2_alike_cold_and_warm(self, board, tmp_path, capsys,
                                                                                     command):
        """Uniform patterns take s_mm from the export's diagonal: |S_11| = 1.5 is refused, never a traceback."""
        export, cfg = board / "board.s14p", board / "scenario.cfg"
        doc = read_touchstone(export)
        s = doc.points[1][1].copy()
        s[0, 0] = 1.5
        write_touchstone(TouchstoneDocument(14, doc.options, (doc.points[0], (doc.points[1][0], s))), export)
        cfg.write_text(cfg.read_text().replace("patterns.file = patterns.csv", "patterns.gain_db = 5 dB"))
        caps = tmp_path / "caps.csv"
        caps.write_text("m,c_pf\n" + "".join(f"{m},1\n" for m in range(1, 15)))
        caps_arg, errors = [str(caps)] if command == "sweep" else [], []
        for run in ("cold", "warm"):
            assert main([command, str(cfg), *caps_arg, "--out", str(tmp_path / run)]) == 2
            errors.append(capsys.readouterr().err)
            assert (board / CACHE_DIR / "board.s14p.npz").exists()  # the second run is served from the cache
        assert errors == [f"error: {export}: element 1: |S_mm| = 1.500000 exceeds 1\n"] * 2


class TestExportText:
    """A miss caches the text of the point it selected; only a warm synthesize reads it, into the RIS block."""

    @pytest.fixture
    def export(self, tmp_path, rng):
        """A non-reciprocal two-point ris.s14p (random complex S, largest singular value 0.95) beside its config."""
        run = tmp_path / "export"
        run.mkdir()
        points = []
        for f_hz in (3.5e9, 3.55e9):
            s = rng.normal(size=(14, 14)) + 1j * rng.normal(size=(14, 14))
            points.append((f_hz, s * (0.95 / np.linalg.svd(s, compute_uv=False)[0])))
        assert not np.allclose(points[1][1], points[1][1].T)
        write_touchstone(TouchstoneDocument(14, TouchstoneOptions("hz", "s", "ri", 50.0), tuple(points)), run / "ris.s14p")
        lines = [ln for ln in (BOARD / "scenario.cfg").read_text().splitlines()
                 if not ln.startswith(("ris.", "patterns."))]
        (run / "scenario.cfg").write_text(
            "\n".join(lines) + "\nris.file = ris.s14p\nris.freq_tol = 1 MHz\npatterns.gain_db = 5 dB\n"
        )
        return run / "ris.s14p"

    def synthesize(self, export, out, *overrides):
        assert main(["synthesize", str(export.parent / "scenario.cfg"), "--out", str(out), *overrides]) == 0
        return (out / "full.s16p").read_bytes()

    def text(self, export):
        """The text the board's scenario reads back, or None."""
        digest = hashlib.sha256(export.read_bytes()).hexdigest()
        hit = load_cached(export, digest, 3.55e9, 1e6, spelled=True)
        return None if hit is None else hit[1]

    def rewrite_text(self, export, text, recorded=False):
        """The entry with ``text1``, the selected point's text, replaced by ``text`` (bytes) or removed (None).

        The entry's record of its members is kept as stored, so a new text is damage, unless ``recorded``: then the
        entry is written again through ``cache.store``, which records the new text as its own.
        """
        entry = export.parent / CACHE_DIR / f"{export.name}.npz"
        with np.load(entry) as old:
            members = {name: old[name] for name in old.files if name != "text1"}
        if text is not None:
            members["text1"] = np.frombuffer(text, np.uint8)
        if recorded:
            del members["key"], members["crc32"]
            digest = hashlib.sha256(export.read_bytes()).hexdigest()
            cache.store(export, digest, rislink.touchstone.__file__, **members)
            return
        with open(entry, "wb") as file:
            np.savez(file, **members)

    def test_warm_synthesize_at_another_geometry_equals_a_cold_run(self, export, tmp_path):
        self.synthesize(export, tmp_path / "first")
        with np.load(export.parent / CACHE_DIR / f"{export.name}.npz") as entry:
            assert "text1" in entry.files and "text0" not in entry.files
        values = read_touchstone(export).points[1][1].view(float).ravel().tolist()
        assert self.text(export) == " ".join(map(repr, values))
        warm = self.synthesize(export, tmp_path / "warm", "--alpha", "10", "--beta", "-20")
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        for name in ("ris.s14p", "scenario.cfg"):
            (fresh / name).write_bytes((export.parent / name).read_bytes())
        assert self.synthesize(fresh / "ris.s14p", tmp_path / "cold", "--alpha", "10", "--beta", "-20") == warm
        assert warm.decode() == line_dumps_touchstone(read_touchstone(tmp_path / "warm" / "full.s16p"))

    @pytest.mark.parametrize(
        "damage",
        ["missing", "one_token_short", "one_token_over", "not_ascii", "line_break", "empty_token"],
    )
    def test_damaged_text_falls_back_to_repr_with_the_same_bytes(self, export, tmp_path, monkeypatch, damage):
        cold = self.synthesize(export, tmp_path / "cold")
        text = self.text(export).encode()
        self.rewrite_text(export, {  # each one token off, or one check failed with the count right
            "missing": None, "one_token_short": text.rsplit(b" ", 1)[0], "one_token_over": text + b" 0.5",
            "not_ascii": text.replace(b".", b"\xa0", 1), "line_break": text.replace(b".", b"\n", 1),
            "empty_token": b" " + text.split(b" ", 1)[1],
        }[damage])
        assert self.text(export) is None
        parses = []
        monkeypatch.setattr(rislink.cli, "read_touchstone", lambda path, data: parses.append(path))
        assert self.synthesize(export, tmp_path / "warm") == cold and not parses

    def test_planted_spelling_is_what_the_warm_run_writes(self, export, tmp_path):
        cold = self.synthesize(export, tmp_path / "cold").decode()
        tokens = self.text(export).split(" ")
        k = 2 * (3 * 14 + 4)  # the real part of S[3, 4]
        planted = f"{float(tokens[k]):.17e}"  # another spelling of the same double
        assert float(planted) == float(tokens[k]) and planted not in cold
        self.rewrite_text(export, " ".join(tokens[:k] + [planted] + tokens[k + 1 :]).encode(), recorded=True)
        warm = self.synthesize(export, tmp_path / "warm").decode()
        assert warm.count(planted) == 1 and warm.replace(planted, tokens[k]) == cold

    def test_only_synthesize_reads_the_text(self, export, tmp_path, monkeypatch):
        reads = []
        load = rislink.cli.load_cached

        def load_cached(*args, spelled=False):  # spelled asks for the point's text too
            if spelled:
                reads.append(args)
            return load(*args, spelled=spelled)

        monkeypatch.setattr(rislink.cli, "load_cached", load_cached)
        cfg, out = str(export.parent / "scenario.cfg"), tmp_path / "out"
        for _ in range(2):  # the first optimize misses and stores the text; every later command hits
            assert main(["optimize", cfg, "--seed", "7", "--out", str(out)]) == 0
            assert main(["sweep", cfg, str(out / "caps.csv"), "--out", str(out)]) == 0
        assert reads == [] and self.text(export) is not None
        self.synthesize(export, out)
        assert len(reads) == 1

    def test_cold_synthesize_splices_the_text_it_stored(self, export, tmp_path, monkeypatch):
        spelled, write = [], rislink.cli.write_touchstone
        monkeypatch.setattr(rislink.cli, "write_touchstone", lambda doc, path, s: spelled.append(s) or write(doc, path, s))
        self.synthesize(export, tmp_path / "cold")
        assert spelled[0] is not None and spelled[0][1] == self.text(export)

    def test_blocked_cache_directory_never_formats_the_text(self, export, tmp_path, monkeypatch):
        calls, text = [], rislink.touchstone._text
        monkeypatch.setattr(rislink.touchstone, "_text", lambda matrix: calls.append(matrix) or text(matrix))
        (export.parent / CACHE_DIR).write_text("")  # a file where the directory belongs blocks the write, for root too
        cfg, out = str(export.parent / "scenario.cfg"), tmp_path / "out"
        blocked = self.synthesize(export, out)
        assert main(["optimize", cfg, "--seed", "7", "--out", str(out)]) == 0
        assert main(["sweep", cfg, str(out / "caps.csv"), "--out", str(out)]) == 0
        assert calls == []
        (export.parent / CACHE_DIR).unlink()
        assert self.synthesize(export, tmp_path / "cached") == blocked and len(calls) == 1


class TestPatternCache:
    """A pattern table is parsed once; later runs on the same bytes load the parse from __rislink_cache__."""

    @pytest.fixture
    def board(self, tmp_path):
        """The shipped board, config and pattern table copied into a directory of their own."""
        run = tmp_path / "board"
        run.mkdir()
        for name in ("scenario.cfg", "patterns.csv"):
            (run / name).write_bytes((BOARD / name).read_bytes())
        return run

    @pytest.fixture
    def parses(self, monkeypatch):
        """The tables the CLI parses in full."""
        calls = []
        parse = rislink.cli.parse_pattern_table
        monkeypatch.setattr(rislink.cli, "parse_pattern_table", lambda text: calls.append(text) or parse(text))
        return calls

    pipeline = TestTouchstoneCache.pipeline

    def test_warm_runs_skip_the_parse_and_match_cold_runs(self, board, tmp_path, parses):
        table = board / "patterns.csv"
        cold = self.pipeline(board, tmp_path / "cold")
        assert len(parses) == 1
        assert sorted(p.name for p in (board / CACHE_DIR).iterdir()) == ["patterns.csv.npz"]
        warm = self.pipeline(board, tmp_path / "warm")
        assert len(parses) == 1
        assert warm == cold and len(cold) == 6
        digest = hashlib.sha256(table.read_bytes()).hexdigest()
        assert {cold[f"manifest.{c}.json"]["input_hashes"]["patterns"] for c in ("synthesize", "optimize", "sweep")} \
            == {digest}

        table.write_bytes(table.read_bytes().replace(b"0.2,0.0", b"0.2,0.00", 1))  # same table, other bytes: a miss
        assert self.pipeline(board, tmp_path / "edited")["full.s16p"] == cold["full.s16p"]
        assert len(parses) == 2

    @pytest.mark.parametrize("damage", [
        "garbage", "truncated", "wrong_key", "not_increasing", "infinite_azimuth", "nan_gain", "negative_gain",
        "smm_above_one", "short_coverage_low", "short_coverage_high", "smm_missing", "smm_extra", "gains_short",
        "float_elements",
    ])
    def test_damaged_entry_is_parsed_again_and_rewritten(self, board, tmp_path, parses, damage):
        table, cfg = board / "patterns.csv", str(board / "scenario.cfg")
        assert main(["synthesize", cfg, "--out", str(tmp_path / "cold")]) == 0
        path = board / CACHE_DIR / "patterns.csv.npz"
        digest = hashlib.sha256(table.read_bytes()).hexdigest()
        with np.load(path) as entry:
            key, m, az, gain, smm = (entry[k] for k in ("key", "m", "azimuth_rad", "gain_lin", "smm"))
        if damage == "not_increasing":
            az[[3, 4]] = az[[4, 3]]
        elif damage == "nan_gain":
            gain[5] = np.nan
        elif damage == "negative_gain":
            gain[5] = -1e-6
        elif damage == "smm_above_one":
            smm[2] = 1.001
        elif damage == "infinite_azimuth":  # element 1 starts at -inf
            az[0] = -np.inf
        elif damage.startswith("short_coverage"):  # element 1 loses its -90 or its +90 deg sample
            keep = np.arange(m.size) != (0 if damage.endswith("low") else np.flatnonzero(m == 1)[-1])
            m, az, gain = m[keep], az[keep], gain[keep]
        elif damage == "gains_short":
            gain = gain[:-1]
        elif damage == "float_elements":
            m = m.astype(float)
        elif damage == "smm_missing":
            smm = smm[:-1]
        elif damage == "smm_extra":
            smm = np.r_[smm, 0.1]
        if damage == "garbage":
            path.write_bytes(b"PK\x03\x04" + bytes(range(256)) * 8)
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:-100])
        elif damage == "wrong_key":
            store_cached_patterns(table, "0" * 64, parse_pattern_table(table.read_text()))
        else:
            with open(path, "wb") as file:
                np.savez(file, key=key, m=m, azimuth_rad=az, gain_lin=gain, smm=smm)
        assert load_cached_patterns(table, digest) is None
        assert main(["synthesize", cfg, "--out", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "full.s16p").read_bytes() == (tmp_path / "cold" / "full.s16p").read_bytes()
        assert len(parses) == 2
        cached = load_cached_patterns(table, digest)
        assert cached is not None and same_patterns(cached, parse_pattern_table(table.read_text()))

    def test_defective_table_fails_alike_twice_and_is_not_cached(self, board, tmp_path, capsys):
        table = board / "patterns.csv"
        table.write_text(table.read_text().replace("1,-85,", "1,-85x,", 1))
        errors = []
        for run in ("a", "b"):
            assert main(["synthesize", str(board / "scenario.cfg"), "--out", str(tmp_path / run)]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and "line 3: invalid numeric value" in errors[0]
        assert not (board / CACHE_DIR).exists()

    @pytest.mark.skipif(os.geteuid() == 0, reason="root writes into a read-only directory")
    def test_read_only_table_directory_runs_and_writes_nothing_there(self, board, tmp_path, parses):
        before = sorted(p.name for p in board.iterdir())
        board.chmod(0o555)
        try:
            assert self.pipeline(board, tmp_path / "a") == self.pipeline(board, tmp_path / "b")
        finally:
            board.chmod(0o755)
        assert sorted(p.name for p in board.iterdir()) == before
        assert len(parses) == 6

    def test_unwritable_cache_directory_runs_and_writes_nothing_there(self, board, tmp_path, parses):
        (board / CACHE_DIR).write_text("")  # a file where the directory belongs blocks the write, for root too
        before = sorted(p.name for p in board.iterdir())
        assert self.pipeline(board, tmp_path / "a") == self.pipeline(board, tmp_path / "b")
        assert sorted(p.name for p in board.iterdir()) == before and (board / CACHE_DIR).read_text() == ""
        assert len(parses) == 6


class TestManifests:
    @pytest.mark.parametrize("from_files", [False, True], ids=["model", "files"])
    def test_schema_and_same_inputs_give_same_manifest(self, tmp_path, from_files):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(FILE_CFG if from_files else TOY)
        (tmp_path / "ris.s2p").write_text(RIS_S2P)
        (tmp_path / "patterns.csv").write_text(PATTERNS)
        runs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["synthesize", str(cfg), "--out", str(out)]) == 0
            assert main(["optimize", str(cfg), "--seed", "7", "--out", str(out)]) == 0
            assert main(["sweep", str(cfg), str(out / "caps.csv"), "--out", str(out)]) == 0
            assert main(["sweep", str(cfg), "--out", str(out / "reflector")]) == 0
            runs.append({p.relative_to(out).as_posix(): json.loads(p.read_text()) for p in out.rglob("manifest.*")})
        expected = {  # manifest: command, seed, outputs, inputs beyond the config and its files
            "manifest.synthesize.json": ("synthesize", None, ["full.s4p"], []),
            "manifest.optimize.json": ("optimize", 7, ["caps.csv"], []),
            "manifest.sweep.json": ("sweep", None, ["brcs.csv"], ["caps"]),
            "reflector/manifest.sweep.json": ("sweep", None, ["brcs.csv"], []),
        }
        a, b = runs
        assert set(a) == set(b) == set(expected)
        files = ["patterns", "ris"] if from_files else []
        for name, (command, seed, outputs, inputs) in expected.items():
            manifest = a[name]
            assert set(manifest) == {"command", "config", "created_utc", "input_hashes", "outputs", "seed", "version"}
            assert (manifest["command"], manifest["seed"], manifest["outputs"]) == (command, seed, outputs)
            assert manifest["version"] == __version__
            assert sorted(manifest["input_hashes"]) == sorted(["config", *files, *inputs])
            assert manifest["input_hashes"]["config"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
            assert ("achieved_objective" in manifest["config"]) == (command == "optimize")
            del a[name]["created_utc"], b[name]["created_utc"]
            assert a[name] == b[name]

    @pytest.mark.parametrize("replaced", ["patterns", "caps"])
    def test_hash_is_of_the_bytes_parsed_when_a_file_is_replaced_after_the_parse(self, tmp_path, monkeypatch, replaced):
        cfg = tmp_path / "files.cfg"
        cfg.write_text(FILE_CFG)
        (tmp_path / "ris.s2p").write_text(RIS_S2P)
        (tmp_path / "patterns.csv").write_text(PATTERNS)
        (tmp_path / "caps.csv").write_text("m,c_pf\n1,1.0\n2,1.0\n")
        path = tmp_path / f"{replaced}.csv"
        parsed = hashlib.sha256(path.read_bytes()).hexdigest()

        def then_replace(original):  # runs once the command has parsed the file
            def call(*args):
                result = original(*args)
                path.write_text(path.read_text() + "\n")
                return result
            return call

        name = "parse_pattern_table" if replaced == "patterns" else "_build_ris"
        monkeypatch.setattr(rislink.cli, name, then_replace(getattr(rislink.cli, name)))
        assert main(["sweep", str(cfg), str(tmp_path / "caps.csv"), "--out", str(tmp_path / "o")]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.sweep.json").read_text())
        assert manifest["input_hashes"][replaced] == parsed != hashlib.sha256(path.read_bytes()).hexdigest()

    def test_angle_overrides_are_recorded_and_out_is_not(self, tmp_path):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY)
        keys = {"command", "config", "created_utc", "input_hashes", "outputs", "seed", "version"}
        runs = {}
        for run, overrides in (("plain", []), ("alpha", ["--alpha", "15"]),
                               ("a", ["--alpha", "15", "--beta", "-20.5"]), ("b", ["--beta", "-20.5", "--alpha", "15"])):
            out = tmp_path / run
            assert main(["synthesize", str(cfg), "--out", str(out), *overrides]) == 0
            assert main(["optimize", str(cfg), "--seed", "7", "--out", str(out), *overrides]) == 0
            assert main(["sweep", str(cfg), str(out / "caps.csv"), "--out", str(out), *overrides]) == 0
            runs[run] = {p.name: json.loads(p.read_text()) for p in out.glob("manifest.*")}
        expected = {"plain": ("0 deg", "30 deg"), "alpha": ("15.0 deg", "30 deg"), "a": ("15.0 deg", "-20.5 deg")}
        for run, (alpha, beta) in expected.items():
            assert len(runs[run]) == 3
            for manifest in runs[run].values():
                assert set(manifest) == keys
                assert (manifest["config"]["alpha"], manifest["config"]["beta"]) == (alpha, beta)
                assert "out" not in manifest["config"] and str(tmp_path) not in json.dumps(manifest)
        assert runs["plain"]["manifest.optimize.json"]["config"]["achieved_objective"] != (
            runs["alpha"]["manifest.optimize.json"]["config"]["achieved_objective"]
        )
        for manifests in (runs["a"], runs["b"]):  # same run into another --out
            for manifest in manifests.values():
                del manifest["created_utc"]
        assert runs["a"] == runs["b"]

    def test_optimize_then_sweep_keep_both_manifests(self, toy_cfg, tmp_path):
        out = tmp_path / "shared"
        assert main(["optimize", str(toy_cfg), "--seed", "7", "--out", str(out)]) == 0
        assert main(["sweep", str(toy_cfg), str(out / "caps.csv"), "--out", str(out)]) == 0
        optimized = json.loads((out / "manifest.optimize.json").read_text())
        swept = json.loads((out / "manifest.sweep.json").read_text())
        assert (optimized["command"], optimized["outputs"], optimized["seed"]) == (
            "optimize", ["caps.csv"], 7
        )
        assert "achieved_objective" in optimized["config"]
        assert (swept["command"], swept["outputs"]) == ("sweep", ["brcs.csv"])
        assert "caps" in swept["input_hashes"]
        assert not (out / "manifest.json").exists()


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with this checkout's ``src`` first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


class TestEntryPoints:
    def test_python_dash_m_prints_version(self):
        run = _python("-m", "rislink", "--version")
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == f"rislink {__version__}"

    COMMON_HELP = (
        "[-h] [--alpha ALPHA] [--beta BETA] [--seed SEED] [--out OUT] config{caps} positional arguments: "
        "config scenario configuration file{caps_help} options: -h, --help show this help message and exit "
        "--alpha ALPHA override Rx angle (degrees) --beta BETA override Tx angle (degrees) "
        "--seed SEED override optimizer seed --out OUT override output directory"
    )
    HELP = {
        (): "usage: rislink [-h] [--version] {synthesize,optimize,sweep} ... Far-field link synthesis, load "
            "optimization and BRCS sweeps for RIS links positional arguments: {synthesize,optimize,sweep} "
            "synthesize assemble the full link matrix to a Touchstone file optimize optimize per-element load "
            "capacitances sweep BRCS receiver-angle sweep with reflector reference options: -h, --help show this "
            "help message and exit --version show program's version number and exit",
        ("synthesize",): "usage: rislink synthesize " + COMMON_HELP.format(caps="", caps_help=""),
        ("optimize",): "usage: rislink optimize " + COMMON_HELP.format(caps="", caps_help=""),
        ("sweep",): "usage: rislink sweep " + COMMON_HELP.format(
            caps=" [caps]", caps_help=" caps caps.csv from 'optimize' (omit for reflector-only)"),
    }

    @pytest.mark.parametrize("command", HELP)
    def test_help_of_every_command(self, monkeypatch, capsys, command):
        # Compared with its whitespace collapsed: where argparse wraps a line depends on the terminal width.
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            main([*command, "--help"])
        assert stop.value.code == 0
        assert " ".join(capsys.readouterr().out.split()) == self.HELP[command]

    def test_cli_import_leaves_scipy_optimize_unimported(self):
        run = _python("-c", "import sys, rislink.cli; print('scipy.optimize' in sys.modules)")
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"

    def test_no_rislink_class_is_a_dataclass(self):
        # A dataclass generates and compiles its methods when its module is imported, in every command.
        modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "rislink"]
        classes = [value for module in modules for value in vars(module).values()
                   if isinstance(value, type) and value.__module__.startswith("rislink.")]
        assert len(classes) > 30 and [cls for cls in classes if dataclasses.is_dataclass(cls)] == []

    @pytest.mark.parametrize("starts, drawn", [(1, False), (6, True)])
    def test_one_start_optimize_leaves_numpy_random_unimported(self, tmp_path, starts, drawn):
        config = tmp_path / "toy.cfg"
        config.write_text(TOY.replace("opt.starts = 6", f"opt.starts = {starts}"))
        argv = ["optimize", str(config), "--out", str(tmp_path)]
        code = f"import sys; from rislink.cli import main; print(main({argv!r}), 'numpy.random' in sys.modules)"
        run = _python("-c", code)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == f"0 {drawn}"

    def test_optimize_runs_without_scipy(self, tmp_path):
        config = Path(__file__).resolve().parents[1] / "scenarios" / "board_7x2" / "scenario.cfg"
        argv = ["optimize", str(config), "--out", str(tmp_path), "--seed", "7"]
        code = f"import sys; from rislink.cli import main; print(main({argv!r}), 'scipy' in sys.modules)"
        run = _python("-c", code)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "0 False"
