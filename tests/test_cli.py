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

from conftest import grid_transfer
from rislink import (
    FarFieldValidityWarning,
    SweepGrid,
    __version__,
    document_from_matrix,
    read_scenario,
    read_touchstone,
    write_touchstone,
)
from rislink.cli import _build_patterns, _build_ris, main
from rislink.farfield import assemble_full_matrix

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

    def test_optimize_runs_without_scipy(self, tmp_path):
        config = Path(__file__).resolve().parents[1] / "scenarios" / "board_7x2" / "scenario.cfg"
        argv = ["optimize", str(config), "--out", str(tmp_path), "--seed", "7"]
        code = f"import sys; from rislink.cli import main; print(main({argv!r}), 'scipy' in sys.modules)"
        run = _python("-c", code)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "0 False"
