import math
import re
from pathlib import Path

import numpy as np
import pytest

from rislink import (
    ConfigError,
    PatternsFile,
    PatternsUniform,
    RisFile,
    RisSynthesis,
    SweepGrid,
    load_scenario,
    read_scenario,
)
from rislink.scenario import KEYS, _grid_elements

MINIMAL_PATTERNS = (
    "m,azimuth_deg,gain_dbi\n"
    + "".join(f"{m},-90,0\n{m},90,0\n" for m in range(1, 15))
    + "m,smm_re,smm_im\n"
    + "".join(f"{m},0.2,0\n" for m in range(1, 15))
)

BOARD_7X2_CFG = """\
# 7x2 board at 3.55 GHz
freq = 3.55 GHz
range = 2 m
alpha = 0 deg
beta = 30 deg
gain_tx_db = 11 dB
gain_rx_db = 11 dB
grid.rows = 2
grid.cols = 7
grid.pitch_x = 40 mm
grid.pitch_z = 46.8 mm
bounds.c_min = 0.23 pF
bounds.c_max = 2.1 pF
ris.model = exp_decay
ris.smm_re = 0.2
ris.c0 = 0.1
ris.rolloff = 50 mm
patterns.file = patterns.csv
reflector.width = 308 mm
reflector.height = 96 mm
"""


@pytest.fixture
def board_dir(tmp_path):
    (tmp_path / "patterns.csv").write_text(MINIMAL_PATTERNS)
    (tmp_path / "scenario.cfg").write_text(BOARD_7X2_CFG)
    return tmp_path


class TestGrid:
    def test_paper_grid_dimensions(self):
        elements = _grid_elements(rows=2, cols=7, pitch_x_m=0.04, pitch_z_m=0.0468)
        assert len(elements) == 14
        xs = [e.x_m for e in elements]
        zs = [e.z_m for e in elements]
        assert max(xs) - min(xs) == pytest.approx(0.24, abs=1e-12)
        assert sorted(set(round(z, 6) for z in zs)) == [-0.0234, 0.0234]
        assert [e.index_m for e in elements] == list(range(1, 15))
        # bottom row is numbered first
        assert elements[0].z_m < 0 < elements[7].z_m

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            _grid_elements(rows=0, cols=7, pitch_x_m=0.04, pitch_z_m=0.04)
        # A negative pitch reaches no grid: the config entry, the only path to one, refuses it.
        with pytest.raises(ConfigError, match="grid.pitch_x must be positive"):
            load_scenario(BOARD_7X2_CFG.replace("grid.pitch_x = 40 mm", "grid.pitch_x = -40 mm"))


class TestLoadScenario:
    def test_full_board_config(self, board_dir):
        cfg = read_scenario(board_dir / "scenario.cfg")
        scn = cfg.scenario
        assert scn.freq_hz == 3.55e9
        assert scn.r_m == 2.0
        assert scn.alpha_rad == 0.0
        assert scn.beta_rad == pytest.approx(math.radians(30), rel=1e-15)
        assert scn.g_tx_lin == pytest.approx(10 ** 1.1, rel=1e-12)
        assert len(scn.elements) == 14
        assert cfg.bounds.c_min_f == pytest.approx(0.23e-12)
        assert cfg.bounds.c_max_f == pytest.approx(2.1e-12)
        assert isinstance(cfg.ris, RisSynthesis)
        assert isinstance(cfg.patterns, PatternsFile)
        assert cfg.reflector.width_m == pytest.approx(0.308)
        assert cfg.optimizer.starts == 8
        assert cfg.sweep.alphas_rad().size == 181

    def test_explicit_elements(self, tmp_path):
        text = BOARD_7X2_CFG.replace("patterns.file = patterns.csv", "patterns.gain_db = 5 dB")
        text = "\n".join(ln for ln in text.splitlines() if not ln.startswith("grid."))
        text += "\nelement.1.x = -20 mm\nelement.1.z = 0 mm\nelement.2.x = 20 mm\nelement.2.z = 0 mm\n"
        cfg = load_scenario(text, tmp_path)
        assert [e.index_m for e in cfg.scenario.elements] == [1, 2]
        assert cfg.scenario.elements[0].x_m == pytest.approx(-0.02)
        assert isinstance(cfg.patterns, PatternsUniform)
        assert cfg.patterns.gain_lin == pytest.approx(10 ** 0.5)

    def test_ris_file_source(self, tmp_path):
        (tmp_path / "board.s14p").write_text("# GHz S RI R 50\n")
        (tmp_path / "patterns.csv").write_text(MINIMAL_PATTERNS)
        text = BOARD_7X2_CFG.replace(
            "ris.model = exp_decay\nris.smm_re = 0.2\nris.c0 = 0.1\nris.rolloff = 50 mm",
            "ris.file = board.s14p\nris.freq_tol = 1 kHz",
        )
        cfg = load_scenario(text, tmp_path)
        assert isinstance(cfg.ris, RisFile)
        assert cfg.ris.freq_tol_hz == 1e3
        assert cfg.ris.path.name == "board.s14p"

    @pytest.mark.parametrize("eol", ["\r\n", "\r"])
    def test_crlf_and_cr_only_configs_read_as_lf(self, board_dir, tmp_path, eol):
        (tmp_path / "patterns.csv").write_bytes((board_dir / "patterns.csv").read_bytes())
        text = (board_dir / "scenario.cfg").read_text().replace("\n", eol)
        (tmp_path / "scenario.cfg").write_bytes(text.encode("utf-8"))
        assert read_scenario(tmp_path / "scenario.cfg").raw == read_scenario(board_dir / "scenario.cfg").raw
        (tmp_path / "scenario.cfg").write_bytes(text.replace("range = 2 m", "range 2 m").encode("utf-8"))
        line = text.split(eol).index("range = 2 m") + 1
        with pytest.raises(ConfigError, match=rf"^line {line}: expected 'key = value', got 'range 2 m'$"):
            read_scenario(tmp_path / "scenario.cfg")

    def test_sweep_and_out_defaults(self, board_dir):
        cfg = read_scenario(board_dir / "scenario.cfg")
        alphas = cfg.sweep.alphas_rad()
        assert alphas[0] == pytest.approx(-math.pi / 2)
        assert alphas[-1] == pytest.approx(math.pi / 2)
        assert cfg.out_dir == board_dir

    def test_default_sweep_grid_is_181_exact_steps(self):
        alphas = SweepGrid(-math.pi / 2, math.pi / 2, math.radians(1.0)).alphas_rad()
        assert np.array_equal(alphas, -math.pi / 2 + math.radians(1.0) * np.arange(181))

    def test_sweep_grid_holds_at_most_a_million_angles(self):
        # Construction only: no grid of this size is ever allocated.
        assert SweepGrid(-math.pi / 2, math.pi / 2, math.pi / 999_999).step_rad == math.pi / 999_999
        with pytest.raises(ConfigError, match=r"sweep\.step .* more than 1,000,000 angles"):
            SweepGrid(-math.pi / 2, math.pi / 2, math.pi / 1_000_000)

    @pytest.mark.parametrize("step_deg, last_deg", [(7.0, 85.0), (5.0, 90.0), (100.0, 10.0), (200.0, -90.0)])
    def test_sweep_grid_never_passes_stop(self, step_deg, last_deg):
        alphas = SweepGrid(-math.pi / 2, math.pi / 2, math.radians(step_deg)).alphas_rad()
        assert alphas[-1] <= math.pi / 2
        assert math.degrees(alphas[-1]) == pytest.approx(last_deg, abs=1e-9)
        np.testing.assert_allclose(np.diff(alphas), math.radians(step_deg), rtol=1e-12)


class TestConfigErrors:
    def project(self, tmp_path, mutate):
        (tmp_path / "patterns.csv").write_text(MINIMAL_PATTERNS)
        return load_scenario(mutate(BOARD_7X2_CFG), tmp_path)

    def test_missing_mandatory_key(self, tmp_path):
        with pytest.raises(ConfigError, match="freq"):
            self.project(tmp_path, lambda t: t.replace("freq = 3.55 GHz\n", ""))

    def test_missing_unit(self, tmp_path):
        with pytest.raises(ConfigError, match="unit"):
            self.project(tmp_path, lambda t: t.replace("range = 2 m", "range = 2"))

    def test_unknown_unit(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown unit"):
            self.project(tmp_path, lambda t: t.replace("range = 2 m", "range = 2 furlong"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            self.project(tmp_path, lambda t: t + "typo.key = 1\n")
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            self.project(tmp_path, lambda t: t + "opt.gradient_refine = on\n")
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            self.project(tmp_path, lambda t: t + "opt.polish = on\n")

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate key"):
            self.project(tmp_path, lambda t: t + "freq = 3.55 GHz\n")

    def test_bounds_order(self, tmp_path):
        with pytest.raises(ConfigError, match="c_min"):
            self.project(tmp_path, lambda t: t.replace("bounds.c_max = 2.1 pF", "bounds.c_max = 0.1 pF"))

    def test_no_elements(self, tmp_path):
        with pytest.raises(ConfigError, match="no elements"):
            self.project(tmp_path, lambda t: "\n".join(
                ln for ln in t.splitlines() if not ln.startswith("grid.")
            ))

    def test_grid_and_explicit_conflict(self, tmp_path):
        with pytest.raises(ConfigError, match="not both"):
            self.project(tmp_path, lambda t: t + "element.1.x = 0 mm\nelement.1.z = 0 mm\n")

    def test_missing_referenced_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            self.project(tmp_path, lambda t: t.replace("patterns.csv", "nowhere.csv"))

    def test_ris_source_exclusive(self, tmp_path):
        with pytest.raises(ConfigError, match="exactly one"):
            self.project(tmp_path, lambda t: t + "ris.file = patterns.csv\n")

    def test_empty_sweep(self, tmp_path):
        with pytest.raises(ConfigError, match="empty"):
            self.project(tmp_path, lambda t: t + "sweep.start = 10 deg\nsweep.stop = -10 deg\n")

    @pytest.mark.parametrize("value", ["0 deg", "-1 deg", "nan deg", "inf deg"])
    def test_sweep_step_not_positive_and_finite(self, tmp_path, value):
        with pytest.raises(ConfigError, match="sweep.step must be positive and finite"):
            self.project(tmp_path, lambda t: t + f"sweep.step = {value}\n")

    @pytest.mark.parametrize(
        "key, value", [("sweep.start", "-150 deg"), ("sweep.stop", "90.001 deg"), ("sweep.stop", "4 rad")]
    )
    def test_sweep_bound_outside_front_halfspace(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=rf"{key} must lie within \[-90, 90\] deg"):
            self.project(tmp_path, lambda t: t + f"{key} = {value}\n")

    GRID = "grid.rows = 2\ngrid.cols = 7\ngrid.pitch_x = 40 mm\ngrid.pitch_z = 46.8 mm\n"
    DECAY = "ris.model = exp_decay\nris.smm_re = 0.2\nris.c0 = 0.1\nris.rolloff = 50 mm\n"

    @pytest.mark.parametrize("old, new, message", [
        ("alpha = 0 deg", "alpha = 120 deg", "range/alpha/beta/freq/gain_tx_db/gain_rx_db: "
         "alpha_rad must be within [-pi/2, pi/2], got 2.0943951023931953"),
        ("bounds.c_min = 0.23 pF", "bounds.c_min = 3 pF",
         "bounds.c_min/bounds.c_max: c_max_f must be greater than c_min_f = 3e-12, got 2.1e-12"),
        (None, "varactor.rs = -1 ohm\n", "varactor.rs/varactor.ls: series_resistance_ohm must be finite and >= 0, "
         "got -1.0"),
        (None, "opt.starts = 0\n", "opt.starts/opt.max_evals/opt.seed: starts must be an integer >= 1, got 0"),
        (GRID, "element.0.x = 0 mm\nelement.0.z = 0 mm\n",
         "element.0.x/element.0.z: index_m must be an integer >= 1, got 0"),
        ("grid.pitch_x = 40 mm", "grid.pitch_x = 1e308 m", "grid.*: x_m must be finite, got -inf"),
        ("ris.c0 = 0.1", "ris.c0 = -2", "ris.smm_re/ris.smm_im/ris.c0/ris.rolloff: c0 must be finite and >= 0, got -2.0"),
        (DECAY, "ris.model = isolated\nris.smm_re = 2\n",
         "ris.smm_re/ris.smm_im: s_mm must be of magnitude <= 1, got (2+0j)"),
    ], ids=["scenario", "bounds", "varactor", "optimizer", "element", "grid", "exp_decay", "isolated"])
    def test_constructor_refusal_names_its_keys_in_reading_order(self, tmp_path, old, new, message):
        """Each group's refusal, in full: the keys its constructor reads, joined by / in the order they are read.

        ``new`` replaces ``old``, or is appended where ``old`` is None.
        """
        assert old is None or old in BOARD_7X2_CFG
        with pytest.raises(ConfigError) as refused:
            self.project(tmp_path, lambda t: t + new if old is None else t.replace(old, new))
        assert str(refused.value) == message

    def test_bad_line(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            self.project(tmp_path, lambda t: t + "not a key value line\n")

    @pytest.mark.parametrize("key, old", [
        ("ris.file", "ris.model = exp_decay\nris.smm_re = 0.2\nris.c0 = 0.1\nris.rolloff = 50 mm"),
        ("patterns.file", "patterns.file = patterns.csv"),
    ])
    def test_file_name_the_os_refuses_names_its_key(self, tmp_path, key, old):
        with pytest.raises(ConfigError, match=key):
            self.project(tmp_path, lambda t: t.replace(old, f"{key} = {'x' * 5000}"))

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            read_scenario(tmp_path / "absent.cfg")


def test_readme_key_table_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Scenario config", 1)[1].split("\n### ", 1)[0]
    rows = [row.split("|")[1] for row in section.splitlines() if row.startswith("| `")]
    documented = [key for cell in rows for key in re.findall(r"`([^`]+)`", cell)]
    assert sorted(documented) == sorted(KEYS)
