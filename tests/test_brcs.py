import math

import numpy as np
import pytest

from conftest import peak_alpha_rad, random_passive, value_at
from rislink import (
    BrcsCurve,
    DBSM_FLOOR,
    ElementGeometry,
    ElementPattern,
    ExpDecayCoupling,
    FarFieldValidityWarning,
    IDEAL_VARACTOR,
    IllConditionedLoadError,
    LoadVector,
    PatternCoverageError,
    Scenario,
    ScatterMatrix,
    SPEED_OF_LIGHT,
    VaractorModel,
    assemble_full_matrix,
    brcs_from_coupling,
    cap_to_gamma,
    export_csv,
    flat_reflector_reference,
    load_gammas,
    reduce_loaded,
    sweep_rx_angle,
    synth_ris_matrix,
)

F_CARRIER = 3.55e9
LAM = SPEED_OF_LIGHT / F_CARRIER


def pair_scenario(beta_deg=30.0, alpha_deg=0.0):
    elements = (ElementGeometry(1, -0.02, 0.0), ElementGeometry(2, 0.02, 0.0))
    return Scenario(
        2.0, math.radians(alpha_deg), math.radians(beta_deg), F_CARRIER, 10**1.1, 10**1.1, elements
    )


def setup_pair(scn, gain_lin=2.0):
    ris = synth_ris_matrix(scn.elements, F_CARRIER, ExpDecayCoupling(0.2, c0=0.1, rolloff_m=0.05))
    patterns = [
        ElementPattern.isotropic(m, gain_lin, s_mm=complex(ris.entries[i, i]))
        for i, m in enumerate(scn.element_numbers)
    ]
    return ris, patterns


class TestBrcsFromCoupling:
    def test_zero_coupling(self):
        assert brcs_from_coupling(0.0, 2.0, 2.0, 1.0, 1.0, LAM) == 0.0

    def test_distance_scaling(self):
        base = brcs_from_coupling(0.01, 2.0, 2.0, 12.589, 12.589, LAM)
        scaled = brcs_from_coupling(0.01, 4.0, 4.0, 12.589, 12.589, LAM)
        assert scaled / base == pytest.approx(16.0, rel=1e-12)

    def test_closed_form_oracle(self):
        # Independent arithmetic of the inverted radar equation.
        g = 12.589
        oracle = (4 * math.pi) ** 3 * 16.0 * 1e-4 / (g * g * 0.084446**2)
        value = brcs_from_coupling(0.01, 2.0, 2.0, g, g, 0.084446)
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(2.809370008406402, rel=1e-9)

    def test_inverts_forward_radar_equation(self, rng):
        for _ in range(50):
            s = complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
            d_tx, d_rx = rng.uniform(0.5, 10, 2)
            g_tx, g_rx = rng.uniform(1, 20, 2)
            sigma = brcs_from_coupling(s, d_tx, d_rx, g_tx, g_rx, LAM)
            back = sigma * g_tx * g_rx * LAM**2 / ((4 * math.pi) ** 3 * d_tx**2 * d_rx**2)
            assert back == pytest.approx(abs(s) ** 2, rel=1e-12)

    def test_rejects_bad_distances(self):
        with pytest.raises(ValueError):
            brcs_from_coupling(0.01, 0.0, 2.0, 1.0, 1.0, LAM)


class TestFlatReflector:
    def test_specular_value_matches_closed_form(self):
        alphas = np.radians(np.arange(-90.0, 91.0, 1.0))
        curve = flat_reflector_reference(0.308, 0.096, LAM, math.radians(30), alphas)
        area = 0.308 * 0.096
        specular = 4 * math.pi * (area * math.cos(math.radians(30))) ** 2 / LAM**2
        assert value_at(curve, math.radians(30)) == pytest.approx(
            10 * math.log10(specular), abs=1e-9
        )
        assert specular == pytest.approx(1.155394582207982, rel=1e-9)

    def test_peak_at_specular_direction(self):
        alphas = np.radians(np.arange(-90.0, 91.0, 1.0))
        curve = flat_reflector_reference(0.308, 0.096, LAM, math.radians(30), alphas)
        assert math.degrees(peak_alpha_rad(curve)) == pytest.approx(30.0, abs=1e-9)

    def test_symmetric_for_normal_incidence(self):
        alphas = np.radians(np.arange(-60.0, 61.0, 1.0))
        curve = flat_reflector_reference(0.308, 0.096, LAM, 0.0, alphas)
        np.testing.assert_allclose(curve.sigma_dbsm, curve.sigma_dbsm[::-1], atol=1e-9)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            flat_reflector_reference(0.0, 0.1, LAM, 0.0, np.array([0.0]))


class TestCurve:
    def test_floor_applied_to_nulls(self):
        curve = BrcsCurve.from_sigma_m2(np.array([0.0, 0.1]), np.array([0.0, 1.0]), "x")
        assert curve.sigma_dbsm[0] == DBSM_FLOOR
        assert curve.sigma_dbsm[1] == 0.0

    def test_requires_increasing_alphas(self):
        with pytest.raises(ValueError, match="increasing"):
            BrcsCurve(np.array([0.1, 0.0]), np.array([1.0, 1.0]), "x")

    def test_value_at_requires_grid_point(self):
        curve = BrcsCurve(np.array([0.0, 0.1]), np.array([1.0, 2.0]), "x")
        with pytest.raises(KeyError):
            value_at(curve, 0.05)


class TestSweep:
    def test_zero_coupling_gives_floor(self):
        scn = pair_scenario()
        ris, _ = setup_pair(scn)
        dead = [
            ElementPattern.isotropic(m, 0.0, s_mm=complex(ris.entries[i, i]))
            for i, m in enumerate(scn.element_numbers)
        ]
        curve = sweep_rx_angle(scn, ris, dead, LoadVector.uniform(1e-12, 2), np.radians([-10, 0, 10]))
        assert np.all(curve.sigma_dbsm == DBSM_FLOOR)

    def test_permutation_invariance(self):
        scn = pair_scenario()
        ris, patterns = setup_pair(scn)
        caps = LoadVector.of([0.5e-12, 1.5e-12])
        alphas = np.radians(np.arange(-30.0, 31.0, 5.0))
        curve = sweep_rx_angle(scn, ris, patterns, caps, alphas)

        flipped = Scenario(
            scn.r_m, scn.alpha_rad, scn.beta_rad, scn.freq_hz, scn.g_tx_lin, scn.g_rx_lin,
            tuple(reversed(scn.elements)),
        )
        perm = [1, 0]
        ris_flipped = ris.ris_only(
            ris.entries[np.ix_(perm, perm)], F_CARRIER, [2, 1], ris.z0_ohm
        )
        curve_flipped = sweep_rx_angle(
            flipped, ris_flipped, list(reversed(patterns)),
            LoadVector.of([1.5e-12, 0.5e-12]), alphas,
        )
        np.testing.assert_allclose(curve.sigma_dbsm, curve_flipped.sigma_dbsm, atol=1e-9)

    def test_symmetric_layout_normal_incidence_symmetric_curve(self):
        scn = pair_scenario(beta_deg=0.0)
        ris, patterns = setup_pair(scn)
        alphas = np.radians(np.arange(-60.0, 61.0, 2.0))
        curve = sweep_rx_angle(scn, ris, patterns, LoadVector.uniform(1e-12, 2), alphas)
        np.testing.assert_allclose(curve.sigma_dbsm, curve.sigma_dbsm[::-1], atol=1e-9)

    @pytest.mark.filterwarnings("ignore::rislink.FarFieldValidityWarning")
    def test_matches_per_angle_reduction(self, rng):
        # Reference: the full matrix assembled at each alpha, then reduce_loaded.
        alphas = np.radians(np.arange(-80.0, 81.0, 4.0))
        azimuths = np.radians(np.arange(-90.0, 91.0, 10.0))
        for n in (1, 3, 6):
            for model in (IDEAL_VARACTOR, VaractorModel(2.0, 0.5e-9)):
                xz = rng.uniform(-0.06, 0.06, (n, 2))
                elements = tuple(ElementGeometry(m + 1, x, z) for m, (x, z) in enumerate(xz))
                scn = Scenario(
                    rng.uniform(2.0, 10.0), 0.0, math.radians(rng.uniform(-60.0, 60.0)), F_CARRIER,
                    rng.uniform(1.0, 20.0), rng.uniform(1.0, 20.0), elements,
                )
                ris = ScatterMatrix.ris_only(random_passive(rng, n, scale=0.9), F_CARRIER)
                patterns = [
                    ElementPattern(m, azimuths, rng.uniform(0.5, 4.0, azimuths.size), ris.entries[i, i])
                    for i, m in enumerate(scn.element_numbers)
                ]
                caps = LoadVector.of(rng.uniform(0.23e-12, 2.1e-12, n))
                gammas = load_gammas(caps, F_CARRIER, ris.z0_ohm, model)
                oracle = []
                for alpha in alphas:
                    local = scn.replace(alpha_rad=float(alpha))
                    full = assemble_full_matrix(local, ris, patterns)
                    s21 = reduce_loaded(full, gammas).entries[1, 0]
                    oracle.append(
                        brcs_from_coupling(s21, scn.r_m, scn.r_m, scn.g_tx_lin, scn.g_rx_lin, LAM)
                    )
                curve = sweep_rx_angle(scn, ris, patterns, caps, alphas, model)
                np.testing.assert_allclose(10.0 ** (curve.sigma_dbsm / 10.0), oracle, rtol=1e-12, atol=0)

        scn = pair_scenario()
        ris, patterns = setup_pair(scn)
        with pytest.raises(ValueError, match="3 loads for 2 RIS ports"):
            sweep_rx_angle(scn, ris, patterns, LoadVector.uniform(1e-12, 3), alphas)

        c0 = 1e-12
        lossless = np.diag([np.conj(cap_to_gamma(c0, F_CARRIER)), 0.2])  # |S_11| = 1, resonant at c0
        resonant = [ElementPattern.isotropic(m, 2.0, s_mm=lossless[i, i]) for i, m in enumerate((1, 2))]
        with pytest.raises(IllConditionedLoadError, match="condition number"):
            sweep_rx_angle(
                scn, ScatterMatrix.ris_only(lossless, F_CARRIER), resonant,
                LoadVector.uniform(c0, 2), alphas,
            )

        span = (math.radians(-50.0), math.radians(50.0))
        narrow = [
            ElementPattern.isotropic(p.index_m, 2.0, s_mm=p.s_mm, span_rad=span) for p in patterns
        ]
        with pytest.raises(PatternCoverageError, match="outside sampled range"):
            sweep_rx_angle(scn, ris, narrow, LoadVector.uniform(1e-12, 2), np.radians([0.0, 10.0, 70.0]))

    def test_empty_grid_rejected(self):
        scn = pair_scenario()
        ris, patterns = setup_pair(scn)
        with pytest.raises(ValueError, match="empty"):
            sweep_rx_angle(scn, ris, patterns, LoadVector.uniform(1e-12, 2), np.array([]))

    @pytest.mark.parametrize("alpha_deg", [-150.0, -90.001, 90.001, 270.0, math.nan])
    def test_angle_beyond_front_halfspace_rejected(self, alpha_deg):
        scn = pair_scenario()
        ris, patterns = setup_pair(scn)
        with pytest.raises(ValueError, match=r"within \[-90, 90\] deg"):
            sweep_rx_angle(scn, ris, patterns, LoadVector.uniform(1e-12, 2), np.radians([0.0, alpha_deg]))

    def test_nearfield_scenario_warns_once(self):
        # 2*D^2/lambda is about 2.8 m for elements 0.6 m apart: R = 2 m is too close.
        els = (ElementGeometry(1, -0.3, 0.0), ElementGeometry(2, 0.3, 0.0))
        scn = pair_scenario().replace(elements=els)
        ris, patterns = setup_pair(scn)
        with pytest.warns(FarFieldValidityWarning) as record:
            sweep_rx_angle(scn, ris, patterns, LoadVector.uniform(1e-12, 2), np.radians([-30.0, 0.0, 30.0]))
        assert len(record) == 1


class TestExportCsv:
    def two_curves(self):
        alphas = np.radians([0.0, 1.0])
        a = BrcsCurve(alphas, np.array([-3.25, 4.5]), "ris")
        b = BrcsCurve(alphas, np.array([0.627303267, -100.0]), "reflector")
        return [a, b]

    def test_header_plus_one_row_per_angle(self, tmp_path):
        path = tmp_path / "curves.csv"
        export_csv(self.two_curves(), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "alpha_deg,ris,reflector"
        assert lines[1].split(",")[0] == "0"

    def test_byte_identical_for_identical_input(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(self.two_curves(), p1)
        export_csv(self.two_curves(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_within_quantization(self, tmp_path):
        path = tmp_path / "curves.csv"
        curves = self.two_curves()
        export_csv(curves, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        parsed = np.array([[float(v) for v in row[1:]] for row in rows])
        for j, curve in enumerate(curves):
            np.testing.assert_allclose(parsed[:, j], curve.sigma_dbsm, rtol=1e-5)

    def test_mismatched_grids_rejected(self, tmp_path):
        a = BrcsCurve(np.array([0.0, 0.1]), np.array([1.0, 2.0]), "a")
        b = BrcsCurve(np.array([0.0, 0.2]), np.array([1.0, 2.0]), "b")
        with pytest.raises(ValueError, match="alpha grid"):
            export_csv([a, b], tmp_path / "x.csv")

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_csv([], tmp_path / "x.csv")
