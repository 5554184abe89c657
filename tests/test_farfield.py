import cmath
import math

import numpy as np
import pytest

from conftest import (
    azimuth_to_element,
    check_reciprocity,
    coupling_coefficient,
    distance_to_element,
    random_reciprocal_passive,
)
from rislink import (
    ElementGeometry,
    ElementPattern,
    ExpDecayCoupling,
    FarFieldValidityWarning,
    GeometryError,
    IsolatedCoupling,
    PatternCoverageError,
    PatternError,
    SPEED_OF_LIGHT,
    ScatterMatrix,
    Scenario,
    assemble_full_matrix,
    check_passivity,
    farfield_limit_distance,
    synth_ris_matrix,
)

F_CARRIER = 3.55e9
G_11DB = 10.0 ** 1.1


def scenario(elements, r_m=2.0, alpha_deg=0.0, beta_deg=30.0, freq_hz=F_CARRIER):
    return Scenario(
        r_m=r_m,
        alpha_rad=math.radians(alpha_deg),
        beta_rad=math.radians(beta_deg),
        freq_hz=freq_hz,
        g_tx_lin=G_11DB,
        g_rx_lin=G_11DB,
        elements=tuple(elements),
    )


class TestDistance:
    def test_element_at_origin_sees_exact_range(self):
        scn = scenario([ElementGeometry(1, 0.0, 0.0)], r_m=1.7, beta_deg=42.0)
        assert distance_to_element(scn, 1, "tx") == 1.7
        assert distance_to_element(scn, 1, "rx") == 1.7

    def test_tx_side_value(self):
        # Euclidean oracle: Tx at (R sin(beta), R cos(beta)), element at (x, 0).
        scn = scenario([ElementGeometry(1, 0.1, 0.0)])
        tx = np.array([2.0 * math.sin(math.radians(30)), 2.0 * math.cos(math.radians(30)), 0.0])
        el = np.array([0.1, 0.0, 0.0])
        oracle = float(np.linalg.norm(tx - el))
        d = distance_to_element(scn, 1, "tx")
        assert d == pytest.approx(oracle, rel=1e-12)
        assert d == pytest.approx(1.9519221295943134, rel=1e-12)

    def test_rx_side_value_with_height(self):
        scn = scenario([ElementGeometry(1, 0.1, 0.0348)], alpha_deg=0.0)
        rx = np.array([0.0, 2.0, 0.0])
        el = np.array([0.1, 0.0, 0.0348])
        oracle = float(np.linalg.norm(rx - el))
        d = distance_to_element(scn, 1, "rx")
        assert d == pytest.approx(oracle, rel=1e-12)
        assert d == pytest.approx(2.0028007988814065, rel=1e-12)


class TestAzimuth:
    def test_origin_element_sees_side_angle_exactly(self):
        scn = scenario([ElementGeometry(1, 0.0, 0.0)], beta_deg=45.0, alpha_deg=10.0)
        assert azimuth_to_element(scn, 1, "tx") == scn.beta_rad
        assert azimuth_to_element(scn, 1, "rx") == -scn.alpha_rad

    def test_planar_oracle(self):
        # Angle between the element->Tx vector and the surface normal (+y).
        scn = scenario([ElementGeometry(1, 0.1, 0.0)])
        tx = np.array([2.0 * math.sin(scn.beta_rad), 2.0 * math.cos(scn.beta_rad)])
        v = tx - np.array([0.1, 0.0])
        oracle = math.atan2(v[0], v[1])
        gamma = azimuth_to_element(scn, 1, "tx")
        assert gamma == pytest.approx(oracle, rel=1e-12)
        assert gamma == pytest.approx(0.4792163808447531, rel=1e-12)
        assert math.degrees(gamma) == pytest.approx(27.45707609593826, rel=1e-12)

    def test_parallel_ray_limit(self):
        scn = scenario([ElementGeometry(1, 0.154, 0.0)], r_m=1e6)
        assert abs(azimuth_to_element(scn, 1, "tx") - scn.beta_rad) < 1e-6

    def test_safe_asin_clamps_and_raises(self):
        # Grazing incidence: the sine argument rounds to 1 + 1 ulp and is clamped to 1.
        assert azimuth_to_element(scenario([ElementGeometry(1, 0.065, 0.0)], r_m=1.0, beta_deg=90.0), 1, "tx") == math.pi / 2
        assert azimuth_to_element(scenario([ElementGeometry(1, 0.065, 0.0)], r_m=1.0, alpha_deg=-90.0), 1, "rx") == math.pi / 2
        # An antenna 0.1 um from an element: cancellation in d pushes the argument past the slack.
        with pytest.raises(GeometryError, match="outside"):
            azimuth_to_element(scenario([ElementGeometry(1, 0.9999999, 0.0)], r_m=1.0, beta_deg=90.0), 1, "tx")


class TestPattern:
    def test_linear_interpolation_in_linear_gain(self):
        pat = ElementPattern(1, np.radians([-90.0, 0.0, 90.0]), np.array([0.0, 2.0, 4.0]))
        assert pat.gain(math.radians(45.0)) == pytest.approx(3.0, rel=1e-12)
        assert pat.gain(math.radians(-45.0)) == pytest.approx(1.0, rel=1e-12)

    def test_out_of_coverage_raises(self):
        pat = ElementPattern(1, np.radians([-90.0, 90.0]), np.array([1.0, 1.0]))
        with pytest.raises(PatternCoverageError, match="outside"):
            pat.gain(math.radians(91.0))

    def test_interpolation_never_dips_below_a_null(self):
        # Linear interpolation next to a null rounds to -2.2e-16 here; the coupling once hit sqrt(-2.2e-16).
        pat = ElementPattern(1, np.radians([-90.0, -45.0, 0.0, 45.0, 90.0]), np.array([0.0, 1.75, 0.0, 0.0, 0.0]))
        assert pat.gain(-6.155052458486858e-20) == 0.0
        scn = scenario([ElementGeometry(1, 6.155052458486858e-20, 0.0)], r_m=1.0, beta_deg=0.0)
        assert coupling_coefficient(scn, pat, 1, "tx") == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            ElementPattern(1, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="gains"):
            ElementPattern(1, np.array([0.0, 1.0]), np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="s_mm"):
            ElementPattern(1, np.array([0.0, 1.0]), np.array([1.0, 1.0]), s_mm=1.2)


class TestCoupling:
    def test_pattern_null_gives_zero(self):
        scn = scenario([ElementGeometry(1, 0.0, 0.0)])
        pat = ElementPattern.isotropic(1, gain_lin=0.0)
        assert coupling_coefficient(scn, pat, 1, "tx") == 0.0

    def test_fully_mismatched_element_gives_zero(self):
        scn = scenario([ElementGeometry(1, 0.0, 0.0)])
        pat = ElementPattern.isotropic(1, gain_lin=1.0, s_mm=1.0)
        assert coupling_coefficient(scn, pat, 1, "tx") == 0.0

    def test_magnitude_and_phase_oracle(self):
        # Friis-style magnitude and plain path phase at d = 2 m, f = 3.55 GHz.
        scn = scenario([ElementGeometry(1, 0.0, 0.0)], beta_deg=0.0)
        gain_5db = 10.0 ** 0.5
        pat = ElementPattern.isotropic(1, gain_lin=gain_5db)
        lam = SPEED_OF_LIGHT / F_CARRIER
        oracle_mag = math.sqrt(G_11DB * gain_5db) / (4.0 * math.pi * 2.0 / lam)
        value = coupling_coefficient(scn, pat, 1, "tx")
        assert abs(value) == pytest.approx(oracle_mag, rel=1e-12)
        assert abs(value) == pytest.approx(0.02120081176951103, rel=1e-10)
        expected_phase = -2.0 * math.pi * 2.0 / lam
        diff = (cmath.phase(value) - expected_phase + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(diff) < 1e-10

    def test_magnitude_scales_inversely_with_distance(self):
        pat = ElementPattern.isotropic(1, gain_lin=2.0)
        near = scenario([ElementGeometry(1, 0.0, 0.0)], r_m=2.0)
        far = scenario([ElementGeometry(1, 0.0, 0.0)], r_m=4.0)
        ratio = abs(coupling_coefficient(near, pat, 1, "tx")) / abs(
            coupling_coefficient(far, pat, 1, "tx")
        )
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_mismatch_factor(self):
        scn = scenario([ElementGeometry(1, 0.0, 0.0)])
        matched = coupling_coefficient(scn, ElementPattern.isotropic(1, 1.0, s_mm=0.0), 1, "tx")
        loaded = coupling_coefficient(scn, ElementPattern.isotropic(1, 1.0, s_mm=0.6), 1, "tx")
        assert abs(loaded) / abs(matched) == pytest.approx(math.sqrt(1 - 0.36), rel=1e-12)


class TestParallelRayInvariant:
    def test_monotone_approach_to_parallel_rays(self):
        xs = (-0.154, -0.077, 0.077, 0.154)
        angle_devs, dist_devs = [], []
        for r in (2.0, 20.0, 200.0, 2000.0):
            scn = scenario([ElementGeometry(i + 1, x, 0.0) for i, x in enumerate(xs)], r_m=r)
            angle_devs.append(
                max(abs(azimuth_to_element(scn, m, "tx") - scn.beta_rad) for m in scn.element_numbers)
            )
            dist_devs.append(
                max(abs(distance_to_element(scn, m, "tx") / r - 1.0) for m in scn.element_numbers)
            )
        assert all(a > b for a, b in zip(angle_devs, angle_devs[1:]))
        assert all(a > b for a, b in zip(dist_devs, dist_devs[1:]))
        # Stated limit: both deviations vanish as R grows.
        scn = scenario([ElementGeometry(1, 0.154, 0.0)], r_m=1e6)
        assert abs(azimuth_to_element(scn, 1, "tx") - scn.beta_rad) < 1e-6
        assert abs(distance_to_element(scn, 1, "tx") / 1e6 - 1.0) < 1e-6


def board_elements():
    """7 x 2 grid with 40 mm x-pitch and 46.8 mm row spacing, centered."""
    out = []
    for r in range(2):
        for c in range(7):
            out.append(ElementGeometry(r * 7 + c + 1, (c - 3) * 0.04, (r - 0.5) * 0.0468))
    return tuple(out)


def patterns_for(ris, gain_lin=1.0):
    return [
        ElementPattern.isotropic(m, gain_lin, s_mm=complex(ris.entries[i, i]))
        for i, m in enumerate(ris.element_numbers)
    ]


class TestAssemble:
    def test_degenerate_no_elements_gives_zero_two_port(self):
        scn = scenario([])
        empty = ScatterMatrix(np.zeros((0, 0)), F_CARRIER, ())
        full = assemble_full_matrix(scn, empty, [])
        assert full.n_ports == 2
        assert np.array_equal(full.entries, np.zeros((2, 2)))
        assert full.element_numbers == ()
        assert (full.tx_index, full.rx_index) == (0, 1)

    def test_single_isotropic_element_oracle(self):
        # Direct coupling-law evaluation for a unit-gain element at the origin.
        scn = scenario([ElementGeometry(1, 0.0, 0.0)], beta_deg=0.0, alpha_deg=0.0)
        ris = synth_ris_matrix(scn.elements, F_CARRIER, IsolatedCoupling(0.0))
        full = assemble_full_matrix(scn, ris, patterns_for(ris))
        lam = SPEED_OF_LIGHT / F_CARRIER
        oracle = math.sqrt(G_11DB) / (4 * math.pi * 2.0 / lam) * cmath.exp(-1j * 2 * math.pi * 2.0 / lam)
        for idx in ((0, 1), (1, 0), (2, 1), (1, 2)):
            assert full.entries[idx] == pytest.approx(oracle, rel=1e-12)
        assert np.array_equal(full.entries, full.entries.T)
        assert full.entries[0, 0] == 0 and full.entries[2, 2] == 0 and full.entries[0, 2] == 0

    def test_board_assembly_contracts(self, rng):
        els = board_elements()
        scn = scenario(els)
        for _ in range(25):
            n = len(els)
            ris = ScatterMatrix.ris_only(random_reciprocal_passive(rng, n, scale=0.9), F_CARRIER)
            full = assemble_full_matrix(scn, ris, patterns_for(ris, gain_lin=2.0))
            assert check_reciprocity(full, tol=1e-12)
            assert check_passivity(full, tol=1e-6)
            assert np.array_equal(full.entries[1 : n + 1, 1 : n + 1], ris.entries)

    def test_smm_mismatch_raises(self):
        scn = scenario([ElementGeometry(1, 0.0, 0.0)])
        ris = synth_ris_matrix(scn.elements, F_CARRIER, IsolatedCoupling(0.3))
        bad = [ElementPattern.isotropic(1, 1.0, s_mm=0.3 + 1e-3)]
        with pytest.raises(PatternError, match="s_mm"):
            assemble_full_matrix(scn, ris, bad)

    def test_misalignment_raises(self):
        els = (ElementGeometry(1, 0.0, 0.0), ElementGeometry(2, 0.04, 0.0))
        scn = scenario(els)
        ris = synth_ris_matrix(els, F_CARRIER, IsolatedCoupling(0.0))
        swapped = [ElementPattern.isotropic(2, 1.0), ElementPattern.isotropic(1, 1.0)]
        with pytest.raises(PatternError, match="order mismatch"):
            assemble_full_matrix(scn, ris, swapped)
        with pytest.raises(PatternError, match="patterns"):
            assemble_full_matrix(scn, ris, [ElementPattern.isotropic(1, 1.0)])

    def test_nearfield_warning(self):
        els = (ElementGeometry(1, -0.3, 0.0), ElementGeometry(2, 0.3, 0.0))
        scn = scenario(els, r_m=2.0)
        assert farfield_limit_distance(scn) > 2.0
        ris = synth_ris_matrix(els, F_CARRIER, IsolatedCoupling(0.0))
        with pytest.warns(FarFieldValidityWarning):
            assemble_full_matrix(scn, ris, patterns_for(ris))


class TestSynth:
    def test_isolated_zero_is_zero_matrix(self):
        ris = synth_ris_matrix(board_elements(), F_CARRIER, IsolatedCoupling(0.0))
        assert np.array_equal(ris.entries, np.zeros((14, 14)))

    def test_exp_decay_offdiagonal_oracle(self):
        els = (ElementGeometry(1, 0.0, 0.0), ElementGeometry(2, 0.04, 0.0))
        ris = synth_ris_matrix(els, F_CARRIER, ExpDecayCoupling(0.3, c0=0.2, rolloff_m=0.05))
        oracle = 0.2 * math.exp(-0.04 / 0.05)
        assert abs(ris.entries[0, 1]) == pytest.approx(oracle, rel=1e-12)
        assert abs(ris.entries[0, 1]) == pytest.approx(0.08986579282344431, rel=1e-10)
        lam = SPEED_OF_LIGHT / F_CARRIER
        expected_phase = -2.0 * math.pi * 0.04 / lam
        diff = (cmath.phase(ris.entries[0, 1]) - expected_phase + math.pi) % (2 * math.pi) - math.pi
        assert abs(diff) < 1e-10

    def test_always_passive_and_reciprocal(self, rng):
        els = board_elements()
        for _ in range(10):
            model = ExpDecayCoupling(
                s_mm=complex(rng.uniform(0, 0.9)),
                c0=float(rng.uniform(0, 2.0)),
                rolloff_m=float(rng.uniform(0.01, 0.2)),
            )
            ris = synth_ris_matrix(els, F_CARRIER, model)
            assert check_passivity(ris, tol=1e-9)
            assert check_reciprocity(ris, tol=0.0)

    def test_rescaling_keeps_unit_norm(self):
        els = board_elements()
        ris = synth_ris_matrix(els, F_CARRIER, ExpDecayCoupling(0.9, c0=5.0, rolloff_m=0.5))
        top = np.linalg.svd(ris.entries, compute_uv=False).max()
        assert top == pytest.approx(1.0, abs=1e-9)
        assert top <= 1.0 + 1e-9


class TestScenarioValidation:
    def test_rejects_bad_range_and_angles(self):
        with pytest.raises(ValueError, match="range"):
            scenario([ElementGeometry(1, 0, 0)], r_m=0.0)
        with pytest.raises(ValueError, match="deg"):
            scenario([ElementGeometry(1, 0, 0)], beta_deg=95.0)

    def test_rejects_duplicate_elements(self):
        with pytest.raises(ValueError, match="unique"):
            scenario([ElementGeometry(1, 0, 0), ElementGeometry(1, 0.1, 0)])

    def test_replace_keeps_other_fields_and_checks_again(self):
        scn = scenario([ElementGeometry(1, 0, 0)])
        moved = scn.replace(alpha_rad=0.25)
        assert (moved.alpha_rad, moved.beta_rad, moved.elements) == (0.25, scn.beta_rad, scn.elements)
        assert scn.alpha_rad == 0.0
        with pytest.raises(ValueError, match="deg"):
            scn.replace(alpha_rad=math.nan)

    def test_wavelength(self):
        scn = scenario([ElementGeometry(1, 0, 0)])
        assert scn.wavelength_m == pytest.approx(0.08444857971830987, rel=1e-12)
