"""The benchmark's checks must pass the program's answers and reject wrong ones."""

import numpy as np
import pytest

import magnon_hybrid as mh

import checks as C

MAGNON = mh.MagnonMode(28.0, 0.0, 0.001)


@pytest.fixture(scope="module")
def n4_sweep():
    model = mh.build_n4(13.65, 0.155, 1.84, 1.0)
    # starts below omega_c * omega_m = 4 g^2, so the grid has unstable points
    fields = np.linspace(0.002, 0.65, 400)
    branches = mh.sweep(model, MAGNON, fields)
    ref = C.reference_modes(model.photon_freq_ghz, model.coupling_matrix(),
                            C.magnon_freq(28.0, 0.0, fields))
    arrays = (branches.branch_frequencies(), branches.magnon_fractions(),
              branches.stable_mask)
    assert (~arrays[2]).sum() > 10
    return arrays, ref, fields


def test_reference_matches_quartic():
    freqs, weight, vmin = C.reference_modes([13.65], [[0.0, 1.84], [1.84, 0.0]], [12.0])
    np.testing.assert_allclose(freqs[0], C.quartic_roots(13.65, 12.0, 1.84), rtol=1e-12)
    assert vmin[0] > 0 and 0.0 < weight[0, 0] < 1.0


def test_program_sweep_passes(n4_sweep):
    (freqs, mf, stable), ref, _ = n4_sweep
    assert C.check_branches(freqs, mf, stable, *ref) == []


def test_frequency_shift_of_1e6_rejected(n4_sweep):
    (freqs, mf, stable), ref, _ = n4_sweep
    assert C.check_branches(freqs * (1.0 + 1e-6), mf, stable, *ref)


def test_flipped_stability_flag_rejected(n4_sweep):
    (freqs, mf, stable), ref, _ = n4_sweep
    for point in (0, stable.size - 1):          # one unstable, one stable point
        flipped = stable.copy()
        flipped[point] = not flipped[point]
        assert any("stability" in p for p in C.check_branches(freqs, mf, flipped, *ref))


def test_wrong_magnon_fraction_rejected(n4_sweep):
    (freqs, mf, stable), ref, _ = n4_sweep
    bad = mf.copy()
    bad[-1] = bad[-1][::-1]
    assert C.check_branches(freqs, bad, stable, *ref)


def test_min_gap(n4_sweep):
    (freqs, _, _), ref, fields = n4_sweep
    branches = mh.sweep(mh.build_n4(13.65, 0.155, 1.84, 1.0), MAGNON, fields)
    good = mh.min_gap(branches, 0, 2)
    assert C.check_min_gap(good, ref[0], fields, 0, 2) == []
    assert C.check_min_gap((good[0] * (1 + 1e-6), good[1]), ref[0], fields, 0, 2)


def test_composition_rows():
    good = mh.eigen_full(mh.build_n4(13.65, 0.155, 1.84, 12.0)).fractions
    assert C.check_composition(good) == []
    assert C.check_composition(good * 1.01)
    assert C.check_composition(np.array([[1.2, -0.2]]))


def test_n4_fit_outside_tolerance_rejected():
    truth = dict(C.N4_TRUTH)
    assert C.check_n4_fits([truth] * 5, [True] * 5) == []
    off = dict(truth, g_rl=truth["g_rl"] + 1.5 * C.N4_TOL["g_rl"])
    assert C.check_n4_fits([off] * 5, [True] * 5)             # median outside
    wild = dict(truth, g=truth["g"] + 4 * C.N4_TOL["g"])
    assert C.check_n4_fits([truth] * 4 + [wild], [True] * 5)   # one fit far outside
    assert C.check_n4_fits([truth] * 5, [False] * 5)           # not converged


def test_n8_fit_up_to_pair_permutation():
    truth = {"omega_c1": 11.2, "omega_c2": 12.2, "omega_c3": 13.65,
             "g1": 0.59, "g2": 0.73, "g3": 0.685}
    swapped = dict(truth, omega_c1=12.2, omega_c2=11.2, g1=0.73, g2=-0.59)
    assert C.check_n8_fit(swapped, truth) == []
    mixed = dict(truth, g1=0.73, g2=0.59)                      # g moved without its mode
    assert C.check_n8_fit(mixed, truth)


def test_rms_and_profile():
    assert C.check_rms(0.0051, 0.005) == []
    assert C.check_rms(0.02, 0.005)
    assert C.check_profile([3.0, 2.0, 3.0], 1, 2.0) == []
    assert C.check_profile([3.0, 2.0, 1.5], 1, 2.0)


def test_oracle_and_map_peaks():
    model = mh.HybridModel(photon_freq_ghz=[13.0], photon_coupling_ghz=[[0.0]],
                           magnon_freq_ghz=12.0, magnon_coupling_ghz=[1.0],
                           photon_linewidth_ghz=[0.02])
    full = mh.eigen_full(model).frequencies_ghz
    ref = C.quartic_roots(13.0, 12.0, 1.0)
    assert C.check_oracle(mh.fock_oracle(model, 14), full, ref) == []
    assert C.check_oracle(full + 3e-3, full, ref)
    fields = np.linspace(0.40, 0.46, 7)
    freqs = np.linspace(10.0, 16.0, 3001)
    smap = mh.synth_map(model, MAGNON, fields, freqs)
    ref_map = C.reference_modes([13.0], [[0.0, 1.0], [1.0, 0.0]],
                                C.magnon_freq(28.0, 0.0, fields))[0]
    assert C.check_map_peaks(freqs, smap.magnitude_db, ref_map) == []
    assert C.check_map_peaks(freqs, np.roll(smap.magnitude_db, 10, axis=0), ref_map)


def test_ring_and_estimate():
    spectrum = mh.solve_modes(mh.ring_network(4, 13.0, -16.9))
    assert C.check_ring_modes(spectrum.frequencies_ghz, 4, 13.0, -16.9) == []
    assert C.check_ring_modes(spectrum.frequencies_ghz, 4, 13.0, -17.0)
    ens = mh.SpinEnsemble(spin_density_per_m3=2e28, spin_quantum=2.5, filling_factor=0.015)
    want = C.coupling_estimate_ghz(28.0, 2e28, 2.5, 0.015, 13.65)
    assert mh.estimate_coupling(ens, 13.65, 28.0) == pytest.approx(want, rel=1e-12)
