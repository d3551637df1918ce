import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from magnon_hybrid import (
    DataError,
    HybridModel,
    InvalidArgumentError,
    LorentzianLine,
    MagnonMode,
    NoPeakError,
    SpectralMap,
    build_n4,
    eigen_full,
    extract_ridges,
    fit_line,
    load_ridge_csv,
    lorentzian_value,
    sweep,
    synth_map,
)
from magnon_hybrid.spectra import _find_peaks


def doublet_model():
    return build_n4(13.65, 0.155, 1.84, 12.0,
                    photon_linewidth_ghz=(0.014, 0.022), magnon_linewidth_ghz=0.001)


def garnet_magnon():
    return MagnonMode(28.0, 0.0, 0.001)


class TestLorentzianValue:
    def test_peak_value(self):
        line = LorentzianLine(13.5, 0.02, 3.0)
        assert lorentzian_value(13.5, line) == pytest.approx(3.0, rel=1e-14)

    def test_half_width(self):
        line = LorentzianLine(13.5, 0.02, 3.0)
        assert lorentzian_value(13.51, line) == pytest.approx(1.5, rel=1e-12)
        assert lorentzian_value(13.49, line) == pytest.approx(1.5, rel=1e-12)

    def test_far_tail_vanishes(self):
        line = LorentzianLine(13.5, 0.02, 3.0)
        assert lorentzian_value(1e6, line) < 1e-15

    @given(st.floats(min_value=1.0, max_value=20.0),
           st.floats(min_value=1e-4, max_value=1.0),
           st.floats(min_value=1e-6, max_value=1e3))
    @settings(max_examples=40, deadline=None)
    def test_db_shift_under_amplitude_scaling(self, center, fwhm, amp):
        # +3 dB on the amplitude moves every sampled value by exactly +3 dB
        line = LorentzianLine(center, fwhm, amp)
        boosted = LorentzianLine(center, fwhm, amp * 10 ** 0.3)
        f = np.linspace(center - 2 * fwhm, center + 2 * fwhm, 11)
        base_db = 10 * np.log10(lorentzian_value(f, line))
        boost_db = 10 * np.log10(lorentzian_value(f, boosted))
        np.testing.assert_allclose(boost_db - base_db, 3.0, atol=1e-9)

    def test_invariants(self):
        with pytest.raises(InvalidArgumentError):
            LorentzianLine(13.5, 0.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            LorentzianLine(13.5, 0.01, -1.0)


class TestSynthMap:
    def test_zero_coupling_only_bare_photon_lines(self):
        model = build_n4(13.65, 0.0, 0.0, 12.0, photon_linewidth_ghz=(0.014, 0.022),
                         magnon_linewidth_ghz=0.001)
        freqs = np.linspace(11.0, 15.0, 1500)
        smap = synth_map(model, garnet_magnon(), np.linspace(0.40, 0.46, 5), freqs)
        col = smap.magnitude_db[:, 2]   # field 0.43 -> magnon at 12.04
        # single flat line family at the (degenerate) cavity frequency
        peak_freq = freqs[np.argmax(col)]
        assert abs(peak_freq - 13.65) < 0.01
        # the magnon line carries zero photon fraction: no ridge anywhere else
        points = extract_ridges(smap, 3.0, 4)
        assert len(points) > 0
        assert np.all(np.abs(points.freq_ghz - 13.65) < 0.01)

    def test_map_columns_match_branches(self):
        fields = np.linspace(0.40, 0.56, 9)
        freqs = np.linspace(9.5, 17.5, 4000)
        smap = synth_map(doublet_model(), garnet_magnon(), fields, freqs)
        br = sweep(doublet_model(), garnet_magnon(), fields)
        truth = br.branch_frequencies()
        points = extract_ridges(smap, 6.0, 3)
        step = freqs[1] - freqs[0]
        for b, q in zip(points.field_t, points.freq_ghz):
            col = int(np.argmin(np.abs(fields - b)))
            assert np.min(np.abs(truth[col] - q)) < 1.5 * step

    def test_on_resonance_mixed_linewidth(self):
        # 50/50 polariton: mixed width is the mean of the two bare widths
        delta, gamma = 0.020, 0.004
        model = HybridModel(photon_freq_ghz=[13.65], photon_coupling_ghz=[[0.0]],
                            magnon_freq_ghz=13.65, magnon_coupling_ghz=[0.5],
                            photon_linewidth_ghz=[delta], magnon_linewidth_ghz=gamma)
        mag = MagnonMode(28.0, 0.0, gamma)
        ps = eigen_full(model)
        np.testing.assert_allclose(ps.fractions[:, -1], 0.5, atol=0.01)
        fields = np.array([0.4875, 0.4876])
        freqs = np.linspace(12.0, 15.5, 12000)
        smap = synth_map(model, mag, fields, freqs)
        line, _ = fit_line(freqs, smap.magnitude_db[:, 0],
                           float(ps.frequencies_ghz[0]), 0.4)
        assert line.fwhm_ghz == pytest.approx(0.5 * (delta + gamma), rel=0.02)

    def test_unstable_columns_render_bare_photon_lines(self):
        model = build_n4(13.65, 0.155, 1.84, 12.0, photon_linewidth_ghz=(0.014, 0.022))
        mag = MagnonMode(28.0, 0.0, 0.001)
        freqs = np.linspace(12.0, 15.0, 2000)
        smap = synth_map(model, mag, np.array([0.005, 0.5]), freqs)
        col = smap.magnitude_db[:, 0]
        peak = freqs[np.argmax(col)]
        assert abs(peak - 13.65) < 0.01

    def test_deterministic(self):
        fields = np.linspace(0.40, 0.50, 7)
        freqs = np.linspace(11.0, 16.0, 500)
        a = synth_map(doublet_model(), garnet_magnon(), fields, freqs)
        b = synth_map(doublet_model(), garnet_magnon(), fields, freqs)
        np.testing.assert_array_equal(a.magnitude_db, b.magnitude_db)

    def test_floor_applied(self):
        # all-zero linewidths leave no renderable line, so the whole map
        # sits exactly at the dB floor
        model = build_n4(13.65, 0.155, 1.84, 12.0)
        smap = synth_map(model, garnet_magnon(), np.array([0.45, 0.46]),
                         np.linspace(11.0, 16.0, 50))
        np.testing.assert_allclose(smap.magnitude_db, -120.0, atol=1e-9)

    def test_axis_validation(self):
        with pytest.raises(InvalidArgumentError):
            synth_map(doublet_model(), garnet_magnon(), np.array([0.4, 0.5]),
                      np.array([]))
        with pytest.raises(InvalidArgumentError):
            synth_map(doublet_model(), garnet_magnon(), np.array([0.4, 0.5]),
                      np.array([13.0, 12.0]))


class TestFitLine:
    def grid(self, center, fwhm, amp=1.0, span=40.0, n=4001):
        f = np.linspace(center - span * fwhm, center + span * fwhm, n)
        db = 10 * np.log10(lorentzian_value(f, LorentzianLine(center, fwhm, amp)))
        return f, db

    def test_q_969(self):
        f, db = self.grid(13.566, 0.014)
        line, q = fit_line(f, db, 13.566, 0.3)
        assert abs(q - 969.0) <= 1.0

    def test_q_643(self):
        f, db = self.grid(14.146, 0.022)
        line, q = fit_line(f, db, 14.146, 0.5)
        assert abs(q - 643.0) <= 1.0

    def test_noiseless_recovery_tight(self):
        f, db = self.grid(13.2, 0.05, amp=2.5)
        line, _ = fit_line(f, db, 13.21, 1.0)
        assert line.center_ghz == pytest.approx(13.2, rel=1e-6)
        assert line.fwhm_ghz == pytest.approx(0.05, rel=1e-6)

    def test_narrow_magnon_like_line(self):
        f, db = self.grid(12.04, 0.001, span=60.0, n=6001)
        line, _ = fit_line(f, db, 12.04, 0.05)
        assert line.fwhm_ghz == pytest.approx(0.001, rel=1e-4)

    def test_noisy_recovery_monte_carlo(self):
        center, fwhm = 13.566, 0.014
        f = np.linspace(center - 0.3, center + 0.3, 1200)
        clean = lorentzian_value(f, LorentzianLine(center, fwhm, 1.0))
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = np.clip(clean * (1.0 + rng.normal(0.0, 0.01, f.shape)), 1e-15, None)
            line, _ = fit_line(f, 10 * np.log10(noisy), center, 0.25)
            worst = max(worst, abs(line.center_ghz - center))
        assert worst < fwhm / 10.0

    def test_no_interior_peak(self):
        f = np.linspace(10.0, 11.0, 101)
        db = -2.0 * f    # monotone, max at the window edge
        with pytest.raises(NoPeakError):
            fit_line(f, db, 10.5, 1.0)

    def test_window_too_small(self):
        f, db = self.grid(13.2, 0.05)
        with pytest.raises(InvalidArgumentError):
            fit_line(f[:5], db[:5], 13.2, 10.0)


class TestExtractRidges:
    def test_uniform_map_has_no_points(self):
        smap = SpectralMap(np.array([0.1, 0.2]), np.linspace(1, 2, 50),
                           np.full((50, 2), -30.0))
        assert len(extract_ridges(smap, 3.0, 4)) == 0

    def test_threshold_above_peaks_gives_nothing(self):
        fields = np.linspace(0.42, 0.50, 5)
        freqs = np.linspace(11.0, 16.0, 800)
        smap = synth_map(doublet_model(), garnet_magnon(), fields, freqs)
        assert len(extract_ridges(smap, 500.0, 4)) == 0

    def test_max_peaks_per_column_respected(self):
        fields = np.linspace(0.42, 0.50, 5)
        freqs = np.linspace(9.5, 17.5, 2000)
        smap = synth_map(doublet_model(), garnet_magnon(), fields, freqs)
        points = extract_ridges(smap, 1.0, 2)
        for b in fields:
            assert np.sum(points.field_t == b) <= 2

    def test_csv_round_trip(self, tmp_path):
        fields = np.linspace(0.42, 0.50, 5)
        freqs = np.linspace(9.5, 17.5, 2000)
        smap = synth_map(doublet_model(), garnet_magnon(), fields, freqs)
        points = extract_ridges(smap, 6.0, 3)
        path = tmp_path / "ridges.csv"
        points.to_csv(path)
        back = load_ridge_csv(path)
        np.testing.assert_allclose(back.field_t, points.field_t, rtol=1e-8)
        np.testing.assert_allclose(back.freq_ghz, points.freq_ghz, rtol=1e-8)


def _ridges_per_column(smap, prominence_db, max_peaks_per_column):
    """Reference: one column at a time, best prominences by a reversed stable
    argsort (ties to the larger index), each kept peak refined by a scalar
    parabola."""
    fields, freqs, prom = [], [], []
    fax = smap.freq_ghz
    for b, y, peaks, proms in zip(smap.field_t, smap.magnitude_db.T,
                                  *_find_peaks(smap.magnitude_db, prominence_db)):
        keep = np.argsort(proms, kind="stable")[::-1][:max_peaks_per_column]
        for p in sorted(keep, key=lambda t: peaks[t]):
            i = peaks[p]
            y0, y1, y2 = y[i - 1], y[i], y[i + 1]
            denom = y0 - 2.0 * y1 + y2
            off = 0.0 if denom == 0.0 else np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5)
            step = fax[i + 1] - fax[i] if off >= 0.0 else fax[i] - fax[i - 1]
            fields.append(b)
            freqs.append(fax[i] + off * step)
            prom.append(proms[p])
    return fields, freqs, prom


class TestExtractRidgesMatchesColumnLoop:
    """The one-pass ranking and refinement against a per-column loop, on maps
    of small integer cells (tied prominences, flat tops, zero parabola
    denominators) with NaN cells."""

    @pytest.mark.parametrize("seed", range(4))
    def test_same_points(self, seed):
        rng = np.random.default_rng(seed)
        mag = rng.integers(0, 4, (30, 40)).astype(float)
        mag[rng.random(mag.shape) < 0.05] = np.nan
        smap = SpectralMap(np.linspace(0.1, 0.5, 40), np.sort(rng.uniform(9.0, 15.0, 30)), mag)
        for threshold in (0.0, 1.0, 2.0):
            for k in (1, 2, 3, 14):
                points = extract_ridges(smap, threshold, k)
                fields, freqs, prom = _ridges_per_column(smap, threshold, k)
                assert np.array_equal(points.field_t, fields)
                assert np.array_equal(points.freq_ghz, freqs)
                assert np.array_equal(points.prominence_db, prom)


def _column(values):
    return np.array(values, dtype=float)[:, None]


class TestFindPeaksMatchesScipy:
    """The numpy peak finder against scipy.signal.find_peaks, column by column:
    small integer cells give ties and plateaus, including at the column ends;
    a NaN cell is never on a peak's flank and ends a base as scipy's does."""

    @settings(max_examples=300, deadline=None)
    @given(mag=arrays(float, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=14),
                      elements=st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf, -np.inf, np.nan])),
           threshold=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, np.inf]))
    @example(mag=_column([2, 2, 1, 3, 3]), threshold=0.0)        # plateaus at both ends
    @example(mag=_column([3, 1, 2, 2, 1, 3]), threshold=0.0)     # maxima at both ends
    @example(mag=np.full((6, 2), 1.5), threshold=0.0)            # constant columns
    @example(mag=_column([1]), threshold=0.0)
    @example(mag=_column([1, 2]), threshold=0.0)
    @example(mag=_column([1, 2, 1]), threshold=1.0)
    @example(mag=_column([-np.inf, np.inf, np.inf, 0, np.inf, -np.inf]), threshold=0.0)
    @example(mag=_column([np.nan, 0, 2, np.nan, 2, 0, 5, 1, np.nan, -9]), threshold=0.0)
    def test_indices_and_prominences(self, mag, threshold):
        from scipy.signal import find_peaks

        peaks, proms = _find_peaks(mag, threshold)
        assert len(peaks) == len(proms) == mag.shape[1]
        for c in range(mag.shape[1]):
            want, props = find_peaks(mag[:, c], prominence=threshold)
            assert np.array_equal(peaks[c], want)
            assert np.array_equal(proms[c], props["prominences"])


class TestSpectralMapIO:
    def make_map(self):
        return synth_map(doublet_model(), garnet_magnon(), np.linspace(0.44, 0.47, 4),
                         np.linspace(11.0, 16.0, 60))

    def test_csv_round_trip(self, tmp_path):
        smap = self.make_map()
        path = tmp_path / "map.csv"
        smap.to_csv(path)
        back = SpectralMap.from_csv(path)
        np.testing.assert_allclose(back.field_t, smap.field_t, rtol=1e-8)
        np.testing.assert_allclose(back.freq_ghz, smap.freq_ghz, rtol=1e-8)
        np.testing.assert_allclose(back.magnitude_db, smap.magnitude_db, rtol=1e-8)

    def test_malformed_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("field_t,1.0,2.0\n0.1,not_a_number,3\n")
        with pytest.raises(DataError):
            SpectralMap.from_csv(path)

    def test_missing_ridge_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            load_ridge_csv(path)

    def test_header_only_ridge_csv_is_empty(self, tmp_path, capfd):
        path = tmp_path / "ridges.csv"
        path.write_text("field_t,freq_ghz,prominence_db\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # numpy warns on parsing no lines
            assert len(load_ridge_csv(path)) == 0
        assert capfd.readouterr() == ("", "")

    def test_branch_csv_read_as_ridges(self, tmp_path):
        # the text stable column is not parsed; the unstable row's NaN drops it
        path = tmp_path / "branches.csv"
        path.write_text("field_t,branch_index,freq_ghz,magnon_fraction,stable\n"
                        "0.40,0,nan,nan,false\n0.41,0,13.5,0.25,true\n")
        points = load_ridge_csv(path)
        assert (points.field_t.tolist(), points.freq_ghz.tolist(),
                points.prominence_db.tolist()) == ([0.41], [13.5], [0.0])

    def test_grid_shape_validation(self):
        with pytest.raises(InvalidArgumentError):
            SpectralMap(np.array([0.1, 0.2]), np.array([1.0, 2.0]),
                        np.zeros((3, 2)))
