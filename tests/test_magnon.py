import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnon_hybrid import (
    InvalidArgumentError,
    MagnonMode,
    SpinEnsemble,
    estimate_coupling,
    estimate_filling,
    magnon_frequency,
)

# collective-coupling estimate for n_s = 2e28 m^-3, s = 5/2, xi = 0.015,
# f_c = 13.65 GHz, gamma = 28 GHz/T (frozen from the closed form)
G_EST_REFERENCE = 1.8279863043788216

YIG = dict(spin_density_per_m3=2e28, spin_quantum=2.5)


class TestMagnonFrequency:
    def test_zero_detuning(self):
        mode = MagnonMode(28.0, 0.2, 0.001)
        assert magnon_frequency(mode, 0.2) == 0.0

    def test_crossing_field(self):
        mode = MagnonMode(28.0, 0.0)
        assert magnon_frequency(mode, 0.4875) == pytest.approx(13.65, rel=1e-14)

    def test_between_modes_at_043(self):
        # 0.43 T sits between 11.20 and 12.20 GHz cavity modes
        f = magnon_frequency(MagnonMode(28.0, 0.0), 0.43)
        assert f == pytest.approx(12.04, rel=1e-14)
        assert 11.20 < f < 12.20

    def test_field_below_offset_rejected(self):
        with pytest.raises(InvalidArgumentError):
            magnon_frequency(MagnonMode(28.0, 0.1), 0.05)

    def test_vectorised(self):
        f = magnon_frequency(MagnonMode(28.0, 0.0), np.array([0.1, 0.2]))
        np.testing.assert_allclose(f, [2.8, 5.6])

    @given(st.floats(min_value=1.0, max_value=60.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=1e-4, max_value=0.5))
    @settings(max_examples=50, deadline=None)
    def test_slope_is_gyro(self, gyro, field, df):
        mode = MagnonMode(gyro, 0.0)
        lo = magnon_frequency(mode, field)
        hi = magnon_frequency(mode, field + df)
        assert (hi - lo) / df == pytest.approx(gyro, rel=1e-9)

    def test_invalid_mode(self):
        with pytest.raises(InvalidArgumentError):
            MagnonMode(-1.0)
        with pytest.raises(InvalidArgumentError):
            MagnonMode(28.0, 0.0, -0.1)


class TestEstimateCoupling:
    def test_constants_match_scipy(self):
        from scipy.constants import hbar, mu_0

        from magnon_hybrid.magnon import HBAR, MU_0
        assert (HBAR, MU_0) == (hbar, mu_0)

    def test_reference_value(self):
        ens = SpinEnsemble(filling_factor=0.015, **YIG)
        g = estimate_coupling(ens, 13.65, 28.0)
        assert g == pytest.approx(G_EST_REFERENCE, rel=1e-12)
        assert abs(g - 1.84) / 1.84 < 0.10

    def test_vanishing_filling(self):
        ens = SpinEnsemble(filling_factor=1e-30, **YIG)
        assert estimate_coupling(ens, 13.65, 28.0) < 1e-12

    def test_sqrt_scaling_in_filling(self):
        g1 = estimate_coupling(SpinEnsemble(filling_factor=0.01, **YIG), 13.65)
        g2 = estimate_coupling(SpinEnsemble(filling_factor=0.02, **YIG), 13.65)
        assert g2 / g1 == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_monotone_in_density_and_frequency(self):
        base = estimate_coupling(SpinEnsemble(filling_factor=0.01, **YIG), 12.0)
        denser = estimate_coupling(
            SpinEnsemble(spin_density_per_m3=4e28, spin_quantum=2.5,
                         filling_factor=0.01), 12.0)
        higher = estimate_coupling(SpinEnsemble(filling_factor=0.01, **YIG), 14.0)
        assert denser > base and higher > base


class TestEstimateFilling:
    def test_reference_coupling_implies_reference_filling(self):
        ens = SpinEnsemble(filling_factor=1.0, **YIG)
        xi = estimate_filling(1.84, ens, 13.65, 28.0)
        assert 0.013 <= xi <= 0.017

    def test_inverse_square_scaling(self):
        ens = SpinEnsemble(filling_factor=1.0, **YIG)
        xi1 = estimate_filling(1.84, ens, 13.65)
        xi2 = estimate_filling(0.92, ens, 13.65)
        assert xi2 == pytest.approx(xi1 / 4.0, rel=1e-12)

    @given(st.floats(min_value=1e-4, max_value=0.5))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, xi):
        ens = SpinEnsemble(filling_factor=xi, **YIG)
        g = estimate_coupling(ens, 13.65, 28.0)
        back = estimate_filling(g, ens, 13.65, 28.0)
        assert back == pytest.approx(xi, rel=1e-10)

    def test_nonpositive_inputs_rejected(self):
        ens = SpinEnsemble(filling_factor=0.01, **YIG)
        with pytest.raises(InvalidArgumentError):
            estimate_filling(0.0, ens, 13.65)
        with pytest.raises(InvalidArgumentError):
            estimate_coupling(ens, -1.0)


class TestSpinEnsembleType:
    def test_filling_bounds(self):
        with pytest.raises(InvalidArgumentError):
            SpinEnsemble(spin_density_per_m3=1e28, filling_factor=0.0)
        with pytest.raises(InvalidArgumentError):
            SpinEnsemble(spin_density_per_m3=1e28, filling_factor=1.5)
        SpinEnsemble(spin_density_per_m3=1e28, filling_factor=1.0)

    def test_density_positive(self):
        with pytest.raises(InvalidArgumentError):
            SpinEnsemble(spin_density_per_m3=-2e28)
