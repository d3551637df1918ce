import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magnon_hybrid import (
    CavityMode,
    CavityNetwork,
    InvalidArgumentError,
    NonPhysicalError,
    double_chain_network,
    perturb_symmetry,
    ring_network,
    solve_modes,
    wgm_order,
)

# closed-form circulant eigenvalues of the 4-ring with omega0 = 13,
# kappa = -0.1 * omega0**2: sqrt(omega0^2 + 2 kappa cos(2 pi k / 4))
RING4_FREQS = np.array([11.627553482998906, 13.0, 13.0, 14.24078649513432])


def ring4():
    return ring_network(4, 13.0, -0.1 * 13.0 ** 2)


class TestSolveModes:
    def test_single_post(self):
        spec = solve_modes(CavityNetwork([10.0], [[0.0]]))
        assert len(spec.modes) == 1
        assert spec.modes[0].frequency_ghz == pytest.approx(10.0, rel=1e-14)
        assert spec.modes[0].label == "↑"
        np.testing.assert_allclose(spec.modes[0].pattern, [1.0])

    def test_ring4_circulant_oracle(self):
        spec = solve_modes(ring4())
        np.testing.assert_allclose(spec.frequencies_ghz, RING4_FREQS, rtol=1e-12)
        # modes 2 and 3 (1-based) exactly degenerate
        assert spec.modes[1].frequency_ghz == spec.modes[2].frequency_ghz
        assert spec.degenerate_groups == ((1, 2),)

    def test_ring4_label_sequence(self):
        spec = solve_modes(ring4())
        labels = [m.label for m in spec.modes]
        assert labels[0] == "↑↑↑↑"
        assert labels[3] == "↑↓↑↓"
        # the doublet pair, each defined up to a global sign flip
        assert set(labels[1:3]) == {"↑0↓0", "0↑0↓"}

    def test_mode_count_is_post_count(self):
        for n in (2, 3, 5, 8):
            spec = solve_modes(ring_network(n, 13.0, -1.0))
            assert len(spec.modes) == n

    def test_eigenvector_orthonormality(self):
        for net in (ring4(), double_chain_network(13.0, -10.0, -1.0)):
            spec = solve_modes(net)
            vmat = np.column_stack([m.pattern for m in spec.modes])
            gram = vmat.T @ vmat
            assert np.abs(gram - np.eye(net.n_posts)).max() < 1e-10

    def test_fsr_positive_and_additive(self):
        spec = solve_modes(double_chain_network(13.0, -10.0, -0.7))
        assert np.all(spec.fsr_ghz >= 0.0)
        total = spec.frequencies_ghz[-1] - spec.frequencies_ghz[0]
        assert spec.fsr_ghz.sum() == pytest.approx(total, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            freq = rng.uniform(8.0, 16.0, n)
            coup = rng.normal(0.0, 2.0, (n, n))
            coup = 0.5 * (coup + coup.T)
            np.fill_diagonal(coup, 0.0)
            try:
                base = solve_modes(CavityNetwork(freq, coup))
            except NonPhysicalError:
                continue
            perm = rng.permutation(n)
            shuffled = solve_modes(
                CavityNetwork(freq[perm], coup[np.ix_(perm, perm)]))
            np.testing.assert_allclose(shuffled.frequencies_ghz,
                                       base.frequencies_ghz, rtol=1e-12)

    def test_overcoupled_raises(self):
        with pytest.raises(NonPhysicalError):
            solve_modes(ring_network(4, 1.0, -1.0))


class TestConstructors:
    def test_ring4_has_eight_nonzero_couplings(self):
        assert np.count_nonzero(ring4().coupling) == 8

    def test_ring2_bright_dark_pair(self):
        spec = solve_modes(ring_network(2, 13.0, -5.0))
        assert {m.label for m in spec.modes} == {"↑↑", "↑↓"}

    def test_ring8_mode_count(self):
        assert len(solve_modes(ring_network(8, 13.0, -3.0)).modes) == 8

    def test_ring_needs_two_posts(self):
        with pytest.raises(InvalidArgumentError):
            ring_network(1, 13.0, -1.0)

    def test_double_chain_zero_cross_doubles_every_level(self):
        spec = solve_modes(double_chain_network(13.0, -10.0, 0.0))
        freqs = spec.frequencies_ghz
        assert spec.degenerate_groups == ((0, 1), (2, 3), (4, 5), (6, 7))
        np.testing.assert_allclose(freqs[0::2], freqs[1::2], rtol=1e-12)

    def test_double_chain_split_grows_with_cross_coupling(self):
        splits = []
        for kc in (-0.25, -0.5, -1.0, -2.0):
            f = solve_modes(double_chain_network(13.0, -10.0, kc)).frequencies_ghz
            splits.append(f[1] - f[0])
        assert all(s > 0 for s in splits)
        assert splits == sorted(splits)

    def test_double_chain_single_chain_patterns(self):
        spec = solve_modes(double_chain_network(13.0, -10.0, 0.0))
        labels = {m.label for m in spec.modes}
        assert "↑↑↓↓0000" in labels
        assert "0000↑↑↓↓" in labels


class TestWgmOrder:
    def _mode(self, pattern):
        pat = np.asarray(pattern, dtype=float)
        pat = pat / np.linalg.norm(pat)
        from magnon_hybrid import pattern_label
        return CavityMode(13.0, pat, pattern_label(pat))

    def test_uniform_has_no_nodes(self):
        assert wgm_order(self._mode([1, 1, 1, 1])) == 0

    def test_doublet_has_two_nodes(self):
        # the one-node-pair doublet counts two nodes, and that node count is
        # the order label used for it
        assert wgm_order(self._mode([1, 0, -1, 0])) == 2

    def test_alternating_has_four_nodes(self):
        assert wgm_order(self._mode([1, -1, 1, -1])) == 4

    def test_counts_the_label(self):
        # a coarse zero threshold labels the detuned ring's top mode ↑↓0↓:
        # two nodes, whatever the sign of its small third component
        spec = solve_modes(perturb_symmetry(ring4(), 0.05), pattern_zero_tol=0.6)
        top = spec.modes[-1]
        assert (top.label, wgm_order(top)) == ("↑↓0↓", 2)


class TestPerturbSymmetry:
    def test_zero_epsilon_is_identity(self):
        spec0 = solve_modes(ring4())
        spec1 = solve_modes(perturb_symmetry(ring4(), 0.0))
        np.testing.assert_allclose(spec1.frequencies_ghz, spec0.frequencies_ghz,
                                   rtol=1e-15)

    def test_degeneracy_lifted(self):
        spec = solve_modes(perturb_symmetry(ring4(), 0.01))
        freqs = spec.frequencies_ghz
        assert freqs[2] - freqs[1] > 0.0
        assert spec.degenerate_groups == ()

    def test_gap_monotone_in_epsilon(self):
        def gap(eps):
            f = solve_modes(perturb_symmetry(ring4(), eps)).frequencies_ghz
            return f[2] - f[1]

        assert gap(0.02) > gap(0.01) > 0.0

    @pytest.mark.parametrize("eps", [0.1, -0.1, 0.5])
    def test_large_epsilon_rejected(self, eps):
        with pytest.raises(InvalidArgumentError):
            perturb_symmetry(ring4(), eps)


class TestNetworkType:
    def test_requires_symmetric_coupling(self):
        with pytest.raises(InvalidArgumentError):
            CavityNetwork([10.0, 11.0], [[0.0, 1.0], [2.0, 0.0]])

    def test_requires_zero_diagonal(self):
        with pytest.raises(InvalidArgumentError):
            CavityNetwork([10.0, 11.0], [[0.1, 1.0], [1.0, 0.0]])

    def test_requires_positive_frequencies(self):
        with pytest.raises(InvalidArgumentError):
            CavityNetwork([10.0, -1.0], [[0.0, 0.0], [0.0, 0.0]])

    @given(st.floats(min_value=1.0, max_value=30.0),
           st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=25, deadline=None)
    def test_two_post_split_is_symmetric(self, omega0, kappa):
        assume(abs(kappa) < 0.9 * omega0 ** 2)
        spec = solve_modes(ring_network(2, omega0, kappa))
        sq = spec.frequencies_ghz ** 2
        assert sq.sum() == pytest.approx(2 * omega0 ** 2, rel=1e-10)
