import numpy as np
import pytest

from magnon_hybrid import (
    BranchSet,
    HybridModel,
    InstabilityError,
    InvalidArgumentError,
    MagnonMode,
    ResourceLimitError,
    build_n4,
    build_n8,
    dynamical_matrix,
    eigen_full,
    eigen_rwa,
    fock_oracle,
    min_gap,
    sweep,
    two_mode_exact,
)

# frozen quartic roots for omega_c = omega_m = 13.65 GHz, g = 1.84 GHz
TWO_MODE_RESONANT = np.array([11.665783299890325, 15.380328344999661])
RESONANT_GAP = 3.714545045109336         # full model
RESONANT_GAP_RWA = 3.68                  # exactly 2 g
FULL_MINUS_RWA_GAP = 0.03454504510933587


def two_mode(omega_c=13.65, omega_m=13.65, g=1.84):
    return HybridModel(
        photon_freq_ghz=[omega_c], photon_coupling_ghz=[[0.0]],
        magnon_freq_ghz=omega_m, magnon_coupling_ghz=[g],
        photon_linewidth_ghz=[0.0])


def random_stable_model(rng, n_max_modes=3, g_frac=0.15):
    while True:
        n = int(rng.integers(1, n_max_modes + 1))
        freqs = rng.uniform(8.0, 15.0, n)
        omega_m = rng.uniform(8.0, 15.0)
        wmin = min(freqs.min(), omega_m)
        g = rng.uniform(0.02, 1.0, n) * g_frac * wmin
        coup = np.zeros((n, n))
        if n > 1 and rng.random() < 0.5:
            i, j = sorted(rng.choice(n, 2, replace=False))
            coup[i, j] = coup[j, i] = rng.uniform(0.0, 0.05) * wmin
        model = HybridModel(photon_freq_ghz=freqs, photon_coupling_ghz=coup,
                            magnon_freq_ghz=omega_m, magnon_coupling_ghz=g,
                            photon_linewidth_ghz=np.zeros(n))
        try:
            eigen_full(model)
        except InstabilityError:
            continue
        return model


class TestBuilders:
    def test_n4_topology(self):
        m = build_n4(13.65, 0.155, 1.84, 12.0)
        assert m.magnon_coupling_ghz[1] == 0.0
        assert m.magnon_coupling_ghz[0] == 1.84
        assert m.photon_coupling_ghz[0, 1] == 0.155
        np.testing.assert_array_equal(m.photon_freq_ghz, [13.65, 13.65])

    def test_n8_topology(self):
        m = build_n8(11.20, 12.20, 13.65, 0.59, 0.73, 0.685, 12.0)
        assert np.count_nonzero(m.photon_coupling_ghz) == 0
        np.testing.assert_array_equal(m.magnon_coupling_ghz, [0.59, 0.73, 0.685])

    @pytest.mark.parametrize("args", [(-13.65, 0.1, 1.0, 12.0), (13.65, 0.1, 1.0, 0.0)])
    def test_nonpositive_frequency_rejected(self, args):
        with pytest.raises(InvalidArgumentError):
            build_n4(*args)


class TestEigenFull:
    def test_two_mode_resonant_closed_form(self):
        ps = eigen_full(two_mode())
        oracle = two_mode_exact(13.65, 13.65, 1.84)
        np.testing.assert_allclose(oracle, TWO_MODE_RESONANT, rtol=1e-12)
        np.testing.assert_allclose(ps.frequencies_ghz, oracle, rtol=1e-9)
        gap = ps.frequencies_ghz[1] - ps.frequencies_ghz[0]
        assert gap == pytest.approx(RESONANT_GAP, rel=1e-9)

    def test_decoupling_limit(self):
        ps = eigen_full(two_mode(13.65, 9.0, 1e-14))
        np.testing.assert_allclose(ps.frequencies_ghz, [9.0, 13.65], rtol=1e-12)

    def test_fully_decoupled_n4(self):
        m = build_n4(13.65, 0.0, 0.0, 9.0)
        ps = eigen_full(m)
        np.testing.assert_allclose(ps.frequencies_ghz, [9.0, 13.65, 13.65], rtol=1e-12)
        # magnon branch is pure magnon
        assert ps.fractions[0, -1] == pytest.approx(1.0, abs=1e-12)

    def test_decoupled_magnon_branch_stays_bare(self):
        m = build_n4(13.65, 0.155, 0.0, 9.5)
        ps = eigen_full(m)
        assert np.min(np.abs(ps.frequencies_ghz - 9.5)) < 1e-12

    def test_instability_two_mode_criterion(self):
        with pytest.raises(InstabilityError) as err:
            eigen_full(two_mode(13.65, 0.5, 1.84))
        assert err.value.offending_pairs == (0,)
        assert err.value.min_eigenvalue < 0.0

    def test_instability_boundary_matches_two_mode_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            wc, wm = rng.uniform(1.0, 20.0, 2)
            g = rng.uniform(0.0, 0.8) * np.sqrt(wc * wm)
            margin = wc * wm - 4.0 * g * g
            if abs(margin) < 1e-6 * wc * wm:
                continue
            model = two_mode(wc, wm, g)
            if margin > 0:
                eigen_full(model)
            else:
                with pytest.raises(InstabilityError):
                    eigen_full(model)

    def test_closed_form_equivalence_bulk(self):
        rng = np.random.default_rng(11)
        count = 0
        while count < 10_000:
            wc, wm = rng.uniform(2.0, 20.0, 2)
            g = rng.uniform(0.0, 0.45) * np.sqrt(wc * wm)
            if wc * wm <= 4.0 * g * g * 1.0001:
                continue
            count += 1
            ps = eigen_full(two_mode(wc, wm, g))
            np.testing.assert_allclose(
                ps.frequencies_ghz, two_mode_exact(wc, wm, g), rtol=1e-9)

    def test_fraction_rows_normalised(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            ps = eigen_full(random_stable_model(rng))
            assert np.all(ps.fractions >= 0.0)
            np.testing.assert_allclose(ps.fractions.sum(axis=1), 1.0, atol=1e-9)

    def test_symplectic_pairing(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            model = random_stable_model(rng)
            evals = np.linalg.eigvals(dynamical_matrix(model))
            evals = np.sort(evals.real)
            n = model.n_modes
            np.testing.assert_allclose(evals[:n][::-1], -evals[n:],
                                       rtol=1e-10, atol=1e-12)

    def test_degenerate_tiebreak_magnon_first(self):
        # fully decoupled, magnon exactly at the photon frequency: the
        # magnon-dominated branch must come first among the tied pair
        m = two_mode(13.65, 13.65, 0.0)
        ps = eigen_full(m)
        assert ps.fractions[0, -1] == pytest.approx(1.0, abs=1e-12)
        assert ps.fractions[1, -1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_dynamical_matrix_eigenpairs(self):
        # independent route: the positive eigenvalues of eta @ M, with each
        # eigenvector symplectically normalised (u.u - v.v = 1) and weighted
        # u_i^2 + v_i^2, must give the same frequencies and fractions
        rng = np.random.default_rng(17)
        for _ in range(50):
            model = random_stable_model(rng)
            ps = eigen_full(model)
            n = model.n_modes
            evals, evecs = np.linalg.eig(dynamical_matrix(model))
            assert np.abs(evals.imag).max() < 1e-8 * np.abs(evals).max()
            pos = np.argsort(evals.real)[n:]
            np.testing.assert_allclose(evals.real[pos], ps.frequencies_ghz, rtol=1e-9)
            vecs = evecs[:, pos].real
            vecs = vecs / np.sqrt(np.sum(vecs[:n] ** 2 - vecs[n:] ** 2, axis=0))
            wgt = (vecs[:n] ** 2 + vecs[n:] ** 2).T
            np.testing.assert_allclose(ps.fractions, wgt / wgt.sum(axis=1, keepdims=True),
                                       atol=1e-8)
            assert np.all(ps.fractions >= 0.0)
            np.testing.assert_allclose(ps.fractions.sum(axis=1), 1.0, atol=1e-12)

    def test_unstable_form_has_complex_dynamical_spectrum(self):
        model = two_mode(13.65, 0.5, 1.84)
        evals = np.linalg.eigvals(dynamical_matrix(model))
        assert np.abs(evals.imag).max() > 1e-3
        with pytest.raises(InstabilityError):
            eigen_full(model)

    def test_stability_mask_across_two_mode_boundary(self):
        # omega_c * omega_m = 4 g^2 at omega_m = 0.992 GHz (field 0.0354 T);
        # the grid also steps 0.1 % and 0.01 % to either side of it
        wc, g = 13.65, 1.84
        model = two_mode(wc, 12.0, g)
        edge = 4.0 * g * g / wc / 28.0
        near = edge * (1.0 + np.array([-1e-3, -1e-4, 1e-4, 1e-3]))
        fields = np.sort(np.concatenate([np.linspace(0.01, 0.2, 400), near]))
        br = sweep(model, MagnonMode(28.0, 0.0, 0.0), fields)
        omega_m = 28.0 * fields
        vmin = np.array([np.linalg.eigvalsh([[wc, 2 * g], [2 * g, w]])[0] for w in omega_m])
        np.testing.assert_array_equal(br.stable_mask, vmin > 0.0)
        assert (~br.stable_mask).sum() > 0 and br.stable_mask.sum() > 0
        for p in np.nonzero(br.stable_mask)[0]:
            np.testing.assert_allclose(br.branch_frequencies()[p],
                                       two_mode_exact(wc, omega_m[p], g), rtol=1e-10)


class TestEigenRwa:
    def test_resonant_gap_is_two_g(self):
        ps = eigen_rwa(two_mode())
        gap = ps.frequencies_ghz[1] - ps.frequencies_ghz[0]
        assert gap == pytest.approx(RESONANT_GAP_RWA, rel=1e-12)

    def test_full_vs_rwa_resonant_difference(self):
        full = eigen_full(two_mode()).frequencies_ghz
        rwa = eigen_rwa(two_mode()).frequencies_ghz
        diff = (full[1] - full[0]) - (rwa[1] - rwa[0])
        assert diff == pytest.approx(FULL_MINUS_RWA_GAP, rel=1e-9)
        assert diff / RESONANT_GAP_RWA == pytest.approx(0.0094, abs=4e-4)

    def test_matches_full_at_zero_coupling(self):
        m = build_n4(13.65, 0.0, 0.0, 9.0)
        np.testing.assert_allclose(eigen_rwa(m).frequencies_ghz,
                                   eigen_full(m).frequencies_ghz, rtol=1e-12)

    def test_bloch_siegert_scaling_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            wc, wm = rng.uniform(5.0, 20.0, 2)
            x = rng.uniform(1e-4, 0.05)
            w = min(wc, wm)
            model = two_mode(wc, wm, x * w)
            full = eigen_full(model).frequencies_ghz
            rwa = eigen_rwa(model).frequencies_ghz
            rel = np.abs(full - rwa) / w
            assert np.all(rel < 3.0 * x * x + 1e-9)


class TestFockOracle:
    def test_decoupled_transitions_exact(self):
        m = build_n4(13.65, 0.0, 0.0, 9.0)
        tr = fock_oracle(m, 5)
        np.testing.assert_allclose(np.sort(tr), [9.0, 13.65, 13.65], rtol=1e-12)

    def test_two_mode_reference_case(self):
        tr = fock_oracle(two_mode(), 14)
        np.testing.assert_allclose(tr, TWO_MODE_RESONANT, atol=1e-3)

    def test_truncation_error_shrinks(self):
        model = two_mode(13.65, 12.0, 2.4)   # strong enough to see truncation
        exact = eigen_full(model).frequencies_ghz
        errs = [np.abs(fock_oracle(model, n) - exact).max() for n in (4, 8, 16)]
        assert errs[0] >= errs[1] >= errs[2]

    def test_n_max_minimum(self):
        with pytest.raises(InvalidArgumentError):
            fock_oracle(two_mode(), 3)

    def test_resource_limit(self):
        m = build_n8(11.2, 12.2, 13.65, 0.1, 0.1, 0.1, 9.0)
        with pytest.raises(ResourceLimitError):
            fock_oracle(m, 40)      # 41**4 > 1e6

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            model = random_stable_model(rng)
            full = eigen_full(model).frequencies_ghz
            tr = fock_oracle(model, 14)
            assert np.abs(tr - full).max() < 2e-3


class TestSweep:
    def doublet_sweep(self, n_field=101):
        model = build_n4(13.65, 0.155, 1.84, 12.0,
                         photon_linewidth_ghz=(0.014, 0.022),
                         magnon_linewidth_ghz=0.001)
        mag = MagnonMode(28.0, 0.0, 0.001)
        return sweep(model, mag, np.linspace(0.30, 0.65, n_field))

    def test_branch_count_everywhere(self):
        br = self.doublet_sweep()
        assert br.n_branches == 3
        assert br.branch_frequencies().shape == (101, 3)
        assert br.magnon_fractions().shape == (101, 3)
        assert br.stable_mask.all()

    def test_uncoupled_branch_stays_flat(self):
        br = self.doublet_sweep()
        mid = br.branch_frequencies()[:, 1]
        assert np.abs(mid - 13.65).max() < 0.155

    def test_photon_branch_asymptotes(self):
        # far detuning (>10 g) leaves the photon branch nearly pure
        model = build_n4(13.65, 0.02, 0.12, 12.0)
        mag = MagnonMode(28.0, 0.0, 0.0)
        br = sweep(model, mag, np.array([0.4, 0.4875, 0.55]))
        frac = br.magnon_fractions()
        # at 0.4 T the magnon sits 2.45 GHz (> 10 g) below the cavity
        photon_branches = np.argsort(frac[0])[:2]
        assert np.all(frac[0][photon_branches] < 0.05)

    def test_unstable_points_flagged_not_dropped(self):
        model = build_n4(13.65, 0.155, 1.84, 12.0)
        mag = MagnonMode(28.0, 0.0, 0.001)
        fields = np.linspace(0.005, 0.1, 30)
        br = sweep(model, mag, fields)
        mask = br.stable_mask
        assert (~mask).sum() > 0 and mask.sum() > 0
        assert br.branch_frequencies().shape == (fields.size, 3)
        unstable = br.branch_frequencies()[~mask]
        assert np.isnan(unstable).all()
        # stability boundary is near the two-mode estimate 4 g^2 / (omega_c gyro)
        first = fields[mask.argmax()]
        assert first == pytest.approx(4 * 1.84 ** 2 / 13.65 / 28.0, rel=0.15)

    def test_zero_magnon_frequency_point_flagged(self):
        model = build_n4(13.65, 0.155, 1.84, 12.0)
        mag = MagnonMode(28.0, 0.5, 0.0)
        br = sweep(model, mag, np.array([0.5, 0.7]))
        np.testing.assert_array_equal(br.stable_mask, [False, True])
        assert np.isnan(br.branch_frequencies()[0]).all()
        assert np.isnan(br.magnon_fractions()[0]).all()

    def test_subnormal_magnon_frequency_point_flagged(self):
        # S passes the definiteness test, but the weights leave the float range
        model = build_n4(13.65, 0.155, 1.84, 1.0)
        br = sweep(model, MagnonMode(28.0, 0.0, 0.001), np.array([5e-324, 0.3]))
        np.testing.assert_array_equal(br.stable_mask, [False, True])
        assert np.isnan(br.fracs[0]).all()
        np.testing.assert_allclose(br.fracs[1].sum(axis=1), 1.0, rtol=1e-12)

    @staticmethod
    def per_point_tiebreak(freqs, fracs):
        """The per-point rule the vectorised tie-break replaced, as a reference."""
        n = freqs.shape[0]
        i = 0
        while i < n - 1:
            j = i + 1
            while j < n and freqs[j] - freqs[i] <= 1e-9 * max(abs(freqs[j]), 1e-300):
                j += 1
            if j - i > 1:
                order = np.argsort(-fracs[i:j, -1], kind="stable")
                freqs[i:j] = freqs[i:j][order]
                fracs[i:j] = fracs[i:j][order]
            i = j

    def test_vectorised_tiebreak_matches_per_point_rule(self):
        from magnon_hybrid.hamiltonian import _tiebreak
        # ring-8 frequencies with bit-identical doublets; with the magnon on
        # the two singlets the doublets tie at every field, and with no
        # coupling the magnon line also meets each doublet exactly
        ring = np.sqrt(13.0 ** 2 - 2.0 * 16.9 * np.cos(2 * np.pi * np.arange(5) / 8))
        photons = np.concatenate([ring, ring[1:4]])
        crossings = ring[1:4] / 28.0
        fields = np.sort(np.concatenate([np.linspace(0.35, 0.58, 200), crossings]))
        rng = np.random.default_rng(23)
        for g in (np.array([0.4, 0, 0, 0, 0.3, 0, 0, 0]), np.zeros(8)):
            model = HybridModel(photon_freq_ghz=photons, photon_coupling_ghz=np.zeros((8, 8)),
                                magnon_freq_ghz=1.0, magnon_coupling_ghz=g,
                                photon_linewidth_ghz=np.zeros(8))
            br = sweep(model, MagnonMode(28.0, 0.0, 0.0), fields)
            freqs, fracs = br.branch_frequencies().copy(), br.fracs.copy()
            # scramble each tie group, then sort it back both ways
            for p in range(fields.size):
                tied = np.abs(freqs[p][:, None] - freqs[p][None, :]) <= 1e-9 * freqs[p].max()
                perm = np.arange(9)
                for grp in {tuple(np.nonzero(row)[0]) for row in tied}:
                    perm[list(grp)] = rng.permutation(grp)
                freqs[p], fracs[p] = freqs[p][perm], fracs[p][perm]
            want_f, want_c = freqs.copy(), fracs.copy()
            for p in range(fields.size):
                self.per_point_tiebreak(want_f[p], want_c[p])
            carried = fracs.copy()             # stands in for the eigenvectors
            _tiebreak(freqs, fracs, carried)
            np.testing.assert_array_equal(freqs, want_f)
            np.testing.assert_array_equal(fracs, want_c)
            np.testing.assert_array_equal(carried, want_c)
            # the doublets tie at every field
            gaps = np.diff(br.branch_frequencies(), axis=1)
            assert (gaps <= 1e-9 * photons.max()).sum() >= 3 * fields.size
        # decoupled: where the magnon meets a doublet it comes first of the three
        mf = br.magnon_fractions()
        for b, w in zip(crossings, ring[1:4]):
            p = int(np.argmin(np.abs(fields - b)))
            k = int(np.argmin(np.abs(br.branch_frequencies()[p] - w)))
            np.testing.assert_array_equal(mf[p, k:k + 3], [1.0, 0.0, 0.0])

    def test_eigenvectors_follow_branches(self):
        from magnon_hybrid.hamiltonian import _normal_modes
        # exact doublets tie at every field, so the tie-break reorders them
        ring = np.sqrt(13.0 ** 2 - 2.0 * 16.9 * np.cos(2 * np.pi * np.arange(5) / 8))
        photons = np.concatenate([ring, ring[1:4]])
        g = np.array([0.4, 0.2, 0, 0, 0.3, 0, 0.1, 0])
        omega = np.column_stack((np.broadcast_to(photons, (60, 8)),
                                 np.linspace(-1.0, 16.0, 60)))
        lam = np.zeros((9, 9))
        lam[:-1, -1] = lam[-1, :-1] = g
        freqs, fracs, vecs, stable = _normal_modes(omega, lam)
        assert not stable.all() and stable.any()
        assert np.isnan(vecs[~stable]).all()
        w, e, om = freqs[stable], vecs[stable], omega[stable]
        root = np.sqrt(om)
        s_mat = root[:, :, None] * (2.0 * lam + om[:, :, None] * np.eye(9)) * root[:, None, :]
        np.testing.assert_allclose(np.einsum("pij,pkj->pki", s_mat, e),
                                   w[:, :, None] ** 2 * e, atol=1e-9)
        wgt = e ** 2 * (om[:, None, :] / w[:, :, None] + w[:, :, None] / om[:, None, :])
        np.testing.assert_allclose(wgt / wgt.sum(axis=2, keepdims=True), fracs[stable],
                                   atol=1e-12)

    def test_grid_validation(self):
        model = build_n4(13.65, 0.155, 1.84, 12.0)
        mag = MagnonMode(28.0, 0.0, 0.001)
        with pytest.raises(InvalidArgumentError):
            sweep(model, mag, np.array([]))
        with pytest.raises(InvalidArgumentError):
            sweep(model, mag, np.array([0.5, 0.4]))

    def test_branch_csv_round_trip(self, tmp_path):
        br = self.doublet_sweep(n_field=11)
        path = tmp_path / "branches.csv"
        br.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "field_t,branch_index,freq_ghz,magnon_fraction,stable"
        assert len(path.read_text().splitlines()) == 1 + 11 * 3


class TestMinGap:
    def test_two_mode_alc_gap(self):
        model = two_mode(13.65, 12.0, 1.84)
        mag = MagnonMode(28.0, 0.0, 0.001)
        br = sweep(model, mag, np.linspace(0.40, 0.58, 721))
        gap, field = min_gap(br, 0, 1)
        assert gap == pytest.approx(RESONANT_GAP, rel=1e-4)
        assert field == pytest.approx(0.4875, abs=2e-3)

    def test_gap_stable_under_refinement(self):
        model = two_mode(13.65, 12.0, 1.84)
        mag = MagnonMode(28.0, 0.0, 0.001)
        coarse = min_gap(sweep(model, mag, np.linspace(0.40, 0.58, 181)), 0, 1)[0]
        fine = min_gap(sweep(model, mag, np.linspace(0.40, 0.58, 1441)), 0, 1)[0]
        assert abs(coarse - fine) < 1e-4

    def test_decoupled_gap_is_bare_separation(self):
        model = build_n4(13.65, 0.0, 0.0, 9.0)
        mag = MagnonMode(28.0, 0.0, 0.0)
        br = sweep(model, mag, np.linspace(0.2, 0.3, 21))
        gap, _ = min_gap(br, 1, 2)
        assert gap == pytest.approx(0.0, abs=1e-12)   # degenerate doublet
        gap01, _ = min_gap(br, 0, 1)
        assert gap01 == pytest.approx(13.65 - 28.0 * 0.3, rel=1e-12)

    def test_bad_indices(self):
        model = two_mode()
        mag = MagnonMode(28.0, 0.0, 0.0)
        br = sweep(model, mag, np.linspace(0.4, 0.5, 5))
        with pytest.raises(InvalidArgumentError):
            min_gap(br, 0, 7)


class TestTypes:
    def test_branchset_needs_consistent_counts(self):
        field = np.array([0.1, 0.2])
        freqs, fracs, stable = np.ones((2, 3)), np.ones((2, 3, 3)), np.ones(2, dtype=bool)
        BranchSet(field, freqs, fracs, stable)
        for bad in ((np.ones((2, 2)), fracs, stable), (freqs, np.ones((2, 3, 2)), stable),
                    (freqs, fracs, np.ones(3, dtype=bool)), (np.ones((3, 3)), fracs, stable)):
            with pytest.raises(InvalidArgumentError):
                BranchSet(field, *bad)

    def test_model_invariants(self):
        with pytest.raises(InvalidArgumentError):
            HybridModel(photon_freq_ghz=[13.0], photon_coupling_ghz=[[0.1]],
                        magnon_freq_ghz=9.0, magnon_coupling_ghz=[0.1],
                        photon_linewidth_ghz=[0.0])
        with pytest.raises(InvalidArgumentError):
            HybridModel(photon_freq_ghz=[13.0, 12.0],
                        photon_coupling_ghz=[[0.0, 0.3], [0.2, 0.0]],
                        magnon_freq_ghz=9.0, magnon_coupling_ghz=[0.1, 0.1],
                        photon_linewidth_ghz=[0.0, 0.0])
        with pytest.raises(InvalidArgumentError):
            HybridModel(photon_freq_ghz=[13.0], photon_coupling_ghz=[[0.0]],
                        magnon_freq_ghz=9.0, magnon_coupling_ghz=[0.1],
                        photon_linewidth_ghz=[-0.1])
