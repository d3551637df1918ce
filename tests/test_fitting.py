import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnon_hybrid import (
    FitProblem,
    HybridModel,
    InvalidArgumentError,
    MagnonMode,
    build_n4,
    build_n8,
    classify,
    fit,
    photon_mode_spacing,
    residual_profile,
    sweep,
)
from magnon_hybrid import fitting
from magnon_hybrid.fitting import (
    _jacobian,
    _residuals,
    default_free,
    model_at,
    param_names,
    stable_points,
    start_values,
)

N4_TRUTH = {"omega_c": 13.65, "g_rl": 0.155, "g": 1.84}
N4_BOUNDS = {"omega_c": (8.0, 20.0), "g_rl": (1e-3, 2.0), "g": (1e-3, 6.0)}


def n4_branch_data(n_field=40, field_lo=0.30, field_hi=0.65):
    model = build_n4(N4_TRUTH["omega_c"], N4_TRUTH["g_rl"], N4_TRUTH["g"], 12.0)
    mag = MagnonMode(28.0, 0.0, 0.001)
    fields = np.linspace(field_lo, field_hi, n_field)
    freqs = sweep(model, mag, fields).branch_frequencies()
    return np.repeat(fields, freqs.shape[1]), freqs.reshape(-1), mag


def n4_problem(freq_data, fields, mag, initial=None, bounds=N4_BOUNDS):
    template = build_n4(13.0, 0.1, 1.5, 12.0)
    return FitProblem(field_t=fields, freq_ghz=freq_data, model_kind="n4",
                      template=template, magnon=mag,
                      free=("omega_c", "g_rl", "g"),
                      initial=initial or dict(N4_TRUTH), bounds=bounds)


class TestFit:
    def test_zero_noise_round_trip(self):
        fields, freqs, mag = n4_branch_data()
        init = {k: 1.07 * v for k, v in N4_TRUTH.items()}
        res = fit(n4_problem(freqs, fields, mag, initial=init))
        assert res.converged
        assert res.residual_rms < 1e-6
        for name, truth in N4_TRUTH.items():
            assert res.params[name] == pytest.approx(truth, rel=1e-6)

    def test_fit_idempotent_from_optimum(self):
        fields, freqs, mag = n4_branch_data()
        first = fit(n4_problem(freqs, fields, mag,
                               initial={k: 1.05 * v for k, v in N4_TRUTH.items()}))
        again = fit(n4_problem(freqs, fields, mag, initial=dict(first.params)))
        for name in N4_TRUTH:
            assert again.params[name] == pytest.approx(first.params[name], rel=1e-9)

    def test_n8_round_trip_within_two_percent(self):
        truth = {"omega_c1": 11.20, "omega_c2": 12.20, "omega_c3": 13.65,
                 "g1": 0.59, "g2": 0.73, "g3": 0.685}
        model = build_n8(11.20, 12.20, 13.65, 0.59, 0.73, 0.685, 12.0)
        mag = MagnonMode(28.0, 0.0, 0.001)
        fields = np.linspace(0.30, 0.60, 50)
        freqs = sweep(model, mag, fields).branch_frequencies()
        prob = FitProblem(
            field_t=np.repeat(fields, 4), freq_ghz=freqs.reshape(-1),
            model_kind="n8", template=build_n8(11.0, 12.0, 13.0, 0.5, 0.5, 0.5, 12.0),
            magnon=mag, free=tuple(truth),
            initial={k: 1.05 * v for k, v in truth.items()},
            bounds={k: (1e-3, 30.0) for k in truth})
        res = fit(prob)
        assert res.converged
        for name, value in truth.items():
            assert abs(res.params[name] - value) / value < 0.02

    def test_covariance_is_symmetric_psd(self):
        fields, freqs, mag = n4_branch_data()
        rng = np.random.default_rng(0)
        res = fit(n4_problem(freqs + rng.normal(0, 0.005, freqs.shape), fields, mag))
        cov = res.covariance
        assert np.abs(cov - cov.T).max() < 1e-9
        assert np.linalg.eigvalsh(cov).min() > -1e-9

    def test_covariance_matches_monte_carlo_scatter(self):
        fields, freqs, mag = n4_branch_data()
        reported = None
        scatter = {k: [] for k in N4_TRUTH}
        for seed in range(40):
            rng = np.random.default_rng(seed)
            res = fit(n4_problem(freqs + rng.normal(0, 0.005, freqs.shape),
                                 fields, mag))
            assert res.converged
            if reported is None:
                reported = np.sqrt(np.diag(res.covariance))
            for k in N4_TRUTH:
                scatter[k].append(res.params[k])
        mc = np.array([np.std(scatter[k]) for k in ("omega_c", "g_rl", "g")])
        ratio = mc / reported
        assert np.all(ratio > 0.5) and np.all(ratio < 2.0)

    def test_insufficient_data_rejected(self):
        fields, freqs, mag = n4_branch_data(n_field=1)
        with pytest.raises(InvalidArgumentError):
            fit(n4_problem(freqs[:5], fields[:5], mag))

    def test_unknown_parameter_rejected(self):
        fields, freqs, mag = n4_branch_data()
        template = build_n4(13.0, 0.1, 1.5, 12.0)
        with pytest.raises(InvalidArgumentError):
            FitProblem(field_t=fields, freq_ghz=freqs, model_kind="n4",
                       template=template, magnon=mag, free=("nope",),
                       initial={"nope": 1.0})

    def test_initial_outside_bounds_rejected(self):
        fields, freqs, mag = n4_branch_data()
        with pytest.raises(InvalidArgumentError):
            n4_problem(freqs, fields, mag,
                       initial={"omega_c": 50.0, "g_rl": 0.155, "g": 1.84})

    def test_unstable_initial_rejected(self):
        fields, freqs, mag = n4_branch_data()
        prob = n4_problem(freqs, fields, mag,
                          initial={"omega_c": 13.65, "g_rl": 0.155, "g": 5.9},
                          bounds={"g": (1e-3, 6.0)})
        with pytest.raises(InvalidArgumentError):
            fit(prob)

    def test_max_iter_returns_best_so_far(self):
        fields, freqs, mag = n4_branch_data()
        init = {"omega_c": 14.5, "g_rl": 0.5, "g": 1.2}
        res = fit(n4_problem(freqs, fields, mag, initial=init), max_iter=1)
        assert not res.converged
        assert res.n_iter == 1
        assert np.isfinite(res.residual_rms)

    def test_gyro_and_offset_fittable(self):
        model = build_n4(13.65, 0.155, 1.84, 12.0)
        mag_true = MagnonMode(27.6, 0.012, 0.001)
        fields = np.linspace(0.32, 0.64, 45)
        freqs = sweep(model, mag_true, fields).branch_frequencies()
        prob = FitProblem(
            field_t=np.repeat(fields, 3), freq_ghz=freqs.reshape(-1),
            model_kind="n4", template=model, magnon=MagnonMode(28.0, 0.0, 0.001),
            free=("gyro", "field_offset"),
            initial={"gyro": 28.0, "field_offset": 0.0},
            bounds={"gyro": (20.0, 36.0), "field_offset": (-0.05, 0.05)})
        res = fit(prob)
        assert res.params["gyro"] == pytest.approx(27.6, rel=1e-5)
        assert res.params["field_offset"] == pytest.approx(0.012, abs=1e-5)


class TestSerialization:
    def test_fit_result_json_round_trip(self):
        from magnon_hybrid import FitResult
        fields, freqs, mag = n4_branch_data(n_field=10)
        res = fit(n4_problem(freqs, fields, mag))
        import json
        doc = json.loads(json.dumps(res.to_dict()))
        assert res.fd_jacobians == doc["fd_jacobians"] == 0


def generic_three_photon_problem():
    model = HybridModel(photon_freq_ghz=[11.5, 12.6, 13.7],
                        photon_coupling_ghz=[[0.0, 0.2, 0.05], [0.2, 0.0, 0.15],
                                             [0.05, 0.15, 0.0]],
                        magnon_freq_ghz=1.0, magnon_coupling_ghz=[0.5, 0.8, 0.6],
                        photon_linewidth_ghz=[0.0, 0.0, 0.0])
    mag = MagnonMode(28.0, 0.01, 0.001)
    fields = np.linspace(0.30, 0.65, 40)
    freqs = sweep(model, mag, fields).branch_frequencies()
    names = ("photon_freq_0", "photon_freq_1", "photon_freq_2", "photon_coupling_0_1",
             "photon_coupling_0_2", "photon_coupling_1_2", "magnon_coupling_0",
             "magnon_coupling_1", "magnon_coupling_2", "gyro", "field_offset")
    theta = [11.4, 12.7, 13.6, 0.22, 0.04, 0.14, 0.55, 0.75, 0.65, 27.8, 0.0]
    return FitProblem(field_t=np.repeat(fields, 4), freq_ghz=freqs.reshape(-1),
                      model_kind="generic", template=model, magnon=mag, free=names,
                      initial=dict(zip(names, theta)))


def n4_magnon_free_problem():
    fields, freqs, _ = n4_branch_data()
    mag = MagnonMode(28.0, 0.01, 0.001)
    names = ("omega_c", "g_rl", "g", "gyro", "field_offset")
    theta = [13.6, 0.16, 1.8, 27.9, 0.012]
    return FitProblem(field_t=fields, freq_ghz=freqs + 0.003, model_kind="n4",
                      template=build_n4(13.0, 0.1, 1.5, 12.0), magnon=mag, free=names,
                      initial=dict(zip(names, theta)))


def n8_magnon_free_problem():
    model = build_n8(11.20, 12.20, 13.65, 0.59, 0.73, 0.685, 12.0)
    mag = MagnonMode(28.0, 0.01, 0.001)
    fields = np.linspace(0.30, 0.65, 40)
    freqs = sweep(model, mag, fields).branch_frequencies()
    names = ("omega_c1", "omega_c2", "omega_c3", "g1", "g2", "g3", "gyro", "field_offset")
    theta = [11.1, 12.3, 13.6, 0.6, 0.7, 0.7, 28.1, 0.005]
    return FitProblem(field_t=np.repeat(fields, 4), freq_ghz=freqs.reshape(-1),
                      model_kind="n8", template=model, magnon=mag, free=names,
                      initial=dict(zip(names, theta)))


class TestAnalyticJacobian:
    @pytest.mark.parametrize("make", [n4_magnon_free_problem, n8_magnon_free_problem,
                                      generic_three_photon_problem])
    def test_matches_central_differences(self, make):
        problem = make()
        theta = np.array([problem.initial[name] for name in problem.free])
        r, jac = _residuals(problem, theta)
        assert jac.shape == (r.size, len(problem.free))
        # atol: round-off floor of a 1e-6 central difference on ~14 GHz
        # branches, eps * 14 / 1e-6, with headroom for the eigensolver
        np.testing.assert_allclose(jac, _jacobian(problem, theta, r), rtol=1e-6, atol=1e-8)

    def test_exact_degeneracy_falls_back_and_converges(self):
        # two identical uncoupled photon modes: their branches tie at every
        # field, so each Jacobian comes from central differences
        model = HybridModel(photon_freq_ghz=[12.0, 12.0], photon_coupling_ghz=np.zeros((2, 2)),
                            magnon_freq_ghz=1.0, magnon_coupling_ghz=[0.0, 0.0],
                            photon_linewidth_ghz=[0.0, 0.0])
        truth = MagnonMode(28.0, 0.01, 0.001)
        fields = np.linspace(0.30, 0.60, 30)
        freqs = sweep(model, truth, fields).branch_frequencies()
        problem = FitProblem(field_t=np.repeat(fields, 3), freq_ghz=freqs.reshape(-1),
                             model_kind="generic", template=model,
                             magnon=MagnonMode(27.0, 0.0, 0.001),
                             free=("gyro", "field_offset"),
                             initial={"gyro": 27.0, "field_offset": 0.0})
        theta = np.array([27.0, 0.0])
        r, jac = _residuals(problem, theta)
        assert jac is None
        res = fit(problem)
        assert res.converged
        # one per iteration, plus one for the covariance unless the last
        # iteration already took it at the final point
        assert res.fd_jacobians in (res.n_iter, res.n_iter + 1)
        assert res.params["gyro"] == pytest.approx(28.0, rel=1e-8)
        assert res.params["field_offset"] == pytest.approx(0.01, rel=1e-6)

    def test_same_optimum_as_forced_finite_differences(self, monkeypatch):
        # the criterion-3 fits, once with the analytic Jacobian and once with
        # every Jacobian taken by central differences
        model = build_n4(N4_TRUTH["omega_c"], N4_TRUTH["g_rl"], N4_TRUTH["g"], 12.0)
        mag = MagnonMode(28.0, 0.0, 0.001)
        fields = np.linspace(0.30, 0.65, 40)
        clean = sweep(model, mag, fields).branch_frequencies().reshape(-1)
        problems = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            data = clean + rng.normal(0.0, 0.005, clean.shape)
            initial = {k: v * (1.0 + rng.uniform(-0.10, 0.10)) for k, v in N4_TRUTH.items()}
            problems.append(n4_problem(data, np.repeat(fields, 3), mag, initial=initial))
        analytic = [fit(p) for p in problems]
        monkeypatch.setattr(fitting, "_DEGENERATE_RTOL", np.inf)
        forced = [fit(p) for p in problems]
        for a, f in zip(analytic, forced):
            assert a.fd_jacobians == 0 and f.fd_jacobians in (f.n_iter, f.n_iter + 1)
            assert a.converged and f.converged
            assert a.residual_rms == pytest.approx(f.residual_rms, rel=1e-12)
            # seed 71 stops 1.7e-8 apart in g_rl, the flattest direction of
            # the cost, with the analytic point the lower of the two
            for name in N4_TRUTH:
                assert a.params[name] == pytest.approx(f.params[name], rel=2e-8)


GENERIC_TEMPLATE = HybridModel(
    photon_freq_ghz=[11.5, 12.6, 13.7],
    photon_coupling_ghz=[[0.0, 0.2, 0.05], [0.2, 0.0, 0.15], [0.05, 0.15, 0.0]],
    magnon_freq_ghz=1.0, magnon_coupling_ghz=[0.5, 0.8, 0.6],
    photon_linewidth_ghz=[0.01, 0.02, 0.03], magnon_linewidth_ghz=0.001)

#: (kind, template, the start values read by hand off the template)
LAYOUTS = [
    ("n4", build_n4(13.2, 0.12, 1.6, 12.0),
     {"omega_c": 13.2, "g_rl": 0.12, "g": 1.6}),
    ("n8", build_n8(11.20, 12.20, 13.65, 0.59, 0.73, 0.685, 12.0),
     {"omega_c1": 11.20, "omega_c2": 12.20, "omega_c3": 13.65,
      "g1": 0.59, "g2": 0.73, "g3": 0.685}),
    ("generic", GENERIC_TEMPLATE,
     {"photon_freq_0": 11.5, "photon_freq_1": 12.6, "photon_freq_2": 13.7,
      "photon_coupling_0_1": 0.2, "photon_coupling_0_2": 0.05,
      "photon_coupling_1_2": 0.15, "magnon_coupling_0": 0.5,
      "magnon_coupling_1": 0.8, "magnon_coupling_2": 0.6}),
]


def layout_problem(kind, template, free, initial):
    fields = np.linspace(0.30, 0.65, 8)
    return FitProblem(field_t=fields, freq_ghz=np.full(8, 13.0), model_kind=kind,
                      template=template, magnon=MagnonMode(28.0, 0.01, 0.001),
                      free=free, initial=initial)


class TestParameterLayout:
    @pytest.mark.parametrize("kind, template, expected", LAYOUTS, ids=["n4", "n8", "generic"])
    def test_start_values(self, kind, template, expected):
        values = start_values(kind, template, MagnonMode(28.5, 0.01, 0.001))
        assert values == dict(expected, gyro=28.5, field_offset=0.01)
        assert tuple(values) == param_names(kind, template.n_photon)

    def test_default_free(self):
        assert default_free("n4") == ("omega_c", "g_rl", "g")
        assert default_free("n8") == ("omega_c1", "omega_c2", "omega_c3", "g1", "g2", "g3")
        assert default_free("generic") == ()

    @pytest.mark.parametrize("kind, template, expected", LAYOUTS, ids=["n4", "n8", "generic"])
    def test_model_at_start_reproduces_template(self, kind, template, expected):
        magnon = MagnonMode(28.0, 0.01, 0.001)
        initial = start_values(kind, template, magnon)
        problem = layout_problem(kind, template, tuple(expected), initial)
        model, fitted_magnon = model_at(problem, initial)
        np.testing.assert_array_equal(model.photon_freq_ghz, template.photon_freq_ghz)
        np.testing.assert_array_equal(model.coupling_matrix(), template.coupling_matrix())
        np.testing.assert_array_equal(model.photon_linewidth_ghz,
                                      template.photon_linewidth_ghz)
        assert model.magnon_linewidth_ghz == template.magnon_linewidth_ghz
        assert fitted_magnon == magnon

    def test_initial_overrides_non_free_parameter(self):
        template = build_n4(13.2, 0.12, 1.6, 12.0)
        initial = {"omega_c": 13.5, "g_rl": 0.2, "g": 1.7, "gyro": 27.0}
        problem = layout_problem("n4", template, ("g",), initial)
        model, magnon = model_at(problem, {"g": 1.9})
        np.testing.assert_array_equal(model.photon_freq_ghz, [13.5, 13.5])
        assert model.photon_coupling_ghz[0, 1] == 0.2
        np.testing.assert_array_equal(model.magnon_coupling_ghz, [1.9, 0.0])
        assert magnon == MagnonMode(27.0, 0.01, 0.001)

    def test_fit_keeps_residuals_at_optimum(self):
        fields, freqs, mag = n4_branch_data()
        problem = n4_problem(freqs + 0.002, fields, mag)
        res = fit(problem)
        theta = np.array([res.params[name] for name in problem.free])
        np.testing.assert_array_equal(res.residuals, _residuals(problem, theta)[0])
        assert "residuals" not in res.to_dict()

    def test_stable_points(self):
        template = build_n4(13.2, 0.12, 1.6, 12.0)
        initial = start_values("n4", template, MagnonMode(28.0, 0.0, 0.001))
        problem = FitProblem(field_t=[-0.1, 0.0, 0.01, 0.3, 0.3, 0.5], freq_ghz=np.ones(6),
                             model_kind="n4", template=template,
                             magnon=MagnonMode(28.0, 0.0, 0.001), free=("g",),
                             initial=initial)
        # 4 g**2 > omega_c * omega_m up to 0.0277 T
        np.testing.assert_array_equal(stable_points(problem, initial),
                                      [False, False, False, True, True, True])


class TestResidualProfile:
    def test_minimum_at_fitted_value(self):
        fields, freqs, mag = n4_branch_data()
        prob = n4_problem(freqs, fields, mag,
                          initial={k: 1.06 * v for k, v in N4_TRUTH.items()})
        res = fit(prob)
        grid = np.linspace(res.params["g"] - 0.2, res.params["g"] + 0.2, 41)
        costs = residual_profile(prob, res, "g", grid)
        assert abs(grid[np.argmin(costs)] - res.params["g"]) <= grid[1] - grid[0]

    def test_monotone_away_from_minimum(self):
        fields, freqs, mag = n4_branch_data()
        prob = n4_problem(freqs, fields, mag)
        res = fit(prob)
        grid = np.linspace(res.params["g"], res.params["g"] + 0.5, 21)
        costs = residual_profile(prob, res, "g", grid)
        assert np.all(np.diff(costs) >= -1e-12)

    def test_unknown_parameter(self):
        fields, freqs, mag = n4_branch_data()
        prob = n4_problem(freqs, fields, mag)
        res = fit(prob)
        with pytest.raises(InvalidArgumentError):
            residual_profile(prob, res, "gyro", [27.0, 28.0])

    def test_unstable_region_reported_as_inf(self):
        fields, freqs, mag = n4_branch_data()
        prob = n4_problem(freqs, fields, mag)
        res = fit(prob)
        costs = residual_profile(prob, res, "g", [res.params["g"], 40.0])
        assert np.isfinite(costs[0]) and np.isinf(costs[1])


class TestClassify:
    def test_n8_superstrong_dual_readings(self):
        report = classify([1.18, 1.46], [11.20, 12.20], 1.0,
                          magnon_linewidth_ghz=0.001,
                          photon_linewidth_ghz=[0.036, 0.015])
        assert all(p.superstrong for p in report.as_printed)
        assert not any(p.superstrong for p in report.halved)
        assert all(p.strong for p in report.as_printed)

    def test_n4_ultrastrong_and_strong(self):
        report = classify([1.84], [13.65], None, magnon_linewidth_ghz=0.001,
                          photon_linewidth_ghz=[0.022])
        entry = report.as_printed[0]
        assert entry.ultrastrong and entry.strong
        assert entry.superstrong is None       # single mode, no FSR known
        assert not report.halved[0].ultrastrong

    def test_all_flags_false_for_weak_coupling(self):
        report = classify([0.0005], [13.65], 1.0, magnon_linewidth_ghz=0.001,
                          photon_linewidth_ghz=[0.014])
        entry = report.as_printed[0]
        assert not entry.strong and not entry.ultrastrong and not entry.superstrong

    def test_superstrong_boundary_inclusive(self):
        at = classify([1.0], [12.0], 1.0).as_printed[0]
        below = classify([1.0 - 1e-12], [12.0], 1.0).as_printed[0]
        assert at.superstrong is True
        assert below.superstrong is False

    @given(st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_superstrong_implies_strong_when_fsr_exceeds_losses(self, g):
        report = classify([g], [10.0], 0.5, magnon_linewidth_ghz=0.01,
                          photon_linewidth_ghz=[0.02])
        entry = report.as_printed[0]
        if entry.superstrong:
            assert entry.strong

    def test_monotone_in_coupling(self):
        flags = [classify([g], [10.0], 1.0).as_printed[0].superstrong
                 for g in (0.5, 0.9, 1.0, 1.5)]
        assert flags == [False, False, True, True]

    def test_per_mode_fsr_from_frequencies(self):
        report = classify([1.18, 1.46, 1.37], [11.20, 12.20, 13.65],
                          magnon_linewidth_ghz=0.001,
                          photon_linewidth_ghz=[0.036, 0.015, 0.016])
        fsr = [p.fsr_ghz for p in report.as_printed]
        assert fsr[0] == pytest.approx(1.0)
        assert fsr[1] == pytest.approx(1.0)
        assert fsr[2] == pytest.approx(1.45)
        # third coupling 1.37 < 1.45: not superstrong
        assert [p.superstrong for p in report.as_printed] == [True, True, False]

    def test_mode_spectrum_as_fsr_source(self):
        from magnon_hybrid import ring_network, solve_modes
        spectrum = solve_modes(ring_network(4, 13.0, -0.1 * 13.0 ** 2))
        # couple to the lowest ring mode; nearest spectrum neighbour is the
        # doublet 1.372 GHz above it
        report = classify([1.5], [11.6276], spectrum)
        entry = report.as_printed[0]
        assert entry.fsr_ghz == pytest.approx(1.3724, abs=1e-3)
        assert entry.superstrong is True
        assert report.halved[0].superstrong is False

    def test_threshold_knob(self):
        lax = classify([1.0], [13.65], None, ultrastrong_threshold=0.05)
        assert lax.as_printed[0].ultrastrong
        strict = classify([1.0], [13.65], None, ultrastrong_threshold=0.2)
        assert not strict.as_printed[0].ultrastrong

    def test_input_validation(self):
        with pytest.raises(InvalidArgumentError):
            classify([-0.1], [10.0], 1.0)
        with pytest.raises(InvalidArgumentError):
            classify([0.1], [10.0, 11.0], 1.0)


class TestPhotonModeSpacing:
    def test_n4_doublet_splitting(self):
        model = build_n4(13.65, 0.155, 1.84, 12.0)
        spacing = photon_mode_spacing(model)
        expected = (np.sqrt(13.65 * (13.65 + 2 * 0.155))
                    - np.sqrt(13.65 * (13.65 - 2 * 0.155)))
        np.testing.assert_allclose(spacing, expected, rtol=1e-12)

    def test_n8_bare_gaps(self):
        model = build_n8(11.20, 12.20, 13.65, 0.59, 0.73, 0.685, 12.0)
        np.testing.assert_allclose(photon_mode_spacing(model), [1.0, 1.0, 1.45],
                                   rtol=1e-12)

    def test_single_mode_infinite(self):
        from magnon_hybrid import HybridModel
        model = HybridModel(photon_freq_ghz=[13.65], photon_coupling_ghz=[[0.0]],
                            magnon_freq_ghz=12.0, magnon_coupling_ghz=[1.0],
                            photon_linewidth_ghz=[0.0])
        assert photon_mode_spacing(model)[0] == np.inf
