"""What the benchmark measures; BENCHMARK.json is generated from this file.

Regenerate it with ``python3 bench/run.py --manifest > BENCHMARK.json``.
"""

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 22

WORKLOADS = [
    ("pipeline_n4", "every CLI command on the bundled n4 configs plus two malformed ridge "
                    "CSVs, as a user runs them; time goes to map CSV text and the fit"),
    ("branches_dense", "5000-point sweeps of the n8, n4 and 9-mode models and a 250x4000 "
                       "n8 map, no file I/O; time goes to batched normal-mode solves"),
    ("fit_batch", "small n4 and n8 fits of seeded noisy data and a residual profile; "
                  "thousands of tiny solves inside finite-difference Jacobians"),
    ("oracle_check", "truncated-Fock oracle against the normal modes on 1-3 photon models; "
                     "the only workload whose main work is the sparse Fock path"),
]

#: (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("round_s", "s", "lower", 0.25),
]

_T, _C = "s", "count"

#: (name, unit, better); times and counts are per traced round
PER_LAYER = [
    ("network.solve_modes_s", _T, "lower"),
    ("network.modes", _C, "higher"),
    ("network.self_s", _T, "lower"),
    ("hamiltonian.sweep_s", _T, "lower"),
    ("hamiltonian.sweep_points", _C, "higher"),
    ("hamiltonian.unstable_points", _C, "higher"),
    ("hamiltonian.branch_arrays_s", _T, "lower"),
    ("hamiltonian.min_gap_s", _T, "lower"),
    ("hamiltonian.eigen_full_s", _T, "lower"),
    ("hamiltonian.fock_oracle_s", _T, "lower"),
    ("hamiltonian.fock_oracle_calls", _C, "higher"),
    ("hamiltonian.self_s", _T, "lower"),
    ("spectra.synth_map_s", _T, "lower"),
    ("spectra.map_cells", _C, "higher"),
    ("spectra.map_to_csv_s", _T, "lower"),
    ("spectra.map_from_csv_s", _T, "lower"),
    ("spectra.map_csv_bytes", "B", "lower"),
    ("spectra.extract_ridges_s", _T, "lower"),
    ("spectra.ridge_points", _C, "higher"),
    ("spectra.load_ridge_csv_s", _T, "lower"),
    ("spectra.self_s", _T, "lower"),
    ("io_utils.write_s", _T, "lower"),
    ("io_utils.bytes_written", "B", "lower"),
    ("io_utils.self_s", _T, "lower"),
    ("fitting.fit_s", _T, "lower"),
    ("fitting.fits", _C, "higher"),
    ("fitting.iterations", _C, "lower"),
    ("fitting.s_per_iteration", _T, "lower"),
    ("fitting.residual_profile_s", _T, "lower"),
    ("fitting.classify_s", _T, "lower"),
    ("fitting.self_s", _T, "lower"),
    ("cli.modes_s", _T, "lower"),
    ("cli.estimate_s", _T, "lower"),
    ("cli.sweep_s", _T, "lower"),
    ("cli.synth_s", _T, "lower"),
    ("cli.fit_s", _T, "lower"),
    ("cli.self_s", _T, "lower"),
    ("svgplot.render_chart_s", _T, "lower"),
    ("svgplot.self_s", _T, "lower"),
    ("trace.round_s", _T, "lower"),
    ("trace.overhead_s", _T, "lower"),
]


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
