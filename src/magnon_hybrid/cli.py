"""Command-line front end: magnon-hybrid <modes|sweep|synth|fit|estimate>.

Every command reads one JSON config (``--config``, overridable with
``--set key.path=value``), writes its artifacts atomically into ``--out``
and finishes with a ``run_report.json`` listing each output with its SHA-256
hash.  Exit codes: 0 success (including a reported non-converged fit),
2 configuration problem, 3 fully unstable sweep, 4 unreadable or
insufficient data.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    Block,
    command_config,
    load_config,
    parse_field_grid,
    parse_freq_grid,
    parse_magnon,
    parse_material,
    parse_model,
    parse_network,
)
from .errors import (
    AllUnstableError,
    ConfigError,
    DataError,
    InvalidArgumentError,
    NonPhysicalError,
)
from .fitting import (
    FitProblem,
    classify,
    default_free,
    fit,
    model_at,
    param_names,
    photon_mode_spacing,
    stable_points,
    start_values,
)
from .hamiltonian import sweep
from .io_utils import write_json, write_rows, write_text_atomic
from .magnon import estimate_coupling, estimate_filling, magnon_frequency
from .network import solve_modes, wgm_order
from .spectra import FLOOR_DB, SpectralMap, load_ridge_csv, synth_map
from .svgplot import HeatBackground, Series, render_chart

def cmd_modes(cfg: Block, outdir: Path) -> list[Path]:
    zero_tol = cfg.number("pattern_zero_tol", 0.05, positive=True)
    network = parse_network(cfg)
    spectrum = solve_modes(network, pattern_zero_tol=zero_tol)

    doc = spectrum.to_dict()
    doc["network"] = network.to_dict()
    doc["node_counts"] = [wgm_order(m) for m in spectrum.modes]
    json_path = outdir / "modes.json"
    write_json(json_path, doc)

    groups = {i: gi for gi, grp in enumerate(spectrum.degenerate_groups) for i in grp}
    rows = [("mode_index", "frequency_ghz", "label", "degenerate", "fsr_to_next_ghz")]
    for i, mode in enumerate(spectrum.modes):
        fsr = spectrum.fsr_ghz[i] if i < spectrum.fsr_ghz.size else ""
        rows.append((i, mode.frequency_ghz, mode.label,
                     "true" if i in groups else "false", fsr))
    csv_path = outdir / "modes.csv"
    write_rows(csv_path, rows)
    return [json_path, csv_path]


def _sweep_from_cfg(cfg: Block, cells_per_field: int = 0):
    magnon = parse_magnon(cfg)
    model, _ = parse_model(cfg, magnon)
    # a sweep holds one (N+1)x(N+1) matrix per field
    fields = parse_field_grid(cfg, max(model.n_modes ** 2, cells_per_field))
    return model, magnon, fields


def cmd_sweep(cfg: Block, outdir: Path) -> list[Path]:
    model, magnon, fields = _sweep_from_cfg(cfg)
    background = None
    plot = cfg.block("plot", {"background_map"}, {})
    if "background_map" in plot:
        smap = SpectralMap.from_csv(plot.file_path("background_map"))
        background = HeatBackground(x=smap.field_t, y=smap.freq_ghz,
                                    values=smap.magnitude_db)
    branches = sweep(model, magnon, fields)
    if not branches.stable_mask.any():
        # the solve squares each bare frequency; past the float range a
        # point cannot be solved, which says nothing about its stability
        with np.errstate(over="ignore"):
            photons = np.isfinite(model.photon_freq_ghz ** 2).all()
            magnons = np.isfinite(magnon_frequency(magnon, fields) ** 2)
        if not (photons and magnons.any()):
            raise ConfigError("a mode frequency is past the float range: its square "
                              "overflows, so no sweep point can be solved")
        raise AllUnstableError("every sweep point is Bogoliubov-unstable")

    csv_path = outdir / "branches.csv"
    branches.to_csv(csv_path)
    freqs = branches.branch_frequencies()
    series = [Series(x=branches.field_t, y=freqs[:, k], label=f"branch {k}",
                     css_class="branch")
              for k in range(branches.n_branches)]
    svg_path = outdir / "branches.svg"
    write_text_atomic(svg_path, render_chart(
        series=series, x_label="field (T)", y_label="frequency (GHz)",
        title="polariton branches", background=background))
    return [csv_path, svg_path]


def cmd_synth(cfg: Block, outdir: Path) -> list[Path]:
    freqs = parse_freq_grid(cfg)
    model, magnon, fields = _sweep_from_cfg(cfg, freqs.size)
    with np.errstate(over="ignore"):     # each map line squares its half-width
        if not np.isfinite(model.mode_linewidths_ghz ** 2).all():
            raise ConfigError("a model or magnon linewidth is too large: its square overflows")
    smap = synth_map(model, magnon, fields, freqs)
    if "noise" in cfg:
        noise = cfg.block("noise", {"sigma_db", "seed"})
        sigma = noise.number("sigma_db", nonnegative=True)
        rng = np.random.default_rng(noise.integer("seed", minimum=0))
        with np.errstate(over="ignore"):
            noisy = np.maximum(
                smap.magnitude_db + rng.normal(0.0, sigma, smap.magnitude_db.shape),
                FLOOR_DB)
        if not np.isfinite(noisy).all():     # the map reader would reject it
            raise noise.error("sigma_db", f"= {sigma:g} makes the noisy map overflow")
        smap = SpectralMap(smap.field_t, smap.freq_ghz, noisy)
    csv_path = outdir / "map.csv"
    smap.to_csv(csv_path)
    return [csv_path]


def cmd_fit(cfg: Block, outdir: Path) -> list[Path]:
    data_path = cfg.block("data", {"path"}).file_path("path")
    magnon = parse_magnon(cfg)
    model, kind = parse_model(cfg, magnon)

    fit_cfg = cfg.block("fit", {"free", "bounds", "initial", "max_iter"}, {})
    free = fit_cfg.get("free", list(default_free(kind)))
    if not isinstance(free, list) or not all(isinstance(name, str) for name in free):
        raise fit_cfg.error("free", "must be a list of parameter names")
    if not free:
        raise fit_cfg.error("free", "must name at least one parameter")
    free = tuple(free)
    names = param_names(kind, model.n_photon)
    if len(set(free)) != len(free) or not set(free) <= set(names):
        raise fit_cfg.error("free", f"must name distinct parameters out of {', '.join(names)}")
    initial_cfg = fit_cfg.block("initial", names, {})
    bounds_cfg = fit_cfg.block("bounds", names, {})
    initial = start_values(kind, model, magnon)
    initial.update((key, initial_cfg.number(key)) for key in initial_cfg.doc)
    bounds = {key: bounds_cfg.interval(key) for key in bounds_cfg.doc}
    for key, (lo, hi) in bounds.items():
        if key in free and not lo <= initial[key] <= hi:
            raise bounds_cfg.error(key, f"= [{lo:g}, {hi:g}] excludes the start {initial[key]:g}")
    max_iter = fit_cfg.integer("max_iter", 500, minimum=1)
    cls_cfg = cfg.block("classify", {"fsr_ghz", "ultrastrong_threshold"}, {})
    threshold = cls_cfg.number("ultrastrong_threshold", 0.1, positive=True)
    fsr = None
    if cls_cfg.get("fsr_ghz", None) is not None:
        fsr = cls_cfg.number("fsr_ghz", positive=True)

    points = load_ridge_csv(data_path)
    if len(points) < 2 * len(free):
        raise DataError(
            f"insufficient data in {data_path}: {len(points)} points for {len(free)} "
            f"free parameters (need at least {2 * len(free)})")
    with np.errstate(over="ignore"):      # the fit sums squared residuals
        if not np.isfinite(points.freq_ghz @ points.freq_ghz):
            raise DataError(f"data file {data_path}: the squared frequencies overflow")
    try:
        problem = FitProblem.from_ridge_points(
            points, model_kind=kind, template=model, magnon=magnon,
            free=free, initial=initial, bounds=bounds)
        # a start unstable at some data points blames the data, one unstable
        # at all of them the starting parameters; an overflowing field is unstable
        with np.errstate(over="ignore"):
            stable = stable_points(problem, initial)
        if stable.any() and not stable.all():
            raise DataError(f"data file {data_path}: the starting model is unstable at "
                            f"field_t = {problem.field_t[~stable][0]:g} T")
        result = fit(problem, max_iter=max_iter)
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc

    fit_path = outdir / "fit_result.json"
    write_json(fit_path, result.to_dict())

    model, magnon = model_at(problem, result.params)
    if fsr is None:
        fsr_per_mode = photon_mode_spacing(model)
        if np.all(np.isfinite(fsr_per_mode)):
            fsr = [float(v) for v in fsr_per_mode]
    # three-mode couplings are conventionally quoted over pi, i.e. at twice
    # the ordinary-frequency value the model carries; the classifier then
    # reports that quote both at face value and halved
    quote_factor = 2.0 if kind == "n8" else 1.0
    report = classify(
        quote_factor * np.abs(model.magnon_coupling_ghz),
        model.photon_freq_ghz,
        fsr, magnon_linewidth_ghz=magnon.linewidth_ghz,
        photon_linewidth_ghz=model.photon_linewidth_ghz,
        ultrastrong_threshold=threshold)
    doc = report.to_dict()
    doc["coupling_quote_convention"] = "g_over_pi" if kind == "n8" else "ordinary"
    regime_path = outdir / "regime_report.json"
    write_json(regime_path, doc)

    svg_path = outdir / "residuals.svg"
    write_text_atomic(svg_path, render_chart(
        series=[Series(x=problem.field_t, y=result.residuals, marker=True,
                       css_class="residual", label="data - model")],
        x_label="field (T)", y_label="residual (GHz)",
        title=f"fit residuals (rms {result.residual_rms:.4g} GHz, "
              f"converged={str(result.converged).lower()})"))
    return [fit_path, regime_path, svg_path]


def cmd_estimate(cfg: Block, outdir: Path) -> list[Path]:
    ensemble, magnon = parse_material(cfg)
    est = cfg.block("estimate", {"cavity_freq_ghz", "mode", "g_ghz"})
    cavity = est.number("cavity_freq_ghz", positive=True)
    mode = est.get("mode", "coupling")
    if mode not in ("coupling", "filling"):
        raise est.error("mode", "must be 'coupling' or 'filling'")
    if mode == "filling" or "g_ghz" in est:
        g_meas = est.number("g_ghz", positive=True)

    warnings = []
    if ensemble.filling_factor >= 1.0:
        warnings.append("filling factor 1 is unphysical for a sphere inside a cavity")
    doc = {
        "mode": mode,
        "inputs": {
            "gyro_ghz_per_t": magnon.gyro_ghz_per_t,
            "spin_density_per_m3": ensemble.spin_density_per_m3,
            "spin_quantum": ensemble.spin_quantum,
            "filling_factor": ensemble.filling_factor,
            "cavity_freq_ghz": cavity,
        },
        "formula": "g = (gamma_rad/2) * sqrt(2*s*mu0*hbar*omega_c*n_s*xi) / (2*pi)",
        "warnings": warnings,
    }
    try:    # a float power or a division by an underflowed zero raises
        if mode == "coupling":
            value = estimate_coupling(ensemble, cavity, magnon.gyro_ghz_per_t)
        else:
            value = estimate_filling(g_meas, ensemble, cavity, magnon.gyro_ghz_per_t)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"estimate: the {mode} estimate is out of floating-point range")
    if mode == "coupling":
        doc["g_est_ghz"] = value
        print(f"g_est = {value:.6g} GHz")
    else:
        doc["inputs"]["g_ghz"] = g_meas
        doc["filling_factor_est"] = value
        if value > 1.0:
            doc["warnings"].append("estimated filling factor exceeds 1")
        print(f"filling_factor_est = {value:.6g}")
    path = outdir / "estimate.json"
    write_json(path, doc)
    return [path]


#: name: (run, top-level config keys besides schema_version, help)
_COMMANDS = {
    "modes": (cmd_modes, {"network", "pattern_zero_tol"},
              "solve a post-network mode spectrum"),
    "sweep": (cmd_sweep, {"model", "magnon", "sweep", "plot"},
              "polariton branches versus field"),
    "synth": (cmd_synth, {"model", "magnon", "sweep", "freq", "noise"},
              "synthesise a transmission map"),
    "fit": (cmd_fit, {"data", "model", "magnon", "fit", "classify"},
            "fit model parameters to branch data and classify the regime"),
    "estimate": (cmd_estimate, {"material", "estimate"},
                 "ensemble coupling / filling-factor estimate"),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="magnon-hybrid",
        description="Model multimode cavity-magnon systems: solve post-network modes, "
                    "sweep polariton branches, synthesise transmission maps, fit "
                    "avoided-crossing data, estimate ensemble couplings.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--set", action="append", default=[], metavar="KEY.PATH=VALUE",
                       help="override a config entry (value parsed as JSON)")
        p.add_argument("--out", default=".", help="output directory (default: .)")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config, args.set)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        run, keys, _ = _COMMANDS[args.command]
        outputs = run(command_config(cfg, keys), outdir)
    except (ConfigError, InvalidArgumentError, NonPhysicalError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AllUnstableError as exc:
        print(f"sweep error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4

    report = {
        "command": args.command,
        "config": cfg,
        "tool_version": __version__,
        "elapsed_s": round(time.perf_counter() - t0, 6),
        "outputs": [
            {"path": p.name, "sha256": _sha256(p), "bytes": p.stat().st_size}
            for p in outputs
        ],
    }
    write_json(outdir / "run_report.json", report)
    return 0


def entry() -> None:
    sys.exit(main())
