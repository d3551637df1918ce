import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnon_hybrid import SpectralMap, extract_ridges, load_ridge_csv
from magnon_hybrid.cli import main
from magnon_hybrid.config import load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DATA = Path(__file__).resolve().parents[1] / "data"
N4_PARAMS = "omega_c, g_rl, g, gyro, field_offset"


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def ring4_cfg():
    return {"schema_version": 1,
            "network": {"ring": {"n": 4, "omega0_ghz": 13.0, "kappa": -16.9}}}


def sweep_cfg(**over):
    cfg = {
        "schema_version": 1,
        "model": {"kind": "n4", "omega_c_ghz": 13.65, "g_rl_ghz": 0.155,
                  "g_ghz": 1.84, "photon_linewidth_ghz": [0.014, 0.022]},
        "magnon": {"gyro_ghz_per_t": 28.0, "field_offset_t": 0.0,
                   "linewidth_ghz": 0.001},
        "sweep": {"field_min_t": 0.3, "field_max_t": 0.65, "n_field": 71},
    }
    cfg.update(over)
    return cfg


class TestModes:
    def test_ring4(self, tmp_path):
        cfg = write_cfg(tmp_path, ring4_cfg())
        assert main(["modes", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "modes.json").read_text())
        assert len(doc["modes"]) == 4
        degenerate = [m["degenerate_group"] for m in doc["modes"]]
        assert degenerate == [None, 0, 0, None]
        csv_lines = (tmp_path / "modes.csv").read_text().splitlines()
        assert len(csv_lines) == 5
        assert csv_lines[2].split(",")[3] == "true"   # doublet flagged

    def test_single_post(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "schema_version": 1,
            "network": {"n_posts": 1, "post_freq_ghz": [10.0], "coupling": [[0.0]]}})
        assert main(["modes", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "modes.json").read_text())
        assert doc["modes"][0]["frequency_ghz"] == pytest.approx(10.0)

    def test_malformed_json_exit_2_no_outputs(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{ not json")
        out = tmp_path / "out"
        assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_key_exit_2(self, tmp_path):
        doc = ring4_cfg()
        doc["surprise"] = 1
        cfg = write_cfg(tmp_path, doc)
        assert main(["modes", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_unsupported_schema_version_exit_2(self, tmp_path):
        doc = ring4_cfg()
        doc["schema_version"] = 99
        cfg = write_cfg(tmp_path, doc)
        assert main(["modes", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestSweep:
    def test_doublet_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path, sweep_cfg())
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "branches.csv").read_text().splitlines()
        assert rows[0] == "field_t,branch_index,freq_ghz,magnon_fraction,stable"
        branch_ids = {r.split(",")[1] for r in rows[1:]}
        assert branch_ids == {"0", "1", "2"}
        svg = (tmp_path / "branches.svg").read_text()
        assert svg.count('class="branch"') >= 3

    def test_zero_coupling_straight_lines(self, tmp_path):
        cfg = sweep_cfg()
        cfg["model"]["g_ghz"] = 0.0
        cfg["model"]["g_rl_ghz"] = 0.0
        path = write_cfg(tmp_path, cfg)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "branches.csv").read_text().splitlines()[1:]
        by_field = {}
        for r in rows:
            b, _, f, _, _ = r.split(",")
            by_field.setdefault(float(b), []).append(float(f))
        # straight lines only: the degenerate cavity pair plus the bare
        # magnon line at every field
        for b, freqs in by_field.items():
            expected = sorted([13.65, 13.65, 28.0 * b])
            np.testing.assert_allclose(sorted(freqs), expected, rtol=1e-9)

    def test_unstable_points_marked(self, tmp_path):
        cfg = sweep_cfg()
        cfg["sweep"] = {"field_min_t": 0.01, "field_max_t": 0.2, "n_field": 40}
        path = write_cfg(tmp_path, cfg)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "branches.csv").read_text().splitlines()[1:]
        states = {r.split(",")[4] for r in rows}
        assert states == {"true", "false"}

    def test_all_unstable_exit_3(self, tmp_path):
        cfg = sweep_cfg()
        cfg["sweep"] = {"field_min_t": 0.001, "field_max_t": 0.02, "n_field": 5}
        path = write_cfg(tmp_path, cfg)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("content", [
        b"field_t,13.0,13.1\n0.40,-20.0,oops\n0.41,-21.0,-22.0\n",   # non-number cell
        b"field_t,13.0,13.1\n0.40,-20.0,-21.0\xff\n",                # not UTF-8
        b"field_t,13.0,13.1\n0.40,-20.0,nan\n0.41,-21.0,-22.0\n",
        b"field_t,13.0,13.1\n0.40,-20.0,-inf\n0.41,-21.0,-22.0\n",
        b"field_t,13.0,13.1\n0.41,-20.0,-21.0\n0.40,-21.0,-22.0\n",   # field axis
        b"field_t,13.1,13.0\n0.40,-20.0,-21.0\n0.41,-21.0,-22.0\n",   # frequency axis
    ], ids=["non_number", "non_utf8", "nan", "inf", "unsorted_field", "unsorted_freq"])
    def test_bad_background_map_exit_4_no_outputs(self, tmp_path, capsys, content):
        bad_map = tmp_path / "map.csv"
        bad_map.write_bytes(content)
        cfg = write_cfg(tmp_path, sweep_cfg(plot={"background_map": str(bad_map)}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(bad_map) in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("content, where", [
        ("field_t,13.0,13.1\n0.40,-20.0,-21.0\n0.41,-21.0,oops\n",
         "line 3: 13.1 'oops' is not a number"),
        ("field_t,13.0,13.1\n0.40,-20.0,-21.0\n\n0.41,-21.0\n", "line 4: no 13.1 cell"),
        ("field_t,13.0,13.0\n0.40,-20.0,-21.0\n", "header repeats column '13.0'"),
    ], ids=["non_number", "ragged", "repeated_frequency"])
    def test_bad_map_cell_named_exit_4(self, tmp_path, capsys, content, where):
        bad_map = tmp_path / "map.csv"
        bad_map.write_text(content)
        cfg = write_cfg(tmp_path, sweep_cfg(plot={"background_map": str(bad_map)}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad_map}") and where in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("n_field", [2, 242], ids=["range", "block_mean"])
    def test_background_map_wider_than_float_range(self, tmp_path, n_field):
        # 242 field columns are averaged in blocks of 3 for the heat cells
        rows = [f"{0.4 + 1e-3 * i:.3f},{-1e308 if i == 0 else 0},1e308" for i in range(n_field)]
        wide = tmp_path / "map.csv"
        wide.write_text("\n".join(["field_t,13.0,13.1"] + rows) + "\n")
        cfg = write_cfg(tmp_path, sweep_cfg(plot={"background_map": str(wide)}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        svg = (tmp_path / "out" / "branches.svg").read_text()
        assert "rgb(250,250,250)" in svg and "rgb(80,80,80)" in svg

    @pytest.mark.parametrize("plot", [[], {"background_map": 3}, {"colour": "red"}])
    def test_bad_plot_block_exit_2_no_outputs(self, tmp_path, plot):
        cfg = write_cfg(tmp_path, sweep_cfg(plot=plot))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert list(out.iterdir()) == []


class TestSynth:
    def synth_cfg(self):
        cfg = sweep_cfg()
        cfg["sweep"] = {"field_min_t": 0.42, "field_max_t": 0.55, "n_field": 24}
        cfg["freq"] = {"min_ghz": 10.0, "max_ghz": 17.0, "n": 400}
        return cfg

    def test_deterministic_hash(self, tmp_path):
        cfg = write_cfg(tmp_path, self.synth_cfg())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["synth", "--config", str(cfg), "--out", str(out2)]) == 0
        h1 = hashlib.sha256((out1 / "map.csv").read_bytes()).hexdigest()
        h2 = hashlib.sha256((out2 / "map.csv").read_bytes()).hexdigest()
        assert h1 == h2
        report = json.loads((out1 / "run_report.json").read_text())
        assert report["outputs"][0]["sha256"] == h1

    def test_seeded_noise_deterministic(self, tmp_path):
        cfg = self.synth_cfg()
        cfg["noise"] = {"sigma_db": 1.0, "seed": 7}
        path = write_cfg(tmp_path, cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["synth", "--config", str(path), "--out", str(out2)]) == 0
        assert (out1 / "map.csv").read_bytes() == (out2 / "map.csv").read_bytes()

    def test_n8_four_line_families_at_0p43(self, tmp_path):
        out = tmp_path / "n8"
        assert main(["synth", "--config", str(CONFIGS / "synth_n8.json"),
                     "--set", "sweep.n_field=40", "--set", "freq.n=2400",
                     "--out", str(out)]) == 0
        smap = SpectralMap.from_csv(out / "map.csv")
        col = int(np.argmin(np.abs(smap.field_t - 0.43)))
        points = extract_ridges(smap, 6.0, 6)
        n_lines = np.sum(points.field_t == smap.field_t[col])
        assert n_lines == 4

    def test_empty_freq_axis_exit_2(self, tmp_path):
        cfg = self.synth_cfg()
        cfg["freq"]["n"] = 0
        path = write_cfg(tmp_path, cfg)
        assert main(["synth", "--config", str(path), "--out", str(tmp_path)]) == 2


class TestFit:
    def fit_cfg(self, data_path):
        return {
            "schema_version": 1,
            "data": {"path": str(data_path)},
            "model": {"kind": "n4", "omega_c_ghz": 13.2, "g_rl_ghz": 0.12,
                      "g_ghz": 1.6, "photon_linewidth_ghz": [0.014, 0.022]},
            "magnon": {"gyro_ghz_per_t": 28.0, "field_offset_t": 0.0,
                       "linewidth_ghz": 0.001},
            "fit": {"free": ["omega_c", "g_rl", "g"],
                    "bounds": {"omega_c": [8.0, 20.0], "g_rl": [0.001, 2.0],
                               "g": [0.001, 6.0]}},
        }

    def test_bundled_fixture_recovers_parameters(self, tmp_path):
        cfg = write_cfg(tmp_path, self.fit_cfg(DATA / "n4_ridges.csv"))
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "fit_result.json").read_text())
        assert res["converged"]
        assert res["params"]["omega_c"] == pytest.approx(13.65, abs=0.02)
        assert res["params"]["g_rl"] == pytest.approx(0.155, abs=0.010)
        assert res["params"]["g"] == pytest.approx(1.84, abs=0.02)
        regime = json.loads((tmp_path / "regime_report.json").read_text())
        entry = regime["readings"]["as_printed"][0]
        assert entry["ultrastrong"] and entry["strong"]
        assert (tmp_path / "residuals.svg").exists()

    def test_single_point_exit_4(self, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("field_t,freq_ghz\n0.45,13.0\n")
        cfg = write_cfg(tmp_path, self.fit_cfg(data))
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 4

    def test_missing_data_file_exit_4(self, tmp_path):
        cfg = write_cfg(tmp_path, self.fit_cfg(tmp_path / "absent.csv"))
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 4

    def test_malformed_data_exit_4(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("field_t,freq_ghz\n0.1,abc\n0.2,13\n" * 6)
        cfg = write_cfg(tmp_path, self.fit_cfg(data))
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("last_row, where", [
        ("0.45", "line 14"),                    # short row
        ("0.45,13.1,", "line 14: prominence_db ''"),   # blank prominence cell
    ])
    def test_malformed_ridge_row_exit_4_no_outputs(self, tmp_path, capsys, last_row, where):
        rows = ["field_t,freq_ghz,prominence_db"]
        rows += [f"{0.40 + 0.01 * k:.2f},{13.0 + 0.02 * k:.2f},20.0" for k in range(12)]
        data = tmp_path / "ridges.csv"
        data.write_text("\n".join(rows + [last_row]) + "\n")
        cfg = write_cfg(tmp_path, self.fit_cfg(data))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error:") and where in err and str(data) in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("row, where", [
        ("0.32,1e200,20.0", "the squared frequencies overflow"),
        ("1e307,13.6,20.0", "unstable at field_t = 1e+307 T"),
    ], ids=["freq", "field"])
    def test_overflowing_data_exit_4_no_outputs(self, tmp_path, capsys, row, where):
        rows = (DATA / "n4_ridges.csv").read_text().splitlines()
        rows[5] = row
        data = tmp_path / "ridges.csv"
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")          # an overflow warning fails the test
            assert main(["fit", "--config", str(write_cfg(tmp_path, self.fit_cfg(data))),
                         "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"data error: data file {data}") and where in err
        assert list(out.iterdir()) == []

    def test_repeated_ridge_header_exit_4_no_outputs(self, tmp_path, capsys):
        data = tmp_path / "ridges.csv"
        data.write_text("field_t,field_t,freq_ghz\n" + "0.4,0.4,13.0\n" * 8)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(write_cfg(tmp_path, self.fit_cfg(data))),
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == f"data error: {data}: header repeats column 'field_t'\n"
        assert list(out.iterdir()) == []

    def test_default_free_matches_bundled_list(self, tmp_path):
        doc = json.loads((CONFIGS / "fit_n4.json").read_text())
        doc["data"]["path"] = str(DATA / "n4_ridges.csv")
        assert main(["fit", "--config", str(write_cfg(tmp_path, doc)),
                     "--out", str(tmp_path / "explicit")]) == 0
        del doc["fit"]["free"]
        assert main(["fit", "--config", str(write_cfg(tmp_path, doc)),
                     "--out", str(tmp_path / "default")]) == 0
        assert ((tmp_path / "default" / "fit_result.json").read_bytes()
                == (tmp_path / "explicit" / "fit_result.json").read_bytes())

    def test_data_outside_stable_fields_exit_4(self, tmp_path, capsys):
        # below 0.0277 T the starting coupling g = 1.6 GHz exceeds the
        # stability bound 4 g**2 < omega_c * omega_m
        rows = [f"{0.40 + 0.01 * k:.2f},{13.0 + 0.02 * k:.2f}" for k in range(12)]
        data = tmp_path / "ridges.csv"
        data.write_text("\n".join(["field_t,freq_ghz", "0.02,13.0"] + rows) + "\n")
        out = tmp_path / "out"
        assert main(["fit", "--config", str(write_cfg(tmp_path, self.fit_cfg(data))),
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == (f"data error: data file {data}: the starting model is unstable at "
                       "field_t = 0.02 T\n")
        assert list(out.iterdir()) == []

    def test_start_unstable_at_every_field_exit_2(self, tmp_path, capsys):
        cfg = self.fit_cfg(DATA / "n4_ridges.csv")
        cfg["model"]["g_ghz"] = 12.0         # unstable up to 1.56 T
        cfg["fit"]["bounds"]["g"] = [0.001, 20.0]
        out = tmp_path / "out"
        assert main(["fit", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: initial parameters")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("block, value", [
        ("classify", {"ultrastrong_threshold": -1}),
        ("classify", {"fsr_ghz": "wide"}),
        ("fit", {"bounds": {"g": ["low", 6.0]}}),
    ])
    def test_bad_fit_or_classify_block_exit_2_no_outputs(self, tmp_path, capsys,
                                                          block, value):
        doc = self.fit_cfg(DATA / "n4_ridges.csv")
        doc[block] = value
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {block}.")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("item, message", [
        ("fit.free=5", "fit.free must be a list of parameter names"),
        ('fit.free="omega_c"', "fit.free must be a list of parameter names"),
        ('fit.free=["g", "g"]', f"fit.free must name distinct parameters out of {N4_PARAMS}"),
        ('fit.free=["bogus"]', f"fit.free must name distinct parameters out of {N4_PARAMS}"),
        ("fit.bounds.g=[0, 1]", "fit.bounds.g = [0, 1] excludes the start 1.6"),
        ("fit.bounds=[]", "fit.bounds must be an object"),
        ('fit.bounds={"gamma": [0, 1]}', "unknown key fit.bounds.gamma"),
        ("fit.initial=[]", "fit.initial must be an object"),
        ('fit.initial={"gyro": Infinity}', "fit.initial.gyro must be finite"),
        ("data.path=5", "data.path must be a file path"),
        ('data.path="a\\u0000b"', "data.path must be a file path"),
    ])
    def test_wrong_config_type_exit_2_no_outputs(self, tmp_path, capsys, item, message):
        out = tmp_path / "out"
        assert main(["fit", "--config", str(CONFIGS / "fit_n4.json"),
                     "--set", f"data.path={DATA / 'n4_ridges.csv'}", "--set", item,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(out.iterdir()) == []

    def test_not_converged_still_exit_0(self, tmp_path):
        doc = self.fit_cfg(DATA / "n4_ridges.csv")
        doc["fit"]["max_iter"] = 1
        cfg = write_cfg(tmp_path, doc)
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "fit_result.json").read_text())
        assert res["converged"] is False

    def test_n8_superstrong_as_printed(self, tmp_path):
        # synthesise three-mode branch data, fit it, check the regime report
        from magnon_hybrid import MagnonMode, build_n8, sweep as run_sweep
        model = build_n8(11.20, 12.20, 13.65, 0.59, 0.73, 0.685, 12.0)
        mag = MagnonMode(28.0, 0.0, 0.001)
        fields = np.linspace(0.30, 0.60, 45)
        freqs = run_sweep(model, mag, fields).branch_frequencies()
        rows = ["field_t,freq_ghz"]
        for b, row in zip(fields, freqs):
            rows += [f"{b},{f}" for f in row]
        data = tmp_path / "n8.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = write_cfg(tmp_path, {
            "schema_version": 1,
            "data": {"path": str(data)},
            "model": {"kind": "n8", "omega_c_ghz": [11.0, 12.0, 13.4],
                      "g_ghz": [0.5, 0.6, 0.6],
                      "photon_linewidth_ghz": [0.036, 0.015, 0.016]},
            "magnon": {"gyro_ghz_per_t": 28.0, "linewidth_ghz": 0.001},
            "fit": {"bounds": {"g1": [0.001, 5.0], "g2": [0.001, 5.0],
                               "g3": [0.001, 5.0]}},
        })
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        regime = json.loads((tmp_path / "regime_report.json").read_text())
        assert regime["coupling_quote_convention"] == "g_over_pi"
        printed = regime["readings"]["as_printed"]
        halved = regime["readings"]["halved"]
        assert printed[0]["superstrong"] and printed[1]["superstrong"]
        assert not halved[0]["superstrong"] and not halved[1]["superstrong"]


class TestEstimate:
    def test_coupling_estimate(self, tmp_path):
        assert main(["estimate", "--config", str(CONFIGS / "estimate_yig.json"),
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "estimate.json").read_text())
        assert abs(doc["g_est_ghz"] - 1.84) / 1.84 < 0.10
        assert doc["warnings"] == []

    def test_filling_estimate_round_trip(self, tmp_path):
        assert main(["estimate", "--config", str(CONFIGS / "estimate_yig.json"),
                     "--set", "estimate.mode=filling", "--set", "estimate.g_ghz=1.84",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "estimate.json").read_text())
        assert 0.013 <= doc["filling_factor_est"] <= 0.017

    def test_filling_factor_one_warned(self, tmp_path):
        assert main(["estimate", "--config", str(CONFIGS / "estimate_yig.json"),
                     "--set", "material.filling_factor=1.0",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "estimate.json").read_text())
        assert any("unphysical" in w for w in doc["warnings"])

    def test_negative_density_exit_2(self, tmp_path):
        assert main(["estimate", "--config", str(CONFIGS / "estimate_yig.json"),
                     "--set", "material.spin_density_per_m3=-2e28",
                     "--out", str(tmp_path)]) == 2


class TestRunReport:
    def test_hashes_match_files(self, tmp_path):
        cfg = write_cfg(tmp_path, sweep_cfg())
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["command"] == "sweep"
        assert report["tool_version"]
        for entry in report["outputs"]:
            path = tmp_path / entry["path"]
            assert path.exists()
            assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"]
            assert path.stat().st_size == entry["bytes"]

    def test_set_override_applied_and_echoed(self, tmp_path):
        cfg = write_cfg(tmp_path, sweep_cfg())
        assert main(["sweep", "--config", str(cfg), "--set", "sweep.n_field=11",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["config"]["sweep"]["n_field"] == 11
        rows = (tmp_path / "branches.csv").read_text().splitlines()[1:]
        assert len(rows) == 11 * 3


class TestConfigErrors:
    def test_non_utf8_config_exit_2_no_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(b'{"schema_version": 1, "note": "\xff"}\n')
        out = tmp_path / "out"
        assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(cfg) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_set_creates_missing_keys(self, tmp_path):
        cfg = write_cfg(tmp_path, sweep_cfg())
        doc = load_config(cfg, ["plot.extra.depth=2", "sweep.n_field=5"])
        assert doc["plot"] == {"extra": {"depth": 2}}
        assert doc["sweep"]["n_field"] == 5

    @pytest.mark.parametrize("item, part", [
        ("model.omega_c_ghz.x=1", "model.omega_c_ghz"),
        ("schema_version.a.b=1", "schema_version"),
        ("model.photon_linewidth_ghz.0=1", "model.photon_linewidth_ghz"),
    ])
    def test_set_through_non_object_exit_2(self, tmp_path, capsys, item, part):
        cfg = write_cfg(tmp_path, sweep_cfg())
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--set", item,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"{part} is not an object" in err and item.split("=")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("command, config, block", [
        ("synth", "synth_n4.json", "noise"),
        ("fit", "fit_n4.json", "fit"),
        ("fit", "fit_n4.json", "classify"),
        ("estimate", "estimate_yig.json", "estimate"),
        ("sweep", "sweep_n4.json", "magnon"),
    ])
    def test_block_not_an_object_exit_2(self, tmp_path, capsys, command, config, block):
        out = tmp_path / "out"
        assert main([command, "--config", str(CONFIGS / config), "--set", f"{block}=[1]",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {block} must be an object\n"
        assert list(out.iterdir()) == []


N4_NAMES = ["omega_c", "g_rl", "g", "gyro", "field_offset"]
_leaf = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
         | st.sampled_from(N4_NAMES))
_json = st.recursive(_leaf, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
    st.sampled_from(N4_NAMES) | st.text(max_size=4), inner, max_size=3), max_leaves=6)


class TestFitConfigFuzz:
    @given(key=st.sampled_from(["fit.free", "fit.bounds", "fit.initial", "fit.max_iter",
                                "data.path"]),
           value=_json)
    @settings(max_examples=60, deadline=None)
    def test_mutated_fit_config_exits_cleanly(self, key, value):
        doc = json.loads((CONFIGS / "fit_n4.json").read_text())
        doc["data"]["path"] = str(DATA / "n4_ridges.csv")
        block, name = key.split(".")
        doc[block][name] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_cfg(Path(tmp), doc)
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["fit", "--config", str(cfg), "--out", str(out)])
            assert code in (0, 2, 3, 4)
            assert "Traceback" not in err.getvalue()
            written = sorted(p.name for p in out.iterdir())
            if code == 0:
                assert written == ["fit_result.json", "regime_report.json", "residuals.svg",
                                   "run_report.json"]
            else:
                assert written == []
                assert err.getvalue().startswith(("config error:", "data error:"))


_token = (st.floats().map(repr) | st.text(max_size=4)
          | st.sampled_from(["nan", "inf", "-inf", "", " ", "1e999", "1e307", "oops"]))
_edit = st.tuples(st.sampled_from(["cell", "drop", "extra", "swap_rows", "swap_header",
                                   "repeat_header"]),
                  st.integers(0, 99), st.integers(0, 99), _token)


def mutate_csv(text, edits):
    """Apply cell, ragged-row, unsorted-axis and repeated-header edits to CSV text."""
    rows = [line.split(",") for line in text.splitlines()]
    header = rows[0]
    for kind, a, b, token in edits:
        row = rows[a % len(rows)]
        if kind == "cell" and row:
            row[b % len(row)] = token
        elif kind == "drop" and row:
            row.pop()
        elif kind == "extra":
            row.append(token)
        elif kind == "swap_rows":
            i, j = 1 + a % (len(rows) - 1), 1 + b % (len(rows) - 1)
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "swap_header" and header:
            i, j = a % len(header), b % len(header)
            header[i], header[j] = header[j], header[i]
        elif kind == "repeat_header" and header:
            header[a % len(header)] = header[b % len(header)]
    return "\n".join(",".join(row) for row in rows) + "\n"


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestInputCsvFuzz:
    MAP = "\n".join(
        ["field_t," + ",".join(f"{12.0 + 0.5 * j:g}" for j in range(5))]
        + [f"{0.40 + 0.02 * i:.2f}," + ",".join(f"{-20.0 - i - 3 * j:g}" for j in range(5))
           for i in range(4)]) + "\n"
    RIDGES = "\n".join((DATA / "n4_ridges.csv").read_text().splitlines()[::24]) + "\n"

    def check(self, code, err, path, out, outputs):
        assert code in (0, 4), err
        assert "Traceback" not in err
        written = sorted(p.name for p in out.iterdir())
        if code == 0:
            assert written == outputs + ["run_report.json"]
        else:
            assert err.startswith("data error:") and str(path) in err, err
            assert written == []

    @given(edits=st.lists(_edit, min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_mutated_background_map(self, edits):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "map.csv"
            path.write_text(mutate_csv(self.MAP, edits), encoding="utf-8")
            cfg = sweep_cfg(plot={"background_map": str(path)})
            cfg["sweep"]["n_field"] = 11
            out = Path(tmp) / "out"
            code, err = run_cli(["sweep", "--config", str(write_cfg(Path(tmp), cfg)),
                                 "--out", str(out)])
            self.check(code, err, path, out, ["branches.csv", "branches.svg"])

    @given(edits=st.lists(_edit, min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_mutated_ridge_csv(self, edits):
        doc = json.loads((CONFIGS / "fit_n4.json").read_text())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ridges.csv"
            path.write_text(mutate_csv(self.RIDGES, edits), encoding="utf-8")
            doc["data"]["path"] = str(path)
            out = Path(tmp) / "out"
            code, err = run_cli(["fit", "--config", str(write_cfg(Path(tmp), doc)),
                                 "--out", str(out)])
            self.check(code, err, path, out,
                       ["fit_result.json", "regime_report.json", "residuals.svg"])


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("command, doc, item, where", [
        ("sweep", sweep_cfg(), "model.g_ghz=NaN", "model.g_ghz"),
        ("sweep", sweep_cfg(), "magnon.gyro_ghz_per_t=Infinity", "magnon.gyro_ghz_per_t"),
        ("sweep", sweep_cfg(), "model.photon_linewidth_ghz=[1e999, 0]",
         "model.photon_linewidth_ghz"),
        ("sweep", sweep_cfg(model={
            "kind": "generic", "photon_freq_ghz": [12.0, 13.0],
            "photon_coupling_ghz": [[0.0, 0.1], [0.1, 0.0]], "magnon_coupling_ghz": [0.5, 0.5]}),
         "model.photon_coupling_ghz=[[0, NaN], [NaN, 0]]", "model.photon_coupling_ghz[0]"),
        ("modes", ring4_cfg(), "network.ring.kappa=NaN", "network.ring.kappa"),
        ("modes", {"schema_version": 1, "network": {
            "n_posts": 2, "post_freq_ghz": [13.0, 13.0], "coupling": [[0, 1], [1, 0]]}},
         "network.coupling=[[0, NaN], [NaN, 0]]", "network.coupling[0]"),
        ("estimate", json.loads((CONFIGS / "estimate_yig.json").read_text()),
         "estimate.cavity_freq_ghz=Infinity", "estimate.cavity_freq_ghz"),
        ("estimate", json.loads((CONFIGS / "estimate_yig.json").read_text()),
         "estimate.g_ghz=NaN", "estimate.g_ghz"),
    ])
    def test_non_finite_exit_2_no_outputs(self, tmp_path, capsys, command, doc, item, where):
        out = tmp_path / "out"
        assert main([command, "--config", str(write_cfg(tmp_path, doc)), "--set", item,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {where} must be finite\n"
        assert list(out.iterdir()) == []


class TestThreadsEnv:
    def test_thread_cap_keeps_output_identical(self, tmp_path, monkeypatch):
        # MAGNON_HYBRID_THREADS is no longer read: any value, even one that
        # is not a number, leaves the output byte-identical
        cfg = write_cfg(tmp_path, sweep_cfg())
        monkeypatch.delenv("MAGNON_HYBRID_THREADS", raising=False)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "unset")]) == 0
        want = (tmp_path / "unset" / "branches.csv").read_bytes()
        for value in ("3", "zero"):
            monkeypatch.setenv("MAGNON_HYBRID_THREADS", value)
            out = tmp_path / value
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
            assert (out / "branches.csv").read_bytes() == want


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_cfg(tmp_path, ring4_cfg())
        proc = subprocess.run(
            [sys.executable, "-m", "magnon_hybrid", "modes",
             "--config", str(cfg), "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "modes.json").exists()

    def test_ridge_ingestion_matches_extractor(self, tmp_path):
        # the bundled fixture is byte-compatible with the extractor output
        points = load_ridge_csv(DATA / "n4_ridges.csv")
        assert len(points) > 100
        assert points.field_t.min() >= 0.32 and points.field_t.max() <= 0.62


class TestOverflowAndSizeLimits:
    # finite config numbers whose results overflow, sizes past the cell
    # limit (every one no machine could allocate) and a size that does not
    # match its list
    @pytest.mark.parametrize("command, config, items, message", [
        ("estimate", "estimate_yig", ["estimate.mode=filling", "estimate.g_ghz=1e200"],
         "estimate: the filling estimate is out of floating-point range"),
        ("estimate", "estimate_yig", ["estimate.cavity_freq_ghz=1e300"],
         "estimate: the coupling estimate is out of floating-point range"),
        ("modes", "modes_ring4", ["network.ring.omega0_ghz=1e200"],
         "network: squared post frequencies plus couplings overflow"),
        ("modes", "modes_ring4", ["network.ring.kappa=1e308"],
         "network: squared post frequencies plus couplings overflow"),
        ("synth", "synth_n4", ['noise={"sigma_db": 1e308, "seed": 1}'],
         "noise.sigma_db = 1e+308 makes the noisy map overflow"),
        ("synth", "synth_n8", ["model.photon_linewidth_ghz=[0.036, 1e308, 0.016]"],
         "a model or magnon linewidth is too large: its square overflows"),
        ("synth", "synth_n8", ["magnon.linewidth_ghz=1e200"],
         "a model or magnon linewidth is too large: its square overflows"),
        ("sweep", "sweep_n4", [f"sweep.n_field={10**15}"],
         f"sweep.n_field = {10**15} needs an array of {9 * 10**15} cells; "
         "the limit is 10000000"),
        ("synth", "synth_n4", [f"sweep.n_field={10**15}"],
         f"sweep.n_field = {10**15} needs an array of {2000 * 10**15} cells; "
         "the limit is 10000000"),
        ("synth", "synth_n8", [f"freq.n={10**15}"],
         f"freq.n = {10**15} needs an array of {10**15} cells; the limit is 10000000"),
        ("modes", "modes_ring4", [f"network.ring.n={10**8}"],
         f"network.ring.n = {10**8} needs an array of {10**16} cells; "
         "the limit is 10000000"),
        ("modes", "modes_ring4", ['network={"n_posts": 3, "post_freq_ghz": [13.0, 13.0], '
                                  '"coupling": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}'],
         "network.post_freq_ghz must have length 3"),
        # stable (omega_c omega_m >> 4 g^2), but the solve squares omega_c
        ("sweep", "sweep_n4", ["model.omega_c_ghz=1e200"],
         "a mode frequency is past the float range: its square overflows, "
         "so no sweep point can be solved"),
        ("sweep", "sweep_n4", ["sweep.field_min_t=1e307", "sweep.field_max_t=1e308"],
         "a mode frequency is past the float range: its square overflows, "
         "so no sweep point can be solved"),
    ], ids=["filling_g", "coupling_cavity", "ring_omega0", "ring_kappa", "noise_sigma",
            "photon_linewidth", "magnon_linewidth", "sweep_n_field", "synth_n_field",
            "synth_freq_n", "ring_n", "network_post_count", "sweep_omega_c", "sweep_fields"])
    def test_exit_2_no_outputs(self, tmp_path, command, config, items, message):
        out = tmp_path / "out"
        argv = [command, "--config", str(CONFIGS / f"{config}.json"), "--out", str(out)]
        for item in items:
            argv += ["--set", item]
        code, err = run_cli(argv)
        assert (code, err) == (2, f"config error: {message}\n")
        assert list(out.iterdir()) == []

    # numbers whose overflow numpy handles correctly: an infinite magnon
    # frequency is an unstable point, an infinite detuning adds no power; a
    # subnormal magnon frequency gives weights past the float range, also
    # an unstable point
    @pytest.mark.parametrize("command, config, item", [
        ("sweep", "sweep_n4", "sweep.field_max_t=1e308"),
        ("synth", "synth_n8", "freq.max_ghz=1e308"),
        ("synth", "synth_n8", "model.omega_c_ghz=[1e200,1e200,1e200]"),
        ("sweep", "sweep_n4", "sweep.field_min_t=5e-324"),
        ("synth", "synth_n4", "sweep.field_min_t=5e-324"),
    ], ids=["sweep_field_max", "synth_freq_max", "synth_omega_c", "sweep_field_subnormal",
            "synth_field_subnormal"])
    def test_overflow_exits_0_without_warnings(self, tmp_path, command, config, item):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = run_cli([command, "--config", str(CONFIGS / f"{config}.json"),
                                 "--set", item, "--out", str(out)])
        assert code == 0, err
        assert sorted(p.name for p in out.iterdir()) == sorted(
            _OUTPUTS[command] + ["run_report.json"])
        if command == "synth":
            SpectralMap.from_csv(out / "map.csv")

    def test_overflowing_sweep_matrix_is_unstable_exit_3(self, tmp_path):
        out = tmp_path / "out"
        code, err = run_cli(["sweep", "--config", str(CONFIGS / "sweep_n4.json"),
                             "--set", "model.g_ghz=1e308", "--out", str(out)])
        assert (code, err) == (3, "sweep error: every sweep point is Bogoliubov-unstable\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("items", [
        ["model.g_ghz=40"],
        # the magnon square overflows at every field but 0.3 T, which is
        # solved and found unstable
        ["model.g_ghz=40", "sweep.field_max_t=1e308"],
    ], ids=["in_range", "top_field_overflows"])
    def test_unstable_at_every_field_exit_3(self, tmp_path, items):
        # omega_c omega_m < 4 g^2 at every field that can be solved
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(CONFIGS / "sweep_n4.json"), "--out", str(out)]
        for item in items:
            argv += ["--set", item]
        code, err = run_cli(argv)
        assert (code, err) == (3, "sweep error: every sweep point is Bogoliubov-unstable\n")
        assert list(out.iterdir()) == []


_SIZE_KEYS = {"network.ring.n", "sweep.n_field", "freq.n"}
_extreme = st.sampled_from([1e200, -1e200, 1e308, -1e308, 1e-300, 5e-324, 0, -1,
                            10**400, -10**400, 2**64])
_value = (_extreme | st.floats() | st.integers() | st.none() | st.booleans()
          | st.text(max_size=4) | st.lists(st.floats() | _extreme, max_size=4))
# a fuzzed size is either small or far past the cell limit, never one
# that would be allocated at length
_size = (st.integers(-2, 40) | st.integers(10**12, 10**400)
         | st.sampled_from([1e200, 8.0, "8", None, [8]]))
_FUZZ_KEYS = {
    "modes": ("modes_ring4", ["network.ring.n", "network.ring.omega0_ghz",
                              "network.ring.kappa", "pattern_zero_tol"]),
    "sweep": ("sweep_n4", ["model.omega_c_ghz", "model.g_rl_ghz", "model.g_ghz",
                           "model.photon_linewidth_ghz", "magnon.gyro_ghz_per_t",
                           "magnon.field_offset_t", "magnon.linewidth_ghz",
                           "sweep.field_min_t", "sweep.field_max_t", "sweep.n_field"]),
    "synth": ("synth_n8", ["model.omega_c_ghz", "model.g_ghz", "model.photon_linewidth_ghz",
                           "magnon.gyro_ghz_per_t", "magnon.linewidth_ghz",
                           "sweep.field_min_t", "sweep.n_field", "freq.min_ghz",
                           "freq.max_ghz", "freq.n", "noise.sigma_db", "noise.seed"]),
    "estimate": ("estimate_yig", ["material.gyro_ghz_per_t", "material.field_offset_t",
                                  "material.spin_density_per_m3", "material.spin_quantum",
                                  "material.filling_factor", "estimate.cavity_freq_ghz",
                                  "estimate.mode", "estimate.g_ghz"]),
}
_OUTPUTS = {"modes": ["modes.csv", "modes.json"], "sweep": ["branches.csv", "branches.svg"],
            "synth": ["map.csv"], "estimate": ["estimate.json"]}


def _no_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


class TestCommandConfigFuzz:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize("command", list(_FUZZ_KEYS))
    def test_mutated_config_exits_cleanly(self, command, data):
        config, keys = _FUZZ_KEYS[command]
        doc = json.loads((CONFIGS / f"{config}.json").read_text())
        if command == "synth":   # a small grid keeps each run short
            doc["sweep"]["n_field"], doc["freq"]["n"] = 24, 300
            doc["noise"] = {"sigma_db": 0.5, "seed": 1}
        if command == "estimate":
            doc["estimate"].update(mode=data.draw(st.sampled_from(["coupling", "filling"])),
                                   g_ghz=1.84)
        key = data.draw(st.sampled_from(keys))
        *blocks, name = key.split(".")
        node = doc
        for block in blocks:
            node = node[block]
        node[name] = data.draw(_size if key in _SIZE_KEYS else _value)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code, err = run_cli([command, "--config", str(write_cfg(Path(tmp), doc)),
                                 "--out", str(out)])
            assert code in (0, 2, 3, 4), err
            assert "Traceback" not in err
            written = sorted(p.name for p in out.iterdir())
            if code != 0:
                assert written == [], err
            else:
                assert written == sorted(_OUTPUTS[command] + ["run_report.json"])
            if command == "synth" and code == 0:    # the map reads back
                SpectralMap.from_csv(out / "map.csv")
            for path in out.glob("*.json"):
                json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)
