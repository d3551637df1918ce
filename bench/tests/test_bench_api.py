"""The benchmark uses only the package's public API and measures it untouched."""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import magnon_hybrid.cli
import magnon_hybrid.io_utils
import magnon_hybrid.spectra

import spec
import tracing

BENCH = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in BENCH.rglob("*.py") if "tests" not in p.parts)
THREADS_ENV = "MAGNON_HYBRID" + "_THREADS"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_names_workers_or_thread_variable():
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        assert THREADS_ENV not in text, path
        tree = ast.parse(text)
        aliases = {"magnon_hybrid"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("magnon_hybrid"):
                        assert not any(_private(p) for p in a.name.split(".")), path
                        aliases.add(a.asname or a.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("magnon_hybrid"):
                assert not any(_private(p) for p in node.module.split(".")), path
                assert not any(_private(a.name) for a in node.names), (path, node.lineno)
            elif isinstance(node, ast.Attribute) and _private(node.attr):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                assert not (isinstance(root, ast.Name) and root.id in aliases), (path, node.lineno)
            elif isinstance(node, ast.Call):
                assert all(k.arg != "workers" for k in node.keywords), (path, node.lineno)


def test_manifest_is_generated_from_spec():
    on_disk = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.manifest()


def test_traced_cli_spans_nest_and_patches_are_restored(tmp_path):
    before = {(o, a): o.__dict__[a] for o, a, _ in tracing.PATCHES}
    tracer = tracing.Tracer()
    config = BENCH.parent / "configs" / "sweep_n4.json"
    with tracer.patched():
        rc = tracer.layers().cli(["sweep", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 0
    assert {(o, a): o.__dict__[a] for o, a, _ in tracing.PATCHES} == before
    names = [s[0] for s in tracer.spans]
    root = names.index("cli.sweep")
    children = {s[0] for s in tracer.spans if s[3] == root}
    assert {"hamiltonian.sweep", "svgplot.render_chart", "io_utils.write"} <= children
    assert tracer.counts["hamiltonian.sweep_points"] == 141
    dur, self_time = tracer.totals()
    assert 0.0 < self_time["cli"] < dur["cli.sweep"]


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pipeline_n4",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
