"""Benchmark of magnon-hybrid: four workloads, timed end to end and per layer.

    python3 bench/run.py --workload pipeline_n4 --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 18
    python3 bench/run.py --manifest > BENCHMARK.json

Run from a checkout: the package is imported from ``src/`` next to this
directory, so nothing needs installing.  One process per workload, with one BLAS
thread.  Times are rescaled to a nominal
host speed gauged by reference work timed next to them (hostspeed.py); the
raw wall times go to the run record.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
Run records and spans go to ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def limit_threads() -> None:
    """One BLAS thread; must run before numpy is imported.

    The matrices are small (at most a few hundred rows), and a second BLAS
    thread waits on whatever else the shared host runs on the other CPU.
    """
    for var in BLAS_ENV:
        os.environ[var] = "1"


def blas_threads() -> list[dict]:
    """Each loaded OpenBLAS library and the thread count it reports."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return [{"library": "unknown", "threads": None}]
    out = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        threads = None
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = int(fn())
                break
        out.append({"library": Path(lib).name, "threads": threads})
    return out


def setup_times(repeats: int, hostspeed) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing the CLI module, raw and rescaled.

    Importing is Python work, so the ``python`` reference gauges it.
    The first import in a new checkout also writes the bytecode caches; the
    median of the repeats leaves that one-off cost out.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import magnon_hybrid.cli"]
    raw, scaled = [], []
    for _ in range(repeats):
        before = hostspeed.reference_s("python")
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        after = hostspeed.reference_s("python")
        scaled.append(hostspeed.at_reference_speed(raw[-1], "python", before, after))
    return raw, scaled


def guarded(check, *args) -> list[str]:
    # a check that cannot read an output reports it instead of ending the run
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001
        return [f"{getattr(check, '__name__', 'check')} raised {type(exc).__name__}: {exc}"]


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def layer_metrics(tracer, n_rounds: int, traced_times, plain_times) -> dict:
    """Per-layer figures per traced round, named as in spec.PER_LAYER."""
    dur, self_time = tracer.totals()
    per = 1.0 / n_rounds
    counts = tracer.counts
    values = {}
    for name, unit, _ in spec.PER_LAYER:
        if name.endswith(".self_s"):
            v = self_time.get(name.split(".", 1)[0], 0.0) * per
        elif name == "fitting.s_per_iteration":
            it = counts.get("fitting.iterations", 0.0)
            v = dur.get("fitting.fit", 0.0) / it if it else 0.0
        elif name == "trace.round_s":
            v = statistics.median(traced_times)
        elif name == "trace.overhead_s":
            v = statistics.median(traced_times) - statistics.median(plain_times)
        elif unit == "s":
            v = dur.get(name[:-2], 0.0) * per
        else:
            v = counts.get(name, 0.0) * per
        values[name] = {"value": v, "unit": unit}
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    nproc = len(os.sched_getaffinity(0))
    limit_threads()
    if not (SRC / "magnon_hybrid" / "__init__.py").is_file():
        return fail(f"no package source at {SRC / 'magnon_hybrid'}; run from a checkout")
    sys.path.insert(0, str(SRC))

    import numpy
    import hostspeed
    for kind in hostspeed.NOMINAL_S:
        hostspeed.reference_s(kind)  # warm-up
    setup_raw, setup = setup_times(SETUP_REPEATS, hostspeed)

    import scipy
    import magnon_hybrid
    if Path(magnon_hybrid.__file__).resolve().parent != (SRC / "magnon_hybrid").resolve():
        return fail(f"imported magnon_hybrid from {magnon_hybrid.__file__}, not {SRC}")
    import tracing
    import workloads

    blas = blas_threads()
    if any(b["threads"] is not None and b["threads"] > 1 for b in blas):
        return fail(f"BLAS uses more than one thread: {blas}")

    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[name](seed, ROOT, work)
        tracer = tracing.Tracer() if trace else None
        plain = tracing.Layers()
        attempted = failed = 0
        problems, errors = [], {}
        times, traced_times, phases, raw_times = [], [], [], []
        measured, rnd = 0.0, 0
        # round 0 warms caches and lazy imports; it is checked but not timed
        while rnd == 0 or measured < seconds or (trace and not (times and traced_times)):
            traced = trace and rnd > 0 and rnd % 2 == 0
            wl.prepare()
            if tracer is not None:
                tracer.round = rnd
            with tracer.patched() if traced else nullcontext():
                layers = tracer.layers() if traced else plain
                before = hostspeed.reference_s(wl.GAUGE)
                t0 = time.perf_counter()
                ops, phase = wl.round(layers, rnd)
                dt = time.perf_counter() - t0
                after = hostspeed.reference_s(wl.GAUGE)
            if rnd > 0:
                measured += dt
                scaled = hostspeed.at_reference_speed(dt, wl.GAUGE, before, after)
                (traced_times if traced else times).append(scaled)
                if not traced:
                    raw_times.append(dt)
                    phases.append({k: hostspeed.at_reference_speed(v, wl.GAUGE, before, after)
                                   for k, v in phase.items()})
            attempted += len(ops)
            for op in ops:
                if wl.failed(op):
                    failed += 1
                    key = f"{op.name}: {op.error or 'wrong outcome'}"
                    errors[key] = errors.get(key, 0) + 1
            problems += guarded(wl.check, ops)
            # drop this round's outputs before the next round allocates its own
            ops = None
            rnd += 1
        problems += guarded(wl.finish)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = layer_metrics(tracer, len(traced_times), traced_times, times)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "round_s": {"value": statistics.median(times), "unit": "s"},
        }
    named = wl.named_metrics(times, phases)
    record = {
        "workload": name, "seed": seed, "fixed_seeds": getattr(wl, "FIXED_SEEDS", {}),
        "seconds": seconds, "trace": trace, "rounds": rnd - 1,
        "cpu_count": os.cpu_count(), "nproc": nproc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "src_lines": src_lines(),
        "gauge": wl.GAUGE, "nominal_s": hostspeed.NOMINAL_S,
        "setup_times_raw_s": setup_raw, "setup_times_s": setup,
        "round_times_raw_s": raw_times, "round_times_s": times,
        "traced_round_times_s": traced_times,
        "attempted": attempted, "failed": failed, "failures": errors,
        "problems": problems[:50], "metrics": metrics,
        "named": {n: {"value": v, "unit": u} for n, v, u in named},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                             encoding="utf-8")
    if tracer is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.to_json()) + "\n",
                                                encoding="utf-8")

    correct = not problems
    print(f"{name} seed {seed}: {rnd - 1} timed rounds (+1 warm-up), "
          f"attempted {attempted}, failed {failed}, correct {str(correct).lower()}")
    for key, n in errors.items():
        print(f"  failed x{n}  {key}")
    for msg in problems[:10]:
        print(f"  CHECK  {msg}")
    for n, v, u in named:
        print(f"  {n} = {v:.6g} {u}")
    for n, m in metrics.items():
        print(f"  {n} = {m['value']:.6g} {m['unit']}")
    print(f"  record: {OUT / f'record-{stem}.json'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, then one summary."""
    rows = []
    for name, _ in spec.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((OUT / f"record-{name}-seed{seed}-trace{int(trace)}.json")
                            .read_text(encoding="utf-8"))
        rows.append((name, result, record))
    print("\nsummary")
    for name, result, record in rows:
        print(f"{name:15s} attempted {result['attempted']:5d}  failed {result['failed']:4d}  "
              f"correct {str(result['correct']).lower()}")
        shown = dict(record["named"])
        if not trace:
            shown.update(result["metrics"])
        for metric, m in shown.items():
            print(f"    {metric:22s} {m['value']:.6g} {m['unit']}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS] + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--manifest", action="store_true",
                   help="print BENCHMARK.json as generated from bench/spec.py")
    args = p.parse_args(argv)
    if args.manifest:
        print(json.dumps(spec.manifest(), indent=2))
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
