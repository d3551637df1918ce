"""Spans and counters around calls into the program's layers.

A workload reaches the program only through a :class:`Layers` object.  The
plain one holds the public functions themselves; the traced one wraps each
in a span named ``<layer>.<call>``.  While a traced round runs, the public
names that one module of the package imports from another are replaced by
traced wrappers too, so that spans inside CLI commands nest (for example
``cli.synth`` > ``spectra.synth_map`` > ``hamiltonian.sweep``).  Spans stay
in memory and are written out when the run ends.  Nothing under ``src/`` is
edited.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import magnon_hybrid as mh
import magnon_hybrid.cli
import magnon_hybrid.io_utils
import magnon_hybrid.spectra


def branch_arrays(branches):
    """The per-point arrays a caller reads off a sweep."""
    return (branches.branch_frequencies(), branches.magnon_fractions(),
            branches.stable_mask)


def ridges_to_csv(points, path):
    points.to_csv(path)


def _sweep_counts(tracer, result, args):
    tracer.count("hamiltonian.sweep_points", result.field_t.size)
    tracer.count("hamiltonian.unstable_points", int((~result.stable_mask).sum()))


def _fit_counts(tracer, result, args):
    tracer.count("fitting.fits", 1)
    tracer.count("fitting.iterations", result.n_iter)


def _write_counts(tracer, result, args):
    tracer.count("io_utils.bytes_written", len(args[1].encode("utf-8")))


def _map_csv_counts(tracer, result, args):
    tracer.count("spectra.map_csv_bytes", Path(args[1]).stat().st_size)


#: span name -> counter hook run on the result after the span has closed
HOOKS = {
    "network.solve_modes": lambda t, r, a: t.count("network.modes", len(r.modes)),
    "hamiltonian.sweep": _sweep_counts,
    "hamiltonian.fock_oracle": lambda t, r, a: t.count("hamiltonian.fock_oracle_calls", 1),
    "spectra.synth_map": lambda t, r, a: t.count("spectra.map_cells", r.magnitude_db.size),
    "spectra.extract_ridges": lambda t, r, a: t.count("spectra.ridge_points", len(r)),
    "spectra.map_to_csv": _map_csv_counts,
    "fitting.fit": _fit_counts,
    "io_utils.write": _write_counts,
}

#: attribute of a Layers object -> (span name, callable)
CALLS = {
    "solve_modes": ("network.solve_modes", mh.solve_modes),
    "sweep": ("hamiltonian.sweep", mh.sweep),
    "branch_arrays": ("hamiltonian.branch_arrays", branch_arrays),
    "min_gap": ("hamiltonian.min_gap", mh.min_gap),
    "eigen_full": ("hamiltonian.eigen_full", mh.eigen_full),
    "fock_oracle": ("hamiltonian.fock_oracle", mh.fock_oracle),
    "synth_map": ("spectra.synth_map", mh.synth_map),
    "map_from_csv": ("spectra.map_from_csv", mh.SpectralMap.from_csv),
    "extract_ridges": ("spectra.extract_ridges", mh.extract_ridges),
    "ridges_to_csv": ("spectra.ridges_to_csv", ridges_to_csv),
    "fit": ("fitting.fit", mh.fit),
    "residual_profile": ("fitting.residual_profile", mh.residual_profile),
    "classify": ("fitting.classify", mh.classify),
}

#: (owner, attribute, span name) replaced during a traced round
PATCHES = (
    (magnon_hybrid.cli, "solve_modes", "network.solve_modes"),
    (magnon_hybrid.cli, "sweep", "hamiltonian.sweep"),
    (magnon_hybrid.cli, "synth_map", "spectra.synth_map"),
    (magnon_hybrid.cli, "load_ridge_csv", "spectra.load_ridge_csv"),
    (magnon_hybrid.cli, "fit", "fitting.fit"),
    (magnon_hybrid.cli, "classify", "fitting.classify"),
    (magnon_hybrid.cli, "photon_mode_spacing", "fitting.photon_mode_spacing"),
    (magnon_hybrid.cli, "render_chart", "svgplot.render_chart"),
    (magnon_hybrid.cli, "write_text_atomic", "io_utils.write"),
    (magnon_hybrid.spectra, "sweep", "hamiltonian.sweep"),
    (magnon_hybrid.spectra, "write_text_atomic", "io_utils.write"),
    (magnon_hybrid.io_utils, "write_text_atomic", "io_utils.write"),
    (magnon_hybrid.spectra.SpectralMap, "to_csv", "spectra.map_to_csv"),
)


class Layers:
    """The program's functions as the workloads call them, untraced."""

    def __init__(self):
        for attr, (_, fn) in CALLS.items():
            setattr(self, attr, fn)

    def cli(self, argv):
        return mh.cli.main(argv)


class Tracer:
    """Spans (name, start, end, parent, round) and counters, kept in memory."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.round = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter() - self.t0, float("nan"), parent,
                           self.round))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, rnd = self.spans[idx]
            self.spans[idx] = (name, start, time.perf_counter() - self.t0, parent, rnd)

    def count(self, name: str, value) -> None:
        self.counts[name] += value

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, result, args)
            return result
        return traced

    def layers(self) -> Layers:
        layers = Layers()
        for attr, (name, fn) in CALLS.items():
            setattr(layers, attr, self.wrap(name, fn))
        layers.cli = self._traced_cli
        return layers

    def _traced_cli(self, argv):
        with self.span("cli." + argv[0]):
            return mh.cli.main(argv)

    @contextmanager
    def patched(self):
        """Trace the names one module imports from another, then restore them."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in PATCHES]
        try:
            for owner, attr, name in PATCHES:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr]))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def totals(self):
        """Summed duration per span name and self time per layer."""
        dur = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            dur[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name.split(".", 1)[0]] += end - start - child[idx]
        return dur, self_time

    def to_json(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "run": r}
                for n, s, e, p, r in self.spans]
