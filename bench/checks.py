"""Checks of the program's outputs, computed apart from the program.

Every function returns a list of problem strings; an empty list means the
output passed.  The references are the benchmark's own:

* branch frequencies are the square roots of the eigenvalues of
  S = Omega^1/2 (Omega + 2 Lambda) Omega^1/2, the position-space form of the
  quadratic Hamiltonian (the program diagonalises the 2n x 2n Bogoliubov
  matrix instead);
* a point is stable exactly when V = Omega + 2 Lambda is positive definite;
* bare-mode weights are e_ik^2 (w_i/W_k + W_k/w_i) / 2, normalised, with e_k
  the eigenvectors of S;
* one-photon branches are the roots of the closed-form quartic;
* ring modes follow w_k^2 = w0^2 + 2 kappa cos(2 pi k / N);
* the ensemble coupling is recomputed from scipy.constants.

No check compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from scipy.constants import hbar, mu_0

#: branch frequencies from library arrays: allowed error relative to the
#: largest branch frequency at the same point (a 1e-6 relative shift fails)
FREQ_RTOL = 1e-8
#: frequencies read back from CSV (9 significant digits)
CSV_FREQ_RTOL = 2e-8
#: |min eig(V)| / max|V| below this is "at the boundary": either flag is accepted
STABILITY_MARGIN = 1e-9
#: magnon weights summed over each group of (near-)degenerate branches
FRACTION_ATOL = 1e-7
#: branches closer than this (relative to the largest) form one group
TIE_RTOL = 1e-6
#: rows of a full composition matrix must sum to one within this
ROW_SUM_ATOL = 1e-9
#: Fock oracle against the normal modes and the quartic (acceptance criterion 2)
ORACLE_ATOL_GHZ = 2e-3
#: n4 truth and the acceptance tolerances (criterion 3, absolute GHz)
N4_TRUTH = {"omega_c": 13.65, "g_rl": 0.155, "g": 1.84}
N4_TOL = {"omega_c": 0.02, "g_rl": 0.010, "g": 0.02}
#: one fit may miss by this many tolerances; the median of a batch may not
#: miss at all (criterion 3 judges the median over its 100 seeds)
N4_SINGLE_FIT_FACTOR = 3.0
#: n8 (omega_ci, g_i) pairs, compared up to a permutation of the pairs
N8_TOL_GHZ = 0.02
#: residual rms over injected noise sigma
RMS_RATIO_RANGE = (0.5, 1.5)


def magnon_freq(gyro_ghz_per_t, offset_t, fields_t):
    return gyro_ghz_per_t * (np.asarray(fields_t, dtype=float) - offset_t)


def reference_modes(photon_freq_ghz, coupling, omega_m_ghz):
    """Own normal-mode solve for a stack of magnon frequencies.

    Returns (freqs, magnon_weight, vmin_rel): freqs (m, n) ascending and NaN
    where S is not positive definite, the magnon weight of each branch, and
    min eig(V) / max|V| per point.
    """
    omega_m = np.atleast_1d(np.asarray(omega_m_ghz, dtype=float))
    lam = np.asarray(coupling, dtype=float)
    m, n = omega_m.shape[0], lam.shape[0]
    omega = np.empty((m, n))
    omega[:, :-1] = photon_freq_ghz
    omega[:, -1] = omega_m
    v = np.broadcast_to(2.0 * lam, (m, n, n)).copy()
    idx = np.arange(n)
    v[:, idx, idx] = omega
    vmin_rel = np.linalg.eigvalsh(v)[:, 0] / np.abs(v).max(axis=(1, 2))
    root = np.sqrt(np.abs(omega))
    s = root[:, :, None] * v * root[:, None, :]
    w2, vecs = np.linalg.eigh(s)
    ok = (w2[:, 0] > 0.0) & (omega_m > 0.0)
    freqs = np.full((m, n), np.nan)
    weight = np.full((m, n), np.nan)
    if ok.any():
        w = np.sqrt(w2[ok])                                 # (p, branch k)
        om = omega[ok][:, :, None]                          # (p, mode i, 1)
        wgt = vecs[ok] ** 2 * 0.5 * (om / w[:, None, :] + w[:, None, :] / om)
        wgt /= wgt.sum(axis=1, keepdims=True)
        freqs[ok] = w
        weight[ok] = wgt[:, -1, :]
    return freqs, weight, vmin_rel


def quartic_roots(omega_c, omega_m, g):
    """Both branches of one photon mode + magnon, from the closed-form quartic."""
    s = omega_c ** 2 + omega_m ** 2
    p = omega_c ** 2 * omega_m ** 2 - 4.0 * g ** 2 * omega_c * omega_m
    disc = np.sqrt(0.25 * s * s - p)
    return np.sqrt(np.array([0.5 * s - disc, 0.5 * s + disc]))


def check_branches(freqs, magnon_fraction, stable, ref_freqs, ref_weight, vmin_rel,
                   *, rtol=FREQ_RTOL, what="sweep"):
    """Branch arrays of one sweep against the own reference, point by point.

    Stable flags must match positive definiteness of V away from the
    boundary margin; every stable point's frequencies must match the
    reference; unstable points carry NaN; magnon weights lie in [0, 1] and,
    summed over groups of degenerate branches, match the reference.
    """
    out = []
    freqs = np.asarray(freqs, dtype=float)
    mf = np.asarray(magnon_fraction, dtype=float)
    stable = np.asarray(stable, dtype=bool)
    if freqs.shape != ref_freqs.shape or mf.shape != ref_freqs.shape:
        return [f"{what}: branch arrays have shape {freqs.shape}, expected {ref_freqs.shape}"]
    want_stable = vmin_rel > STABILITY_MARGIN
    want_unstable = vmin_rel < -STABILITY_MARGIN
    wrong = (want_stable & ~stable) | (want_unstable & stable)
    if wrong.any():
        out.append(f"{what}: {int(wrong.sum())} stability flags contradict V "
                   f"(first at point {int(np.nonzero(wrong)[0][0])})")
    if np.isfinite(freqs[~stable]).any():
        out.append(f"{what}: unstable points carry finite frequencies")
    both = stable & want_stable
    if both.any():
        f, r = freqs[both], ref_freqs[both]
        scale = r.max(axis=1, keepdims=True)
        err = np.abs(f - r) / scale
        if not np.all(err <= rtol):
            bad = int(np.nonzero(~np.all(err <= rtol, axis=1))[0][0])
            out.append(f"{what}: branch frequencies off the reference by up to "
                       f"{np.nanmax(err):.3g} relative (first at stable point {bad})")
        m = mf[both]
        if not (np.all(m >= -FRACTION_ATOL) and np.all(m <= 1.0 + FRACTION_ATOL)):
            out.append(f"{what}: magnon fractions outside [0, 1]")
        # weights of degenerate branches may be shared out in any way, so
        # compare cumulative sums only where a group of ties ends
        ends = np.ones_like(r, dtype=bool)
        ends[:, :-1] = np.diff(r, axis=1) > TIE_RTOL * scale
        dev = np.abs(np.cumsum(m, axis=1) - np.cumsum(ref_weight[both], axis=1))
        if np.any(dev[ends] > FRACTION_ATOL):
            out.append(f"{what}: magnon fractions off the reference by up to "
                       f"{dev[ends].max():.3g}")
    return out


def check_composition(fractions, what="composition"):
    """A full composition matrix: nonnegative entries, rows summing to one."""
    fr = np.asarray(fractions, dtype=float)
    out = []
    if not np.all(np.isfinite(fr)):
        out.append(f"{what}: non-finite fractions")
    elif fr.min() < -ROW_SUM_ATOL:
        out.append(f"{what}: negative fraction {fr.min():.3g}")
    if np.isfinite(fr).all() and np.abs(fr.sum(axis=-1) - 1.0).max() > ROW_SUM_ATOL:
        out.append(f"{what}: rows do not sum to one")
    return out


def check_min_gap(result, ref_freqs, fields, i, j, what="min_gap"):
    gap, at = result
    gaps = ref_freqs[:, j] - ref_freqs[:, i]
    ok = np.isfinite(gaps)
    want = float(gaps[ok].min())
    scale = float(np.nanmax(ref_freqs))
    out = []
    if abs(gap - want) > FREQ_RTOL * scale:
        out.append(f"{what}: gap {gap!r} GHz, reference {want!r} GHz")
    k = np.nonzero(np.isclose(fields, at, rtol=0.0, atol=1e-12))[0]
    if k.size != 1 or not ok[k[0]] or gaps[k[0]] > want + FREQ_RTOL * scale:
        out.append(f"{what}: reported field {at!r} T is not where the gap is smallest")
    return out


def check_map_peaks(freq_axis, magnitude_db, ref_freqs, what="map"):
    """Each column's strongest bin lies within one bin of a reference branch."""
    fax = np.asarray(freq_axis, dtype=float)
    mag = np.asarray(magnitude_db, dtype=float)
    if mag.shape != (fax.size, ref_freqs.shape[0]):
        return [f"{what}: map shape {mag.shape}, expected {(fax.size, ref_freqs.shape[0])}"]
    peak = fax[np.argmax(mag, axis=0)]
    step = float(np.max(np.diff(fax)))
    dist = np.nanmin(np.abs(ref_freqs - peak[:, None]), axis=1)
    bad = ~(dist <= step * (1.0 + 1e-9))
    if bad.any():
        return [f"{what}: {int(bad.sum())} columns peak more than one bin "
                f"({step:.4g} GHz) from every branch, worst {np.nanmax(dist):.4g} GHz"]
    return []


def check_ridges(field_t, freq_ghz, fields, ref_freqs, step, what="ridges"):
    """Every ridge point sits within one bin of a branch at its field."""
    if len(freq_ghz) == 0:
        return [f"{what}: no ridge points"]
    # fields read back from CSV may sit a rounding error above the grid value
    col = np.clip(np.searchsorted(fields, np.asarray(field_t) - 1e-9), 0, len(fields) - 1)
    if not np.allclose(fields[col], field_t, rtol=0.0, atol=1e-8):
        return [f"{what}: ridge fields do not lie on the map's field axis"]
    dist = np.nanmin(np.abs(ref_freqs[col] - np.asarray(freq_ghz)[:, None]), axis=1)
    if not np.all(dist <= step):
        return [f"{what}: ridge points up to {dist.max():.4g} GHz from every branch"]
    return []


def check_n4_fits(params_list, converged, what="n4 fits"):
    """Acceptance criterion 3 over a batch, plus a gross bound on each fit."""
    out = []
    if not params_list:
        return [f"{what}: no fits"]
    if sum(bool(c) for c in converged) < 0.95 * len(converged):
        out.append(f"{what}: only {sum(map(bool, converged))}/{len(converged)} converged")
    for key, truth in N4_TRUTH.items():
        vals = np.array([p[key] for p in params_list])
        med = abs(float(np.median(vals)) - truth)
        if not med < N4_TOL[key]:
            out.append(f"{what}: median {key} misses {truth} by {med:.4g} GHz "
                       f"(tolerance {N4_TOL[key]})")
        worst = float(np.max(np.abs(vals - truth)))
        if not worst < N4_SINGLE_FIT_FACTOR * N4_TOL[key]:
            out.append(f"{what}: a fit misses {key} = {truth} by {worst:.4g} GHz")
    return out


def check_n8_fit(params, truth, what="n8 fit"):
    """(omega_ci, |g_i|) pairs against the truth, up to a permutation of pairs."""
    got = sorted((params[f"omega_c{i}"], abs(params[f"g{i}"])) for i in (1, 2, 3))
    want = sorted((truth[f"omega_c{i}"], truth[f"g{i}"]) for i in (1, 2, 3))
    err = float(np.abs(np.array(got) - np.array(want)).max())
    if not err < N8_TOL_GHZ:
        return [f"{what}: pairs {got} miss the truth {want} by {err:.4g} GHz"]
    return []


def check_rms(rms_ghz, sigma_ghz, what="fit"):
    lo, hi = RMS_RATIO_RANGE
    ratio = rms_ghz / sigma_ghz
    if not lo <= ratio <= hi:
        return [f"{what}: residual rms {rms_ghz:.4g} GHz is {ratio:.3g} x the injected noise"]
    return []


def check_profile(costs, center, fit_cost, what="residual_profile"):
    """The cost profile through a converged fit is lowest at the fit itself."""
    costs = np.asarray(costs, dtype=float)
    out = []
    if not np.all(np.isfinite(costs)):
        out.append(f"{what}: non-finite costs")
    elif abs(costs[center] - fit_cost) > 1e-9 * fit_cost + 1e-15:
        out.append(f"{what}: cost at the optimum {float(costs[center])!r} differs from the "
                   f"fit's {fit_cost!r}")
    elif costs.min() < costs[center]:
        out.append(f"{what}: profile dips below the fitted optimum")
    return out


def check_regimes(report_doc, couplings, mode_freqs, threshold, what="regime report"):
    """Ultrastrong flags follow g/omega >= threshold under both readings."""
    out = []
    for reading, factor in (("as_printed", 1.0), ("halved", 0.5)):
        entries = report_doc["readings"][reading]
        for e, g, w in zip(entries, couplings, mode_freqs):
            if bool(e["ultrastrong"]) != bool(factor * g / w >= threshold):
                out.append(f"{what}: {reading} ultrastrong flag of mode "
                           f"{e['mode_index']} contradicts g/omega")
            if abs(e["coupling_ghz"] - factor * g) > 1e-12 * max(g, 1.0):
                out.append(f"{what}: {reading} coupling of mode {e['mode_index']} is "
                           f"{e['coupling_ghz']}, expected {factor * g}")
    return out


def check_oracle(fock, full, ref, what="oracle"):
    """Fock-basis transitions against the normal modes and the own reference."""
    out = []
    fock, full, ref = (np.asarray(a, dtype=float) for a in (fock, full, ref))
    if fock.shape != full.shape:
        return [f"{what}: {fock.size} Fock lines for {full.size} branches"]
    if np.abs(fock - full).max() > ORACLE_ATOL_GHZ:
        out.append(f"{what}: Fock oracle off the normal modes by "
                   f"{np.abs(fock - full).max():.3g} GHz")
    if np.abs(full - ref).max() > FREQ_RTOL * ref.max():
        out.append(f"{what}: normal modes off the reference by "
                   f"{np.abs(full - ref).max():.3g} GHz")
    return out


def check_ring_modes(mode_freqs, n, omega0, kappa, what="modes"):
    k = np.arange(n)
    want = np.sort(np.sqrt(omega0 ** 2 + 2.0 * kappa * np.cos(2.0 * np.pi * k / n)))
    got = np.sort(np.asarray(mode_freqs, dtype=float))
    if got.shape != want.shape or np.abs(got - want).max() > 1e-10 * want.max():
        return [f"{what}: ring frequencies {got.tolist()} differ from the closed form "
                f"{want.tolist()}"]
    return []


def coupling_estimate_ghz(gyro_ghz_per_t, spin_density, spin_quantum, filling, cavity_ghz):
    """g = (gamma/2) sqrt(2 s mu0 hbar omega_c n_s xi) / 2pi, in GHz."""
    gamma = 2.0 * np.pi * gyro_ghz_per_t * 1e9
    omega_c = 2.0 * np.pi * cavity_ghz * 1e9
    g = 0.5 * gamma * np.sqrt(2.0 * spin_quantum * mu_0 * hbar * omega_c
                              * spin_density * filling)
    return float(g / (2.0 * np.pi) / 1e9)


def check_run_report(outdir: Path, command: str, what="run_report"):
    """run_report.json lists every artifact with its true hash and size."""
    try:
        doc = json.loads((outdir / "run_report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{what}: unreadable run_report.json: {exc}"]
    out = []
    if doc.get("command") != command:
        out.append(f"{what}: command {doc.get('command')!r}, expected {command!r}")
    for entry in doc.get("outputs", []):
        path = outdir / entry["path"]
        if not path.is_file():
            out.append(f"{what}: listed output {entry['path']} is missing")
            continue
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"] or len(data) != entry["bytes"]:
            out.append(f"{what}: hash or size of {entry['path']} does not match")
        if path.suffix == ".svg":
            try:
                ET.fromstring(data)
            except ET.ParseError as exc:
                out.append(f"{what}: {entry['path']} is not well-formed XML: {exc}")
    if not doc.get("outputs"):
        out.append(f"{what}: no outputs listed")
    return out


def read_csv(path: Path):
    """Header + rows CSV as a dict of string columns; every row must be full width."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return {h: [r[i] for r in rows] for i, h in enumerate(header)}
