"""Transmission-map synthesis and spectral line analysis.

Synthetic maps are incoherent sums of Lorentzian power lines, one per
polariton branch: each line sits at the branch frequency, its width is the
composition-weighted mix of the bare photon and magnon linewidths, and its
amplitude is the total photon fraction (a magnon-dominated branch is faint).
No interference between lines is modelled; amplitudes are relative, with the
map reported in dB and floored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DegenerateFitError,
    InvalidArgumentError,
    NoPeakError,
)
from .hamiltonian import HybridModel, sweep
from .io_utils import parse_rows, read_csv_lines, write_rows
# not called here: the benchmark's tracer patches this module's name for it
from .io_utils import write_text_atomic  # noqa: F401
from .magnon import MagnonMode

FLOOR_DB = -120.0


@dataclass(frozen=True)
class LorentzianLine:
    """Power Lorentzian: peak value ``amplitude`` at ``center``, half height at +/- fwhm/2."""

    center_ghz: float
    fwhm_ghz: float
    amplitude: float

    def __post_init__(self):
        if self.fwhm_ghz <= 0.0:
            raise InvalidArgumentError("fwhm must be positive")
        if self.amplitude <= 0.0:
            raise InvalidArgumentError("amplitude must be positive")


def lorentzian_value(f_ghz, line: LorentzianLine):
    """Linear-power value of the line at frequency ``f_ghz`` (scalar or array)."""
    out = _lorentz_power(np.asarray(f_ghz, dtype=float), line.amplitude, line.center_ghz,
                         line.fwhm_ghz)
    return float(out) if np.isscalar(f_ghz) else out


@dataclass(frozen=True)
class SpectralMap:
    """Transmission magnitude over (field, frequency), dB, frequency-major grid."""

    field_t: np.ndarray
    freq_ghz: np.ndarray
    magnitude_db: np.ndarray

    def __post_init__(self):
        field = np.atleast_1d(np.asarray(self.field_t, dtype=float))
        freq = np.atleast_1d(np.asarray(self.freq_ghz, dtype=float))
        mag = np.atleast_2d(np.asarray(self.magnitude_db, dtype=float))
        for name, ax in (("field", field), ("frequency", freq)):
            if ax.size == 0:
                raise InvalidArgumentError(f"{name} axis must be nonempty")
            if ax.size > 1 and np.any(np.diff(ax) <= 0.0):
                raise InvalidArgumentError(f"{name} axis must be strictly increasing")
        if mag.shape != (freq.size, field.size):
            raise InvalidArgumentError(
                f"magnitude grid must be (n_freq, n_field) = {(freq.size, field.size)}, "
                f"got {mag.shape}")
        for arr in (field, freq, mag):
            arr.flags.writeable = False
        object.__setattr__(self, "field_t", field)
        object.__setattr__(self, "freq_ghz", freq)
        object.__setattr__(self, "magnitude_db", mag)

    def to_csv(self, path) -> None:
        """Header row = frequency axis, first column = field axis, cells in dB."""
        columns = zip(self.field_t.tolist(), self.magnitude_db.T)
        write_rows(path, itertools.chain(
            [("field_t", *self.freq_ghz.tolist())],
            ((b, *col.tolist()) for b, col in columns)))

    @classmethod
    def from_csv(cls, path) -> "SpectralMap":
        """Read a map written by :meth:`to_csv`; DataError if it is unreadable,
        malformed, not finite, or has an axis that is not strictly increasing."""
        (head_no, header), lines = read_csv_lines(path)
        freq = parse_rows(path, ["frequency"] * len(header), [(head_no, ",".join(header))],
                          range(1, len(header)))[0]
        rows = parse_rows(path, header, lines)
        if not len(rows):
            raise DataError(f"map file {path} has no data rows")
        field, mag = rows[:, 0], rows[:, 1:].T
        if not (np.isfinite(freq).all() and np.isfinite(rows).all()):
            raise DataError(f"map file {path} holds a non-finite axis value or cell")
        try:
            return cls(field, freq, mag)
        except InvalidArgumentError as exc:
            raise DataError(f"malformed map file {path}: {exc}") from exc


@dataclass(frozen=True)
class RidgePoints:
    """Peak positions extracted column-by-column from a map."""

    field_t: np.ndarray
    freq_ghz: np.ndarray
    prominence_db: np.ndarray

    def __post_init__(self):
        f = np.atleast_1d(np.asarray(self.field_t, dtype=float))
        q = np.atleast_1d(np.asarray(self.freq_ghz, dtype=float))
        p = np.atleast_1d(np.asarray(self.prominence_db, dtype=float))
        if not (f.shape == q.shape == p.shape):
            raise InvalidArgumentError("ridge point arrays must have equal length")
        for arr in (f, q, p):
            arr.flags.writeable = False
        object.__setattr__(self, "field_t", f)
        object.__setattr__(self, "freq_ghz", q)
        object.__setattr__(self, "prominence_db", p)

    def __len__(self) -> int:
        return self.field_t.shape[0]

    def to_csv(self, path) -> None:
        write_rows(path, [("field_t", "freq_ghz", "prominence_db"),
                          *zip(self.field_t, self.freq_ghz, self.prominence_db)])


def synth_map(model: HybridModel, magnon: MagnonMode, fields_t, freqs_ghz) -> SpectralMap:
    """Synthesise a transmission map from the hybrid model.

    Per field column the polariton branches are computed and rendered as
    Lorentzian power lines with composition-mixed widths; columns where the
    model is unstable fall back to the bare photon lines so the map stays
    rectangular.  Branches whose mixed linewidth is zero are skipped (they
    would be delta functions).
    """
    freqs = np.atleast_1d(np.asarray(freqs_ghz, dtype=float))
    if freqs.size == 0 or (freqs.size > 1 and np.any(np.diff(freqs) <= 0.0)):
        raise InvalidArgumentError("frequency axis must be nonempty, strictly increasing")
    branches = sweep(model, magnon, fields_t)
    m = branches.field_t.size
    nb = branches.n_branches

    centers = branches.freqs.copy()                          # (m, nb)
    widths = branches.fracs @ model.mode_linewidths_ghz      # NaN where unstable
    amps = 1.0 - branches.fracs[:, :, -1]
    bad = ~branches.stable
    n_ph = model.n_photon
    centers[bad, :n_ph] = model.photon_freq_ghz
    widths[bad, :n_ph] = model.photon_linewidth_ghz
    amps[bad, :n_ph] = 1.0
    amps[bad, n_ph:] = 0.0

    ok = np.isfinite(centers) & (widths > 0.0) & (amps > 0.0)
    fwhm = np.where(ok, widths, 2.0)
    amp = np.where(ok, amps, 0.0)
    cen = np.where(ok, centers, 0.0)

    power = np.zeros((freqs.size, m))
    # accumulate branch by branch to keep the broadcast buffers small; a
    # squared detuning past the float range is infinite and adds an exact 0
    with np.errstate(over="ignore"):
        for k in range(nb):
            power += _lorentz_power(freqs[:, None], amp[None, :, k], cen[None, :, k],
                                    fwhm[None, :, k])

    floor_power = 10.0 ** (FLOOR_DB / 10.0)
    mag = 10.0 * np.log10(np.maximum(power, floor_power))
    return SpectralMap(branches.field_t, freqs, mag)


def _lorentz_power(f, amplitude, center, fwhm):
    half = 0.5 * fwhm
    return amplitude * half ** 2 / ((f - center) ** 2 + half ** 2)


def fit_line(freq_ghz, magnitude_db, center_ghz: float, window_ghz: float):
    """Least-squares Lorentzian fit (in linear power) inside a window.

    Returns ``(LorentzianLine, q)`` with ``q = center / fwhm``.  The window
    around ``center_ghz`` must hold at least 7 samples and an interior local
    maximum, otherwise :class:`InvalidArgumentError` / :class:`NoPeakError`.
    """
    from scipy.optimize import curve_fit

    f = np.asarray(freq_ghz, dtype=float)
    y = np.asarray(magnitude_db, dtype=float)
    mask = np.abs(f - center_ghz) <= 0.5 * window_ghz
    if mask.sum() < 7:
        raise InvalidArgumentError("fit window must contain at least 7 samples")
    fw = f[mask]
    power = 10.0 ** (y[mask] / 10.0)
    imax = int(np.argmax(power))
    if imax in (0, fw.size - 1):
        raise NoPeakError("no interior local maximum in the fit window")

    peak = power[imax]
    half = 0.5 * peak
    below_l = np.nonzero(power[:imax] < half)[0]
    below_r = np.nonzero(power[imax:] < half)[0]
    if below_l.size and below_r.size:
        w0 = fw[imax + below_r[0]] - fw[below_l[-1]]
    else:
        w0 = 0.25 * (fw[-1] - fw[0])
    p0 = (peak, fw[imax], max(w0, 2.0 * (fw[1] - fw[0])))
    try:
        popt, pcov = curve_fit(_lorentz_power, fw, power, p0=p0, maxfev=10_000)
    except RuntimeError as exc:
        raise DegenerateFitError(f"Lorentzian fit did not converge: {exc}") from exc
    if not np.all(np.isfinite(pcov)):
        raise DegenerateFitError("singular fit covariance")
    amplitude, center, fwhm = float(popt[0]), float(popt[1]), float(abs(popt[2]))
    if amplitude <= 0.0 or fwhm <= 0.0:
        raise DegenerateFitError("fit collapsed to a nonpositive amplitude or width")
    line = LorentzianLine(center, fwhm, amplitude)
    return line, line.center_ghz / line.fwhm_ghz


def _find_peaks(mag, min_prominence: float):
    """``scipy.signal.find_peaks(mag[:, c], prominence=min_prominence)`` for
    every column c at once, as per-column lists of indices and prominences.

    A peak's base on each side is the lowest sample up to the nearest strictly
    higher one or the column end.  Only turning points can be either, so the
    search runs on them alone, by binary lifting over a sparse table of block
    maxima; the base is then a lookup in one of block minima.
    """
    n, ncol = mag.shape
    y = np.ascontiguousarray(mag.T)
    # step signs per column between sentinel steps 2 before and after it; as
    # in scipy a NaN is on no peak's flank and stops every search, so a step
    # into one is 3 and a step out 4, which keeps it as a turning point
    d = np.empty((ncol, n + 1), dtype=np.int8)
    d[:, 0] = d[:, n] = 2
    np.subtract(y[:, 1:] > y[:, :-1], y[:, 1:] < y[:, :-1], out=d[:, 1:n], dtype=np.int8)
    nan = np.isnan(y)
    d[:, 1:n][nan[:, 1:]] = 3
    d[:, 1:n][nan[:, :-1]] = 4
    turn = np.flatnonzero(d[:, 1:] != d[:, :-1])
    col, k = np.divmod(turn, n)
    rise, right = d.ravel()[turn + col] == 1, d.ravel()[turn + col + 1]
    # a flat top counts once, at its middle, unless it touches a column end
    plateau = np.append(rise[:-1] & (right[:-1] == 0) & (right[1:] == -1), False)
    first = np.flatnonzero(rise & (right == -1) | plateau)
    last = first + plateau[first]
    # turning values with a NaN before each column and after the last: a
    # block holding a NaN compares false, so no search leaves its column
    pos = np.arange(1, turn.size + 1) + col
    t = np.full(turn.size + ncol + 1, np.nan)
    t[pos] = y.ravel()[turn]
    a, b = pos[first], pos[last]
    top = t[a]
    levels = n.bit_length()
    hi_tab, lo_tab = np.empty((levels, t.size)), np.empty((levels, t.size))
    hi_tab[0] = lo_tab[0] = t
    for j in range(1, levels):
        h = 1 << (j - 1)
        np.maximum(hi_tab[j - 1, :-h], hi_tab[j - 1, h:], out=hi_tab[j, :-h])
        np.minimum(lo_tab[j - 1, :-h], lo_tab[j - 1, h:], out=lo_tab[j, :-h])
        hi_tab[j, -h:] = lo_tab[j, -h:] = np.nan
    for j in range(levels - 1, -1, -1):
        w = 1 << j
        a = np.where(hi_tab[j].take(a - w, mode="clip") <= top, a - w, a)
        b = np.where(hi_tab[j].take(b + 1, mode="clip") <= top, b + w, b)

    def range_min(i0, i1):
        j = np.frexp(i1 - i0 + 1)[1] - 1
        return np.minimum(lo_tab[j, i0], lo_tab[j, i1 - (1 << j) + 1])

    prom = top - np.maximum(range_min(a, pos[first]), range_min(pos[last], b))
    keep = prom >= min_prominence
    cut = np.searchsorted(col[first][keep], np.arange(1, ncol))
    return np.split(((k[first] + k[last]) // 2)[keep], cut), np.split(prom[keep], cut)


def extract_ridges(smap: SpectralMap, prominence_db: float,
                   max_peaks_per_column: int) -> RidgePoints:
    """Column-wise peak positions above a prominence threshold.

    Each column keeps at most ``max_peaks_per_column`` peaks, largest
    prominence first and, between equal prominences, the larger index first
    (a reversed stable sort; numpy's default ``argsort`` is not stable on
    every CPU); positions are refined by a 3-point parabola through the dB
    values.  All columns are ranked and refined in one numpy pass.  An empty
    result is valid.
    """
    if max_peaks_per_column < 1:
        raise InvalidArgumentError("max_peaks_per_column must be at least 1")
    mag, fax = smap.magnitude_db, smap.freq_ghz
    peaks, proms = _find_peaks(mag, prominence_db)
    col = np.repeat(np.arange(len(peaks)), [p.size for p in peaks])
    idx, prom = np.concatenate(peaks), np.concatenate(proms)
    order = np.lexsort((-idx, -prom, col))
    rank = np.arange(order.size) - np.searchsorted(col[order], col[order])
    keep = np.sort(order[rank < max_peaks_per_column])      # back to column, index order
    i, c = idx[keep], col[keep]
    y0, y1, y2 = mag[i - 1, c], mag[i, c], mag[i + 1, c]
    denom = y0 - 2.0 * y1 + y2
    off = np.divide(0.5 * (y0 - y2), denom, out=np.zeros(i.size), where=denom != 0.0)
    off = np.clip(off, -0.5, 0.5)
    step = np.where(off >= 0.0, fax[i + 1] - fax[i], fax[i] - fax[i - 1])
    return RidgePoints(smap.field_t[c], fax[i] + off * step, prom[keep])


def load_ridge_csv(path) -> RidgePoints:
    """Read ridge/branch samples from a CSV with field_t and freq_ghz columns.

    Also reads an optional prominence_db column, but parses no other (such as
    a branch CSV's ``stable``).  Rows with a non-finite field or frequency drop.
    """
    (_, header), lines = read_csv_lines(path)
    if "field_t" not in header or "freq_ghz" not in header:
        raise DataError(f"data file {path} must have field_t and freq_ghz columns")
    columns = [header.index(name) for name in ("field_t", "freq_ghz", "prominence_db")
               if name in header]
    rows = parse_rows(path, header, lines, columns)
    rows = rows[np.isfinite(rows[:, :2]).all(axis=1)]
    prom = rows[:, 2] if len(columns) == 3 else np.zeros(len(rows))
    return RidgePoints(rows[:, 0], rows[:, 1], prom)
