"""Quadratic photon-magnon Hamiltonians and their exact normal modes.

The model is N photon modes plus one magnon mode with every coupling written
in the full position-position form (a_i + a_i^dag)(a_j + a_j^dag), i.e. all
counter-rotating terms are kept.  In units where hbar = 1 every frequency and
coupling below is an ordinary frequency in GHz; because the eigenproblem is
homogeneous of degree one in those numbers, no angular-frequency conversion
is ever needed inside this module.

Because every coupling is position-only, the Hamiltonian is
H = 1/2 p^T Omega p + 1/2 x^T V x with Omega = diag(omega) and
V = Omega + 2*Lambda (Lambda the symmetric coupling matrix).  The squared
branch frequencies are therefore the eigenvalues of the symmetric
(N+1)x(N+1) matrix S = Omega^1/2 V Omega^1/2, and the weight of bare mode i
in branch k (|u_ik|^2 + |v_ik|^2 of the Bogoliubov transformation) is
e_ik^2 (omega_i/W_k + W_k/omega_i) / 2 for the eigenvectors e_k of S.  This
one symmetric eigensolve replaces the para-unitary diagonalisation of the
2(N+1)-dimensional dynamical matrix (Colpa, Physica A 93, 327 (1978)); that
matrix is kept as :func:`dynamical_matrix` for checks, next to the
independent truncated Fock-basis oracle :func:`fock_oracle`.

Stability: with all bare frequencies positive, the Hamiltonian quadratic
form is positive definite exactly when V is, and so exactly when S is, which
the same eigensolve decides.  For a single photon mode this reduces to the
familiar bound omega_c * omega_m > 4 g**2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InstabilityError,
    InvalidArgumentError,
    ResourceLimitError,
)
from .io_utils import write_rows
from .magnon import MagnonMode, magnon_frequency

#: relative tolerance treating two polariton frequencies as degenerate
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class HybridModel:
    """N photon modes + 1 magnon mode with all pairwise couplings (GHz).

    ``photon_coupling_ghz`` is the symmetric photon-photon coupling matrix
    (zero diagonal); ``magnon_coupling_ghz[i]`` couples photon mode i to the
    magnon.  Mode index N (the last one) is always the magnon.
    """

    photon_freq_ghz: np.ndarray
    photon_coupling_ghz: np.ndarray
    magnon_freq_ghz: float
    magnon_coupling_ghz: np.ndarray
    photon_linewidth_ghz: np.ndarray
    magnon_linewidth_ghz: float = 0.0

    def __post_init__(self):
        freq = np.atleast_1d(np.asarray(self.photon_freq_ghz, dtype=float))
        coup = np.atleast_2d(np.asarray(self.photon_coupling_ghz, dtype=float))
        gmag = np.atleast_1d(np.asarray(self.magnon_coupling_ghz, dtype=float))
        lw = np.atleast_1d(np.asarray(self.photon_linewidth_ghz, dtype=float))
        n = freq.shape[0]
        if n < 1:
            raise InvalidArgumentError("at least one photon mode is required")
        if coup.shape != (n, n):
            raise InvalidArgumentError(f"photon coupling must be {n}x{n}, got {coup.shape}")
        if gmag.shape != (n,) or lw.shape != (n,):
            raise InvalidArgumentError(
                "photon_freq, magnon_coupling and photon_linewidth lengths must match")
        scale = max(1.0, float(np.abs(coup).max(initial=0.0)))
        if np.abs(coup - coup.T).max(initial=0.0) > 1e-12 * scale:
            raise InvalidArgumentError("photon coupling matrix must be symmetric")
        if np.any(coup.diagonal() != 0.0):
            raise InvalidArgumentError("photon coupling diagonal must be zero")
        if np.any(freq <= 0.0) or self.magnon_freq_ghz <= 0.0:
            raise InvalidArgumentError("all mode frequencies must be positive")
        if np.any(lw < 0.0) or self.magnon_linewidth_ghz < 0.0:
            raise InvalidArgumentError("linewidths must be nonnegative")
        for arr in (freq, coup, gmag, lw):
            arr.flags.writeable = False
        object.__setattr__(self, "photon_freq_ghz", freq)
        object.__setattr__(self, "photon_coupling_ghz", coup)
        object.__setattr__(self, "magnon_coupling_ghz", gmag)
        object.__setattr__(self, "photon_linewidth_ghz", lw)
        object.__setattr__(self, "magnon_freq_ghz", float(self.magnon_freq_ghz))
        object.__setattr__(self, "magnon_linewidth_ghz", float(self.magnon_linewidth_ghz))

    @property
    def n_photon(self) -> int:
        return self.photon_freq_ghz.shape[0]

    @property
    def n_modes(self) -> int:
        return self.n_photon + 1

    @property
    def mode_frequencies_ghz(self) -> np.ndarray:
        return np.append(self.photon_freq_ghz, self.magnon_freq_ghz)

    @property
    def mode_linewidths_ghz(self) -> np.ndarray:
        return np.append(self.photon_linewidth_ghz, self.magnon_linewidth_ghz)

    def coupling_matrix(self) -> np.ndarray:
        """(N+1)x(N+1) symmetric coupling matrix, magnon last."""
        n = self.n_modes
        lam = np.zeros((n, n))
        lam[:-1, :-1] = self.photon_coupling_ghz
        lam[:-1, -1] = self.magnon_coupling_ghz
        lam[-1, :-1] = self.magnon_coupling_ghz
        return lam

    def with_magnon_freq(self, omega_m_ghz: float) -> "HybridModel":
        return replace(self, magnon_freq_ghz=float(omega_m_ghz))


@dataclass(frozen=True)
class PolaritonSet:
    """Normal-mode frequencies plus per-branch composition fractions.

    ``fractions[k, i]`` is the weight of bare mode i (photons first, magnon
    last) in branch k; rows are nonnegative and sum to 1.
    """

    frequencies_ghz: np.ndarray
    fractions: np.ndarray

    def __post_init__(self):
        freq = np.atleast_1d(np.asarray(self.frequencies_ghz, dtype=float))
        frac = np.atleast_2d(np.asarray(self.fractions, dtype=float))
        if frac.shape != (freq.shape[0], frac.shape[1]):
            raise InvalidArgumentError("fractions must have one row per branch")
        freq.flags.writeable = False
        frac.flags.writeable = False
        object.__setattr__(self, "frequencies_ghz", freq)
        object.__setattr__(self, "fractions", frac)

    @property
    def n_branches(self) -> int:
        return self.frequencies_ghz.shape[0]

    @property
    def magnon_fraction(self) -> np.ndarray:
        return self.fractions[:, -1]


@dataclass(frozen=True)
class BranchSet:
    """Polariton branches sampled on a strictly increasing field grid.

    ``freqs[p]`` holds the ascending branch frequencies at ``field_t[p]`` and
    ``fracs[p]`` their bare-mode fractions (laid out as
    :attr:`PolaritonSet.fractions`); both are NaN where ``stable[p]`` is
    False.  The arrays are read-only and the accessors return them or views
    of them.
    """

    field_t: np.ndarray
    freqs: np.ndarray
    fracs: np.ndarray
    stable: np.ndarray

    def __post_init__(self):
        field = np.atleast_1d(np.asarray(self.field_t, dtype=float))
        freqs = np.asarray(self.freqs, dtype=float)
        fracs = np.asarray(self.fracs, dtype=float)
        stable = np.asarray(self.stable, dtype=bool)
        if field.ndim != 1 or field.size == 0:
            raise InvalidArgumentError("field grid must be nonempty")
        if field.size > 1 and np.any(np.diff(field) <= 0.0):
            raise InvalidArgumentError("field grid must be strictly increasing")
        m = field.size
        nb = freqs.shape[-1] if freqs.ndim == 2 else -1
        if freqs.shape != (m, nb) or fracs.shape != (m, nb, nb) or stable.shape != (m,):
            raise InvalidArgumentError(
                f"branch arrays must be (n_field, n_branch), (n_field, n_branch, n_branch) "
                f"and (n_field,) for {m} fields, got {freqs.shape}, {fracs.shape}, "
                f"{stable.shape}")
        for name, arr in (("field_t", field), ("freqs", freqs), ("fracs", fracs),
                          ("stable", stable)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_branches(self) -> int:
        return self.freqs.shape[1]

    @property
    def stable_mask(self) -> np.ndarray:
        return self.stable

    def branch_frequencies(self) -> np.ndarray:
        """(n_field, n_branch) array, NaN at unstable points."""
        return self.freqs

    def magnon_fractions(self) -> np.ndarray:
        return self.fracs[:, :, -1]

    def to_csv(self, path) -> None:
        rows = [("field_t", "branch_index", "freq_ghz", "magnon_fraction", "stable")]
        for b, freqs, mags, ok in zip(self.field_t.tolist(), self.freqs.tolist(),
                                      self.magnon_fractions().tolist(), self.stable.tolist()):
            flag = "true" if ok else "false"
            rows += [(b, k, f, c, flag) for k, (f, c) in enumerate(zip(freqs, mags))]
        write_rows(path, rows)


def build_n4(omega_c_ghz: float, g_rl_ghz: float, g_ghz: float, omega_m_ghz: float,
             *, photon_linewidth_ghz=(0.0, 0.0),
             magnon_linewidth_ghz: float = 0.0) -> HybridModel:
    """Doublet cavity model: two photon modes at ``omega_c`` mixed by
    ``g_rl``, with the magnon coupled to mode 0 only (mode 1 stays dark)."""
    return HybridModel(
        photon_freq_ghz=np.array([omega_c_ghz, omega_c_ghz]),
        photon_coupling_ghz=np.array([[0.0, g_rl_ghz], [g_rl_ghz, 0.0]]),
        magnon_freq_ghz=omega_m_ghz,
        magnon_coupling_ghz=np.array([g_ghz, 0.0]),
        photon_linewidth_ghz=np.asarray(photon_linewidth_ghz, dtype=float),
        magnon_linewidth_ghz=magnon_linewidth_ghz,
    )


def build_n8(omega_c1_ghz: float, omega_c2_ghz: float, omega_c3_ghz: float,
             g1_ghz: float, g2_ghz: float, g3_ghz: float, omega_m_ghz: float,
             *, photon_linewidth_ghz=(0.0, 0.0, 0.0),
             magnon_linewidth_ghz: float = 0.0) -> HybridModel:
    """Three uncoupled photon modes, each coupled to the one magnon mode."""
    return HybridModel(
        photon_freq_ghz=np.array([omega_c1_ghz, omega_c2_ghz, omega_c3_ghz]),
        photon_coupling_ghz=np.zeros((3, 3)),
        magnon_freq_ghz=omega_m_ghz,
        magnon_coupling_ghz=np.array([g1_ghz, g2_ghz, g3_ghz]),
        photon_linewidth_ghz=np.asarray(photon_linewidth_ghz, dtype=float),
        magnon_linewidth_ghz=magnon_linewidth_ghz,
    )


# ---------------------------------------------------------------------------
# normal-mode machinery
# ---------------------------------------------------------------------------

def _normal_modes(omega: np.ndarray, lam: np.ndarray):
    """Exact normal modes for a stack of bare-frequency rows.

    ``omega`` is (m, n): the bare mode frequencies at each of m points, all
    sharing the symmetric (n, n) coupling matrix ``lam``.  Returns
    (freqs, fracs, vecs, stable): freqs (m, n) ascending per point, fracs
    (m, n, n) with ``fracs[p, k, i]`` the weight of bare mode i in branch k,
    vecs (m, n, n) with ``vecs[p, k]`` the unit eigenvector e_k of
    S = Omega^1/2 (Omega + 2 Lambda) Omega^1/2 that branch k comes from, and
    the boolean mask of points whose bare frequencies are all positive and
    finite, whose S is finite and positive definite and whose bare-mode
    weights are finite.  Unstable points are NaN in freqs, fracs and vecs,
    never raised; a stable point's fractions are finite, nonnegative and sum
    to 1.
    """
    m, n = omega.shape
    freqs = np.full((m, n), np.nan)
    fracs = np.full((m, n, n), np.nan)
    evecs = np.full((m, n, n), np.nan)
    stable = (omega.min(axis=1) > 0.0) & (omega.max(axis=1) < np.inf)
    bare = omega[stable]
    root = np.sqrt(bare)
    with np.errstate(over="ignore", invalid="ignore"):
        vmat = 2.0 * lam + bare[:, :, None] * np.eye(n)
        smat = root[:, :, None] * vmat * root[:, None, :]
        if not np.isfinite(smat.sum()):   # an S past the float range counts as unstable
            smat[~np.isfinite(smat).all(axis=(1, 2))] = 0.0
    w2, vecs = np.linalg.eigh(smat)
    ok = w2[:, 0] > 0.0
    stable[stable] = ok
    w = np.sqrt(w2[ok])                               # (ms, branch k)
    freqs[stable] = w
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = bare[ok][:, :, None] / w[:, None, :]     # (ms, mode i, branch k)
        wgt = vecs[ok] ** 2 * (ratio + 1.0 / ratio)
        total = wgt.sum(axis=1, keepdims=True)
        fracs[stable] = np.transpose(wgt / total, (0, 2, 1))
    evecs[stable] = np.transpose(vecs[ok], (0, 2, 1))
    # total >= 2 where finite (unit e_k); a subnormal bare frequency can pass
    # the definiteness test with weights past the float range: unstable
    lost = np.flatnonzero(stable)[~np.isfinite(total).all(axis=(1, 2))]
    stable[lost] = False
    freqs[lost] = fracs[lost] = evecs[lost] = np.nan
    _tiebreak(freqs, fracs, evecs)
    return freqs, fracs, evecs, stable


def dynamical_matrix(model: HybridModel) -> np.ndarray:
    """eta @ M for the model: eigenvalues come in +/- frequency pairs.

    M = [[A, B], [B, A]] with A = diag(omega) + Lambda and B = Lambda is the
    quadratic form in (a, a^dag); kept as an independent check on the
    position-space solve.
    """
    lam = model.coupling_matrix()
    a_blk = np.diag(model.mode_frequencies_ghz) + lam
    return np.block([[a_blk, lam], [-lam, -a_blk]])


def _tiebreak(freqs: np.ndarray, fracs: np.ndarray, vecs: np.ndarray) -> None:
    """Order exactly/nearly degenerate branches by descending magnon weight.

    Works in place on a stack: freqs (m, n) ascending per point, fracs and
    the branch eigenvectors vecs (m, n, n), both indexed by branch first.
    Neighbouring branches closer than ``_TIE_RTOL`` (relative) form a tie
    group; only points holding a tie are reordered.
    """
    tie = freqs[:, 1:] - freqs[:, :-1] <= _TIE_RTOL * np.maximum(np.abs(freqs[:, 1:]), 1e-300)
    pts = np.nonzero(tie.any(axis=1))[0]
    if pts.size == 0:
        return
    group = np.zeros((pts.size, freqs.shape[1]), dtype=np.int64)
    np.cumsum(~tie[pts], axis=1, out=group[:, 1:])
    order = np.lexsort((-fracs[pts, :, -1], group), axis=-1)
    freqs[pts] = np.take_along_axis(freqs[pts], order, axis=1)
    fracs[pts] = np.take_along_axis(fracs[pts], order[:, :, None], axis=1)
    vecs[pts] = np.take_along_axis(vecs[pts], order[:, :, None], axis=1)


def _instability_diagnosis(model: HybridModel) -> InstabilityError:
    vmat = np.diag(model.mode_frequencies_ghz) + 2.0 * model.coupling_matrix()
    vmin = float(np.linalg.eigvalsh(vmat)[0])
    pairs = tuple(
        int(i) for i in range(model.n_photon)
        if model.photon_freq_ghz[i] * model.magnon_freq_ghz
        < 4.0 * model.magnon_coupling_ghz[i] ** 2
    )
    detail = f"; photon modes violating omega_i*omega_m > 4*g_i^2: {list(pairs)}" if pairs else ""
    return InstabilityError(
        "quadratic form is not positive definite "
        f"(min eigenvalue {vmin:.6g} GHz){detail}",
        min_eigenvalue=vmin, offending_pairs=pairs)


def eigen_full(model: HybridModel) -> PolaritonSet:
    """Exact normal modes of the full Hamiltonian, counter-rotating terms included.

    Raises :class:`InstabilityError` with a diagnosis when the quadratic form
    is not positive definite (for one photon mode: omega_c*omega_m < 4 g**2).
    """
    freqs, fracs, _, stable = _normal_modes(model.mode_frequencies_ghz[None],
                                            model.coupling_matrix())
    if not stable[0]:
        raise _instability_diagnosis(model)
    return PolaritonSet(freqs[0], fracs[0])


def eigen_rwa(model: HybridModel) -> PolaritonSet:
    """Normal modes with counter-rotating terms dropped.

    Plain Hermitian eigenproblem of the single-excitation block; always
    solvable, so this is the natural comparison point for quantifying
    counter-rotating (Bloch-Siegert type) shifts.
    """
    h = np.diag(model.mode_frequencies_ghz) + model.coupling_matrix()
    evals, evecs = np.linalg.eigh(h)
    freqs, fracs, vecs = evals[None], (evecs ** 2).T[None], evecs.T[None]
    _tiebreak(freqs, fracs, vecs)
    return PolaritonSet(freqs[0], fracs[0])


def two_mode_exact(omega_c_ghz: float, omega_m_ghz: float, g_ghz: float) -> np.ndarray:
    """Closed-form branch pair for one photon mode + magnon.

    Roots of  W**4 - (wc**2 + wm**2) W**2 + wc**2 wm**2 - 4 g**2 wc wm = 0.
    """
    s = omega_c_ghz ** 2 + omega_m_ghz ** 2
    p = omega_c_ghz ** 2 * omega_m_ghz ** 2 - 4.0 * g_ghz ** 2 * omega_c_ghz * omega_m_ghz
    disc = np.sqrt(0.25 * s * s - p)
    lo, hi = 0.5 * s - disc, 0.5 * s + disc
    if lo <= 0.0:
        raise InstabilityError(
            f"two-mode form unstable: omega_c*omega_m = {omega_c_ghz * omega_m_ghz:.6g} "
            f"< 4 g^2 = {4.0 * g_ghz ** 2:.6g}")
    return np.array([np.sqrt(lo), np.sqrt(hi)])


def fock_oracle(model: HybridModel, n_max: int) -> np.ndarray:
    """Single-polariton transition frequencies from a truncated Fock basis.

    Independent brute-force check on :func:`eigen_full`: the Hamiltonian is
    assembled in the product Fock basis and restricted to the states with at
    most n_max quanta in total (the excitation-number-restricted space).
    Because every term changes total occupation by 0 or +/-2, parity is
    conserved; each parity sector is solved with one Lanczos run.  The ground
    state lives in the even sector and the single-polariton states are the
    lowest odd-sector levels.  The odd levels kept are those actually
    connected to the ground state by a (a_i + a_i^dag) matrix element, which
    filters out three-polariton states.

    Returns the N+1 transition energies sorted ascending, converging to
    ``eigen_full(model).frequencies_ghz`` as n_max grows.
    """
    import scipy.sparse as sparse
    from scipy.sparse.linalg import eigsh

    if n_max < 4:
        raise InvalidArgumentError("n_max must be at least 4")
    n_modes = model.n_modes
    dim = (n_max + 1) ** n_modes
    if dim > 1_000_000:
        raise ResourceLimitError(
            f"Fock basis of dimension {dim} exceeds the 1e6 limit")
    d = n_max + 1
    lower = sparse.diags(np.sqrt(np.arange(1.0, d)), 1, format="csr")
    xop = (lower + lower.T).tocsr()
    nop = sparse.diags(np.arange(d, dtype=float), 0, format="csr")
    ident = sparse.identity(d, format="csr")

    def embed(op, j):
        out = None
        for k in range(n_modes):
            factor = op if k == j else ident
            out = factor if out is None else sparse.kron(out, factor, format="csr")
        return out

    omega = model.mode_frequencies_ghz
    lam = model.coupling_matrix()
    xs = [embed(xop, j) for j in range(n_modes)]
    ham = omega[0] * embed(nop, 0)
    for j in range(1, n_modes):
        ham = ham + omega[j] * embed(nop, j)
    for i in range(n_modes):
        for j in range(i + 1, n_modes):
            if lam[i, j] != 0.0:
                ham = ham + lam[i, j] * (xs[i] @ xs[j])
    ham = ham.tocsr()

    idx = np.arange(dim)
    total_occ = np.zeros(dim, dtype=np.int64)
    for j in range(n_modes):
        stride = d ** (n_modes - 1 - j)
        total_occ += (idx // stride) % d
    kept = total_occ <= n_max
    even = np.nonzero(kept & (total_occ % 2 == 0))[0]
    odd = np.nonzero(kept & (total_occ % 2 == 1))[0]

    def lowest(sector, k):
        h = ham[sector][:, sector]
        v0 = np.full(sector.size, 1.0 / np.sqrt(sector.size))
        ev, vec = eigsh(h, k=k, which="SA", v0=v0, ncv=min(max(48, 4 * k), sector.size),
                        tol=1e-10)
        order = np.argsort(ev)
        return ev[order], vec[:, order]

    ev_e, vec_e = lowest(even, 1)
    ev_o, vec_o = lowest(odd, min(n_modes + 4, odd.size - 2))
    e0 = ev_e[0]
    gs = np.zeros(dim)
    gs[even] = vec_e[:, 0]

    scores = np.zeros(ev_o.shape[0])
    for x in xs:
        amp = vec_o.T @ (x @ gs)[odd]
        scores += amp ** 2
    keep = np.nonzero(scores > 1e-8 * scores.max())[0]
    if keep.size < n_modes:
        raise ResourceLimitError(
            "could not isolate all single-polariton lines; increase n_max")
    trans = np.sort(ev_o[keep[:n_modes]] - e0)
    return trans


def sweep(model: HybridModel, magnon: MagnonMode, fields_t) -> BranchSet:
    """Polariton branches versus applied field.

    At each field the magnon frequency follows ``magnon``'s linear law and
    the full Hamiltonian is rediagonalised, all fields in one batched solve.
    Unstable points (including a zero magnon frequency at the field offset)
    are flagged with ``stable=False`` and NaN frequencies rather than dropped.
    """
    fields = np.atleast_1d(np.asarray(fields_t, dtype=float))
    if fields.size == 0:
        raise InvalidArgumentError("field grid must be nonempty")
    if fields.size > 1 and np.any(np.diff(fields) <= 0.0):
        raise InvalidArgumentError("field grid must be strictly increasing")
    omega_m = np.atleast_1d(np.asarray(magnon_frequency(magnon, fields), dtype=float))
    photons = np.broadcast_to(model.photon_freq_ghz, (fields.size, model.n_photon))
    freqs, fracs, _, stable = _normal_modes(np.column_stack((photons, omega_m)),
                                            model.coupling_matrix())
    return BranchSet(fields, freqs, fracs, stable)


def min_gap(branches: BranchSet, i: int, j: int) -> tuple[float, float]:
    """Minimum of branch_j - branch_i over the grid and the field where it occurs."""
    nb = branches.n_branches
    if not (0 <= i < nb and 0 <= j < nb):
        raise InvalidArgumentError(f"branch indices must be in [0, {nb})")
    gaps = branches.freqs[:, j] - branches.freqs[:, i]
    ok = np.isfinite(gaps)
    if not ok.any():
        raise InvalidArgumentError("no stable sweep points to take a gap over")
    k = np.nonzero(ok)[0][np.argmin(gaps[ok])]
    return float(gaps[k]), float(branches.field_t[k])
