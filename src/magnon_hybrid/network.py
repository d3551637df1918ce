"""Lumped-oscillator model of multi-post reentrant cavities.

An N-post cavity is treated as N coupled harmonic oscillators.  The mode
frequencies are the square roots of the eigenvalues of

    M = diag(post_freq**2) + coupling

so the coupling matrix acts on the squared-frequency eigenproblem and no
circuit (L/C) values are needed.  Eigenvectors give the relative post
currents of each mode, which are summarised as arrow labels such as
"↑0↓0" for quick comparison of mode symmetry classes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, NonPhysicalError

UP = "↑"
DOWN = "↓"
ZERO = "0"

#: |component| below this fraction of the largest one is labelled "0".
PATTERN_ZERO_TOL = 0.05

#: relative frequency tolerance used to group modes into degenerate clusters
DEGENERACY_RTOL = 1e-9

# threshold (relative to the largest component) for "first nonzero entry"
_SIGN_EPS = 1e-9


@dataclass(frozen=True)
class CavityNetwork:
    """Bare post frequencies (GHz) plus a symmetric inter-post coupling matrix.

    The coupling entries are GHz^2-scaled coefficients entering the
    squared-frequency eigenproblem; the diagonal must be exactly zero.
    """

    post_freq_ghz: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        freq = np.atleast_1d(np.asarray(self.post_freq_ghz, dtype=float))
        coup = np.atleast_2d(np.asarray(self.coupling, dtype=float))
        n = freq.shape[0]
        if freq.ndim != 1 or n < 1:
            raise InvalidArgumentError("post_freq_ghz must be a nonempty 1D sequence")
        if coup.shape != (n, n):
            raise InvalidArgumentError(
                f"coupling must be {n}x{n} to match {n} posts, got {coup.shape}")
        if np.any(freq <= 0.0):
            raise InvalidArgumentError("all post frequencies must be strictly positive")
        scale = max(1.0, float(np.abs(coup).max(initial=0.0)))
        if np.abs(coup - coup.T).max(initial=0.0) > 1e-12 * scale:
            raise InvalidArgumentError("coupling matrix must be symmetric (1e-12 relative)")
        if np.any(coup.diagonal() != 0.0):
            raise InvalidArgumentError("coupling diagonal entries must be exactly zero")
        with np.errstate(over="ignore"):   # bounds every squared mode frequency
            gershgorin = freq ** 2 + np.abs(coup).sum(axis=1)
        if not np.isfinite(gershgorin).all():
            raise InvalidArgumentError("squared post frequencies plus couplings overflow")
        coup = 0.5 * (coup + coup.T)
        np.fill_diagonal(coup, 0.0)
        freq.flags.writeable = False
        coup.flags.writeable = False
        object.__setattr__(self, "post_freq_ghz", freq)
        object.__setattr__(self, "coupling", coup)

    @property
    def n_posts(self) -> int:
        return self.post_freq_ghz.shape[0]

    def to_dict(self) -> dict:
        return {
            "n_posts": self.n_posts,
            "post_freq_ghz": self.post_freq_ghz.tolist(),
            "coupling": self.coupling.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CavityNetwork":
        try:
            n = int(doc["n_posts"])
            freq = doc["post_freq_ghz"]
            coup = doc["coupling"]
        except (KeyError, TypeError) as exc:
            raise InvalidArgumentError(f"network document missing field: {exc}") from exc
        net = cls(post_freq_ghz=np.asarray(freq, dtype=float),
                  coupling=np.asarray(coup, dtype=float))
        if net.n_posts != n:
            raise InvalidArgumentError(
                f"n_posts={n} inconsistent with {net.n_posts} post frequencies")
        return net


@dataclass(frozen=True)
class CavityMode:
    """One network eigenmode: frequency, unit-norm current pattern, arrow label."""

    frequency_ghz: float
    pattern: np.ndarray
    label: str

    def __post_init__(self):
        pat = np.asarray(self.pattern, dtype=float)
        pat.flags.writeable = False
        object.__setattr__(self, "pattern", pat)
        if len(self.label) != pat.shape[0]:
            raise InvalidArgumentError("label length must equal the number of posts")

    def to_dict(self) -> dict:
        return {
            "frequency_ghz": self.frequency_ghz,
            "pattern": self.pattern.tolist(),
            "label": self.label,
        }


@dataclass(frozen=True)
class ModeSpectrum:
    """All modes of a network, ascending in frequency, plus adjacent gaps.

    ``fsr_ghz[k]`` is ``modes[k+1].frequency_ghz - modes[k].frequency_ghz``.
    ``degenerate_groups`` lists index tuples of modes sharing a frequency
    (within the grouping tolerance); members of a group are assigned the same
    representative frequency and are ordered lexicographically by label.
    """

    modes: tuple[CavityMode, ...]
    fsr_ghz: np.ndarray
    degenerate_groups: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        fsr = np.asarray(self.fsr_ghz, dtype=float)
        fsr.flags.writeable = False
        object.__setattr__(self, "fsr_ghz", fsr)

    @property
    def frequencies_ghz(self) -> np.ndarray:
        return np.array([m.frequency_ghz for m in self.modes])

    def to_dict(self) -> dict:
        groups = {i: gi for gi, grp in enumerate(self.degenerate_groups) for i in grp}
        return {
            "modes": [
                dict(m.to_dict(), degenerate_group=groups.get(i))
                for i, m in enumerate(self.modes)
            ],
            "fsr_ghz": self.fsr_ghz.tolist(),
        }


def _sign_fixed(v: np.ndarray) -> np.ndarray:
    big = np.abs(v).max()
    if big == 0.0:
        return v
    nz = np.nonzero(np.abs(v) > _SIGN_EPS * big)[0]
    if nz.size and v[nz[0]] < 0.0:
        return -v
    return v


def pattern_label(pattern: np.ndarray, zero_tol: float = PATTERN_ZERO_TOL) -> str:
    """Arrow label over {↑, ↓, 0} for a current pattern."""
    big = np.abs(pattern).max()
    out = []
    for c in pattern:
        if big == 0.0 or abs(c) < zero_tol * big:
            out.append(ZERO)
        else:
            out.append(UP if c > 0.0 else DOWN)
    return "".join(out)


def _degenerate_gauge(vecs: np.ndarray) -> np.ndarray:
    """Fix the basis of a degenerate eigenspace.

    Successively projects the post basis vectors e_0, e_1, ... onto the
    span, keeping each new direction orthogonal to the ones already chosen.
    The first resulting vector therefore concentrates as much weight as the
    subspace allows on post 0, which pins the otherwise free doublet gauge.
    """
    n, d = vecs.shape
    chosen: list[np.ndarray] = []
    for t in range(n):
        w = vecs @ vecs[t, :]
        for b in chosen:
            w = w - (b @ w) * b
        norm = np.linalg.norm(w)
        if norm > 1e-8:
            chosen.append(w / norm)
        if len(chosen) == d:
            break
    if len(chosen) < d:  # pathological; keep the raw eigenvectors
        return vecs
    return np.column_stack(chosen)


def solve_modes(network: CavityNetwork, *,
                pattern_zero_tol: float = PATTERN_ZERO_TOL) -> ModeSpectrum:
    """Diagonalise the squared-frequency eigenproblem of a post network.

    Returns exactly ``n_posts`` modes sorted ascending in frequency, ties
    resolved lexicographically on the arrow label.  Raises
    :class:`NonPhysicalError` if any eigenvalue is nonpositive (the network
    is overcoupled and has no real mode there).
    """
    m = np.diag(network.post_freq_ghz ** 2) + network.coupling
    evals, evecs = np.linalg.eigh(m)
    if evals[0] <= 0.0:
        raise NonPhysicalError(
            f"overcoupled network: smallest squared-frequency eigenvalue {evals[0]:.6g} <= 0")
    freq = np.sqrt(evals)

    # group into degenerate clusters (eigh output is ascending)
    groups: list[list[int]] = [[0]]
    for i in range(1, freq.size):
        if freq[i] - freq[groups[-1][0]] <= DEGENERACY_RTOL * freq[i]:
            groups[-1].append(i)
        else:
            groups.append([i])

    modes: list[CavityMode] = []
    out_groups: list[tuple[int, ...]] = []
    for grp in groups:
        if len(grp) == 1:
            v = _sign_fixed(evecs[:, grp[0]])
            modes.append(CavityMode(float(freq[grp[0]]), v, pattern_label(v, pattern_zero_tol)))
            continue
        rep = float(np.mean(freq[grp]))
        basis = _degenerate_gauge(evecs[:, grp])
        members = []
        for k in range(basis.shape[1]):
            v = _sign_fixed(basis[:, k])
            members.append(CavityMode(rep, v, pattern_label(v, pattern_zero_tol)))
        members.sort(key=lambda mode: mode.label)
        out_groups.append(tuple(range(len(modes), len(modes) + len(members))))
        modes.extend(members)

    freqs = np.array([md.frequency_ghz for md in modes])
    fsr = np.maximum(np.diff(freqs), 0.0)
    return ModeSpectrum(tuple(modes), fsr, tuple(out_groups))


def ring_network(n: int, omega0_ghz: float, kappa: float) -> CavityNetwork:
    """Circulant network of ``n`` identical posts with nearest-neighbour coupling."""
    if int(n) != n or n < 2:
        raise InvalidArgumentError("ring_network needs an integer n >= 2")
    n = int(n)
    coup = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        coup[i, j] = kappa
        coup[j, i] = kappa
    return CavityNetwork(np.full(n, float(omega0_ghz)), coup)


def double_chain_network(omega0_ghz: float, kappa_chain: float,
                         kappa_cross: float) -> CavityNetwork:
    """Two interleaved open 4-post chains with a weak chain-to-chain bridge.

    Posts 0..3 form chain alpha, posts 4..7 chain beta.  ``kappa_chain``
    couples nearest neighbours along each chain; ``kappa_cross`` couples
    posts adjacent in the interleaved ring order a0 b0 a1 b1 a2 b2 a3 b3.
    At ``kappa_cross = 0`` the two chains are exact copies and the spectrum
    is doubly degenerate throughout.
    """
    coup = np.zeros((8, 8))
    for base in (0, 4):
        for i in range(3):
            coup[base + i, base + i + 1] = kappa_chain
            coup[base + i + 1, base + i] = kappa_chain
    # ring adjacency between the interleaved chains
    for i in range(4):
        a, b = i, 4 + i
        a_next = (i + 1) % 4
        for p, q in ((a, b), (b, a_next)):
            coup[p, q] = kappa_cross
            coup[q, p] = kappa_cross
    return CavityNetwork(np.full(8, float(omega0_ghz)), coup)


def wgm_order(mode: CavityMode) -> int:
    """Node count of the mode's label read cyclically around the ring.

    Counts sign changes between ↑ and ↓ around the ring, with "0" posts
    inheriting the sign of the previous active post.  The returned node
    count doubles as the order label of a whispering-gallery doublet (the
    two-node doublet is order 2 in that labelling).  An all-zero label has
    zero nodes.
    """
    # a "0" post copies its neighbour, so only changes between the active
    # posts, taken cyclically, are nodes
    active = mode.label.replace(ZERO, "")
    return sum(a != b for a, b in zip(active, active[1:] + active[:1]))


def perturb_symmetry(network: CavityNetwork, epsilon: float) -> CavityNetwork:
    """Detune post 0 by a relative ``epsilon``, breaking the ring symmetry."""
    if abs(epsilon) >= 0.1:
        raise InvalidArgumentError("symmetry perturbation must satisfy |epsilon| < 0.1")
    freq = network.post_freq_ghz.copy()
    freq[0] *= 1.0 + epsilon
    return replace(network, post_freq_ghz=freq)
