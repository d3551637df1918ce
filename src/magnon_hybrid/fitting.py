"""Branch fitting by damped least squares, plus coupling-regime reports.

The fit minimises sum_k min_branch |f_k - branch(B_k)|^2: every data point
is re-assigned to its nearest model branch at each iteration, so unlabeled
ridge data can be fitted directly.  The optimiser is a small
Levenberg-Marquardt loop.  Its Jacobian is analytic: the branches are the
eigenpairs of the position-space matrix S of :mod:`~magnon_hybrid.hamiltonian`,
so Hellmann-Feynman gives every branch derivative from the eigenvectors of
the solve that produced the residuals, and an iteration costs only its trial
solves plus one Jacobian assembly at the step it accepts.  Where a picked
branch is degenerate with a neighbour the derivative is not defined; that
Jacobian is taken by central differences instead and counted in
:attr:`FitResult.fd_jacobians`.  Trial steps that land on a
Bogoliubov-unstable model are rejected outright (treated as infinite cost)
instead of crashing the iteration.

Regime flags follow the usual comparisons: strong means the coupling beats
both loss rates, ultrastrong means g/omega exceeds a threshold (0.1 by
default), superstrong means g >= the relevant free spectral range.  Printed
coupling values are evaluated under two unit readings, as-printed and
halved, because a bare "g = x GHz" leaves the 2*pi/pi convention open.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .hamiltonian import HybridModel, _normal_modes
from .magnon import MagnonMode
from .spectra import RidgePoints

MODEL_KINDS = ("n4", "n8", "generic")

_MAGNON_PARAMS = ("gyro", "field_offset")


#: photon-mode count each fixed-layout model kind needs in its template
_KIND_PHOTONS = {"n4": 2, "n8": 3}

#: relative gap to a neighbouring branch below which a picked branch counts as
#: degenerate: there the eigenvector roundoff in the analytic slope (about
#: machine epsilon over the gap, 1e-10 at 1e-6) reaches the error of the
#: central differences, and at an exact tie the slope depends on an arbitrary
#: basis of the degenerate pair
_DEGENERATE_RTOL = 1e-6


def _param_routes(kind: str, n_photon: int) -> dict:
    """Where each model parameter sits in the bare-mode description.

    Maps every parameter name except gyro and field_offset to
    (rows, pairs): the bare frequencies it sets (mode indices, magnon last at
    ``n_photon``) and the symmetric coupling pairs (i, j) it sets, laid out
    as :meth:`HybridModel.coupling_matrix`.  The magnon parameters act
    through omega_m = gyro * (B - field_offset) instead.
    """
    n = n_photon
    if kind == "n4":
        return {"omega_c": ((0, 1), ()), "g_rl": ((), ((0, 1),)), "g": ((), ((0, n),))}
    if kind == "n8":
        routes = {f"omega_c{i + 1}": ((i,), ()) for i in range(3)}
        routes.update({f"g{i + 1}": ((), ((i, n),)) for i in range(3)})
        return routes
    routes = {f"photon_freq_{i}": ((i,), ()) for i in range(n)}
    routes.update({f"photon_coupling_{i}_{j}": ((), ((i, j),))
                   for i in range(n) for j in range(i + 1, n)})
    routes.update({f"magnon_coupling_{i}": ((), ((i, n),)) for i in range(n)})
    return routes


def param_names(kind: str, n_photon: int) -> tuple[str, ...]:
    """Every parameter name a fit of ``kind`` accepts, gyro and field_offset last."""
    return tuple(_param_routes(kind, n_photon)) + _MAGNON_PARAMS


def default_free(kind: str) -> tuple[str, ...]:
    """The parameters a fit varies when none are named: every model parameter
    of the fixed-layout kinds (n4, n8), none for the generic model."""
    return tuple(_param_routes(kind, _KIND_PHOTONS[kind])) if kind in _KIND_PHOTONS else ()


def start_values(kind: str, model: HybridModel, magnon: MagnonMode) -> dict[str, float]:
    """The value of every parameter of ``kind`` in ``model`` and ``magnon``."""
    lam = model.coupling_matrix()
    out = {name: float(model.photon_freq_ghz[rows[0]] if rows else lam[pairs[0]])
           for name, (rows, pairs) in _param_routes(kind, model.n_photon).items()}
    out.update(gyro=magnon.gyro_ghz_per_t, field_offset=magnon.field_offset_t)
    return out


@dataclass
class FitProblem:
    """Branch samples plus the parameterisation to fit them with.

    ``template``/``magnon`` provide every fixed value; ``free`` names the
    parameters the optimiser may vary, each with an initial value and
    optional closed bounds.  Valid names depend on ``model_kind``: the
    doublet model exposes (omega_c, g_rl, g), the triple-mode model
    (omega_c1..3, g1..3), the generic model (photon_freq_i,
    photon_coupling_i_j, magnon_coupling_i); all kinds accept gyro and
    field_offset.
    """

    field_t: np.ndarray
    freq_ghz: np.ndarray
    model_kind: str
    template: HybridModel
    magnon: MagnonMode
    free: tuple[str, ...]
    initial: dict[str, float]
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        self.field_t = np.atleast_1d(np.asarray(self.field_t, dtype=float))
        self.freq_ghz = np.atleast_1d(np.asarray(self.freq_ghz, dtype=float))
        if self.field_t.shape != self.freq_ghz.shape:
            raise InvalidArgumentError("field and frequency data must have equal length")
        if self.model_kind not in MODEL_KINDS:
            raise InvalidArgumentError(f"model_kind must be one of {MODEL_KINDS}")
        n_photon = _KIND_PHOTONS.get(self.model_kind, self.template.n_photon)
        if self.template.n_photon != n_photon:
            raise InvalidArgumentError(
                f"a {self.model_kind!r} fit needs a template with {n_photon} photon modes")
        valid = set(param_names(self.model_kind, n_photon))
        self.free = tuple(self.free)
        if len(set(self.free)) != len(self.free):
            raise InvalidArgumentError("free parameters must not repeat")
        for name, value in self.initial.items():
            if not np.isfinite(value):
                raise InvalidArgumentError(f"initial value of {name!r} must be finite")
        for name in self.free:
            if name not in valid:
                raise InvalidArgumentError(
                    f"unknown free parameter {name!r} for kind {self.model_kind!r}")
            if name not in self.initial:
                raise InvalidArgumentError(f"free parameter {name!r} has no initial value")
            lo, hi = self.bounds.get(name, (-np.inf, np.inf))
            if not lo <= self.initial[name] <= hi:
                raise InvalidArgumentError(
                    f"initial value of {name!r} lies outside its bounds")

    @classmethod
    def from_ridge_points(cls, points: RidgePoints, **kwargs) -> "FitProblem":
        order = np.lexsort((points.freq_ghz, points.field_t))
        return cls(field_t=points.field_t[order], freq_ghz=points.freq_ghz[order],
                   **kwargs)

    def n_free(self) -> int:
        return len(self.free)


@dataclass
class FitResult:
    """Optimum, residual scale, covariance and convergence bookkeeping."""

    param_names: tuple[str, ...]
    params: dict[str, float]
    residual_rms: float
    covariance: np.ndarray
    n_iter: int
    converged: bool
    #: Jacobians taken by central differences because a picked branch was
    #: degenerate with a neighbour (the others come from the branch solve)
    fd_jacobians: int = 0
    #: data minus nearest branch at the optimum, in the problem's point
    #: order; not serialised
    residuals: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "params": {k: float(v) for k, v in self.params.items()},
            "residual_rms_ghz": float(self.residual_rms),
            "covariance": np.asarray(self.covariance).tolist(),
            "covariance_order": list(self.param_names),
            "n_iter": int(self.n_iter),
            "converged": bool(self.converged),
            "fd_jacobians": int(self.fd_jacobians),
        }


def _bare_modes(problem: FitProblem, params: dict):
    """Photon frequencies, (n+1)x(n+1) coupling matrix and magnon at ``params``.

    Values not in ``params`` come from ``problem.initial``, then from the
    template.  Raises InvalidArgumentError for a nonpositive gyro.
    """
    p = dict(problem.initial, **params)
    mag = problem.magnon
    magnon = MagnonMode(p.get("gyro", mag.gyro_ghz_per_t),
                        p.get("field_offset", mag.field_offset_t), mag.linewidth_ghz)
    freqs = problem.template.photon_freq_ghz.copy()
    lam = problem.template.coupling_matrix()
    for name, (rows, pairs) in _param_routes(problem.model_kind, freqs.size).items():
        if name in p:
            freqs[list(rows)] = p[name]
            for i, j in pairs:
                lam[i, j] = lam[j, i] = p[name]
    return freqs, lam, magnon


def _solve(problem: FitProblem, params: dict):
    """Normal modes at ``params``, one row per distinct data field.

    Returns the bare frequencies omega, then freqs, vecs and stable as
    :func:`_normal_modes` gives them, the row of each data point, and the
    magnon.
    """
    photon_freqs, lam, magnon = _bare_modes(problem, params)
    fields, inverse = np.unique(problem.field_t, return_inverse=True)
    omega_m = magnon.gyro_ghz_per_t * (fields - magnon.field_offset_t)
    omega = np.column_stack(
        (np.broadcast_to(photon_freqs, (fields.size, photon_freqs.size)), omega_m))
    freqs, _, vecs, stable = _normal_modes(omega, lam)
    return omega, freqs, vecs, stable, inverse, magnon


def stable_points(problem: FitProblem, params: dict) -> np.ndarray:
    """Mask of the data points at which the model at ``params`` is stable."""
    *_, stable, inverse, _ = _solve(problem, params)
    return stable[inverse]


def model_at(problem: FitProblem, params: dict) -> tuple[HybridModel, MagnonMode]:
    """The (model, magnon) pair at ``params``, such as the optimum
    ``FitResult.params`` or the start ``problem.initial``."""
    t = problem.template
    freqs, lam, magnon = _bare_modes(problem, params)
    model = HybridModel(
        photon_freq_ghz=freqs, photon_coupling_ghz=lam[:-1, :-1],
        magnon_freq_ghz=t.magnon_freq_ghz, magnon_coupling_ghz=lam[:-1, -1],
        photon_linewidth_ghz=t.photon_linewidth_ghz,
        magnon_linewidth_ghz=t.magnon_linewidth_ghz)
    return model, magnon


def _residuals(problem: FitProblem, theta: np.ndarray):
    """Nearest-branch residuals from one normal-mode solve.

    Returns (r, picked): r = f - W_pick, each datum minus its nearest
    branch, and the solve and branch picks :func:`_branch_jacobian` takes
    to differentiate r at ``theta``.  Returns None if the trial model is
    invalid/unstable.
    """
    try:
        omega, freqs, vecs, stable, inverse, magnon = _solve(
            problem, dict(zip(problem.free, theta)))
    except InvalidArgumentError:
        return None
    if not stable.all():      # includes a nonpositive bare frequency
        return None
    det = problem.freq_ghz[:, None] - freqs[inverse]    # (n_data, n_branch)
    pick = np.argmin(np.abs(det), axis=1)
    r = det[np.arange(det.shape[0]), pick]
    return r, (omega, freqs, vecs, inverse, magnon, pick)


def _branch_jacobian(problem: FitProblem, picked) -> np.ndarray | None:
    """Analytic Jacobian dr/dtheta, shape (n_data, n_free), of the residuals
    :func:`_residuals` returned with ``picked``.

    Branch k is the square root of the eigenvalue W_k**2 of S = Omega^1/2
    (Omega + 2 Lambda) Omega^1/2 with unit eigenvector e_k, so by
    Hellmann-Feynman dW_k/domega_i = e_ik**2 (omega_i/W_k + W_k/omega_i) / 2
    and dW_k/dlambda_ij = 2 sqrt(omega_i omega_j) e_ik e_jk / W_k for a
    symmetric pair; gyro and field_offset enter through
    omega_m = gyro * (B - field_offset).  None when a picked branch lies
    within ``_DEGENERATE_RTOL`` of a neighbour, where the derivative is not
    defined.
    """
    omega, freqs, vecs, inverse, magnon, pick = picked
    # |diff|: the tie-break may leave tied branches out of order by < 1e-9
    apart = np.abs(np.diff(freqs, axis=1)) > _DEGENERATE_RTOL * freqs[:, 1:]
    isolated = np.ones(freqs.shape, dtype=bool)
    isolated[:, 1:] &= apart
    isolated[:, :-1] &= apart
    if not isolated[inverse, pick].all():
        return None
    w = freqs[inverse, pick]
    om = omega[inverse]
    e = vecs[inverse, pick]                          # (n_data, n_mode)
    dw_domega = 0.5 * e ** 2 * (om / w[:, None] + w[:, None] / om)
    se = np.sqrt(om) * e                             # dW/dlambda_ij = 2 se_i se_j / W
    n = problem.template.n_photon
    routes = _param_routes(problem.model_kind, n)
    jac = np.empty((w.size, len(problem.free)))
    for col, name in enumerate(problem.free):
        if name == "gyro":
            dw = dw_domega[:, n] * (problem.field_t - magnon.field_offset_t)
        elif name == "field_offset":
            dw = -magnon.gyro_ghz_per_t * dw_domega[:, n]
        else:
            freq_rows, pairs = routes[name]
            dw = dw_domega[:, list(freq_rows)].sum(axis=1)
            for i, j in pairs:
                dw = dw + 2.0 * se[:, i] * se[:, j] / w
        jac[:, col] = -dw
    return jac


def _jacobian(problem: FitProblem, theta: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of the residuals: the fallback at
    degenerate branches and the reference the analytic one is tested against."""
    def resid(t):
        out = _residuals(problem, t)
        return None if out is None else out[0]

    m, n = r0.shape[0], theta.shape[0]
    jac = np.zeros((m, n))
    for p in range(n):
        h = 1e-6 * max(abs(theta[p]), 1.0)
        tp = theta.copy()
        tp[p] += h
        tm = theta.copy()
        tm[p] -= h
        rp = resid(tp)
        rm = resid(tm)
        if rp is not None and rm is not None:
            jac[:, p] = (rp - rm) / (2.0 * h)
        elif rp is not None:
            jac[:, p] = (rp - r0) / h
        elif rm is not None:
            jac[:, p] = (r0 - rm) / h
    return jac


def fit(problem: FitProblem, *, max_iter: int = 500) -> FitResult:
    """Damped least squares over the free parameters.

    Convergence means the relative cost change of an accepted step fell
    below 1e-10 or the gradient infinity-norm below 1e-8
    (an exhausted damping search counts as a zero-change step).  After
    ``max_iter`` iterations the best point so far is returned with
    ``converged = False``; that is a reported outcome, not an exception.
    """
    n_data = problem.field_t.shape[0]
    n_par = problem.n_free()
    if n_par == 0:
        raise InvalidArgumentError("at least one free parameter is required")
    if n_data < 2 * n_par:
        raise InvalidArgumentError(
            f"need at least {2 * n_par} data points for {n_par} free parameters")
    theta = np.array([problem.initial[name] for name in problem.free], dtype=float)
    lo = np.array([problem.bounds.get(n, (-np.inf, np.inf))[0] for n in problem.free])
    hi = np.array([problem.bounds.get(n, (-np.inf, np.inf))[1] for n in problem.free])

    out = _residuals(problem, theta)
    if out is None:
        raise InvalidArgumentError("initial parameters give an invalid or unstable model")
    r, picked = out
    jac = _branch_jacobian(problem, picked)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    n_iter = 0
    fd_jacobians = 0
    for _ in range(max_iter):
        n_iter += 1
        if jac is None:
            jac = _jacobian(problem, theta, r)
            fd_jacobians += 1
        grad = jac.T @ r
        if np.abs(grad).max(initial=0.0) < 1e-8:
            converged = True
            break
        jtj = jac.T @ jac
        damp = np.diag(np.maximum(np.diag(jtj), 1e-12))
        accepted = False
        for _ in range(40):
            try:
                delta = np.linalg.solve(jtj + lam * damp, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = np.clip(theta + delta, lo, hi)
            out = _residuals(problem, trial)
            if out is None:                      # unstable trial: reject with penalty
                lam *= 10.0
                continue
            rt, picked = out
            ct = float(rt @ rt)
            if ct < cost:
                rel = (cost - ct) / max(cost, 1e-300)
                theta, r, cost = trial, rt, ct
                jac = _branch_jacobian(problem, picked)
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                if rel < 1e-10:
                    converged = True
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if not accepted:
            # no step improves the cost: the relative change is zero
            converged = True
            break
        if converged:
            break

    if jac is None:
        jac = _jacobian(problem, theta, r)
        fd_jacobians += 1
    jtj = jac.T @ jac
    dof = max(n_data - n_par, 1)
    sigma2 = cost / dof
    cov = sigma2 * np.linalg.pinv(jtj, hermitian=True)
    cov = 0.5 * (cov + cov.T)
    return FitResult(
        param_names=problem.free,
        params={name: float(v) for name, v in zip(problem.free, theta)},
        residual_rms=float(np.sqrt(cost / n_data)),
        covariance=cov,
        n_iter=n_iter,
        converged=converged,
        fd_jacobians=fd_jacobians,
        residuals=r,
    )


def residual_profile(problem: FitProblem, result: FitResult, param_name: str,
                     values) -> np.ndarray:
    """Cost along one parameter with the others pinned at the fit optimum.

    Parameter sets where the model is invalid or unstable get ``inf``.
    """
    if param_name not in problem.free:
        raise InvalidArgumentError(f"{param_name!r} is not a free parameter of the problem")
    values = np.atleast_1d(np.asarray(values, dtype=float))
    base = np.array([result.params[name] for name in problem.free])
    pidx = problem.free.index(param_name)
    costs = np.empty(values.shape[0])
    for i, v in enumerate(values):
        theta = base.copy()
        theta[pidx] = v
        out = _residuals(problem, theta)
        costs[i] = np.inf if out is None else float(out[0] @ out[0])
    return costs


# ---------------------------------------------------------------------------
# coupling-regime classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairRegime:
    """Comparison record for one photon mode / magnon pair under one reading."""

    mode_index: int
    coupling_ghz: float
    mode_freq_ghz: float
    fsr_ghz: float | None
    magnon_linewidth_ghz: float
    photon_linewidth_ghz: float
    strong: bool
    ultrastrong: bool
    superstrong: bool | None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RegimeReport:
    """Per-pair regime flags under both coupling-value readings.

    ``as_printed`` takes each coupling number at face value; ``halved``
    reads it as a value quoted over pi, i.e. an ordinary-frequency coupling
    of half the printed number.  Both are reported because bare coupling
    figures are routinely quoted in either convention.
    """

    as_printed: tuple[PairRegime, ...]
    halved: tuple[PairRegime, ...]
    ultrastrong_threshold: float

    def to_dict(self) -> dict:
        return {
            "ultrastrong_threshold": self.ultrastrong_threshold,
            "readings": {
                "as_printed": [p.to_dict() for p in self.as_printed],
                "halved": [p.to_dict() for p in self.halved],
            },
        }


def _pair_flags(g, omega, fsr, gamma, delta, threshold) -> tuple[bool, bool, "bool | None"]:
    strong = bool(g > gamma and g > delta)
    ultrastrong = bool(g / omega >= threshold)
    superstrong = None if fsr is None else bool(g >= fsr)
    return strong, ultrastrong, superstrong


def classify(couplings_ghz, mode_freq_ghz, fsr_ghz=None, *,
             magnon_linewidth_ghz: float = 0.0, photon_linewidth_ghz=0.0,
             ultrastrong_threshold: float = 0.1) -> RegimeReport:
    """Strong / ultrastrong / superstrong flags for each coupled pair.

    ``fsr_ghz`` may be a scalar applied to every pair, a per-mode sequence,
    or None, in which case nearest-neighbour spacings of ``mode_freq_ghz``
    are used (None again if only one mode is given, leaving the superstrong
    flag undecided).  The superstrong boundary is inclusive: g >= FSR.
    """
    g = np.atleast_1d(np.asarray(couplings_ghz, dtype=float))
    omega = np.atleast_1d(np.asarray(mode_freq_ghz, dtype=float))
    if g.shape != omega.shape:
        raise InvalidArgumentError("couplings and mode frequencies must align")
    if np.any(g < 0.0) or np.any(omega <= 0.0):
        raise InvalidArgumentError("couplings must be >= 0 and frequencies > 0")
    if magnon_linewidth_ghz < 0.0:
        raise InvalidArgumentError("magnon linewidth must be nonnegative")
    delta = np.broadcast_to(np.asarray(photon_linewidth_ghz, dtype=float), g.shape)
    if np.any(delta < 0.0):
        raise InvalidArgumentError("photon linewidths must be nonnegative")

    n = g.shape[0]
    if fsr_ghz is None:
        order = np.sort(omega)
        gaps = _neighbour_gaps(order)[np.searchsorted(order, omega)]
        fsr_list = [float(x) if n >= 2 else None for x in gaps]
    elif np.isscalar(fsr_ghz):
        fsr_list = [float(fsr_ghz)] * n
    else:
        fsr_list = [float(x) for x in np.asarray(fsr_ghz, dtype=float)]
        if len(fsr_list) != n:
            raise InvalidArgumentError("per-mode fsr list must match the mode count")

    readings = []
    for factor in (1.0, 0.5):
        entries = []
        for i in range(n):
            geff = factor * g[i]
            strong, ultra, sup = _pair_flags(
                geff, omega[i], fsr_list[i], magnon_linewidth_ghz, delta[i],
                ultrastrong_threshold)
            entries.append(PairRegime(
                mode_index=i, coupling_ghz=float(geff), mode_freq_ghz=float(omega[i]),
                fsr_ghz=fsr_list[i], magnon_linewidth_ghz=float(magnon_linewidth_ghz),
                photon_linewidth_ghz=float(delta[i]), strong=strong,
                ultrastrong=ultra, superstrong=sup))
        readings.append(tuple(entries))
    return RegimeReport(as_printed=readings[0], halved=readings[1],
                        ultrastrong_threshold=ultrastrong_threshold)


def photon_mode_spacing(model: HybridModel) -> np.ndarray:
    """Nearest-neighbour spacing of the photon-only normal modes.

    Gives the free spectral range seen by each photon mode once photon-photon
    coupling is resolved (so a coupled doublet reports its splitting, not
    zero).  Returns inf for a single-mode model.
    """
    freqs, _, _, stable = _normal_modes(model.photon_freq_ghz[None],
                                        model.photon_coupling_ghz)
    if not stable[0]:
        raise InvalidArgumentError("photon block is not positive definite")
    return _neighbour_gaps(freqs[0])


def _neighbour_gaps(ascending: np.ndarray) -> np.ndarray:
    """Gap from each entry of an ascending array to its nearest neighbour
    (inf for a lone entry)."""
    gaps = np.diff(ascending)
    return np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf))
