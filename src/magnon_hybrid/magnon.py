"""Magnon dispersion and collective spin-photon coupling estimates.

The uniform-precession mode of a magnetised sphere follows a linear law in
the applied static field; a fittable offset absorbs anisotropy and
demagnetisation.  The ensemble coupling estimator uses the standard
collective expression

    g = (gamma/2) * sqrt(2 s mu0 hbar omega_c n_s xi) / (2 pi)

with gamma the gyromagnetic ratio in rad/s/T, omega_c the mode angular
frequency, n_s the spin density per m^3 and xi the magnetic filling factor.
Only the g <-> xi round trip is guaranteed exact; the absolute scale of xi
depends on the (unspecified) filling-factor normalisation, so comparisons
against measured couplings are made at the 10% level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

#: free-electron-like gyromagnetic ratio, GHz per tesla
GYRO_DEFAULT_GHZ_PER_T = 28.0
#: reduced Planck constant (J s) and vacuum permeability (N/A^2), CODATA 2022
HBAR = 1.0545718176461565e-34
MU_0 = 1.25663706127e-06


@dataclass(frozen=True)
class MagnonMode:
    """Field-tunable magnon line: slope, field offset and full linewidth."""

    gyro_ghz_per_t: float = GYRO_DEFAULT_GHZ_PER_T
    field_offset_t: float = 0.0
    linewidth_ghz: float = 0.0

    def __post_init__(self):
        if self.gyro_ghz_per_t <= 0.0:
            raise InvalidArgumentError("gyromagnetic ratio must be positive")
        if self.linewidth_ghz < 0.0:
            raise InvalidArgumentError("magnon linewidth must be nonnegative")


@dataclass(frozen=True)
class SpinEnsemble:
    """Material parameters of the spin ensemble loading the cavity."""

    spin_density_per_m3: float
    spin_quantum: float = 2.5
    filling_factor: float = 1.0

    def __post_init__(self):
        if self.spin_density_per_m3 <= 0.0:
            raise InvalidArgumentError("spin density must be positive")
        if self.spin_quantum <= 0.0:
            raise InvalidArgumentError("spin quantum number must be positive")
        if not 0.0 < self.filling_factor <= 1.0:
            raise InvalidArgumentError("filling factor must lie in (0, 1]")


def magnon_frequency(mode: MagnonMode, field_t):
    """Magnon frequency (GHz) at the given field(s), tesla.

    Linear law ``gyro * (field - field_offset)``.  Fields below the offset
    would give negative frequencies and raise :class:`InvalidArgumentError`.
    Accepts scalars or arrays.
    """
    field = np.asarray(field_t, dtype=float)
    if np.any(field < mode.field_offset_t):
        raise InvalidArgumentError(
            f"field below offset {mode.field_offset_t} T gives a negative magnon frequency")
    # a field past the float range gives an infinite frequency, which the
    # normal-mode solve flags as an unstable point
    with np.errstate(over="ignore"):
        out = mode.gyro_ghz_per_t * (field - mode.field_offset_t)
    return float(out) if np.isscalar(field_t) else out


def _angular(ghz: float) -> float:
    return 2.0 * np.pi * ghz * 1e9


def estimate_coupling(ensemble: SpinEnsemble, cavity_freq_ghz: float,
                      gyro_ghz_per_t: float = GYRO_DEFAULT_GHZ_PER_T) -> float:
    """Collective coupling (GHz) of the ensemble to one cavity mode."""
    if cavity_freq_ghz <= 0.0:
        raise InvalidArgumentError("cavity frequency must be positive")
    if gyro_ghz_per_t <= 0.0:
        raise InvalidArgumentError("gyromagnetic ratio must be positive")
    gamma_rad = _angular(gyro_ghz_per_t)  # rad/s per tesla
    omega_c = _angular(cavity_freq_ghz)
    radicand = (2.0 * ensemble.spin_quantum * MU_0 * HBAR * omega_c
                * ensemble.spin_density_per_m3 * ensemble.filling_factor)
    g_rad = 0.5 * gamma_rad * np.sqrt(radicand)
    return float(g_rad / (2.0 * np.pi) / 1e9)


def estimate_filling(g_ghz: float, ensemble: SpinEnsemble, cavity_freq_ghz: float,
                     gyro_ghz_per_t: float = GYRO_DEFAULT_GHZ_PER_T) -> float:
    """Filling factor implied by a measured coupling; inverse of
    :func:`estimate_coupling` (the ensemble's own ``filling_factor`` is ignored)."""
    if g_ghz <= 0.0:
        raise InvalidArgumentError("coupling must be positive")
    if cavity_freq_ghz <= 0.0:
        raise InvalidArgumentError("cavity frequency must be positive")
    gamma_rad = _angular(gyro_ghz_per_t)
    omega_c = _angular(cavity_freq_ghz)
    g_rad = _angular(g_ghz)
    return float((2.0 * g_rad / gamma_rad) ** 2
                 / (2.0 * ensemble.spin_quantum * MU_0 * HBAR * omega_c
                    * ensemble.spin_density_per_m3))
