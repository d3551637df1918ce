"""Run-configuration loading and strict schema validation.

One JSON document drives one CLI run.  Unknown keys are rejected with their
dotted path, every block is typed, and --set overrides are applied before
validation so they obey the same schema.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidArgumentError
from .hamiltonian import HybridModel, build_n4, build_n8
from .magnon import MagnonMode, SpinEnsemble
from .network import CavityNetwork, double_chain_network, ring_network

SCHEMA_VERSION = 1

_NUMBER = (int, float)

#: most cells in any one array a config size builds (10**7 float64 cells are 80 MB)
MAX_CELLS = 10**7


def load_config(path, overrides=()) -> dict:
    """Parse a JSON config file and apply dotted-path --set overrides."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key.path=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = key.split(".")
        for depth, part in enumerate(parts[:-1]):
            if part not in node:
                node[part] = {}
            elif not isinstance(node[part], dict):
                raise ConfigError(f"--set {key}: {'.'.join(parts[:depth + 1])} "
                                  f"is not an object")
            node = node[part]
        node[parts[-1]] = value
    return doc


def require_key(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"missing required key {path}.{key}" if path else
                          f"missing required key {key}")
    return doc[key]


def check_keys(doc: dict, allowed, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object")
    for key in doc:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown key {where}")


def _finite(value) -> bool:
    """Whether a number converts to a finite float (an int past 1e308 does not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def as_number(value, path: str, *, positive=False, nonnegative=False) -> float:
    if not isinstance(value, _NUMBER) or isinstance(value, bool):
        raise ConfigError(f"{path} must be a number")
    if not _finite(value):
        raise ConfigError(f"{path} must be finite")
    v = float(value)
    if positive and v <= 0.0:
        raise ConfigError(f"{path} must be positive")
    if nonnegative and v < 0.0:
        raise ConfigError(f"{path} must be nonnegative")
    return v


def as_integer(value, path: str, *, minimum=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}")
    return value


def check_cells(n: int, cells: int, path: str):
    """Reject a size whose largest array would pass MAX_CELLS, before it is built."""
    if cells > MAX_CELLS:
        raise ConfigError(f"{path} = {n} needs an array of {cells} cells; "
                          f"the limit is {MAX_CELLS}")


def as_path(value, path: str) -> str:
    if not isinstance(value, str) or not value or "\x00" in value:
        raise ConfigError(f"{path} must be a file path")
    return value


def as_number_list(value, path: str, length=None) -> list[float]:
    if not isinstance(value, list) or not all(
            isinstance(v, _NUMBER) and not isinstance(v, bool) for v in value):
        raise ConfigError(f"{path} must be a list of numbers")
    if length is not None and len(value) != length:
        raise ConfigError(f"{path} must have length {length}")
    if not all(map(_finite, value)):
        raise ConfigError(f"{path} must be finite")
    return [float(v) for v in value]


def as_number_matrix(value, path: str, n: int) -> list[list[float]]:
    if not isinstance(value, list) or len(value) != n:
        raise ConfigError(f"{path} must be a {n}x{n} matrix (list of lists)")
    return [as_number_list(row, f"{path}[{i}]", length=n) for i, row in enumerate(value)]


def check_schema_version(doc: dict):
    version = require_key(doc, "schema_version", "")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}; this tool reads "
                          f"{SCHEMA_VERSION}")


def parse_network(doc: dict, path: str = "network") -> CavityNetwork:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object")
    variants = [k for k in ("ring", "double_chain") if k in doc]
    try:
        if variants == ["ring"]:
            check_keys(doc, {"ring"}, path)
            blk = doc["ring"]
            check_keys(blk, {"n", "omega0_ghz", "kappa"}, f"{path}.ring")
            n = as_integer(require_key(blk, "n", f"{path}.ring"), f"{path}.ring.n", minimum=2)
            check_cells(n, n * n, f"{path}.ring.n")
            return ring_network(
                n,
                as_number(require_key(blk, "omega0_ghz", f"{path}.ring"),
                                      f"{path}.ring.omega0_ghz", positive=True),
                as_number(require_key(blk, "kappa", f"{path}.ring"), f"{path}.ring.kappa"))
        if variants == ["double_chain"]:
            check_keys(doc, {"double_chain"}, path)
            blk = doc["double_chain"]
            check_keys(blk, {"omega0_ghz", "kappa_chain", "kappa_cross"},
                       f"{path}.double_chain")
            return double_chain_network(
                as_number(require_key(blk, "omega0_ghz", f"{path}.double_chain"),
                                      f"{path}.double_chain.omega0_ghz", positive=True),
                as_number(require_key(blk, "kappa_chain", f"{path}.double_chain"),
                                      f"{path}.double_chain.kappa_chain"),
                as_number(require_key(blk, "kappa_cross", f"{path}.double_chain"),
                                      f"{path}.double_chain.kappa_cross"))
        check_keys(doc, {"n_posts", "post_freq_ghz", "coupling"}, path)
        n = as_integer(require_key(doc, "n_posts", path), f"{path}.n_posts", minimum=1)
        freq = as_number_list(require_key(doc, "post_freq_ghz", path),
                                          f"{path}.post_freq_ghz", length=n)
        coupling = as_number_matrix(require_key(doc, "coupling", path), f"{path}.coupling", n)
        return CavityNetwork.from_dict(
            {"n_posts": n, "post_freq_ghz": freq, "coupling": coupling})
    except InvalidArgumentError as exc:   # invariant violations from the constructors
        raise ConfigError(f"{path}: {exc}") from exc


def parse_magnon(doc: dict, path: str = "magnon") -> MagnonMode:
    check_keys(doc, {"gyro_ghz_per_t", "field_offset_t", "linewidth_ghz"}, path)
    gyro = as_number(require_key(doc, "gyro_ghz_per_t", path),
                                 f"{path}.gyro_ghz_per_t", positive=True)
    offset = as_number(doc.get("field_offset_t", 0.0), f"{path}.field_offset_t")
    lw = as_number(doc.get("linewidth_ghz", 0.0), f"{path}.linewidth_ghz", nonnegative=True)
    return MagnonMode(gyro, offset, lw)


#: placeholder magnon frequency for sweep templates (replaced per field point)
_TEMPLATE_OMEGA_M = 1.0


def parse_model(doc: dict, magnon: MagnonMode, path: str = "model") -> tuple[HybridModel, str]:
    """Model template block; returns (model, kind).

    The template's magnon frequency is a placeholder, overwritten per field
    point by every sweep-like command.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object")
    kind = require_key(doc, "kind", path)
    try:
        if kind == "n4":
            check_keys(doc, {"kind", "omega_c_ghz", "g_rl_ghz", "g_ghz",
                              "photon_linewidth_ghz"}, path)
            lw = as_number_list(doc.get("photon_linewidth_ghz", [0.0, 0.0]),
                                f"{path}.photon_linewidth_ghz", length=2)
            model = build_n4(
                as_number(require_key(doc, "omega_c_ghz", path), f"{path}.omega_c_ghz",
                        positive=True),
                as_number(require_key(doc, "g_rl_ghz", path), f"{path}.g_rl_ghz"),
                as_number(require_key(doc, "g_ghz", path), f"{path}.g_ghz"),
                _TEMPLATE_OMEGA_M, photon_linewidth_ghz=lw,
                magnon_linewidth_ghz=magnon.linewidth_ghz)
            return model, "n4"
        if kind == "n8":
            check_keys(doc, {"kind", "omega_c_ghz", "g_ghz", "photon_linewidth_ghz"}, path)
            freqs = as_number_list(require_key(doc, "omega_c_ghz", path),
                                               f"{path}.omega_c_ghz", length=3)
            gs = as_number_list(require_key(doc, "g_ghz", path), f"{path}.g_ghz", length=3)
            lw = as_number_list(doc.get("photon_linewidth_ghz", [0.0, 0.0, 0.0]),
                                f"{path}.photon_linewidth_ghz", length=3)
            model = build_n8(*freqs, *gs, _TEMPLATE_OMEGA_M, photon_linewidth_ghz=lw,
                             magnon_linewidth_ghz=magnon.linewidth_ghz)
            return model, "n8"
        if kind == "generic":
            check_keys(doc, {"kind", "photon_freq_ghz", "photon_coupling_ghz",
                              "magnon_coupling_ghz", "photon_linewidth_ghz"}, path)
            freqs = as_number_list(require_key(doc, "photon_freq_ghz", path),
                                               f"{path}.photon_freq_ghz")
            n = len(freqs)
            lw = as_number_list(doc.get("photon_linewidth_ghz", [0.0] * n),
                                f"{path}.photon_linewidth_ghz", length=n)
            model = HybridModel(
                photon_freq_ghz=np.asarray(freqs),
                photon_coupling_ghz=np.asarray(as_number_matrix(
                    require_key(doc, "photon_coupling_ghz", path),
                    f"{path}.photon_coupling_ghz", n)),
                magnon_freq_ghz=_TEMPLATE_OMEGA_M,
                magnon_coupling_ghz=np.asarray(
                    as_number_list(require_key(doc, "magnon_coupling_ghz", path),
                                               f"{path}.magnon_coupling_ghz", length=n)),
                photon_linewidth_ghz=np.asarray(lw),
                magnon_linewidth_ghz=magnon.linewidth_ghz)
            return model, "generic"
    except InvalidArgumentError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind must be one of n4, n8, generic")


def parse_field_grid(doc: dict, cells_per_field: int, path: str = "sweep") -> np.ndarray:
    """Field grid; ``cells_per_field`` is the largest array row one field adds."""
    check_keys(doc, {"field_min_t", "field_max_t", "n_field"}, path)
    lo = as_number(require_key(doc, "field_min_t", path), f"{path}.field_min_t")
    hi = as_number(require_key(doc, "field_max_t", path), f"{path}.field_max_t")
    n = as_integer(require_key(doc, "n_field", path), f"{path}.n_field", minimum=2)
    check_cells(n, n * cells_per_field, f"{path}.n_field")
    if hi <= lo:
        raise ConfigError(f"{path}.field_max_t must exceed field_min_t")
    return np.linspace(lo, hi, n)


def parse_freq_grid(doc: dict, path: str = "freq") -> np.ndarray:
    check_keys(doc, {"min_ghz", "max_ghz", "n"}, path)
    lo = as_number(require_key(doc, "min_ghz", path), f"{path}.min_ghz")
    hi = as_number(require_key(doc, "max_ghz", path), f"{path}.max_ghz")
    n = as_integer(require_key(doc, "n", path), f"{path}.n", minimum=2)
    check_cells(n, n, f"{path}.n")
    if hi <= lo:
        raise ConfigError(f"{path}.max_ghz must exceed min_ghz")
    return np.linspace(lo, hi, n)


def parse_material(doc: dict, path: str = "material") -> tuple[SpinEnsemble, MagnonMode]:
    check_keys(doc, {"gyro_ghz_per_t", "field_offset_t", "linewidth_ghz",
                      "spin_density_per_m3", "spin_quantum", "filling_factor"}, path)
    gyro = as_number(require_key(doc, "gyro_ghz_per_t", path), f"{path}.gyro_ghz_per_t",
                   positive=True)
    offset = as_number(doc.get("field_offset_t", 0.0), f"{path}.field_offset_t")
    lw = as_number(doc.get("linewidth_ghz", 0.0), f"{path}.linewidth_ghz", nonnegative=True)
    density = as_number(require_key(doc, "spin_density_per_m3", path),
                                    f"{path}.spin_density_per_m3", positive=True)
    spin = as_number(doc.get("spin_quantum", 2.5), f"{path}.spin_quantum", positive=True)
    xi = as_number(doc.get("filling_factor", 1.0), f"{path}.filling_factor")
    if not 0.0 < xi <= 1.0:
        raise ConfigError(f"{path}.filling_factor must lie in (0, 1]")
    return (SpinEnsemble(spin_density_per_m3=density, spin_quantum=spin,
                         filling_factor=xi),
            MagnonMode(gyro, offset, lw))
