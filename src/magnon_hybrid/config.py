"""Run-configuration loading and strict schema validation.

One JSON document drives one CLI run; --set overrides are applied before
validation, so they obey the same schema.  The document is read through
:class:`Block`: one JSON object plus its dotted path.  A block rejects any key
outside its allowed set, and its typed getters (number, integer, size, numbers,
matrix, interval, file path, sub-block) take a key and an optional default, so a
read names its key once and every error names the full dotted path.
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

#: a getter default that makes its key required
_REQUIRED = object()


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


def _finite(value) -> bool:
    """Whether a number converts to a finite float (an int past 1e308 does not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(value, path: str, *, positive=False, nonnegative=False) -> float:
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


def _numbers(value, path: str, length=None) -> list[float]:
    if not isinstance(value, list) or not all(
            isinstance(v, _NUMBER) and not isinstance(v, bool) for v in value):
        raise ConfigError(f"{path} must be a list of numbers")
    if length is not None and len(value) != length:
        raise ConfigError(f"{path} must have length {length}")
    if not all(map(_finite, value)):
        raise ConfigError(f"{path} must be finite")
    return [float(v) for v in value]


class Block:
    """One JSON object of a config and its dotted path (``""`` at the root).

    ``keys``, when given, is the set of keys the object may hold; a getter's
    ``default`` stands in for an absent key, and without one the key is
    required.
    """

    def __init__(self, doc, path: str = "", keys=None):
        if not isinstance(doc, dict):
            raise ConfigError(f"{path} must be an object")
        self.doc, self.path = doc, path
        if keys is not None:
            self.allow(keys)

    def allow(self, keys) -> None:
        """Reject any key outside ``keys``."""
        for key in self.doc:
            if key not in keys:
                raise ConfigError(f"unknown key {self.where(key)}")

    def where(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def error(self, key: str, what: str) -> ConfigError:
        return ConfigError(f"{self.where(key)} {what}")

    def __contains__(self, key) -> bool:
        return key in self.doc

    def get(self, key: str, default=_REQUIRED):
        if key in self.doc:
            return self.doc[key]
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {self.where(key)}")
        return default

    def block(self, key: str, keys=None, default=_REQUIRED) -> "Block":
        return Block(self.get(key, default), self.where(key), keys)

    def number(self, key: str, default=_REQUIRED, **sign) -> float:
        return _number(self.get(key, default), self.where(key), **sign)

    def integer(self, key: str, default=_REQUIRED, *, minimum=None) -> int:
        value = self.get(key, default)
        if not isinstance(value, int) or isinstance(value, bool):
            raise self.error(key, "must be an integer")
        if minimum is not None and value < minimum:
            raise self.error(key, f"must be >= {minimum}")
        return value

    def size(self, key: str, minimum: int, cells) -> int:
        """An integer of at least ``minimum`` whose largest array, ``cells(n)``
        cells, stays within MAX_CELLS; checked before anything is built."""
        n = self.integer(key, minimum=minimum)
        if cells(n) > MAX_CELLS:
            raise self.error(key, f"= {n} needs an array of {cells(n)} cells; "
                                  f"the limit is {MAX_CELLS}")
        return n

    def numbers(self, key: str, default=_REQUIRED, *, length=None) -> list[float]:
        return _numbers(self.get(key, default), self.where(key), length)

    def matrix(self, key: str, n: int) -> list[list[float]]:
        value = self.get(key)
        if not isinstance(value, list) or len(value) != n:
            raise self.error(key, f"must be a {n}x{n} matrix (list of lists)")
        return [_numbers(row, f"{self.where(key)}[{i}]", n) for i, row in enumerate(value)]

    def interval(self, key: str) -> tuple[float, float]:
        pair = self.get(key)
        if not (isinstance(pair, list) and len(pair) == 2):
            raise self.error(key, "must be [lo, hi]")
        return tuple(_number(v, f"{self.where(key)}[{i}]") for i, v in enumerate(pair))

    def file_path(self, key: str) -> str:
        value = self.get(key)
        if not isinstance(value, str) or not value or "\x00" in value:
            raise self.error(key, "must be a file path")
        return value


def command_config(doc: dict, keys) -> Block:
    """The root block of one command: ``schema_version`` is checked first,
    then every top-level key against ``keys``."""
    version = Block(doc).get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}; this tool reads "
                          f"{SCHEMA_VERSION}")
    return Block(doc, keys={"schema_version", *keys})


def parse_network(cfg: Block) -> CavityNetwork:
    net = cfg.block("network")
    variants = [k for k in ("ring", "double_chain") if k in net]
    try:
        if variants == ["ring"]:
            net.allow({"ring"})
            blk = net.block("ring", {"n", "omega0_ghz", "kappa"})
            return ring_network(blk.size("n", 2, lambda n: n * n),
                                blk.number("omega0_ghz", positive=True),
                                blk.number("kappa"))
        if variants == ["double_chain"]:
            net.allow({"double_chain"})
            blk = net.block("double_chain", {"omega0_ghz", "kappa_chain", "kappa_cross"})
            return double_chain_network(blk.number("omega0_ghz", positive=True),
                                        blk.number("kappa_chain"), blk.number("kappa_cross"))
        net.allow({"n_posts", "post_freq_ghz", "coupling"})
        n = net.integer("n_posts", minimum=1)
        return CavityNetwork(post_freq_ghz=net.numbers("post_freq_ghz", length=n),
                             coupling=net.matrix("coupling", n))
    except InvalidArgumentError as exc:   # invariant violations from the constructors
        raise ConfigError(f"{net.path}: {exc}") from exc


def parse_magnon(cfg: Block) -> MagnonMode:
    blk = cfg.block("magnon", {"gyro_ghz_per_t", "field_offset_t", "linewidth_ghz"})
    return MagnonMode(blk.number("gyro_ghz_per_t", positive=True),
                      blk.number("field_offset_t", 0.0),
                      blk.number("linewidth_ghz", 0.0, nonnegative=True))


#: placeholder magnon frequency for sweep templates (replaced per field point)
_TEMPLATE_OMEGA_M = 1.0


def parse_model(cfg: Block, magnon: MagnonMode) -> tuple[HybridModel, str]:
    """Model template block; returns (model, kind).

    The template's magnon frequency is a placeholder, overwritten per field
    point by every sweep-like command.
    """
    blk = cfg.block("model")
    kind = blk.get("kind")
    try:
        if kind == "n4":
            blk.allow({"kind", "omega_c_ghz", "g_rl_ghz", "g_ghz", "photon_linewidth_ghz"})
            lw = blk.numbers("photon_linewidth_ghz", [0.0, 0.0], length=2)
            model = build_n4(blk.number("omega_c_ghz", positive=True),
                             blk.number("g_rl_ghz"), blk.number("g_ghz"),
                             _TEMPLATE_OMEGA_M, photon_linewidth_ghz=lw,
                             magnon_linewidth_ghz=magnon.linewidth_ghz)
            return model, "n4"
        if kind == "n8":
            blk.allow({"kind", "omega_c_ghz", "g_ghz", "photon_linewidth_ghz"})
            freqs = blk.numbers("omega_c_ghz", length=3)
            gs = blk.numbers("g_ghz", length=3)
            lw = blk.numbers("photon_linewidth_ghz", [0.0, 0.0, 0.0], length=3)
            model = build_n8(*freqs, *gs, _TEMPLATE_OMEGA_M, photon_linewidth_ghz=lw,
                             magnon_linewidth_ghz=magnon.linewidth_ghz)
            return model, "n8"
        if kind == "generic":
            blk.allow({"kind", "photon_freq_ghz", "photon_coupling_ghz",
                       "magnon_coupling_ghz", "photon_linewidth_ghz"})
            freqs = blk.numbers("photon_freq_ghz")
            n = len(freqs)
            lw = blk.numbers("photon_linewidth_ghz", [0.0] * n, length=n)
            model = HybridModel(
                photon_freq_ghz=np.asarray(freqs),
                photon_coupling_ghz=np.asarray(blk.matrix("photon_coupling_ghz", n)),
                magnon_freq_ghz=_TEMPLATE_OMEGA_M,
                magnon_coupling_ghz=np.asarray(blk.numbers("magnon_coupling_ghz", length=n)),
                photon_linewidth_ghz=np.asarray(lw),
                magnon_linewidth_ghz=magnon.linewidth_ghz)
            return model, "generic"
    except InvalidArgumentError as exc:
        raise ConfigError(f"{blk.path}: {exc}") from exc
    raise blk.error("kind", "must be one of n4, n8, generic")


def parse_field_grid(cfg: Block, cells_per_field: int) -> np.ndarray:
    """Field grid; ``cells_per_field`` is the largest array row one field adds."""
    blk = cfg.block("sweep", {"field_min_t", "field_max_t", "n_field"})
    lo, hi = blk.number("field_min_t"), blk.number("field_max_t")
    n = blk.size("n_field", 2, lambda n: n * cells_per_field)
    if hi <= lo:
        raise blk.error("field_max_t", "must exceed field_min_t")
    return np.linspace(lo, hi, n)


def parse_freq_grid(cfg: Block) -> np.ndarray:
    blk = cfg.block("freq", {"min_ghz", "max_ghz", "n"})
    lo, hi = blk.number("min_ghz"), blk.number("max_ghz")
    n = blk.size("n", 2, lambda n: n)
    if hi <= lo:
        raise blk.error("max_ghz", "must exceed min_ghz")
    return np.linspace(lo, hi, n)


def parse_material(cfg: Block) -> tuple[SpinEnsemble, MagnonMode]:
    blk = cfg.block("material", {"gyro_ghz_per_t", "field_offset_t", "linewidth_ghz",
                                 "spin_density_per_m3", "spin_quantum", "filling_factor"})
    gyro = blk.number("gyro_ghz_per_t", positive=True)
    offset = blk.number("field_offset_t", 0.0)
    lw = blk.number("linewidth_ghz", 0.0, nonnegative=True)
    density = blk.number("spin_density_per_m3", positive=True)
    spin = blk.number("spin_quantum", 2.5, positive=True)
    xi = blk.number("filling_factor", 1.0)
    if not 0.0 < xi <= 1.0:
        raise blk.error("filling_factor", "must lie in (0, 1]")
    return (SpinEnsemble(spin_density_per_m3=density, spin_quantum=spin,
                         filling_factor=xi),
            MagnonMode(gyro, offset, lw))
