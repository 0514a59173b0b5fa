"""Parsing of prior/spectrum specifications, grids, and key-value config
files shared by the command-line front end.

Config files are line-oriented ``key = value`` documents; values are JSON
(numbers, strings, nested lists), with bare words accepted as strings.
Lines starting with ``#`` are comments.  The same syntax describes
spectrum files (fields ``kind``, ``beta`` and, for discrete spectra,
``pi_atoms = [[lambda, weight], ...]``).
"""

from __future__ import annotations

import json
import os

import numpy as np

from .channel import InputPrior, binary_prior, gaussian_prior, normalized_discrete_prior
from .spectra import EigenDistribution, make_discrete_law, make_mp_law, make_wbe_law


class ConfigError(ValueError):
    """A configuration file or flag value could not be interpreted."""


def parse_kv_text(text: str) -> dict:
    """Parse a ``key = value`` document into a dict of JSON-typed values."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def load_kv_file(path) -> dict:
    try:
        with open(path) as fh:
            return parse_kv_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc


def parse_prior(text: str) -> InputPrior:
    """Prior specification: ``gaussian``, ``binary`` or
    ``discrete:[[x1,p1],...]`` (normalized to zero mean, unit variance on
    load)."""
    text = text.strip()
    if text == "gaussian":
        return gaussian_prior()
    if text == "binary":
        return binary_prior()
    if text.startswith("discrete:"):
        try:
            pairs = json.loads(text[len("discrete:"):])
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad discrete alphabet in {text!r}: {exc}") from exc
        try:
            return normalized_discrete_prior(pairs)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid alphabet {text!r}: {exc}") from exc
    raise ConfigError(f"unknown prior specification {text!r}")


def parse_spectrum(text: str, beta: float | None) -> tuple[str, EigenDistribution]:
    """Spectrum specification: ``mp``, ``wbe``,
    ``discrete:[[lambda,weight],...]`` (non-zero part of the law), or the
    path of a spectrum file.  Inline forms take the load from ``beta``;
    files carry their own ``beta`` field."""
    text = text.strip()
    if text in ("mp", "wbe") or text.startswith("discrete:"):
        if beta is None:
            raise ConfigError(f"spectrum {text!r} needs --beta")
        kind, _, atoms = text.partition(":")
        if kind == "discrete":
            try:
                atoms = json.loads(atoms)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad atom list in {text!r}: {exc}") from exc
        return kind, _make_law(kind, beta, atoms, f"invalid spectrum {text!r}")
    if os.path.isfile(text):
        return _load_spectrum_file(text)
    raise ConfigError(f"unknown spectrum specification {text!r} "
                      f"(not 'mp', 'wbe', 'discrete:...' or an existing file)")


def _load_spectrum_file(path) -> tuple[str, EigenDistribution]:
    doc = load_kv_file(path)
    kind = doc.get("kind")
    beta = doc.get("beta")
    atoms = doc.get("pi_atoms")
    if kind not in ("mp", "wbe", "discrete"):
        raise ConfigError(f"{path}: field 'kind' must be mp|wbe|discrete, got {kind!r}")
    if not isinstance(beta, (int, float)):
        raise ConfigError(f"{path}: numeric field 'beta' is required")
    if kind == "discrete" and not isinstance(atoms, list):
        raise ConfigError(f"{path}: discrete spectrum needs 'pi_atoms = "
                          f"[[lambda, weight], ...]'")
    name = os.path.splitext(os.path.basename(path))[0]
    return name, _make_law(kind, float(beta), atoms, path)


def _make_law(kind: str, beta: float, atoms, where: str) -> EigenDistribution:
    """The ``mp``, ``wbe`` or ``discrete`` law at load ``beta``; ``atoms``
    is the discrete law's ``[[lambda, weight], ...]``.  A rejected law
    raises ``ConfigError`` prefixed with ``where``."""
    try:
        if kind == "mp":
            return make_mp_law(beta)
        if kind == "wbe":
            return make_wbe_law(beta)
        return make_discrete_law(atoms, beta)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_grid(text: str) -> np.ndarray:
    """Grid specification ``lo:hi:n`` (inclusive, linear) or a single
    number.  The result is non-empty and strictly monotone."""
    text = str(text).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid must be 'lo:hi:n', got {text!r}")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad grid {text!r}: {exc}") from exc
        if n < 1:
            raise ConfigError(f"grid needs at least one point, got n={n}")
        if n > 1 and lo == hi:
            raise ConfigError(f"grid {text!r} is not strictly monotone")
        return np.linspace(lo, hi, n)
    try:
        return np.array([float(text)])
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc


def ebn0_db_to_sigma2(ebn0_db) -> np.ndarray:
    """Noise variance for unit-energy binary signalling at the given
    Eb/N0 in dB: ``sigma2 = 1 / (2 * 10^(EbN0/10))``."""
    ebn0_db = np.asarray(ebn0_db, dtype=float)
    return 1.0 / (2.0 * 10.0 ** (ebn0_db / 10.0))
