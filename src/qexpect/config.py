"""Versioned JSON scenario documents: loading, validation, serialization.

Complex numbers are written as two-element ``[re, im]`` arrays everywhere.
Observables may be given either as explicit eigenvector lists or, for
two-level systems, as a basis rotation angle (radians unless
``"degrees": true``) with an optional relative phase.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .hilbert import Hamiltonian, Observable, StateVector, make_observable
from .market import AgentPopulation, NewsEvent, NewsSchedule, Scenario

CONFIG_VERSION = 1


class ConfigParseError(ValueError):
    """Unreadable or malformed document."""


class ConfigValidationError(ValueError):
    """Well-formed document with invalid content; the message names the field."""


class ConfigVersionError(ConfigValidationError):
    """Document version not supported by this library."""


@dataclass
class ConfigDocument:
    """A parsed config: named definitions plus per-command sections."""

    states: dict[str, StateVector] = field(default_factory=dict)
    observables: dict[str, Observable] = field(default_factory=dict)
    hamiltonians: dict[str, Hamiltonian] = field(default_factory=dict)
    sections: dict[str, dict] = field(default_factory=dict)

    def state(self, name: str, where: str) -> StateVector:
        return _lookup(self.states, name, "states", where)

    def observable(self, name: str, where: str) -> Observable:
        return _lookup(self.observables, name, "observables", where)

    def hamiltonian(self, name: str, where: str) -> Hamiltonian:
        return _lookup(self.hamiltonians, name, "hamiltonians", where)

    def section(self, name: str) -> dict:
        if name not in self.sections:
            raise ConfigValidationError(f"config has no '{name}' section")
        return self.sections[name]


def _lookup(table: dict, name, kind: str, where: str):
    if not isinstance(name, str):
        raise ConfigValidationError(f"{where}: expected a {kind} name, got {name!r}")
    if name not in table:
        raise ConfigValidationError(f"{where}: unknown {kind} entry {name!r}")
    return table[name]


@contextmanager
def _naming(where: str):
    """Re-raise a library ``ValueError`` as a ``ConfigValidationError`` that
    names ``where``; a ``ConfigValidationError`` already names its field."""
    try:
        yield
    except ConfigValidationError:
        raise
    except ValueError as exc:
        raise ConfigValidationError(f"{where}: {exc}") from exc


def _complex_scalar(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigValidationError(f"{where}: complex numbers are written as [re, im], got {value!r}")
    return complex(_real(value[0], f"{where}[0]"), _real(value[1], f"{where}[1]"))


def _complex_vector(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigValidationError(f"{where}: expected a non-empty list of [re, im] pairs")
    return np.asarray([_complex_scalar(v, f"{where}[{i}]") for i, v in enumerate(value)])


def _complex_matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigValidationError(f"{where}: expected a non-empty list of rows")
    rows = [_complex_vector(row, f"{where}[{i}]") for i, row in enumerate(value)]
    if len({len(r) for r in rows}) != 1:
        raise ConfigValidationError(f"{where}: rows have differing lengths")
    return np.asarray(rows)


def _real(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigValidationError(f"{where}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-Inf, or an int beyond float range
        raise ConfigValidationError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _angle(entry: dict, key: str, where: str, default: float | None = None) -> float:
    if key not in entry:
        if default is None:
            raise ConfigValidationError(f"{where}: missing '{key}'")
        return default
    value = _real(entry[key], f"{where}.{key}")
    degrees = entry.get("degrees", False)
    if not isinstance(degrees, bool):
        raise ConfigValidationError(f"{where}.degrees: expected true or false, got {degrees!r}")
    if degrees:
        value = math.radians(value)
    return value


def _build_state(value, where: str) -> StateVector:
    with _naming(where):
        return StateVector(_complex_vector(value, where))


def _eigenvalues(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigValidationError(f"{where}.eigenvalues: expected a list, got {value!r}")
    return [_real(v, f"{where}.eigenvalues[{i}]") for i, v in enumerate(value)]


def _build_observable(entry, where: str) -> Observable:
    if not isinstance(entry, dict):
        raise ConfigValidationError(f"{where}: expected an object")
    with _naming(where):
        if "vectors" in entry:
            vectors = entry["vectors"]
            if not isinstance(vectors, list):
                raise ConfigValidationError(f"{where}.vectors: expected a list")
            basis = [_complex_vector(v, f"{where}.vectors[{i}]") for i, v in enumerate(vectors)]
            if "eigenvalues" not in entry:
                raise ConfigValidationError(f"{where}: missing 'eigenvalues'")
            return make_observable(basis, _eigenvalues(entry["eigenvalues"], where))
        theta = _angle(entry, "angle", where)
        phi = _angle(entry, "phase", where, default=0.0)
        values = _eigenvalues(entry.get("eigenvalues", [1.0, -1.0]), where)
        up = [math.cos(theta), math.sin(theta) * complex(math.cos(phi), math.sin(phi))]
        down = [-math.sin(theta) * complex(math.cos(phi), -math.sin(phi)), math.cos(theta)]
        return make_observable([up, down], values)


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Named two-level generators: "rabi" couples the up/down directions (drives
# oscillation between them), "splitting" separates their phases, "zero" is no
# information flow at all.
_PRESETS = {
    "rabi": _PAULI_X,
    "splitting": _PAULI_Z,
    "zero": np.zeros((2, 2), dtype=complex),
}


def _build_hamiltonian(entry, where: str) -> Hamiltonian:
    if not isinstance(entry, dict):
        raise ConfigValidationError(f"{where}: expected an object")
    if "matrix" in entry:
        with _naming(f"{where}.matrix"):
            return Hamiltonian(_complex_matrix(entry["matrix"], f"{where}.matrix"))
    preset = entry.get("preset")
    if not isinstance(preset, str) or preset not in _PRESETS:
        raise ConfigValidationError(
            f"{where}: needs 'matrix' or a 'preset' from {sorted(_PRESETS)}, got {preset!r}"
        )
    omega = _real(entry.get("omega", 1.0), f"{where}.omega")
    return Hamiltonian(omega * _PRESETS[preset])


def load_document(path) -> ConfigDocument:
    """Parse and validate a config file; each value is checked by the
    constructor of its type, and an error names the field."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # an integer beyond Python's digit limit, or too deep a nesting
        raise ConfigParseError(f"malformed JSON in {path}: {exc}") from exc
    return document_from_dict(raw)


def document_from_dict(raw: dict) -> ConfigDocument:
    if not isinstance(raw, dict):
        raise ConfigValidationError("config root must be a JSON object")
    if "version" not in raw:
        raise ConfigValidationError("version: field is required")
    if raw["version"] != CONFIG_VERSION:
        raise ConfigVersionError(
            f"version: expected {CONFIG_VERSION}, got {raw['version']!r}"
        )
    doc = ConfigDocument()
    for name, value in _named(raw, "states").items():
        doc.states[name] = _build_state(value, f"states.{name}")
    for name, value in _named(raw, "observables").items():
        doc.observables[name] = _build_observable(value, f"observables.{name}")
    for name, value in _named(raw, "hamiltonians").items():
        doc.hamiltonians[name] = _build_hamiltonian(value, f"hamiltonians.{name}")
    for key, value in raw.items():
        if key in ("version", "states", "observables", "hamiltonians"):
            continue
        if not isinstance(value, dict):
            raise ConfigValidationError(f"{key}: expected an object")
        doc.sections[key] = value
    return doc


def _named(raw: dict, key: str) -> dict:
    table = raw.get(key, {})
    if not isinstance(table, dict):
        raise ConfigValidationError(f"{key}: expected an object of named entries")
    return table


_DEFAULT_PRICE_OBSERVABLE = {"vectors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "eigenvalues": [1.0, -1.0]}


def scenario_from_document(doc: ConfigDocument) -> Scenario:
    """Assemble the market scenario from a parsed document, filling defaults
    (seed 0, one period, price 100, impact 0, two-level up/down observable)."""
    section = doc.section("scenario")
    where = "scenario"

    raw_pops = section.get("populations")
    if not isinstance(raw_pops, list) or not raw_pops:
        raise ConfigValidationError(f"{where}.populations: a non-empty list is required")
    populations = []
    for i, entry in enumerate(raw_pops):
        pwhere = f"{where}.populations[{i}]"
        if not isinstance(entry, dict):
            raise ConfigValidationError(f"{pwhere}: expected an object")
        state = doc.state(entry.get("state"), f"{pwhere}.state")
        count = entry.get("count", 1)
        if not isinstance(count, int) or isinstance(count, bool):
            raise ConfigValidationError(f"{pwhere}.count: expected an integer")
        with _naming(pwhere):
            populations.append(AgentPopulation(count, state, entry.get("kind", "quantum")))

    if "price_observable" in section:
        price_obs = doc.observable(section["price_observable"], f"{where}.price_observable")
    else:
        price_obs = _build_observable(_DEFAULT_PRICE_OBSERVABLE, f"{where}.price_observable")

    events = []
    raw_news = section.get("news", [])
    if not isinstance(raw_news, list):
        raise ConfigValidationError(f"{where}.news: expected a list")
    for i, entry in enumerate(raw_news):
        nwhere = f"{where}.news[{i}]"
        if not isinstance(entry, dict):
            raise ConfigValidationError(f"{nwhere}: expected an object")
        hamiltonian = doc.hamiltonian(entry.get("hamiltonian"), f"{nwhere}.hamiltonian")
        duration = _real(entry.get("duration", 1.0), f"{nwhere}.duration")
        override = None
        if "observable" in entry:
            override = doc.observable(entry["observable"], f"{nwhere}.observable")
        with _naming(nwhere):
            events.append(NewsEvent(hamiltonian, duration, override))

    seed = section.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigValidationError(f"{where}.seed: expected an integer")
    periods = section.get("periods", 1)
    if not isinstance(periods, int) or isinstance(periods, bool):
        raise ConfigValidationError(f"{where}.periods: expected an integer")
    impact = _real(section.get("impact", 0.0), f"{where}.impact")
    initial_price = _real(section.get("initial_price", 100.0), f"{where}.initial_price")
    with _naming(where):
        return Scenario(
            seed=seed,
            populations=tuple(populations),
            news=NewsSchedule(tuple(events)),
            price_observable=price_obs,
            impact=impact,
            initial_price=initial_price,
            periods=periods,
        )


def load_scenario(path) -> Scenario:
    """Load a config file and build its market scenario."""
    return scenario_from_document(load_document(path))


# ---------------------------------------------------------------------------
# Serialization (round-trip and run-report echoes)


def _pairs(vector: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in vector]


def _matrix_pairs(matrix: np.ndarray) -> list:
    return [_pairs(row) for row in matrix]


def _observable_entry(obs: Observable) -> dict:
    return {
        "vectors": [_pairs(column) for column in obs.basis.T],
        "eigenvalues": [float(v) for v in obs.eigenvalues],
    }


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize a scenario to a config document that loads back to an
    equivalent scenario."""
    states: dict[str, dict] = {}
    observables = {"price": _observable_entry(scenario.price_observable)}
    hamiltonians: dict[str, dict] = {}

    populations = []
    for i, pop in enumerate(scenario.populations):
        name = f"state_{i}"
        states[name] = _pairs(pop.initial_state.amplitudes)
        populations.append({"kind": pop.kind, "count": pop.count, "state": name})

    news = []
    for i, event in enumerate(scenario.news.events):
        hname = f"news_{i}"
        hamiltonians[hname] = {"matrix": _matrix_pairs(event.hamiltonian.matrix)}
        entry: dict = {"hamiltonian": hname, "duration": float(event.duration)}
        if event.observable is not None:
            oname = f"basis_{i}"
            observables[oname] = _observable_entry(event.observable)
            entry["observable"] = oname
        news.append(entry)

    return {
        "version": CONFIG_VERSION,
        "states": states,
        "observables": observables,
        "hamiltonians": hamiltonians,
        "scenario": {
            "seed": scenario.seed,
            "periods": scenario.periods,
            "initial_price": float(scenario.initial_price),
            "impact": float(scenario.impact),
            "price_observable": "price",
            "populations": populations,
            "news": news,
        },
    }


def scenarios_equivalent(a: Scenario, b: Scenario, tol: float = 1e-12) -> bool:
    """Field-by-field equality up to normalization and global phases."""
    if (a.seed, a.periods) != (b.seed, b.periods):
        return False
    if abs(a.impact - b.impact) > tol or abs(a.initial_price - b.initial_price) > tol:
        return False
    if len(a.populations) != len(b.populations) or len(a.news.events) != len(b.news.events):
        return False
    for pa, pb in zip(a.populations, b.populations):
        if (pa.count, pa.kind) != (pb.count, pb.kind):
            return False
        if not pa.initial_state.same_state(pb.initial_state, tol):
            return False
    if not _observables_equivalent(a.price_observable, b.price_observable, tol):
        return False
    for ea, eb in zip(a.news.events, b.news.events):
        if abs(ea.duration - eb.duration) > tol:
            return False
        if not np.allclose(ea.hamiltonian.matrix, eb.hamiltonian.matrix, atol=tol):
            return False
        if (ea.observable is None) != (eb.observable is None):
            return False
        if ea.observable is not None and not _observables_equivalent(ea.observable, eb.observable, tol):
            return False
    return True


def _observables_equivalent(a: Observable, b: Observable, tol: float) -> bool:
    return a.eigenvalues == b.eigenvalues and np.allclose(a.matrix, b.matrix, atol=tol)
