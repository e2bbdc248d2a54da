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
    sections: dict[str, Fields] = field(default_factory=dict)

    def section(self, name: str) -> Fields:
        if name not in self.sections:
            raise ConfigValidationError(f"config has no '{name}' section")
        return self.sections[name]


class Fields:
    """A JSON object read under the name ``where``. Every read names its own
    field, ``<where>.<key>``, or ``<where>.<key>[i]`` for a list entry, and
    references resolve against ``doc``."""

    __slots__ = ("raw", "where", "doc")

    def __init__(self, raw, where: str, doc: ConfigDocument):
        if not isinstance(raw, dict):
            raise ConfigValidationError(f"{where}: expected an object")
        self.raw, self.where, self.doc = raw, where, doc

    def name(self, key: str) -> str:
        return f"{self.where}.{key}"

    @contextmanager
    def naming(self, key: str | None = None):
        """Re-raise a library ``ValueError`` as a ``ConfigValidationError`` that
        names this object, or its field ``key``; a ``ConfigValidationError``
        already names its field."""
        try:
            yield
        except ConfigValidationError:
            raise
        except ValueError as exc:
            raise ConfigValidationError(f"{self.where if key is None else self.name(key)}: {exc}") from exc

    def _entry(self, key: str, table: dict, kind: str):
        name = self.raw.get(key)
        if not isinstance(name, str):
            raise ConfigValidationError(f"{self.name(key)}: expected a {kind} name, got {name!r}")
        if name not in table:
            raise ConfigValidationError(f"{self.name(key)}: unknown {kind} entry {name!r}")
        return table[name]

    def state(self, key: str) -> StateVector:
        return self._entry(key, self.doc.states, "states")

    def observable(self, key: str) -> Observable:
        return self._entry(key, self.doc.observables, "observables")

    def hamiltonian(self, key: str) -> Hamiltonian:
        return self._entry(key, self.doc.hamiltonians, "hamiltonians")

    def _get(self, key: str, default):
        if key not in self.raw and default is None:
            raise ConfigValidationError(f"{self.name(key)}: field is required")
        return self.raw.get(key, default)

    def real(self, key: str, default: float | None = None) -> float:
        return _real(self._get(key, default), self.name(key))

    def integer(self, key: str, default: int) -> int:
        value = self.raw.get(key, default)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigValidationError(f"{self.name(key)}: expected an integer")
        return value

    def reals(self, key: str, default: list | None = None) -> list[float]:
        values, name = self._get(key, default), self.name(key)
        if not isinstance(values, list):
            raise ConfigValidationError(f"{name}: expected a list, got {values!r}")
        return [_real(v, name, (i,)) for i, v in enumerate(values)]

    def objects(self, key: str, required: bool = False) -> list[Fields]:
        """One view per entry of the list at ``key``. A missing list has no
        entries, unless ``required``, which also refuses an empty one."""
        entries = self.raw.get(key, [])
        if required and not (isinstance(entries, list) and entries):
            raise ConfigValidationError(f"{self.name(key)}: a non-empty list is required")
        if not isinstance(entries, list):
            raise ConfigValidationError(f"{self.name(key)}: expected a list")
        return [Fields(entry, f"{self.name(key)}[{i}]", self.doc) for i, entry in enumerate(entries)]


def _named(where: str, index: tuple) -> str:
    return where + "".join(f"[{i}]" for i in index)


def _complex_array(value, where: str, depth: int, index: tuple = ()) -> np.ndarray:
    """The ``[re, im]`` pairs nested ``depth`` lists deep (1 a vector, 2 a
    matrix) at ``where`` and list positions ``index``, which are formatted
    into a field name only when an entry is rejected."""
    if not isinstance(value, list) or not value:
        raise ConfigValidationError(f"{_named(where, index)}: expected a non-empty list of {'rows' if depth > 1 else '[re, im] pairs'}")
    if depth > 1:
        rows = [_complex_array(row, where, depth - 1, (*index, i)) for i, row in enumerate(value)]
        if len({len(r) for r in rows}) != 1:
            raise ConfigValidationError(f"{_named(where, index)}: rows have differing lengths")
        return np.asarray(rows)
    pairs = []
    for i, pair in enumerate(value):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigValidationError(f"{_named(where, (*index, i))}: complex numbers are written as [re, im], got {pair!r}")
        pairs.append(complex(_real(pair[0], where, (*index, i, 0)), _real(pair[1], where, (*index, i, 1))))
    return np.asarray(pairs)


def _real(value, where: str, index: tuple = ()) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigValidationError(f"{_named(where, index)}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-Inf, or an int beyond float range
        raise ConfigValidationError(f"{_named(where, index)}: expected a finite number, got {value!r}")
    return float(value)


def _angle(entry: Fields, key: str, default: float | None = None) -> float:
    value = entry.real(key, default)
    degrees = entry.raw.get("degrees", False)
    if not isinstance(degrees, bool):
        raise ConfigValidationError(f"{entry.name('degrees')}: expected true or false, got {degrees!r}")
    return math.radians(value) if degrees else value


def _build_observable(entry: Fields) -> Observable:
    with entry.naming():
        if "vectors" in entry.raw:
            vectors, where = entry.raw["vectors"], entry.name("vectors")
            if not isinstance(vectors, list):
                raise ConfigValidationError(f"{where}: expected a list")
            basis = [_complex_array(v, where, 1, (i,)) for i, v in enumerate(vectors)]
            return make_observable(basis, entry.reals("eigenvalues"))
        theta = _angle(entry, "angle")
        phi = _angle(entry, "phase", default=0.0)
        values = entry.reals("eigenvalues", [1.0, -1.0])
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


def _build_hamiltonian(entry: Fields) -> Hamiltonian:
    if "matrix" in entry.raw:
        with entry.naming("matrix"):
            return Hamiltonian(_complex_array(entry.raw["matrix"], entry.name("matrix"), 2))
    preset = entry.raw.get("preset")
    if not isinstance(preset, str) or preset not in _PRESETS:
        raise ConfigValidationError(
            f"{entry.where}: needs 'matrix' or a 'preset' from {sorted(_PRESETS)}, got {preset!r}"
        )
    return Hamiltonian(entry.real("omega", 1.0) * _PRESETS[preset])


def load_document(path) -> ConfigDocument:
    """Parse and validate a config file; each value is checked by the
    constructor of its type, and an error names the field."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    if type(raw["version"]) is not int or raw["version"] != CONFIG_VERSION:  # not True or 1.0, which equal 1
        raise ConfigVersionError(
            f"version: expected {CONFIG_VERSION}, got {raw['version']!r}"
        )
    doc = ConfigDocument()
    states = Fields(raw.get("states", {}), "states", doc)
    for name, value in states.raw.items():
        with states.naming(name):
            doc.states[name] = StateVector(_complex_array(value, states.name(name), 1))
    observables = Fields(raw.get("observables", {}), "observables", doc)
    for name, value in observables.raw.items():
        doc.observables[name] = _build_observable(Fields(value, observables.name(name), doc))
    hamiltonians = Fields(raw.get("hamiltonians", {}), "hamiltonians", doc)
    for name, value in hamiltonians.raw.items():
        doc.hamiltonians[name] = _build_hamiltonian(Fields(value, hamiltonians.name(name), doc))
    for key, value in raw.items():
        if key not in ("version", "states", "observables", "hamiltonians"):
            doc.sections[key] = Fields(value, key, doc)
    return doc


def scenario_from_document(doc: ConfigDocument) -> Scenario:
    """Assemble the market scenario from a parsed document, filling defaults
    (seed 0, one period, price 100, impact 0, two-level up/down observable)."""
    section = doc.section("scenario")
    populations = []
    for entry in section.objects("populations", required=True):
        state = entry.state("state")
        count = entry.integer("count", 1)
        with entry.naming():
            populations.append(AgentPopulation(count, state, entry.raw.get("kind", "quantum")))

    if "price_observable" in section.raw:
        price_obs = section.observable("price_observable")
    else:
        price_obs = make_observable(np.eye(2), [1.0, -1.0])

    events = []
    for entry in section.objects("news"):
        hamiltonian = entry.hamiltonian("hamiltonian")
        duration = entry.real("duration", 1.0)
        override = entry.observable("observable") if "observable" in entry.raw else None
        with entry.naming():
            events.append(NewsEvent(hamiltonian, duration, override))

    seed = section.integer("seed", 0)
    periods = section.integer("periods", 1)
    impact = section.real("impact", 0.0)
    initial_price = section.real("initial_price", 100.0)
    with section.naming():
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


def _pairs(array: np.ndarray) -> list:
    """``array`` with each complex entry written as an ``[re, im]`` pair."""
    return np.stack((array.real, array.imag), -1).tolist()


def _observable_entry(obs: Observable) -> dict:
    return {
        "vectors": _pairs(obs.basis.T),
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
        hamiltonians[hname] = {"matrix": _pairs(event.hamiltonian.matrix)}
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
