"""Input generation: turns a workload name and seed into config files and a
plan of CLI commands.

Nothing here imports ``qexpect``; the program sees only the files written
here and the argv lists in the plan. The same ``(workload, seed)`` always
writes the same bytes.

Plan layout (written as ``plan.json``)::

    {"workload": ..., "seed": ...,
     "setup": [{"path": ..., "scenario": bool}],   # configs loaded by setup_s
     "ops": [[command, ...], ...]}                  # one round of ops

A command is ``{"argv": [...], "kind": ..., "fault": null | {...},
"agent_periods": int}``, plus ``"expect_error"`` on a malformed config the
program already rejects. ``fault`` marks a known-fault request: the
expected reply is a named error, and the program's current reply is not.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from pathlib import Path

WORKLOADS = ("market_deep", "market_wide", "cli_session")

DEEP_OPS_PER_ROUND = 4
DEEP_COUNTS = (2000, 600)
DEEP_PERIODS = 11

WIDE_OPS_PER_ROUND = 2
WIDE_SCALE = 180  # configs/market.json has 4000 + 1500 agents; x180 = 990k
WIDE_PERIODS = 6

SESSION_VARIANT_DIMS = (2, 3, 4) * 4
SESSION_GRID = 301
SESSION_ENSEMBLE_N = 20000

# Known-fault requests of cli_session. Each is a mutation of a shipped config
# that does not depend on the seed, the command that reads it, and the field
# a correct reply must name. They stay in the workload, counted as failed,
# until the program rejects them by name.
KNOWN_FAULTS = (
    {
        "name": "nan_amplitude",
        "base": "basic.json",
        "mutate": ("states", "lean_up", 0, 0),
        "value": float("nan"),
        "argv": ["born"],
        "field": "states.lean_up",
    },
    {
        "name": "scalar_eigenvalues",
        "base": "basic.json",
        "mutate": ("observables", "price", "eigenvalues"),
        "value": 5,
        "argv": ["born"],
        "field": "observables.price.eigenvalues",
    },
    {
        "name": "nan_omega",
        "base": "basic.json",
        "mutate": ("hamiltonians", "coupling", "omega"),
        "value": float("nan"),
        "argv": ["evolve", "--t", "1.0", "--grid", "5"],
        "field": "hamiltonians.coupling.omega",
    },
    {
        "name": "infinite_duration",
        "base": "market.json",
        "mutate": ("scenario", "news", 0, "duration"),
        "value": float("inf"),
        "argv": ["simulate-market"],
        "field": "scenario.news[0].duration",
    },
)


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def _random_state(rng: random.Random, d: int) -> list:
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return [_pair(a / norm) for a in amps]


def _random_basis(rng: random.Random, d: int) -> list:
    """Orthonormal basis by Gram-Schmidt (twice, for accuracy) on complex
    Gaussian vectors."""
    basis: list[list[complex]] = []
    while len(basis) < d:
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
        for _ in range(2):
            for b in basis:
                c = sum(x.conjugate() * y for x, y in zip(b, v))
                v = [y - c * x for x, y in zip(b, v)]
        norm = math.sqrt(sum(abs(a) ** 2 for a in v))
        if norm > 1e-3:
            basis.append([a / norm for a in v])
    return [[_pair(a) for a in vec] for vec in basis]


def _random_hermitian(rng: random.Random, d: int) -> list:
    m = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)] for _ in range(d)]
    h = [[(m[i][j] + m[j][i].conjugate()) / 2 for j in range(d)] for i in range(d)]
    return [[_pair(z) for z in row] for row in h]


def _two_level_state(theta: float, phi: float) -> list:
    return [_pair(complex(math.cos(theta), 0.0)), _pair(math.sin(theta) * cmath.exp(1j * phi))]


# ---------------------------------------------------------------------------
# market_deep


def _deep_config(rng: random.Random) -> dict:
    """Two quantum populations; rabi and splitting news alternate, and the
    splitting period measures in a tilted basis, so every group branches
    every period until groups approach the agent count.

    The seed picks the scenario's RNG seed only. The work is set by the
    group counts, which the states, news, basis and population sizes fix;
    an initial state that branches unevenly in the first periods shifts the
    whole doubling by a period, so these stay constant and every seed gives
    the same work to within about 2 %."""
    n1, n2 = DEEP_COUNTS
    return {
        "version": 1,
        "states": {
            "lean": _two_level_state(0.4, 0.5),
            "mixed": _two_level_state(0.8, 0.5),
        },
        "observables": {
            "price": {"angle": 0.0, "eigenvalues": [1.0, -1.0]},
            "tilt": {"angle": 50.0, "degrees": True, "phase": 20.0, "eigenvalues": [1.0, -1.0]},
        },
        "hamiltonians": {
            "coupling": {"preset": "rabi", "omega": 1.0},
            "drift": {"preset": "splitting", "omega": 0.7},
        },
        "scenario": {
            "seed": rng.randrange(2**63),
            "periods": DEEP_PERIODS,
            "initial_price": 100.0,
            "impact": 0.01,
            "price_observable": "price",
            "populations": [
                {"kind": "quantum", "count": n1, "state": "lean"},
                {"kind": "quantum", "count": n2, "state": "mixed"},
            ],
            "news": [
                {"hamiltonian": "coupling", "duration": 0.7},
                {"hamiltonian": "drift", "duration": 0.9, "observable": "tilt"},
            ],
        },
    }


def _market_command(path: str, doc: dict) -> dict:
    scenario = doc["scenario"]
    agents = sum(p["count"] for p in scenario["populations"])
    return {
        "argv": ["simulate-market", path],
        "kind": "simulate-market",
        "fault": None,
        "agent_periods": agents * scenario["periods"],
    }


def _plan_market_deep(rng: random.Random, work: Path, repo: Path) -> dict:
    ops, setup = [], []
    for i in range(DEEP_OPS_PER_ROUND):
        doc = _deep_config(rng)
        path = _write(work / f"deep_{i}.json", doc)
        setup.append({"path": path, "scenario": True})
        ops.append([_market_command(path, doc)])
    return {"setup": setup, "ops": ops}


# ---------------------------------------------------------------------------
# market_wide


def _plan_market_wide(rng: random.Random, work: Path, repo: Path) -> dict:
    """configs/market.json's states and news, scaled to about 1M agents."""
    base = json.loads((repo / "configs" / "market.json").read_text(encoding="utf-8"))
    ops, setup = [], []
    for i in range(WIDE_OPS_PER_ROUND):
        doc = json.loads(json.dumps(base))
        scenario = doc["scenario"]
        scenario["seed"] = rng.randrange(2**63)
        scenario["periods"] = WIDE_PERIODS
        for pop in scenario["populations"]:
            pop["count"] *= WIDE_SCALE
        path = _write(work / f"wide_{i}.json", doc)
        setup.append({"path": path, "scenario": True})
        ops.append([_market_command(path, doc)])
    return {"setup": setup, "ops": ops}


# ---------------------------------------------------------------------------
# cli_session


def _variant_config(rng: random.Random, d: int) -> dict:
    """A config with every analytic section. For d > 2 the observables have
    repeated eigenvalues, so their projectors have rank > 1; both stay
    binary (outcomes +1/-1) so the QQ equality applies."""
    if d == 2:
        observables = {
            "a": {"angle": rng.uniform(0.0, 180.0), "degrees": True, "phase": rng.uniform(0.0, 180.0)},
            "b": {"angle": rng.uniform(0.0, 180.0), "degrees": True, "phase": rng.uniform(0.0, 180.0)},
        }
        hamiltonian = {"preset": rng.choice(["rabi", "splitting"]), "omega": rng.uniform(0.5, 2.0)}
    else:
        values_a = [1.0] * (d - 1) + [-1.0] if d == 3 else [1.0, 1.0, -1.0, -1.0]
        values_b = [1.0, -1.0, -1.0] if d == 3 else [1.0, -1.0, -1.0, -1.0]
        observables = {
            "a": {"vectors": _random_basis(rng, d), "eigenvalues": values_a},
            "b": {"vectors": _random_basis(rng, d), "eigenvalues": values_b},
        }
        hamiltonian = {"matrix": _random_hermitian(rng, d)}
    return {
        "version": 1,
        "states": {"psi": _random_state(rng, d)},
        "observables": observables,
        "hamiltonians": {"h": hamiltonian},
        "born": {"state": "psi", "observable": "a"},
        "evolve": {"state": "psi", "hamiltonian": "h", "observable": "a"},
        "interference": {"state": "psi", "target_observable": "b", "target_outcome": 1.0, "partition": "a"},
        "order_effect": {"state": "psi", "first": "a", "second": "b"},
        "uncertainty": {"state": "psi", "first": "a", "second": "b"},
        "ensemble": {"state": "psi", "observable": "a"},
    }


def _command(kind: str, path: str, *extra: str, fault=None) -> dict:
    return {"argv": [kind, path, *extra], "kind": kind, "fault": fault, "agent_periods": 0}


def _malformed(work: Path, repo: Path) -> list[dict]:
    """Malformed configs the program already rejects by name. Such a
    command succeeds when its reply is the named error in ``expect_error``:
    the exit code, and the text the message must contain."""
    basic = json.loads((repo / "configs" / "basic.json").read_text(encoding="utf-8"))
    commands = []

    text = (repo / "configs" / "basic.json").read_text(encoding="utf-8")
    truncated = work / "malformed_truncated.json"
    truncated.write_text(text[: text.index('"observables"') + 20], encoding="utf-8")
    cmd = _command("born", str(truncated))
    cmd["expect_error"] = {"exit": 2, "names": ["line", "column"]}
    commands.append(cmd)

    doc = json.loads(json.dumps(basic))
    doc["born"]["state"] = "missing"
    cmd = _command("born", _write(work / "malformed_unknown_state.json", doc))
    cmd["expect_error"] = {"exit": 1, "names": "born.state"}
    commands.append(cmd)

    doc = json.loads(json.dumps(basic))
    doc["observables"]["price"] = {"vectors": [[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.8, 0.0]]], "eigenvalues": [1.0, -1.0]}
    cmd = _command("born", _write(work / "malformed_basis.json", doc))
    cmd["expect_error"] = {"exit": 1, "names": "observables.price"}
    commands.append(cmd)

    doc = json.loads(json.dumps(basic))
    doc["version"] = 2
    cmd = _command("uncertainty", _write(work / "malformed_version.json", doc))
    cmd["expect_error"] = {"exit": 1, "names": "version"}
    commands.append(cmd)
    return commands


def _known_faults(work: Path, repo: Path) -> list[dict]:
    commands = []
    for fault in KNOWN_FAULTS:
        doc = json.loads((repo / "configs" / fault["base"]).read_text(encoding="utf-8"))
        target = doc
        *parents, leaf = fault["mutate"]
        for key in parents:
            target = target[key]
        target[leaf] = fault["value"]
        path = _write(work / f"fault_{fault['name']}.json", doc)
        kind, *extra = fault["argv"]
        commands.append(_command(kind, path, *extra, fault={"name": fault["name"], "field": fault["field"]}))
    return commands


def _plan_cli_session(rng: random.Random, work: Path, repo: Path) -> dict:
    configs = repo / "configs"
    basic, tilted, market = (str(configs / n) for n in ("basic.json", "tilted.json", "market.json"))
    two_pi = repr(2 * math.pi)
    batch = [
        _command("born", basic),
        _command("evolve", basic, "--t", two_pi, "--grid", str(SESSION_GRID)),
        _command("uncertainty", basic),
        _command("ensemble", basic, "--n", str(SESSION_ENSEMBLE_N), "--seed", str(rng.randrange(2**32))),
        _command("born", tilted),
        _command("interference", tilted),
        _command("order-effect", tilted),
        _command("uncertainty", tilted),
    ]
    setup = [{"path": p, "scenario": False} for p in (basic, tilted)]
    for i, d in enumerate(SESSION_VARIANT_DIMS):
        path = _write(work / f"variant_{i}_d{d}.json", _variant_config(rng, d))
        setup.append({"path": path, "scenario": False})
        batch += [
            _command("born", path),
            _command("evolve", path, "--t", f"{rng.uniform(2.0, 6.0):.6f}", "--grid", str(SESSION_GRID)),
            _command("interference", path),
            _command("order-effect", path),
            _command("uncertainty", path),
            _command("ensemble", path, "--n", str(SESSION_ENSEMBLE_N), "--seed", str(rng.randrange(2**32))),
        ]
    market_doc = json.loads(Path(market).read_text(encoding="utf-8"))
    sim = _market_command(market, market_doc)
    sim["argv"] += ["--seed", str(rng.randrange(2**32))]
    batch.append(sim)
    setup.append({"path": market, "scenario": True})
    batch += _malformed(work, repo)
    batch += _known_faults(work, repo)
    return {"setup": setup, "ops": [batch]}


_PLANNERS = {
    "market_deep": _plan_market_deep,
    "market_wide": _plan_market_wide,
    "cli_session": _plan_cli_session,
}


def make_plan(workload: str, seed: int, repo: Path, work: Path) -> dict:
    """Write the workload's inputs for ``seed`` under ``work`` and return
    its plan. The seed is mixed with the workload name so that workloads
    draw unrelated streams."""
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    plan = _PLANNERS[workload](rng, work, repo)
    plan.update(workload=workload, seed=seed)
    return plan
