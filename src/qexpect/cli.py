"""Command-line entry points: scenario-driven demos, ensemble runs, and the
market simulation, all with deterministic 12-decimal output.

Exit codes: 0 success, 1 validation error, 2 parse error, 64 unknown command.
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import (
    ConfigParseError,
    ConfigValidationError,
    _real,
    load_document,
    scenario_from_document,
    scenario_to_dict,
)
from .hilbert import projector_for
from .market import AgentPopulation, PricePath, SimulationHalt, run_ensemble, run_market
from .measurement import (
    born_distribution,
    evolved_born_grid,
    interference_term,
    order_effect_from_tables,
    sequential_joint,
    uncertainty_product,
)

USAGE = """\
usage: qexpect <command> <config.json> [options]

commands:
  born             outcome distribution of measuring a state
  evolve           outcome distribution over a time grid under a Hamiltonian
  interference     direct vs classical total probability and their gap
  order-effect     sequential joint tables in both orders and their gap
  uncertainty      uncertainty product and its commutator lower bound
  ensemble         empirical vs analytic outcome frequencies
  simulate-market  run the ensemble market scenario, emit the price CSV
"""


def fmt(x: float) -> str:
    """Fixed 12-decimal rendering used for every numeric result."""
    s = f"{float(x):.12f}"
    return s[1:] if s.startswith("-0.") and float(s) == 0.0 else s


def _outcome_label(outcome: float) -> str:
    return f"{outcome:g}"


@dataclass
class RunReport:
    """Self-reproducing run artifact: replaying ``config`` with ``seed``
    regenerates ``results`` bit-exactly (duration is informational only)."""

    config: dict
    seed: int
    version: str
    results: dict
    duration_seconds: float

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2) + "\n"


def _parser(command: str, **flags) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"qexpect {command}")
    parser.add_argument("config", help="path to a JSON config document")
    for name, options in flags.items():
        parser.add_argument(f"--{name}", **options)
    return parser


def _cmd_born(args, out) -> int:
    opts = _parser("born").parse_args(args)
    doc = load_document(opts.config)
    section = doc.section("born")
    psi = doc.state(section.get("state"), "born.state")
    obs = doc.observable(section.get("observable"), "born.observable")
    for outcome, p in born_distribution(psi, obs).entries:
        print(f"outcome={fmt(outcome)} probability={fmt(p)}", file=out)
    return 0


def _cmd_evolve(args, out) -> int:
    opts = _parser(
        "evolve",
        t={"type": float, "required": True, "help": "end of the time grid"},
        grid={"type": int, "default": 101, "help": "number of grid samples"},
    ).parse_args(args)
    if opts.grid < 2:
        raise ConfigValidationError("--grid: need at least 2 samples")
    if not np.isfinite(opts.t):
        raise ConfigValidationError(f"--t: expected a finite number, got {opts.t}")
    doc = load_document(opts.config)
    section = doc.section("evolve")
    psi = doc.state(section.get("state"), "evolve.state")
    hamiltonian = doc.hamiltonian(section.get("hamiltonian"), "evolve.hamiltonian")
    obs = doc.observable(section.get("observable"), "evolve.observable")
    times = np.linspace(0.0, opts.t, opts.grid)
    lines = ["t," + ",".join(f"p_{_outcome_label(o)}" for o in obs.outcomes)]
    for t, weights in zip(times.tolist(), evolved_born_grid(psi, hamiltonian, times, obs).tolist()):
        lines.append(",".join([fmt(t)] + [fmt(p) for p in weights]))
    out.write("\n".join(lines) + "\n")
    return 0


def _cmd_interference(args, out) -> int:
    opts = _parser("interference").parse_args(args)
    doc = load_document(opts.config)
    section = doc.section("interference")
    psi = doc.state(section.get("state"), "interference.state")
    target_obs = doc.observable(section.get("target_observable"), "interference.target_observable")
    if "target_outcome" not in section:
        raise ConfigValidationError("interference.target_outcome: field is required")
    partition = doc.observable(section.get("partition"), "interference.partition")
    target = projector_for(target_obs, _real(section["target_outcome"], "interference.target_outcome"))
    report = interference_term(psi, target, partition)
    print(
        f"p_direct={fmt(report.p_direct)} p_classical={fmt(report.p_classical_sum)} "
        f"IT={fmt(report.interference)}",
        file=out,
    )
    return 0


def _cmd_order_effect(args, out) -> int:
    opts = _parser("order-effect").parse_args(args)
    doc = load_document(opts.config)
    section = doc.section("order_effect")
    psi = doc.state(section.get("state"), "order_effect.state")
    name_i = section.get("first")
    name_j = section.get("second")
    obs_i = doc.observable(name_i, "order_effect.first")
    obs_j = doc.observable(name_j, "order_effect.second")
    table_ij = sequential_joint(psi, obs_i, obs_j, first_id=name_i, second_id=name_j)
    table_ji = sequential_joint(psi, obs_j, obs_i, first_id=name_j, second_id=name_i)
    for tag, table in (("ij", table_ij), ("ji", table_ji)):
        print(f"# order {tag}: {table.first_observable} then {table.second_observable}", file=out)
        for alpha, beta, p in table.rows:
            print(f"{tag} alpha={fmt(alpha)} beta={fmt(beta)} p={fmt(p)}", file=out)
    print(f"order_effect={fmt(order_effect_from_tables(table_ij, table_ji))}", file=out)
    return 0


def _cmd_uncertainty(args, out) -> int:
    opts = _parser("uncertainty").parse_args(args)
    doc = load_document(opts.config)
    section = doc.section("uncertainty")
    psi = doc.state(section.get("state"), "uncertainty.state")
    obs_a = doc.observable(section.get("first"), "uncertainty.first")
    obs_b = doc.observable(section.get("second"), "uncertainty.second")
    product, bound = uncertainty_product(psi, obs_a, obs_b)
    print(f"delta_product={fmt(product)} robertson_bound={fmt(bound)}", file=out)
    return 0


def _cmd_ensemble(args, out) -> int:
    opts = _parser(
        "ensemble",
        n={"type": int, "default": 10000, "help": "number of agents"},
        seed={"type": int, "default": 0, "help": "ensemble seed"},
    ).parse_args(args)
    doc = load_document(opts.config)
    section = doc.section("ensemble")
    psi = doc.state(section.get("state"), "ensemble.state")
    obs = doc.observable(section.get("observable"), "ensemble.observable")
    population = AgentPopulation(opts.n, psi, "quantum")
    empirical = run_ensemble(population, obs, opts.seed)
    analytic = born_distribution(psi, obs)
    print("outcome,empirical,analytic,deviation", file=out)
    for (outcome, freq), (_, p) in zip(empirical.entries, analytic.entries):
        print(f"{fmt(outcome)},{fmt(freq)},{fmt(p)},{fmt(abs(freq - p))}", file=out)
    return 0


def _price_csv(path: PricePath) -> str:
    lines = ["period,price,up_fraction,down_fraction"]
    lines.append(f"0,{fmt(path.initial_price)},,")
    for t, record in enumerate(path.periods, start=1):
        lines.append(
            f"{t},{fmt(record.price)},{fmt(record.up_fraction)},{fmt(record.down_fraction)}"
        )
    return "\n".join(lines) + "\n"


def _cmd_simulate_market(args, out) -> int:
    opts = _parser(
        "simulate-market",
        seed={"type": int, "default": None, "help": "override the scenario seed"},
        csv={"type": str, "default": None, "help": "write the price CSV here instead of stdout"},
        report={"type": str, "default": None, "help": "write a JSON run report to this path"},
    ).parse_args(args)
    scenario = scenario_from_document(load_document(opts.config))
    if opts.seed is not None:
        scenario = dataclasses.replace(scenario, seed=opts.seed)
    started = time.perf_counter()
    try:
        path = run_market(scenario)
    except SimulationHalt as halt:
        sys.stderr.write(f"error: {halt}\n")
        out.write(_price_csv(halt.partial_path))
        return 1
    duration = time.perf_counter() - started

    csv_text = _price_csv(path)
    if opts.csv:
        with open(opts.csv, "w", encoding="utf-8", newline="") as handle:
            handle.write(csv_text)
    else:
        out.write(csv_text)

    if opts.report:
        report = RunReport(
            config=scenario_to_dict(scenario),
            seed=scenario.seed,
            version=__version__,
            results={"price_path": dataclasses.asdict(path)},
            duration_seconds=duration,
        )
        with open(opts.report, "w", encoding="utf-8", newline="") as handle:
            handle.write(report.to_json())
    return 0


_HANDLERS = {
    "born": _cmd_born,
    "evolve": _cmd_evolve,
    "interference": _cmd_interference,
    "order-effect": _cmd_order_effect,
    "uncertainty": _cmd_uncertainty,
    "ensemble": _cmd_ensemble,
    "simulate-market": _cmd_simulate_market,
}


def main(argv: list[str] | None = None, out=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out = sys.stdout if out is None else out
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(USAGE, end="", file=sys.stderr if not argv else out)
        return 64 if not argv else 0
    command, rest = argv[0], argv[1:]
    handler = _HANDLERS.get(command)
    if handler is None:
        sys.stderr.write(f"error: unknown command {command!r}\n{USAGE}")
        return 64
    try:
        return handler(rest, out)
    except ConfigParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except (ConfigValidationError, ValueError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
