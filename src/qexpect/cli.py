"""Command-line entry points: scenario-driven demos, ensemble runs, and the
market simulation, all with deterministic 12-decimal output.

Exit codes: 0 success, 1 validation error, 2 parse error, 64 unknown command.
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigParseError,
    ConfigValidationError,
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

def _unsigned_zeros(text: str) -> str:
    """Drop the sign of every 12-decimal field that rounds to zero."""
    return text.replace("-0.000000000000", "0.000000000000")


def fmt(x: float) -> str:
    """Fixed 12-decimal rendering of every numeric result; zero is unsigned."""
    return _unsigned_zeros("%.12f" % float(x))


@functools.cache
def _parser(command: str) -> argparse.ArgumentParser:
    """The command's parser, built from :data:`_COMMANDS` on its first use
    and reused after: ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(prog=f"qexpect {command}")
    # A token read as a negative number, not a flag: Python 3.11's own pattern,
    # -\d+ or -\d*\.\d+, leaves out the exponent form of "--t -1e-3".
    parser._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$", re.IGNORECASE)
    parser.add_argument("config", help="path to a JSON config document")
    for name, options in _COMMANDS[command][2].items():
        parser.add_argument(f"--{name}", **options)
    return parser


def _cmd_born(opts, out) -> int:
    section = load_document(opts.config).section("born")
    psi, obs = section.state("state"), section.observable("observable")
    with section.naming():
        distribution = born_distribution(psi, obs)
    for outcome, p in distribution.entries:
        print(f"outcome={fmt(outcome)} probability={fmt(p)}", file=out)
    return 0


def _cmd_evolve(opts, out) -> int:
    if opts.grid < 2:
        raise ConfigValidationError("--grid: need at least 2 samples")
    if opts.grid >= 2**60 - 64:  # linspace's float count rounds to 2**60 here: 2**63 bytes, past numpy's arrays
        raise MemoryError(f"--grid: cannot hold {opts.grid} samples: numpy arrays stop below 2**63 bytes")
    if not np.isfinite(opts.t):
        raise ConfigValidationError(f"--t: expected a finite number, got {opts.t}")
    section = load_document(opts.config).section("evolve")
    psi, hamiltonian = section.state("state"), section.hamiltonian("hamiltonian")
    obs = section.observable("observable")
    times = np.linspace(0.0, opts.t, opts.grid)
    with section.naming():
        weights = evolved_born_grid(psi, hamiltonian, times, obs)
    grid = np.column_stack([times, weights])
    row = ",".join(["%.12f"] * grid.shape[1]) + "\n"
    out.write("t," + ",".join(f"p_{o:g}" for o in obs.outcomes) + "\n")
    out.write(_unsigned_zeros((row * len(grid)) % tuple(grid.ravel().tolist())))
    return 0


def _cmd_interference(opts, out) -> int:
    section = load_document(opts.config).section("interference")
    psi, target_obs = section.state("state"), section.observable("target_observable")
    outcome = section.real("target_outcome")
    partition = section.observable("partition")
    with section.naming("target_outcome"):
        target = projector_for(target_obs, outcome)
    with section.naming():
        report = interference_term(psi, target, partition)
    print(
        f"p_direct={fmt(report.p_direct)} p_classical={fmt(report.p_classical_sum)} "
        f"IT={fmt(report.interference)}",
        file=out,
    )
    return 0


def _cmd_order_effect(opts, out) -> int:
    section = load_document(opts.config).section("order_effect")
    psi, obs_i, obs_j = section.state("state"), section.observable("first"), section.observable("second")
    name_i, name_j = section.raw["first"], section.raw["second"]
    with section.naming():
        table_ij = sequential_joint(psi, obs_i, obs_j, first_id=name_i, second_id=name_j)
        table_ji = sequential_joint(psi, obs_j, obs_i, first_id=name_j, second_id=name_i)
    for tag, table in (("ij", table_ij), ("ji", table_ji)):
        print(f"# order {tag}: {table.first_observable} then {table.second_observable}", file=out)
        for alpha, beta, p in table.rows:
            print(f"{tag} alpha={fmt(alpha)} beta={fmt(beta)} p={fmt(p)}", file=out)
    print(f"order_effect={fmt(order_effect_from_tables(table_ij, table_ji))}", file=out)
    return 0


def _cmd_uncertainty(opts, out) -> int:
    section = load_document(opts.config).section("uncertainty")
    psi, obs_a, obs_b = section.state("state"), section.observable("first"), section.observable("second")
    with section.naming():
        product, bound = uncertainty_product(psi, obs_a, obs_b)
    print(f"delta_product={fmt(product)} robertson_bound={fmt(bound)}", file=out)
    return 0


def _cmd_ensemble(opts, out) -> int:
    section = load_document(opts.config).section("ensemble")
    psi, obs = section.state("state"), section.observable("observable")
    population = AgentPopulation(opts.n, psi, "quantum")
    with section.naming():
        analytic = born_distribution(psi, obs)
    empirical = run_ensemble(population, obs, opts.seed)
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


def _cmd_simulate_market(opts, out) -> int:
    """Write each requested file first and stdout last, so a file that cannot
    be written leaves stdout empty; a halted run's partial CSV goes wherever
    the whole one would, and it writes no report. The report reproduces its
    run: replaying ``config`` with ``seed`` regenerates ``results`` bit-exactly;
    the duration is informational."""
    if opts.csv and opts.report and Path(opts.csv).resolve() == Path(opts.report).resolve():
        raise ConfigValidationError(f"--report: same file as --csv: {opts.report}")
    scenario = scenario_from_document(load_document(opts.config))
    if opts.seed is not None:
        scenario = dataclasses.replace(scenario, seed=opts.seed)
    started = time.perf_counter()
    try:
        path, halt = run_market(scenario), None
    except SimulationHalt as exc:
        path, halt = exc.partial_path, exc
    duration = time.perf_counter() - started

    csv_text = _price_csv(path)
    if opts.csv:
        _write_file("csv", opts.csv, csv_text)
    if opts.report and halt is None:
        report = {
            "config": scenario_to_dict(scenario),
            "seed": scenario.seed,
            "version": __version__,
            "results": {"price_path": dataclasses.asdict(path)},
            "duration_seconds": duration,
        }
        _write_file("report", opts.report, json.dumps(report, indent=2) + "\n")
    if halt is not None:
        sys.stderr.write(f"error: {halt}\n")
    if not opts.csv:
        out.write(csv_text)
    return 0 if halt is None else 1


def _write_file(flag: str, path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigValidationError(f"--{flag}: cannot write {path}: {exc.strerror or exc}") from exc


# command -> (handler, its one-line summary, its options beyond the config path)
_COMMANDS = {
    "born": (_cmd_born, "outcome distribution of measuring a state", {}),
    "evolve": (_cmd_evolve, "outcome distribution over a time grid under a Hamiltonian", {
        "t": {"type": float, "required": True, "help": "end of the time grid"},
        "grid": {"type": int, "default": 101, "help": "number of grid samples"},
    }),
    "interference": (_cmd_interference, "direct vs classical total probability and their gap", {}),
    "order-effect": (_cmd_order_effect, "sequential joint tables in both orders and their gap", {}),
    "uncertainty": (_cmd_uncertainty, "uncertainty product and its commutator lower bound", {}),
    "ensemble": (_cmd_ensemble, "empirical vs analytic outcome frequencies", {
        "n": {"type": int, "default": 10000, "help": "number of agents"},
        "seed": {"type": int, "default": 0, "help": "ensemble seed"},
    }),
    "simulate-market": (_cmd_simulate_market, "run the ensemble market scenario, emit the price CSV", {
        "seed": {"type": int, "default": None, "help": "override the scenario seed"},
        "csv": {"type": str, "default": None, "help": "write the price CSV here instead of stdout"},
        "report": {"type": str, "default": None, "help": "write a JSON run report to this path"},
    }),
}

USAGE = "usage: qexpect <command> <config.json> [options]\n\ncommands:\n" + "".join(
    f"  {name:<17}{summary}\n" for name, (_, summary, _) in _COMMANDS.items()
)


def main(argv: list[str] | None = None, out=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out = sys.stdout if out is None else out
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(USAGE, end="", file=sys.stderr if not argv else out)
        return 64 if not argv else 0
    command, rest = argv[0], argv[1:]
    if command not in _COMMANDS:
        sys.stderr.write(f"error: unknown command {command!r}\n{USAGE}")
        return 64
    try:
        return _COMMANDS[command][0](_parser(command).parse_args(rest), out)
    except ConfigParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"validation error: request too large: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
