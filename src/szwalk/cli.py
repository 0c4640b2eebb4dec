"""Command-line front end: config-driven runs, reference checks, Markov tables.

Commands:
  run <config.json> [--out DIR] [--strict] [--bits]
  paper-check [--bits]
  markov --n N --power M [--start uniform|point:K]

Exit codes: 0 success, 1 tolerance/accuracy failure, 2 usage/config error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import classical, sz, walks
from .entropy import Partition, ProbVector
from .errors import (NumericError, ResourceLimitError, SZWalkError,
                     UnsupportedConfigurationError, ValidationError, is_kind, require)
from .quantum import DensityState, Instrument, general_instrument, maximally_mixed

LN2 = math.log(2.0)
JSON_NUMBER = (int, float)  # what `json` parses numbers to; checked with `is_kind`, so no bools
_MISSING = object()

CSV_COLUMNS = ("depth", "a_n", "cesaro", "branch_count", "merged_count", "pruned_mass",
               "c_n", "e_n", "o_n")


class ConfigError(ValidationError):
    """Configuration file is malformed; message names the offending field."""


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _round15(x: float) -> float:
    return float(_fmt(x))


def _field(spec, path: str, kind: type | None = None, minimum: int = 0, default=_MISSING):
    """The field at dotted `path` ('walk.N'; 'walk' at the top) of its object `spec`, or the list
    entry `spec` itself at 'walk.sigma[0]'. Never converted: raises when missing with no `default`,
    not a `kind` (a bool is not an int) or an int below `minimum`."""
    value = spec if path.endswith("]") else spec.get(path.rpartition(".")[2], default)
    if value is _MISSING:
        raise ConfigError(f"missing field '{path if '.' in path else 'config.' + path}'")
    if kind is not None and (not is_kind(value, kind) or (kind is int and value < minimum)):
        wanted = {int: f"an integer >= {minimum}", list: "a list", dict: "an object"}[kind]
        raise ConfigError(f"field '{path}' must be {wanted}")
    return value


def _parse_complex(value, context: str) -> complex:
    try:
        if is_kind(value, JSON_NUMBER):
            return complex(value)
        if (isinstance(value, list) and len(value) == 2 and is_kind(value[0], JSON_NUMBER)
                and is_kind(value[1], JSON_NUMBER)):
            return complex(value[0], value[1])
    except OverflowError:  # a JSON integer beyond the float range
        raise ConfigError(f"field '{context}' is too large for a float") from None
    raise ConfigError(f"field '{context}' must be a number or [re, im] pair")


def _parse_matrix(rows, context: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(
            isinstance(row, list) and len(row) == len(rows) for row in rows):
        raise ConfigError(f"field '{context}' must be a non-empty square matrix (list of rows)")
    data = [[_parse_complex(x, f"{context}[{i}][{j}]") for j, x in enumerate(row)]
            for i, row in enumerate(rows)]
    return np.array(data, dtype=complex)


@dataclass
class ExperimentConfig:
    """A fully validated experiment: walk, instrument, state, partition, options."""

    walk: walks.CoinedWalk
    power: int
    instrument: Instrument
    state: DensityState
    partition: Partition
    options: sz.RunOptions
    raw: dict

    @property
    def step_unitary(self) -> np.ndarray:
        return walks.unitary_power(self.walk, self.power)


def _within_budget(dim: int, path: str) -> None:
    """`walks.MAX_DIM`, checked before the walk is built so that the error names the field."""
    require(dim <= walks.MAX_DIM, lambda: f"field '{path}' gives a walk of dimension {dim}, "
            f"over the dimension budget of {walks.MAX_DIM}", ConfigError)


def _hadamard_walk(spec: dict, *_) -> walks.CoinedWalk:
    N = _field(spec, "walk.N", int, 2)
    _within_budget(2 * N, "walk.N")
    return walks.hadamard_walk(N)


def _explicit_walk(spec: dict, *_) -> walks.CoinedWalk:
    coin_count = _field(spec, "walk.coin_count", int, 1, default=2)
    vertices = _field(spec, "walk.vertices", int, 1)
    _within_budget(coin_count * vertices, "walk.vertices")
    sigma = _field(spec, "walk.sigma", list)
    coins = _field(spec, "walk.coins", list)
    shift = walks.ShiftPermutation(
        tuple(_field(s, f"walk.sigma[{i}]", int) for i, s in enumerate(sigma)),
        coin_count=coin_count, vertex_count=vertices)
    return walks.coined_walk(shift, [_parse_matrix(c, f"walk.coins[{i}]")
                                     for i, c in enumerate(coins)])


def _cycle_vertices(walk: walks.CoinedWalk, kind: str) -> int:
    """The vertex count for a kind that assumes two coins per vertex, checked before anything
    is built."""
    require(walk.shift.coin_count == 2, lambda: f"{kind} needs a walk with 2 coins per vertex, "
            f"got field 'walk.coin_count' {walk.shift.coin_count}", ConfigError)
    return walk.vertex_count


def _vertex_blocks(spec: dict, walk: walks.CoinedWalk, t: Instrument) -> Partition:
    N = walk.vertex_count
    require(t.n_outcomes == 2 * N, "'partition.kind' vertex_blocks needs a coin-vertex "
            f"instrument with {2 * N} outcomes, got {t.n_outcomes}", ConfigError)
    return walks.vertex_partition(N)


def _explicit_partition(spec: dict, walk: walks.CoinedWalk, t: Instrument) -> Partition:
    blocks = [[_field(x, f"partition.blocks[{i}]", int)
               for x in _field(b, f"partition.blocks[{i}]", list)]
              for i, b in enumerate(_field(spec, "partition.blocks", list))]
    labels = _field(spec, "partition.labels", list, default=[]) or None
    return Partition(blocks, labels=labels, size=t.n_outcomes)


# Each section's kinds, in the order its error message names them: kind -> builder(spec, walk,
# instrument), given the sections built before it.
SECTION_KINDS = {
    "walk": {"hadamard": _hadamard_walk, "explicit": _explicit_walk},
    "instrument": {
        "coherent": lambda spec, walk, _: walks.coin_vertex_instrument(
            _cycle_vertices(walk, "'instrument.kind' coherent")),
        "rank2_position": lambda spec, walk, _: walks.position_instrument(
            _cycle_vertices(walk, "'instrument.kind' rank2_position")),
        "explicit_kraus": lambda spec, *_: general_instrument(
            [_parse_matrix(k, f"instrument.kraus[{i}]")
             for i, k in enumerate(_field(spec, "instrument.kraus", list))],
            labels=_field(spec, "instrument.labels", list, default=[]))},
    "state": {
        "maximally_mixed": lambda spec, walk, _: maximally_mixed(walk.dim),
        "eigenstate": lambda spec, walk, _: walks.hadamard_eigenstate(
            _cycle_vertices(walk, "'state.kind' eigenstate")),
        "explicit": lambda spec, *_: DensityState(_parse_matrix(_field(spec, "state.matrix"),
                                                                "state.matrix"))},
    "partition": {
        "atomic": lambda spec, walk, t: Partition.atomic(t.n_outcomes, labels=t.outcome_labels),
        "vertex_blocks": _vertex_blocks,
        "explicit": _explicit_partition},
}


def _section(raw: dict, name: str, walk: walks.CoinedWalk | None = None,
             instrument: Instrument | None = None):
    """Build section `name` by its kind; an instrument or a state must act on the walk's space."""
    spec = _field(raw, name, dict)
    kind = _field(spec, f"{name}.kind")
    builders = SECTION_KINDS[name]
    *rest, last = (f"'{k}'" for k in builders)
    require(isinstance(kind, str) and kind in builders,
            f"field '{name}.kind' must be {', '.join(rest)} or {last}, got {kind!r}", ConfigError)
    built = builders[kind](spec, walk, instrument)
    require(name not in ("instrument", "state") or built.dim == walk.dim,
            lambda: f"{name} dimension {built.dim} does not match walk dimension {walk.dim}",
            ConfigError)
    return built


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    walk = _section(raw, "walk")
    power = _field(raw, "power", int, 1, default=1)
    instrument = _section(raw, "instrument", walk)
    state = _section(raw, "state", walk)
    partition = _section(raw, "partition", walk, instrument)
    run_spec = _field(raw, "run", dict, default={})
    unknown = [key for key in run_spec if key not in {f.name for f in fields(sz.RunOptions)}]
    require(not unknown, lambda: f"unknown field 'run.{unknown[0]}'", ConfigError)
    try:
        options = sz.RunOptions(**run_spec)
    except ValidationError as exc:
        raise ConfigError(f"field 'run': {exc}") from exc
    return ExperimentConfig(walk=walk, power=power, instrument=instrument, state=state,
                            partition=partition, options=options, raw=raw)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    return parse_config(raw)


@dataclass
class RunRecord:
    """Everything one `run` invocation produced."""

    config: dict
    report: sz.EntropyReport
    duration_s: float
    csv_path: Path | None = None
    summary_path: Path | None = None


def _report_dict(rep) -> dict:
    return {
        "converged": rep.converged,
        "value": None if rep.converged_value is None else _round15(rep.converged_value),
        "steps_used": rep.steps_used,
        "direct_sequence": [_round15(x) for x in rep.direct_sequence],
        "cesaro_sequence": [_round15(x) for x in rep.cesaro_sequence],
    }


def write_outputs(record: RunRecord, stem: str, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}_depth.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in record.report.records:
            classes = row.classes
            writer.writerow([
                row.depth, _fmt(row.a_n), _fmt(row.cesaro), row.branch_count,
                row.merged_count, _fmt(row.pruned_mass),
                _fmt(classes.constant) if classes else "",
                _fmt(classes.even) if classes else "",
                _fmt(classes.odd) if classes else "",
            ])
    summary_path = out_dir / f"{stem}_summary.json"
    summary = {
        "config": record.config,
        "sz": _report_dict(record.report.sz_entropy),
        "measurement": _report_dict(record.report.measurement_entropy),
        "dynamical_entropy": (None if record.report.dynamical_entropy is None
                              else _round15(record.report.dynamical_entropy)),
        "units": "nats",
        "duration_s": record.duration_s,
    }
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    record.csv_path = csv_path
    record.summary_path = summary_path


def _solve(config: ExperimentConfig) -> sz.EntropyReport:
    return sz.dynamical_entropy(config.step_unitary, config.instrument, config.state,
                                config.partition, config.options)


def run_config(path: str | Path, out_dir: str | Path | None = None,
               strict: bool | None = None) -> RunRecord:
    """Execute a config file and write its per-depth CSV and summary JSON."""
    path = Path(path)
    config = load_config(path)
    if strict is not None:
        config.options = replace(config.options, strict=strict)
    started = time.perf_counter()
    report = _solve(config)
    duration = time.perf_counter() - started
    record = RunRecord(config=config.raw, report=report, duration_s=duration)
    write_outputs(record, path.stem, Path(out_dir) if out_dir is not None else path.parent)
    return record


def _units(bits: bool) -> tuple[float, str]:
    """The display scale and unit of an entropy computed in nats."""
    return (1.0 / LN2, "bits") if bits else (1.0, "nats")


# Closed-form reference rows: (name, compute, expected, tolerance). `compute` gets the values
# of the rows above it, so each (config, power) is solved once. The quantum rows are
# Hadamard N=5 experiments built from these configs, the way `szwalk run` builds them.
RANK2 = {"walk": {"kind": "hadamard", "N": 5}, "instrument": {"kind": "rank2_position"},
         "state": {"kind": "maximally_mixed"}, "partition": {"kind": "atomic"},
         "run": {"n_max": 25}}
COHERENT = {**RANK2, "instrument": {"kind": "coherent"}, "partition": {"kind": "vertex_blocks"},
            "run": {"n_max": 12}}


def _row_cycle_entropy(power: int) -> float:
    P = classical.matrix_power(classical.cycle_walk(5), power)
    return classical.markov_entropy(P, classical.stationary_distribution(P))


def _row_cs_eigenstate() -> float:
    config = parse_config({**COHERENT, "state": {"kind": "eigenstate"}})
    reduction = sz.markov_reduction(config.step_unitary, config.instrument, config.state)
    rep = classical.entropy_rate(reduction.transition_matrix, reduction.initial_distribution,
                                 n_max=5, tol=1e-9)
    require(rep.converged, "coherent-state entropy rate did not converge by depth 5",
            NumericError)
    return rep.converged_value


def _row_sz(raw: dict, power: int) -> float:
    value = _solve(parse_config({**raw, "power": power})).dynamical_entropy
    require(value is not None, "SZ run did not converge", NumericError)
    return value


REFERENCE_ROWS = (
    ("H(P) cycle N=5", lambda rows: _row_cycle_entropy(1), LN2, 1e-12),
    ("H(P^2) cycle N=5", lambda rows: _row_cycle_entropy(2), 1.5 * LN2, 1e-12),
    ("CS eigenstate rate N=5", lambda rows: _row_cs_eigenstate(), LN2, 1e-9),
    ("SZ dyn U^2 coherent C_V", lambda rows: _row_sz(COHERENT, 2), 1.5 * LN2, 1e-9),
    ("SZ dyn U rank-2 atomic", lambda rows: _row_sz(RANK2, 1), LN2, 1e-12),
    ("SZ dyn U^2 rank-2 atomic", lambda rows: _row_sz(RANK2, 2), 4.0 / 3.0 * LN2, 1e-12),
    # The paper's claim: measured every m steps, the entropy is not m times h(U).
    ("h(U^2) - 2 h(U) rank-2",
     lambda rows: rows["SZ dyn U^2 rank-2 atomic"] - 2.0 * rows["SZ dyn U rank-2 atomic"],
     -2.0 / 3.0 * LN2, 1e-12),
)


def paper_check(bits: bool = False, stream=None) -> int:
    """Check the built-in closed-form reference values; exit status 0 iff all pass."""
    stream = stream or sys.stdout
    scale, unit = _units(bits)
    failures = 0
    print(f"{'row':<28} {'expected':>20} {'computed':>20} {'|error|':>12}  status",
          file=stream)
    rows = {}
    for name, compute, expected, tol in REFERENCE_ROWS:
        computed = rows[name] = compute(rows)
        err = abs(computed - expected)
        ok = err < tol
        failures += 0 if ok else 1
        print(f"{name:<28} {_fmt(expected * scale):>20} {_fmt(computed * scale):>20} "
              f"{err:>12.3e}  {'ok' if ok else f'FAIL (tol {tol:g})'}", file=stream)
    print(f"units: {unit}; {len(REFERENCE_ROWS) - failures}/{len(REFERENCE_ROWS)} rows ok",
          file=stream)
    return 0 if failures == 0 else 1


def markov_cmd(N: int, power: int, start: str = "uniform", bits: bool = False,
               stream=None) -> int:
    """Print the cycle-walk entropy, stationary law, and rate convergence rows."""
    stream = stream or sys.stdout
    P = classical.matrix_power(classical.cycle_walk(N), power)
    scale, unit = _units(bits)
    stationary = classical.stationary_distribution(P)
    kind, _, k = start.partition(":")
    require(start == "uniform" or (kind == "point" and k.isdecimal()),
            f"--start must be 'uniform' or 'point:K', got {start!r}")
    mu0 = ProbVector.uniform(N) if start == "uniform" else ProbVector.point_mass(int(k), N)
    print(f"H(P^{power}) = {_fmt(classical.markov_entropy(P, stationary) * scale)} {unit}",
          file=stream)
    print("stationary distribution:", " ".join(_fmt(x) for x in stationary.entries),
          file=stream)
    rep = classical.entropy_rate(P, mu0, n_max=30, tol=1e-9)
    print("n  a_n  cesaro", file=stream)
    for n, (a, c) in enumerate(zip(rep.direct_sequence, rep.cesaro_sequence)):
        print(f"{n} {_fmt(a * scale)} {_fmt(c * scale)}", file=stream)
    verdict = (f"converged to {_fmt(rep.converged_value * scale)} {unit}"
               if rep.converged else "not converged")
    print(verdict, file=stream)
    return 0


def _display_summary(record: RunRecord, bits: bool, stream) -> None:
    scale, unit = _units(bits)
    rep = record.report
    sz_val = rep.sz_entropy.converged_value
    meas_val = rep.measurement_entropy.converged_value
    print(f"SZ entropy:          "
          f"{_fmt(sz_val * scale) if sz_val is not None else 'not converged'}", file=stream)
    print(f"measurement entropy: "
          f"{_fmt(meas_val * scale) if meas_val is not None else 'not converged'}", file=stream)
    if rep.dynamical_entropy is not None:
        print(f"dynamical entropy:   {_fmt(rep.dynamical_entropy * scale)} {unit}", file=stream)
    else:
        print("dynamical entropy:   undefined (a run did not converge)", file=stream)
    print(f"wrote {record.csv_path} and {record.summary_path}", file=stream)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szwalk",
        description="SZ dynamical entropy of coined quantum walks (entropies in nats).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON experiment config")
    p_run.add_argument("config", help="path to the experiment config JSON")
    p_run.add_argument("--out", default=None, help="output directory (default: beside config)")
    p_run.add_argument("--strict", action="store_true",
                       help="escalate accuracy warnings to errors")
    p_run.add_argument("--bits", action="store_true", help="display entropies in bits")

    p_check = sub.add_parser("paper-check",
                             help="check the built-in closed-form reference values")
    p_check.add_argument("--bits", action="store_true", help="display entropies in bits")

    p_markov = sub.add_parser("markov", help="cycle-walk entropy rate table")
    p_markov.add_argument("--n", type=int, required=True,
                          help=f"cycle length N (3 <= N <= walks.MAX_DIM = {walks.MAX_DIM}; "
                          "a larger N exits 3)")
    p_markov.add_argument("--power", type=int, default=1, help="matrix power M (default 1)")
    p_markov.add_argument("--start", default="uniform", help="'uniform' or 'point:K'")
    p_markov.add_argument("--bits", action="store_true", help="display entropies in bits")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            record = run_config(args.config, out_dir=args.out,
                                strict=True if args.strict else None)
            _display_summary(record, args.bits, sys.stdout)
            return 0
        if args.command == "paper-check":
            return paper_check(bits=args.bits)
        return markov_cmd(args.n, args.power, args.start, bits=args.bits)
    except SZWalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ValidationError, UnsupportedConfigurationError)):
            return 2
        return 3 if isinstance(exc, ResourceLimitError) else 1


if __name__ == "__main__":
    sys.exit(main())
