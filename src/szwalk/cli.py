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
from .errors import (AccuracyError, NumericError, ResourceLimitError, SZWalkError,
                     UnsupportedConfigurationError, ValidationError, is_kind, require)
from .quantum import DensityState, Instrument, general_instrument, maximally_mixed

LN2 = math.log(2.0)
JSON_NUMBER = (int, float)  # what `json` parses numbers to; checked with `is_kind`, so no bools

CSV_COLUMNS = ("depth", "a_n", "cesaro", "branch_count", "merged_count", "pruned_mass",
               "c_n", "e_n", "o_n")


class ConfigError(ValidationError):
    """Configuration file is malformed; message names the offending field."""


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _round15(x: float) -> float:
    return float(_fmt(x))


def _require(mapping: dict, field: str, context: str):
    if field not in mapping:
        raise ConfigError(f"missing field '{context}.{field}'")
    return mapping[field]


def _checked(value, field: str, kind: type, minimum: int = 0):
    """`value`, never converted, if it is a `kind` (not a bool) and an int is >= `minimum`."""
    if not is_kind(value, kind) or (kind is int and value < minimum):
        wanted = {int: f"an integer >= {minimum}", list: "a list", dict: "an object"}[kind]
        raise ConfigError(f"field '{field}' must be {wanted}")
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


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")

    walk_spec = _checked(_require(raw, "walk", "config"), "walk", dict)
    kind = _require(walk_spec, "kind", "walk")
    if kind == "hadamard":
        walk = walks.hadamard_walk(_checked(_require(walk_spec, "N", "walk"), "walk.N", int, 2))
    elif kind == "explicit":
        sigma = _checked(_require(walk_spec, "sigma", "walk"), "walk.sigma", list)
        coins = _checked(_require(walk_spec, "coins", "walk"), "walk.coins", list)
        shift = walks.ShiftPermutation(
            tuple(_checked(s, f"walk.sigma[{i}]", int) for i, s in enumerate(sigma)),
            coin_count=_checked(walk_spec.get("coin_count", 2), "walk.coin_count", int, 1),
            vertex_count=_checked(_require(walk_spec, "vertices", "walk"), "walk.vertices", int, 1))
        coin_ops = [_parse_matrix(c, f"walk.coins[{i}]") for i, c in enumerate(coins)]
        walk = walks.coined_walk(shift, coin_ops)
    else:
        raise ConfigError(f"field 'walk.kind' must be 'hadamard' or 'explicit', got {kind!r}")
    N = walk.vertex_count

    power = _checked(raw.get("power", 1), "power", int, 1)

    inst_spec = _checked(_require(raw, "instrument", "config"), "instrument", dict)
    inst_kind = _require(inst_spec, "kind", "instrument")
    if inst_kind == "coherent":
        instrument = walks.coin_vertex_instrument(N)
    elif inst_kind == "rank2_position":
        instrument = walks.position_instrument(N)
    elif inst_kind == "explicit_kraus":
        kraus = _checked(_require(inst_spec, "kraus", "instrument"), "instrument.kraus", list)
        ops = [_parse_matrix(k, f"instrument.kraus[{i}]") for i, k in enumerate(kraus)]
        labels = _checked(inst_spec.get("labels", []), "instrument.labels", list)
        instrument = general_instrument(ops, labels=labels)
    else:
        raise ConfigError(
            "field 'instrument.kind' must be 'coherent', 'rank2_position' or "
            f"'explicit_kraus', got {inst_kind!r}")
    if instrument.dim != walk.dim:
        raise ConfigError(
            f"instrument dimension {instrument.dim} does not match walk dimension {walk.dim}")

    state_spec = _checked(_require(raw, "state", "config"), "state", dict)
    state_kind = _require(state_spec, "kind", "state")
    if state_kind == "maximally_mixed":
        state = maximally_mixed(walk.dim)
    elif state_kind == "eigenstate":
        state = walks.hadamard_eigenstate(N)
    elif state_kind == "explicit":
        state = DensityState(_parse_matrix(_require(state_spec, "matrix", "state"),
                                           "state.matrix"))
    else:
        raise ConfigError(
            "field 'state.kind' must be 'maximally_mixed', 'eigenstate' or 'explicit', "
            f"got {state_kind!r}")
    if state.dim != walk.dim:
        raise ConfigError(
            f"state dimension {state.dim} does not match walk dimension {walk.dim}")

    part_spec = _checked(_require(raw, "partition", "config"), "partition", dict)
    part_kind = _require(part_spec, "kind", "partition")
    if part_kind == "atomic":
        partition = Partition.atomic(instrument.n_outcomes, labels=instrument.outcome_labels)
    elif part_kind == "vertex_blocks":
        if instrument.n_outcomes != 2 * N:
            raise ConfigError(
                "'partition.kind' vertex_blocks needs a coin-vertex instrument "
                f"with {2 * N} outcomes, got {instrument.n_outcomes}")
        partition = walks.vertex_partition(N)
    elif part_kind == "explicit":
        blocks = _checked(_require(part_spec, "blocks", "partition"), "partition.blocks", list)
        blocks = [[_checked(x, f"partition.blocks[{i}]", int) for x in
                   _checked(b, f"partition.blocks[{i}]", list)] for i, b in enumerate(blocks)]
        labels = _checked(part_spec.get("labels", []), "partition.labels", list) or None
        partition = Partition(blocks, labels=labels, size=instrument.n_outcomes)
    else:
        raise ConfigError(
            "field 'partition.kind' must be 'atomic', 'vertex_blocks' or 'explicit', "
            f"got {part_kind!r}")
    if partition.size != instrument.n_outcomes:
        raise ConfigError(
            f"partition covers {partition.size} outcomes, instrument has "
            f"{instrument.n_outcomes}")

    run_spec = _checked(raw.get("run", {}), "run", dict)
    known = {f.name for f in fields(sz.RunOptions)}
    for key in run_spec:
        if key not in known:
            raise ConfigError(f"unknown field 'run.{key}'")
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


def run_config(path: str | Path, out_dir: str | Path | None = None,
               strict: bool | None = None) -> RunRecord:
    """Execute a config file and write its per-depth CSV and summary JSON."""
    path = Path(path)
    config = load_config(path)
    if strict is not None:
        config.options = replace(config.options, strict=strict)
    started = time.perf_counter()
    report = sz.dynamical_entropy(config.step_unitary, config.instrument, config.state,
                                  config.partition, config.options)
    duration = time.perf_counter() - started
    record = RunRecord(config=config.raw, report=report, duration_s=duration)
    write_outputs(record, path.stem, Path(out_dir) if out_dir is not None else path.parent)
    return record


# Closed-form reference rows: (name, builder, expected, tolerance).

def _row_cycle_entropy(power: int) -> float:
    P = classical.matrix_power(classical.cycle_walk(5), power)
    return classical.markov_entropy(P, classical.stationary_distribution(P))


def _row_cs_eigenstate() -> float:
    walk = walks.hadamard_walk(5)
    reduction = sz.markov_reduction(walk.unitary, walks.coin_vertex_instrument(5),
                                    walks.hadamard_eigenstate(5))
    rep = classical.entropy_rate(reduction.transition_matrix, reduction.initial_distribution,
                                 n_max=5, tol=1e-9)
    if not rep.converged:
        raise NumericError("coherent-state entropy rate did not converge by depth 5")
    return rep.converged_value


def _row_sz(power: int, instrument_kind: str) -> float:
    walk = walks.hadamard_walk(5)
    u = walks.unitary_power(walk, power)
    if instrument_kind == "coherent":
        instrument = walks.coin_vertex_instrument(5)
        partition = walks.vertex_partition(5)
        opts = sz.RunOptions(n_max=12)
    else:
        instrument = walks.position_instrument(5)
        partition = Partition.atomic(5, labels=instrument.outcome_labels)
        opts = sz.RunOptions(n_max=25)
    report = sz.dynamical_entropy(u, instrument, maximally_mixed(10), partition, opts)
    if report.dynamical_entropy is None:
        raise NumericError("SZ run did not converge")
    return report.dynamical_entropy


REFERENCE_ROWS = (
    ("H(P) cycle N=5", lambda: _row_cycle_entropy(1), LN2, 1e-12),
    ("H(P^2) cycle N=5", lambda: _row_cycle_entropy(2), 1.5 * LN2, 1e-12),
    ("CS eigenstate rate N=5", _row_cs_eigenstate, LN2, 1e-9),
    ("SZ dyn U^2 coherent C_V", lambda: _row_sz(2, "coherent"), 1.5 * LN2, 1e-9),
    ("SZ dyn U rank-2 atomic", lambda: _row_sz(1, "rank2"), LN2, 1e-12),
    ("SZ dyn U^2 rank-2 atomic", lambda: _row_sz(2, "rank2"), 4.0 / 3.0 * LN2, 1e-12),
    # The paper's claim: measured every m steps, the entropy is not m times h(U).
    ("h(U^2) - 2 h(U) rank-2", lambda: _row_sz(2, "rank2") - 2.0 * _row_sz(1, "rank2"),
     -2.0 / 3.0 * LN2, 1e-12),
)


def paper_check(bits: bool = False, stream=None) -> int:
    """Check the built-in closed-form reference values; exit status 0 iff all pass."""
    stream = stream or sys.stdout
    scale = 1.0 / LN2 if bits else 1.0
    unit = "bits" if bits else "nats"
    failures = 0
    print(f"{'row':<28} {'expected':>20} {'computed':>20} {'|error|':>12}  status",
          file=stream)
    for name, compute, expected, tol in REFERENCE_ROWS:
        computed = compute()
        err = abs(computed - expected)
        ok = err < tol
        failures += 0 if ok else 1
        print(f"{name:<28} {_fmt(expected * scale):>20} {_fmt(computed * scale):>20} "
              f"{err:>12.3e}  {'ok' if ok else f'FAIL (tol {tol:g})'}", file=stream)
    print(f"units: {unit}; {len(REFERENCE_ROWS) - failures}/{len(REFERENCE_ROWS)} rows ok",
          file=stream)
    return 0 if failures == 0 else 1


def markov_cmd(N: int, power: int, start: str = "uniform", n_max: int = 30,
               tol: float = 1e-9, bits: bool = False, stream=None) -> int:
    """Print the cycle-walk entropy, stationary law, and rate convergence rows."""
    stream = stream or sys.stdout
    if N < 3:
        raise ValidationError(f"markov command needs N >= 3, got {N}")
    P = classical.matrix_power(classical.cycle_walk(N), power)
    scale = 1.0 / LN2 if bits else 1.0
    unit = "bits" if bits else "nats"
    stationary = classical.stationary_distribution(P)
    kind, _, k = start.partition(":")
    require(start == "uniform" or (kind == "point" and k.isdecimal()),
            f"--start must be 'uniform' or 'point:K', got {start!r}")
    mu0 = ProbVector.uniform(N) if start == "uniform" else ProbVector.point_mass(int(k), N)
    print(f"H(P^{power}) = {_fmt(classical.markov_entropy(P, stationary) * scale)} {unit}",
          file=stream)
    print("stationary distribution:", " ".join(_fmt(x) for x in stationary.entries),
          file=stream)
    rep = classical.entropy_rate(P, mu0, n_max=n_max, tol=tol)
    print("n  a_n  cesaro", file=stream)
    for n, (a, c) in enumerate(zip(rep.direct_sequence, rep.cesaro_sequence)):
        print(f"{n} {_fmt(a * scale)} {_fmt(c * scale)}", file=stream)
    verdict = (f"converged to {_fmt(rep.converged_value * scale)} {unit}"
               if rep.converged else "not converged")
    print(verdict, file=stream)
    return 0


def _display_summary(record: RunRecord, bits: bool, stream) -> None:
    scale = 1.0 / LN2 if bits else 1.0
    unit = "bits" if bits else "nats"
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
    p_markov.add_argument("--n", type=int, required=True, help="cycle length N (>= 3)")
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
        if args.command == "markov":
            return markov_cmd(args.n, args.power, args.start, bits=args.bits)
        raise ValidationError(f"unknown command {args.command!r}")
    except (ValidationError, UnsupportedConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AccuracyError, NumericError, SZWalkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
