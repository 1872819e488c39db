"""Command line front end: reproducible samples, orbits, and experiments.

Three subcommands:

- sample: character rows for Haar pairs, or for flow-walk samples on one
  fiber when a fiber label is given.
- orbit: a trajectory of cumulative random twist words on one fiber.
- experiment: run a named statistical experiment from a key=value config
  file and emit its JSON report.

Data sections are a pure function of the seed: rerunning a command with
the same flags produces byte-identical CSV files and identical JSON
statistics.  Timestamps appear only inside the manifest (a separate stdout
line for the CSV commands, a sub-object for JSON reports).

Exit codes: 0 success, 1 experiment threshold failure, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
import typing
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import CentralFiberError, ConfigError, Su3LabError
from .experiments import (
    ExperimentConfig,
    matrix_from_c_spec,
    run_experiment,
)
from .fiber import base_point, commutator, fiber_residual, is_central
from .flows import walk_from
from .mcg import apply_word, random_word
from .su3 import haar_random
from .traces import REAL_COLUMN_NAMES, character_reals, character_values


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    return np.random.Generator(np.random.PCG64(seed))


def _format(value: float) -> str:
    return format(float(value), ".17g")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _c_spec_from_args(args) -> str | None:
    if args.trace is not None:
        return f"trace={args.trace}"
    if args.angles is not None:
        return f"angles={args.angles}"
    return None


def _run_manifest(command: str, started: str, out: str | None) -> dict:
    """The manifest keys every command shares."""
    return {
        "command": command,
        "version": __version__,
        "started_at": started,
        "finished_at": _timestamp(),
        "out": out,
    }


def _emit_characters(args, started: str, index: str, a, b, c, resolved: dict) -> None:
    """Write one CSV row per pair (index, character reals, fiber residual)
    to args.out or stdout; with args.out, print the run manifest line."""
    reals = character_reals(character_values(a, b))
    out = contextlib.nullcontext(sys.stdout)
    if args.out is not None:
        out = open(args.out, "w", encoding="utf-8", newline="")
    with out as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([index, *REAL_COLUMN_NAMES, "fiber_residual"])
        writer.writerows(
            [str(i)] + [_format(v) for v in row] + [_format(r)]
            for i, (row, r) in enumerate(zip(reals, fiber_residual(a, b, c)))
        )
    if args.out is not None:
        manifest = _run_manifest(args.command, started, args.out)
        manifest.update(seed=int(args.seed), config=resolved)
        print(json.dumps(manifest, sort_keys=True))


def cmd_sample(args) -> int:
    """Emit `count` character rows: Haar pairs, or fiber-walk samples."""
    if args.count < 0:
        raise ConfigError("count must be nonnegative")
    if args.walk_steps < 0:
        raise ConfigError("walk steps must be nonnegative")
    started = _timestamp()
    rng = _rng(args.seed)
    spec = _c_spec_from_args(args)

    count = int(args.count)
    if spec is None:
        a = haar_random(rng, size=count)
        b = haar_random(rng, size=count)
        c = commutator(a, b)
        sampler = "haar pairs"
    else:
        fiber = matrix_from_c_spec(spec)
        a, b = walk_from(base_point(fiber), count, args.walk_steps, rng)
        c = fiber
        sampler = "fiber flow walks"

    resolved = {
        "count": count,
        "c_spec": spec,
        "walk_steps": int(args.walk_steps),
        "sampler": sampler,
    }
    _emit_characters(args, started, "sample_index", a, b, c, resolved)
    return 0


def cmd_orbit(args) -> int:
    """Emit a trajectory of cumulative random twist words on one fiber."""
    if args.n < 1:
        raise ConfigError("N must be at least 1")
    if args.word_length < 0:
        raise ConfigError("word length must be nonnegative")
    started = _timestamp()
    spec = _c_spec_from_args(args)
    if spec is None:
        raise ConfigError("orbit needs a fiber label: --trace or --angles")
    rng = _rng(args.seed)
    fiber = matrix_from_c_spec(spec)
    if is_central(fiber):
        raise CentralFiberError(
            "the fiber label is central, so every row would carry the same"
            " character; run the central_fiber_rigidity experiment instead"
        )
    p = base_point(fiber)

    points = [p]
    for _ in range(int(args.n) - 1):
        p = apply_word(random_word(args.word_length, rng), p)
        points.append(p)
    a = np.stack([q.a for q in points])
    b = np.stack([q.b for q in points])

    resolved = {
        "N": int(args.n),
        "word_length": int(args.word_length),
        "c_spec": spec,
    }
    _emit_characters(args, started, "word_index", a, b, fiber, resolved)
    return 0


def parse_config_file(path: str) -> ExperimentConfig:
    """Parse the flat key=value experiment config format.

    One pair per line, "#" starts a comment, unknown or repeated keys are
    errors.  The keys, their types and defaults, and which are mandatory
    (kind and seed) are those of the ExperimentConfig fields.
    """
    try:
        # utf-8-sig also reads files that begin with a byte-order mark.
        with open(path, "r", encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    # The file keys are the field names, except that the field n is spelled N.
    fields = {
        "N" if f.name == "n" else f.name: f for f in dataclasses.fields(ExperimentConfig)
    }
    types = typing.get_type_hints(ExperimentConfig)

    data: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in fields:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in data:
            raise ConfigError(f"{path}:{lineno}: repeated config key {key!r}")
        data[key] = value.strip()

    values = {}
    for key, f in fields.items():
        if key not in data:
            if f.default is dataclasses.MISSING:
                raise ConfigError(f"{path}: missing config key {key!r}")
        elif types[f.name] in (int, float):
            try:
                values[f.name] = types[f.name](data[key])
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: config key {key!r} is not a valid {types[f.name].__name__}"
                ) from exc
        else:
            values[f.name] = data[key]
    return ExperimentConfig(**values)


def cmd_experiment(args) -> int:
    """Run the configured experiment and emit its JSON report."""
    started = _timestamp()
    config = parse_config_file(args.config)
    report = run_experiment(config)
    report.manifest.update(_run_manifest("experiment", started, config.out))
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    # The copy first: a report that cannot be saved is not printed either.
    if config.out is not None:
        with open(config.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    sys.stdout.write(text)
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su3lab",
        description="Numerical experiments on commutator fibers of special"
        " unitary pairs and their twist dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fiber_flags(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--trace",
            help="fiber label as 're,im', resolved through the characteristic polynomial",
        )
        group.add_argument(
            "--angles",
            help="fiber label as eigenvalue angles 't1,t2' in turns",
        )

    p_sample = sub.add_parser(
        "sample", help="emit character rows for Haar pairs or fiber-walk samples"
    )
    p_sample.add_argument("--count", type=int, default=100)
    p_sample.add_argument("--seed", type=int, required=True)
    add_fiber_flags(p_sample)
    p_sample.add_argument(
        "--walk-steps", type=int, default=64, help="flow-walk length per fiber sample"
    )
    p_sample.add_argument("--out", help="CSV output path (default stdout)")
    p_sample.set_defaults(func=cmd_sample)

    p_orbit = sub.add_parser(
        "orbit", help="emit a cumulative random twist-word trajectory on one fiber"
    )
    p_orbit.add_argument("--n", type=int, default=1000, help="number of rows")
    p_orbit.add_argument("--word-length", type=int, default=200)
    p_orbit.add_argument("--seed", type=int, required=True)
    add_fiber_flags(p_orbit)
    p_orbit.add_argument("--out", help="CSV output path (default stdout)")
    p_orbit.set_defaults(func=cmd_orbit)

    p_exp = sub.add_parser(
        "experiment", help="run an experiment from a key=value config file"
    )
    p_exp.add_argument("config", help="path to the config file")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"su3lab: config error: {exc}", file=sys.stderr)
        return 2
    except (Su3LabError, OSError) as exc:
        print(f"su3lab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
