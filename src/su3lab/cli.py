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
import csv
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import CentralFiberError, ConfigError, Su3LabError
from .experiments import (
    REAL_COLUMN_NAMES,
    ExperimentConfig,
    _character_reals,
    matrix_from_c_spec,
    run_experiment,
)
from .fiber import base_point, commutator, fiber_residual, is_central
from .flows import flow_walk_stack
from .mcg import apply_word, random_word
from .su3 import haar_random
from .traces import character_values

_CONFIG_KEYS = (
    "kind",
    "c_spec",
    "N",
    "word_length",
    "trials",
    "seed",
    "height",
    "tol",
    "out",
)

# A trace label on a triple characteristic root resolves with about
# cube-root-of-eps clustering error (1e-5), so the centrality test for
# labels must sit above that floor; the central fibers are 5.2 apart.
_CENTRAL_LABEL_TOL = 1e-4


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    return np.random.Generator(np.random.PCG64(seed))


def _format(value: float) -> str:
    return format(float(value), ".17g")


def _jsonable(value):
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _c_spec_from_args(args) -> str | None:
    if getattr(args, "trace", None) is not None:
        return f"trace={args.trace}"
    if getattr(args, "angles", None) is not None:
        return f"angles={args.angles}"
    return None


def _write_csv(path: str | None, header: list[str], rows: list[list[str]]) -> None:
    if path is None:
        _emit_csv(sys.stdout, header, rows)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _emit_csv(handle, header, rows)


def _emit_csv(handle, header: list[str], rows: list[list[str]]) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _print_manifest(command: str, args, started: str, resolved: dict) -> None:
    manifest = {
        "command": command,
        "seed": int(args.seed),
        "version": __version__,
        "started_at": started,
        "finished_at": _timestamp(),
        "out": args.out,
        "config": resolved,
    }
    print(json.dumps(_jsonable(manifest), sort_keys=True))


def _character_csv_rows(index, a, b, c) -> list[list[str]]:
    reals = _character_reals(character_values(a, b))
    residual = np.atleast_1d(fiber_residual(a, b, c))
    return [
        [str(int(i))] + [_format(v) for v in row] + [_format(r)]
        for i, row, r in zip(index, reals, residual)
    ]


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
        p0 = base_point(fiber)
        a, b = flow_walk_stack(
            np.broadcast_to(p0.a, (count, 3, 3)),
            np.broadcast_to(p0.b, (count, 3, 3)),
            args.walk_steps,
            rng,
        )
        c = fiber
        sampler = "fiber flow walks"

    header = ["sample_index", *REAL_COLUMN_NAMES, "fiber_residual"]
    rows = _character_csv_rows(range(count), a, b, c) if count else []
    _write_csv(args.out, header, rows)
    if args.out is not None:
        resolved = {
            "count": count,
            "c_spec": spec,
            "walk_steps": int(args.walk_steps),
            "sampler": sampler,
        }
        _print_manifest("sample", args, started, resolved)
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
    if is_central(fiber, tol=_CENTRAL_LABEL_TOL):
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

    header = ["word_index", *REAL_COLUMN_NAMES, "fiber_residual"]
    rows = _character_csv_rows(range(len(points)), a, b, fiber)
    _write_csv(args.out, header, rows)
    if args.out is not None:
        resolved = {
            "N": int(args.n),
            "word_length": int(args.word_length),
            "c_spec": spec,
        }
        _print_manifest("orbit", args, started, resolved)
    return 0


def parse_config_file(path: str) -> ExperimentConfig:
    """Parse the flat key=value experiment config format.

    One pair per line, "#" starts a comment, unknown or repeated keys are
    errors, and kind and seed are mandatory.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()

    data: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in data:
            raise ConfigError(f"{path}:{lineno}: repeated config key {key!r}")
        data[key] = value.strip()

    for required in ("kind", "seed"):
        if required not in data:
            raise ConfigError(f"{path}: missing config key {required!r}")

    def as_int(key: str, default: int) -> int:
        if key not in data:
            return default
        try:
            return int(data[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: config key {key!r} must be an integer") from exc

    try:
        tol = float(data["tol"]) if "tol" in data else 1e-9
    except ValueError as exc:
        raise ConfigError(f"{path}: config key 'tol' must be a number") from exc

    return ExperimentConfig(
        kind=data["kind"],
        seed=as_int("seed", 0),
        c_spec=data.get("c_spec"),
        n=as_int("N", 10_000),
        word_length=as_int("word_length", 200),
        trials=as_int("trials", 1),
        height=as_int("height", 20),
        tol=tol,
        out=data.get("out"),
    )


def cmd_experiment(args) -> int:
    """Run the configured experiment and emit its JSON report."""
    started = _timestamp()
    config = parse_config_file(args.config)
    report = run_experiment(config)
    report.manifest.update(
        {
            "command": "experiment",
            "version": __version__,
            "started_at": started,
            "finished_at": _timestamp(),
            "out": config.out,
        }
    )
    text = json.dumps(_jsonable(report.to_json_dict()), sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if config.out is not None:
        with open(config.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
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
    except Su3LabError as exc:
        print(f"su3lab: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"su3lab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
