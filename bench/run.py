"""Benchmark runner for su3lab.

Runs one seeded workload through su3lab's public API, checks its outputs,
and prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics.

    python3 bench/run.py --workload flow_walk --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

--trace 0 reports the end-to-end metrics (work_per_s, setup_s,
peak_rss_mb) from untraced calls, with times rescaled to a reference
machine speed (reference.py).  --trace 1 alternates untraced and traced
calls and reports per-layer metrics from the spans; see NOTES.md.
Run it from the repository root; it imports su3lab from ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# One closed-loop caller, one BLAS thread: the kernels are stacks of 3x3
# to 16x8 matrices, which OpenBLAS does not split across threads, and a
# single thread keeps a shared 2-core machine steadier.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh processes whose set-up time is measured in each untraced run.
SETUP_PROBES = 5

END_TO_END_UNITS = {"work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: (layer, stat) read from the spans, per traced call.
LAYER_STATS = (
    ("su3.renormalize", ("calls", "rows", "self_s")),
    ("su3.exp_algebra", ("calls", "rows", "self_s")),
    ("flows.flow_walk_stack", ("self_s",)),
    ("mcg.apply_word_stack", ("self_s",)),
    ("mcg.apply_word", ("calls", "self_s")),
    ("mcg.random_word_indices", ("calls", "self_s")),
    ("fiber.RepPoint.validate", ("calls", "self_s")),
    ("cli.cmd_orbit", ("self_s",)),
    ("traces.is_generic", ("self_s",)),
    ("fiber.centralizer_intersection", ("self_s",)),
    ("fiber.d_kappa_matrix", ("self_s",)),
    ("fiber.d_kappa_rank", ("self_s",)),
    ("traces.character_values", ("self_s",)),
    ("experiments.ks_statistic", ("self_s",)),
    ("fiber.fiber_residual", ("self_s",)),
    ("su3.haar_random", ("self_s",)),
    ("fiber.base_point", ("self_s",)),
)
STAT_UNITS = {"calls": "count", "rows": "count", "self_s": "s"}

# Derived per-layer metrics: inclusive time of one engine step on 1000 rows.
STEP_METRICS = {
    "flows.step_ms_per_1k_rows": "flows.flow_walk_stack",
    "mcg.letter_ms_per_1k_rows": "mcg.apply_word_stack",
}
TRACE_UNITS = {"trace.overhead_s": "s", "trace.wall_s": "s", "trace.errors": "count"}


def per_layer_units() -> dict[str, str]:
    units = {
        f"{layer}.{stat}": STAT_UNITS[stat]
        for layer, stats in LAYER_STATS
        for stat in stats
    }
    units.update({name: "ms" for name in STEP_METRICS})
    units.update(TRACE_UNITS)
    return units


def import_package():
    """Import su3lab from this checkout's src, or exit with code 2."""
    if not (SRC / "su3lab" / "__init__.py").is_file():
        print(f"bench: no su3lab package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import su3lab

    if Path(su3lab.__file__).resolve().parent != (SRC / "su3lab").resolve():
        print(f"bench: su3lab imported from {su3lab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def git_commit() -> str:
    """HEAD's commit read from .git without starting git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {code}")
    return elapsed


def call_once(wl, inputs, reference=None):
    """One timed call and its untimed check; an exception fails every
    operation of the call.  With a reference, the machine's speed is
    sampled during the call and returned with it."""
    from workloads import Outcome

    start = time.perf_counter()
    reference_s = None
    try:
        if reference:
            out, elapsed, reference_s = reference.timed_call(wl.call, inputs)
        else:
            out = wl.call(inputs)
            elapsed = time.perf_counter() - start
        return elapsed, reference_s, wl.check(inputs, out)
    except Exception:
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        n = wl.attempted_per_call
        return elapsed, reference_s, Outcome(n, n, "exception")


def probe_setups(workload: str, seed: int, reference) -> list[tuple[float, float]]:
    """SETUP_PROBES set-up times, each with the mean reference time around it."""
    out = []
    before = reference.seconds()
    for _ in range(SETUP_PROBES):
        elapsed = probe_setup(workload, seed)
        after = reference.seconds()
        out.append((elapsed, (before + after) / 2))
        before = after
    return out


def measure(wl, inputs, seconds: float, reference=None, tracer=None) -> list[dict]:
    """Closed loop of calls for about `seconds`.

    Each round is one untraced call, followed by one traced call when a
    tracer is given.  A round starts only if a round as slow as the
    slowest so far still fits, after the workload's minimum call count.
    """
    records = []
    slowest = 0.0
    minimum = 1 if tracer is not None else wl.min_calls
    begin = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        elapsed, reference_s, outcome = call_once(wl, inputs, reference)
        records.append({"traced": False, "seconds": elapsed,
                        "reference_s": reference_s, **vars(outcome)})
        if tracer is not None:
            with tracer.active(f"call{rounds}"):
                elapsed, _, outcome = call_once(wl, inputs)
            records.append({"traced": True, "seconds": elapsed, **vars(outcome)})
        rounds += 1
        slowest = max(slowest, time.perf_counter() - round_start)
        if rounds >= minimum and time.perf_counter() - begin + slowest > seconds:
            return records


def count_failures(records: list[dict]) -> tuple[int, int]:
    """Attempted and failed operations; a call whose digest differs from
    the first call's counts all its operations as failed."""
    first = records[0]["digest"]
    attempted = failed = 0
    for r in records:
        if r["digest"] != first:
            r["failed"] = r["attempted"]
        attempted += r["attempted"]
        failed += r["failed"]
    return attempted, failed


def end_to_end(wl, records, probes) -> tuple[dict, dict]:
    """The metrics, rescaled to the reference machine, and the raw times."""
    from reference import rescale

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "work_per_s": statistics.median(
            wl.work_per_call / rescale(r["seconds"], r["reference_s"]) for r in records
        ),
        "setup_s": statistics.median(rescale(p, ref) for p, ref in probes),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    raw = {
        "work_per_s": statistics.median(wl.work_per_call / r["seconds"] for r in records),
        "setup_s": statistics.median(p for p, _ in probes),
    }
    return metrics, raw


def layer_metrics(tracer, setup_wall: float, records) -> tuple[dict, list]:
    """Per-layer values: the traced set-up plus the mean over traced calls."""
    from tracer import LayerTotals, layer_totals

    totals = layer_totals(tracer.spans)
    calls = [run for run in totals if run != "setup"]
    names = {layer for run in totals.values() for layer in run}
    merged = {}
    for name in names:
        setup = totals.get("setup", {}).get(name, LayerTotals())
        t = LayerTotals()
        for field in vars(t):
            per_call = [getattr(totals[run].get(name, LayerTotals()), field) for run in calls]
            mean = sum(per_call) / len(per_call) if per_call else 0
            setattr(t, field, getattr(setup, field) + mean)
        merged[name] = t

    zero = LayerTotals()
    metrics = {}
    for layer, stats in LAYER_STATS:
        for stat in stats:
            metrics[f"{layer}.{stat}"] = getattr(merged.get(layer, zero), stat)
    for metric, layer in STEP_METRICS.items():
        t = merged.get(layer, zero)
        metrics[metric] = 1e6 * t.total_s / t.work if t.work else 0.0
    untraced = [r["seconds"] for r in records if not r["traced"]]
    traced = [r["seconds"] for r in records if r["traced"]]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.wall_s"] = setup_wall + statistics.mean(traced)
    metrics["trace.errors"] = sum(t.errors for t in merged.values())
    ranking = sorted(((t.self_s, name) for name, t in merged.items()), reverse=True)
    return metrics, ranking


def run_workload(args) -> int:
    import workloads
    from reference import Reference
    from tracer import Tracer

    RESULTS.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, str(RESULTS))
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    tracer = reference = None
    if args.trace:
        tracer = Tracer()
        start = time.perf_counter()
        with tracer.active("setup"):
            inputs = wl.setup(args.seed)
        setup_wall = time.perf_counter() - start
    else:
        reference = Reference()
        probes = probe_setups(args.workload, args.seed, reference)
        inputs = wl.setup(args.seed)

    records = measure(wl, inputs, args.seconds, reference, tracer)
    attempted, failed = count_failures(records)
    result = {"workload": args.workload, "seed": args.seed, "unit": wl.unit,
              "environment": env, "calls": records,
              "failed_frac": failed / attempted}
    verdicts = [r["verdict"] for r in records if r["verdict"] is not None]

    print(f"{args.workload} seed {args.seed}: {len(records)} calls,"
          f" work unit: {wl.unit}")
    if args.trace:
        metrics, ranking = layer_metrics(tracer, setup_wall, records)
        units = per_layer_units()
        self_sum = sum(s for s, _ in ranking)
        consistent = self_sum <= metrics["trace.wall_s"]
        spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        result.update(spans=str(spans_path.relative_to(ROOT)),
                      self_s_ranking=[[n, s] for s, n in ranking],
                      self_s_sum=self_sum)
        for s, name in ranking[:6]:
            print(f"  self {name:34s} {s:10.4f} s")
        print(f"  self-time sum {self_sum:.4f} s of traced wall"
              f" {metrics['trace.wall_s']:.4f} s")
    else:
        metrics, raw = end_to_end(wl, records, probes)
        units = END_TO_END_UNITS
        consistent = True
        result.update(setup_probes=[{"seconds": p, "reference_s": ref} for p, ref in probes],
                      raw=raw)
        for name in metrics:
            note = f"  (raw {raw[name]:.4f})" if name in raw else ""
            print(f"  {name:12s} {metrics[name]:14.4f} {units[name]}{note}")
        print(f"  failed_frac  {failed / attempted:14.4f} ({failed} of {attempted})")
    if verdicts:
        print(f"  statistical pass {sum(verdicts)} of {len(verdicts)}"
              " (recorded, not counted as failures)")
    print(f"  env: {json.dumps(env, sort_keys=True)}")

    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    with open(RESULTS / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)

    line = {"correct": failed == 0 and consistent, "attempted": attempted,
            "failed": failed, "metrics": result["metrics"]}
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of its metrics."""
    import workloads

    rows = []
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              check=True, timeout=900)
        rows.append((name, json.loads(done.stdout.strip().splitlines()[-1])))
    for name, line in rows:
        frac = line["failed"] / line["attempted"]
        print(f"{name}: correct={line['correct']} failed_frac={frac:.4f}"
              f" ({line['failed']} of {line['attempted']})")
        for metric, m in line["metrics"].items():
            print(f"  {metric:34s} {m['value']:16.6f} {m['unit']}")
    print(json.dumps({name: line for name, line in rows}))
    return 0


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.setup_probe and args.workload == "all":
        p.error("--setup-probe needs one workload")
    return args


def main(argv=None) -> int:
    # Before numpy loads; set-up probes inherit the setting.
    os.environ.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})
    import_package()
    args = parse_args(argv)
    if args.setup_probe:
        import workloads

        RESULTS.mkdir(exist_ok=True)
        workloads.make(args.workload, str(RESULTS)).setup(args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
