#!/usr/bin/env python3
"""titletag benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a titletag checkout. The run writes its inputs from the
seed, sets the workload up several times (setup_s is the median), then
repeats the workload's CLI commands in-process for S seconds and checks
their outputs. With --trace 0 it reports the end-to-end metrics, with
--trace 1 the per-layer metrics of a run with every module boundary traced.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A fuller record, stamped with the environment, goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
from importlib import metadata
from pathlib import Path

import bootstrap

RESULTS_DIR = bootstrap.BENCH_DIR / "results"
WORK_DIR = bootstrap.BENCH_DIR / ".work"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("feature-pipeline", "neural-train", "tag-embed"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def timing(samples: list[float]) -> dict:
    """Median, minimum, the highest percentile with at least ten samples
    beyond it, the sample count and the samples in run order."""
    out = {"median": statistics.median(samples), "min": min(samples), "n": len(samples)}
    for q in (99.9, 99, 95, 90, 75, 50):
        if len(samples) * (100 - q) / 100 >= 10:
            out[f"p{q:g}"] = statistics.quantiles(samples, n=1000)[round(q * 10) - 1]
            break
    out["samples"] = samples
    return out


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split(" ")[0]
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "titletag").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args, blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": bootstrap.nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "thread_env": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
        "git_commit": git_commit(bootstrap.ROOT),
        "source_sha256": source_digest(bootstrap.SRC),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = bootstrap.pin_blas_threads()
    bootstrap.add_source_path()
    # Imported only now: numpy must see the pinned thread count, and titletag
    # must come from this checkout's src/.
    import spans
    import workloads
    from titletag import cli

    if not Path(cli.__file__).resolve().is_relative_to(bootstrap.SRC):
        raise SystemExit(f"perfbench: titletag imported from {cli.__file__}, not {bootstrap.SRC}")
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)

    runner = workloads.CliRunner()
    tracer = spans.Tracer() if args.trace else None
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = workloads.measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                                work, runner, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # A shared host's speed changes by up to 2x for seconds to minutes, so
    # the gated time of a command is its fastest run: one fast stretch
    # anywhere in the run reaches it. Medians, tail percentiles and every
    # sample are kept in the result file.
    best = {c.label: min(run.walls[c.label]) for c in run.commands}
    record = {
        "env": environment(args, blas_threads),
        "passes": run.passes,
        "setup_s": run.setup_s,
        "commands": {
            c.label: {
                "argv": c.argv,
                "titles": c.titles,
                "wall_s": timing(run.walls[c.label]),
                "cpu_s": timing(run.cpus[c.label]),
                f"{c.label}_titles_per_s": c.titles / statistics.median(run.walls[c.label]),
                f"{c.label}_titles_per_s_best": c.titles / best[c.label],
            }
            for c in run.commands
        },
        "quality": run.quality,
        "checks": {"attempted": runner.attempted, "failed": runner.failed,
                   "failures": runner.failures},
    }
    pass_best_s = sum(best.values())
    if tracer:
        stats = spans.aggregate(tracer.spans)
        metrics = spans.layer_metrics(stats)
        metrics["traced_wall_best_s"] = (pass_best_s, "s")
        record["load_model_calls_per_command"] = spans.calls_per_command(
            tracer.spans, "model_io.load_model")
        record["spans_by_name"] = {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, **s.counts}
            for name, s in sorted(stats.items())
        }
        untraced = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["metrics"]["wall_best_s"]["value"]
            record["tracing_overhead"] = {"untraced_wall_best_s": base,
                                          "traced_wall_best_s": pass_best_s,
                                          "share": pass_best_s / base - 1.0}
    else:
        metrics = {
            "setup_s": (statistics.median(run.setup_s), "s"),
            "wall_best_s": (pass_best_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        if run.cli_start_s:
            record["cli_start_s"] = timing(run.cli_start_s)
    record["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        with gzip.open(RESULTS_DIR / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump(spans.spans_json(tracer.spans), fh)
    for failure in runner.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
