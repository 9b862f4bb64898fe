"""Whole-run benchmark of the pub/sub program: one workload per call.

    python3 perfbench/run.py --workload publish --seed 1 --seconds 25 --trace 0

Every repetition runs in a fresh interpreter (``perfbench/worker.py``)
with one process and no worker pool.  A run repeats its workload on
``INPUTS`` inputs derived from ``--seed`` and keeps cycling through them
while ``--seconds`` allow.  Timings are in reference seconds: each
repetition of a ``--trace 0`` run probes the host's speed while it runs
(``perfbench/hostspeed.py``) and its wall time is scaled by that speed.
They are per-input medians averaged over the inputs; the cost and
delivery metrics are totals over the inputs.  With
``--trace 0`` the last output line holds the end-to-end metrics; with
``--trace 1`` each input runs once untraced and once traced, and the line
holds the per-layer metrics.  Output checks (conservation, completeness,
checkpoint read-back, determinism) set ``correct`` and the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"

WORKLOADS = ("publish", "fleet", "chaos", "batch")

#: distinct inputs per run (seed * n + 0 .. n - 1): more where the
#: work an input holds varies more between seeds
INPUTS = {"publish": 6, "fleet": 7, "chaos": 6, "batch": 7}
#: a run never starts more repetitions than this
MAX_REPS = 24
#: a run must end within 180 s; repetitions get what is left of this
DEADLINE = 170.0

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("cost_vs_unicast", "ratio"),
    ("served_pct", "%"),
    ("delivered_pct", "%"),
)

LAYER_NAMES = (
    "scenario", "grid", "broker", "clustering", "kernels", "matching",
    "delivery", "online", "fleet", "routing", "faults", "dht", "persistence",
)

PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (f"{layer}.self_s", "s") for layer in LAYER_NAMES
) + (
    ("grid.calls", "count"),
    ("grid.cells_in", "count"),
    ("grid.hypercells_out", "count"),
    ("broker.rebuilds", "count"),
    ("broker.rebuild_share", "ratio"),
    ("clustering.fits", "count"),
    ("clustering.iterations", "count"),
    ("matching.calls", "count"),
    ("matching.multicast_share", "ratio"),
    ("delivery.calls", "count"),
    ("delivery.memo_hit_ratio", "ratio"),
    ("delivery.cost_per_pub", "cost"),
    ("online.joins", "count"),
    ("online.unassigned_joins", "count"),
    ("online.queue_wait_p99_vs", "vs"),
    ("fleet.shard_skew", "ratio"),
    ("fleet.forwards", "count"),
    ("fleet.window_share", "ratio"),
    ("fleet.waste_ratio", "ratio"),
    ("routing.invalidations", "count"),
    ("faults.applied", "count"),
    ("faults.degraded_pubs", "count"),
    ("dht.tree_builds", "count"),
    ("dht.tree_repairs", "count"),
    ("persistence.bytes", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
    ("unattributed_s", "s"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sub_seeds(workload: str, seed: int) -> List[int]:
    n = INPUTS[workload]
    return [seed * n + i for i in range(n)]


# ----------------------------------------------------------------------
# repetitions
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """The children's environment: caches inside the checkout, BLAS as is."""
    env = dict(os.environ)
    env["REPRO_KERNEL_CACHE"] = str(BUILD / "kernels")
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def run_child(args: Sequence[str], timeout: float) -> Tuple[Optional[object], str]:
    """Run the worker; ``(parsed last line, error)``, one of them set."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
            env=child_env(),
            cwd=str(ROOT),
        )
    except subprocess.TimeoutExpired:
        return None, f"worker {' '.join(args)} timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return None, f"worker {' '.join(args)} exited {proc.returncode}: {tail}"
    return json.loads(lines[-1]), ""


def run_rep(workload: str, seed: int, trace: bool, sample: bool, timeout: float):
    """One repetition in a fresh interpreter; ``(record, error)``.

    ``sample``: probe the host's speed during an untraced repetition.
    """
    return run_child(
        [
            "--workload", workload,
            "--seed", str(seed),
            "--trace", "1" if trace else "0",
            "--sample", "1" if sample else "0",
            "--scratch", str(BUILD / "scratch" / str(os.getpid())),
        ],
        timeout,
    )


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def source_digest() -> str:
    """Hash of the program's and the benchmark's sources.

    The determinism ledger's key: a change to either may change what a
    seed's report holds.
    """
    digest = hashlib.sha256()
    paths = [*(ROOT / "src").rglob("*"), *HERE.glob("*.py")]
    for path in sorted(paths):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def determinism_problems(
    records: Sequence[dict], ledger_path: Optional[Path], source: str
) -> List[str]:
    """One digest per (workload, input) within the run and across runs."""
    problems = []
    seen: Dict[str, str] = {}
    for record in records:
        key = f"{record['workload']}:{record['seed']}"
        if seen.setdefault(key, record["digest"]) != record["digest"]:
            problems.append(f"{key}: report digest differs between repetitions")
    if ledger_path is None:
        return problems
    ledger = {}
    if ledger_path.is_file():
        ledger = json.loads(ledger_path.read_text())
    known = ledger.setdefault(source, {})
    for key, digest in seen.items():
        if known.setdefault(key, digest) != digest:
            problems.append(
                f"{key}: report digest {digest} differs from {known[key]} "
                "recorded by an earlier run of the same sources"
            )
    ledger_path.parent.mkdir(parents=True, exist_ok=True)
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return problems


def record_problems(records: Sequence[dict]) -> List[str]:
    return [problem for record in records for problem in record["failures"]]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def by_input(records: Sequence[dict]) -> List[List[dict]]:
    """Repetitions grouped by input, in first-run order."""
    groups: Dict[int, List[dict]] = {}
    for record in records:
        groups.setdefault(record["seed"], []).append(record)
    return list(groups.values())


def end_to_end(records: Sequence[dict]) -> Dict[str, float]:
    """Timings: per-input medians, averaged over inputs; totals otherwise.

    Timings are the repetitions' reference seconds (``ref_wall_s``,
    ``ref_setup_s``).  Inputs differ in how much work they hold, so the
    mean over inputs (each the median of its repetitions) is what a run
    reports; the cost and delivery shares are ratios of totals over the
    distinct inputs.
    """
    groups = by_input(records)
    distinct = [group[0] for group in groups]

    def mean_of_medians(get: Callable[[dict], float]) -> float:
        return statistics.fmean(
            statistics.median(get(r) for r in group) for group in groups
        )

    wall = mean_of_medians(lambda r: r["ref_wall_s"])
    setup = mean_of_medians(lambda r: r["ref_setup_s"])
    replay = mean_of_medians(lambda r: r["ref_wall_s"] - r["ref_setup_s"])
    offered = sum(sum(r["offered"].values()) for r in distinct)
    refused = sum(
        sum(r["shed"].values()) + r["lost_entirely"] for r in distinct
    )
    return {
        "wall_s": wall,
        "setup_s": setup,
        "events_per_s": statistics.fmean(r["ops"] for r in distinct) / replay,
        "peak_rss_mb": mean_of_medians(lambda r: r["peak_rss_mb"]),
        "cost_vs_unicast": _ratio(
            sum(r["cost"] for r in distinct),
            sum(r["unicast_cost"] for r in distinct),
        ),
        "served_pct": 100.0 * (1.0 - _ratio(refused, offered)),
        "delivered_pct": 100.0
        * (
            1.0
            - _ratio(
                sum(r["lost_deliveries"] for r in distinct),
                sum(r["owed"] for r in distinct),
            )
        ),
    }


def per_layer(plain: Sequence[dict], traced: Sequence[dict]) -> Dict[str, float]:
    """Per-layer numbers of the traced repetitions, per repetition.

    ``plain`` are the untraced repetitions of the same inputs; they give
    the tracing overhead and the untraced fleet timing window.
    """
    n = len(traced)
    layers = [r["layers"] for r in traced]

    def total(get: Callable[[dict], float]) -> float:
        return sum(get(layer) for layer in layers)

    def counter(name: str) -> float:
        return total(lambda layer: layer["counters"].get(name, 0.0))

    def entries(layer_name: str) -> float:
        return total(lambda layer: layer["entries"].get(layer_name, 0))

    def extra(records: Sequence[dict], name: str) -> float:
        return sum(r["extras"].get(name, 0.0) for r in records)

    traced_wall = total(lambda layer: layer["traced_wall_s"])
    plain_wall = sum(r["wall_s"] for r in plain)
    unattributed = total(lambda layer: layer["self_s"].get("workload", 0.0))
    metrics = {
        f"{name}.self_s": total(lambda layer, name=name: layer["self_s"].get(name, 0.0)) / n
        for name in LAYER_NAMES
    }
    metrics.update(
        {
            "grid.calls": entries("grid") / n,
            "grid.cells_in": total(lambda layer: layer["grid_cells_in"]) / n,
            "grid.hypercells_out": total(lambda layer: layer["grid_hypercells_out"]) / n,
            "broker.rebuilds": counter("broker_rebuilds_total") / n,
            "broker.rebuild_share": _ratio(
                total(lambda layer: layer["rebuild_s"]), traced_wall
            ),
            "clustering.fits": counter("clustering_fit_total") / n,
            "clustering.iterations": counter("clustering_iterations_total") / n,
            "matching.calls": entries("matching") / n,
            "matching.multicast_share": _ratio(
                counter("matching_multicast_plans_total"),
                counter("matching_events_total"),
            ),
            "delivery.calls": entries("delivery") / n,
            "delivery.memo_hit_ratio": _ratio(
                counter("memo_hits"), counter("memo_lookups")
            ),
            "delivery.cost_per_pub": _ratio(
                sum(r["cost"] for r in traced), sum(r["pubs"] for r in traced)
            ),
            "online.joins": counter("online_joins_total") / n,
            "online.unassigned_joins": extra(traced, "unassigned_joins") / n,
            "online.queue_wait_p99_vs": extra(traced, "queue_wait_p99_vs") / n,
            "fleet.shard_skew": extra(plain, "shard_skew") / len(plain),
            "fleet.forwards": extra(traced, "forwards") / n,
            "fleet.window_share": _ratio(extra(plain, "shard_seconds"), plain_wall),
            "fleet.waste_ratio": extra(traced, "waste_ratio") / n,
            "routing.invalidations": counter("routing_invalidations_total") / n,
            "faults.applied": counter("network_faults_total") / n,
            "faults.degraded_pubs": extra(traced, "degraded_pubs") / n,
            "dht.tree_builds": counter("overlay_tree_builds_total") / n,
            "dht.tree_repairs": counter("overlay_tree_repairs_total") / n,
            "persistence.bytes": extra(traced, "checkpoint_bytes") / n,
            "trace.overhead_pct": 100.0 * _ratio(traced_wall - plain_wall, plain_wall),
            "trace.coverage": 1.0 - _ratio(unattributed, traced_wall),
            "trace.spans": total(lambda layer: layer["n_spans"]) / n,
            "unattributed_s": unattributed / n,
        }
    )
    return metrics


def result_line(
    correct: bool,
    records: Sequence[dict],
    failed_reps: int,
    metrics: Dict[str, float],
    units: Sequence[Tuple[str, str]],
) -> dict:
    attempted = sum(r["ops"] for r in records) + failed_reps
    failed = sum(sum(r["shed"].values()) for r in records) + failed_reps
    return {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units
        },
    }


# ----------------------------------------------------------------------
def environment(built: dict, build_s: float) -> dict:
    """Provenance of one run: what produced the numbers.

    ``built`` is what the prebuild child reported (kernel backend and
    numpy version), so this process never imports numpy.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=str(ROOT), timeout=10,
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    threads = {
        name: os.environ.get(name, "default")
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "git_sha": sha,
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "kernel_backend": built["backend"],
        "kernel_build_s": build_s,
        "python": platform.python_version(),
        "numpy": built["numpy"],
        "blas_threads": threads,
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    rep: Callable,
    deadline: float,
) -> Tuple[List[dict], str]:
    """Every input once (untraced, then traced with ``trace``), then
    untraced repeats while ``seconds`` allow; ``(records, error)``.

    Without ``trace`` every repetition probes the host's speed; with it
    none does, so the untraced and traced walls compare like for like.
    """
    start = time.perf_counter()
    seeds = sub_seeds(workload, seed)
    records: List[dict] = []
    durations: List[float] = []
    index = 0
    while index < len(seeds) or (
        not trace
        and index < MAX_REPS
        and time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        for traced in (False, True) if trace else (False,):
            began = time.perf_counter()
            record, error = rep(
                workload, seeds[index % len(seeds)], traced, not trace,
                deadline - (began - start),
            )
            if error:
                return records, error
            records.append(record)
            if not traced:
                durations.append(time.perf_counter() - began)
        index += 1
    return records, ""


def main(
    argv: Optional[Sequence[str]] = None,
    rep: Callable = run_rep,
    ledger: Optional[Path] = BUILD / "digests.json",
) -> int:
    """Run one workload; print the result line; 0 when every check held.

    ``rep(workload, seed, traced, sample, timeout)`` runs one
    repetition and ``ledger`` keeps report digests
    across runs (None: within this run only).
    """
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for sub in ("kernels", "tmp", "scratch"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)

    # compile the native kernels (if needed) before any timed repetition
    began = time.perf_counter()
    built, error = run_child(["--prebuild"], DEADLINE)
    if error:
        print(error, file=sys.stderr)
        return 2
    env = environment(built, time.perf_counter() - began)
    print("environment " + json.dumps(env, sort_keys=True))

    try:
        records, error = measure(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            rep,
            DEADLINE - (time.perf_counter() - started),
        )
    finally:
        shutil.rmtree(BUILD / "scratch" / str(os.getpid()), ignore_errors=True)
    plain = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    problems = [error] if error else []
    problems += record_problems(records)
    problems += determinism_problems(records, ledger, env["source_digest"])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for record in records:
        print(
            "repetition "
            + json.dumps(
                {
                    key: record[key]
                    for key in (
                        "seed", "trace", "wall_s", "setup_s",
                        "ref_wall_s", "ref_setup_s", "digest",
                    )
                    if key in record
                }
            )
        )
    correct = not problems
    metrics: Dict[str, float] = {}
    if plain and not error:
        if args.trace and traced:
            metrics = per_layer(plain, traced)
        elif not args.trace:
            metrics = end_to_end(plain)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps(result_line(correct, records, int(bool(error)), metrics, units)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
