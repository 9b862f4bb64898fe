"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload publish --seed 28 --trace 0 --sample 1

prints one JSON record on its last output line: the timings, this
interpreter's peak memory, the outcome's accounting and output-check
failures, and with ``--trace 1`` the per-layer raw numbers of the traced
repetition.  ``--sample 1`` probes the host's speed during an untraced
repetition (``hostspeed.Sampler``) and adds the timings in reference
seconds.  ``--prebuild`` only resolves the kernel backend (compiling
the native kernels if needed) and prints its name and numpy's version.

Every repetition gets its own interpreter, so no repetition starts with
caches or memory that an earlier input left behind.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: registry counters summed into the per-layer raw numbers
COUNTERS = (
    "broker_rebuilds_total",
    "clustering_fit_total",
    "clustering_iterations_total",
    "matching_events_total",
    "matching_multicast_plans_total",
    "online_joins_total",
    "routing_invalidations_total",
    "network_faults_total",
    "overlay_tree_builds_total",
    "overlay_tree_repairs_total",
)


def _counters(snapshot):
    totals = {name: 0.0 for name in COUNTERS}
    totals["memo_hits"] = 0.0
    totals["memo_lookups"] = 0.0
    for record in snapshot:
        name = record.get("name")
        if record.get("type") != "counter":
            continue
        value = float(record.get("value", 0.0))
        if name in totals:
            totals[name] += value
        if name == "dispatcher_cache_lookups_total":
            totals["memo_lookups"] += value
            if record.get("labels", {}).get("result") == "hit":
                totals["memo_hits"] += value
    return totals


class Tracing:
    """The span wrappers of a traced repetition."""

    def __init__(self) -> None:
        from layers import install, resolve
        from spans import SpanRecorder

        self.recorder = SpanRecorder()
        self.grid_io = [0, 0]
        install(resolve(), self._wrap)

    def _wrap(self, fn, name):
        traced = self.recorder.wrap(fn, name)
        if name != "grid/cell_set_from_membership":
            return traced
        grid_io = self.grid_io

        def counted(space, membership, *rest, **kwargs):
            cells = traced(space, membership, *rest, **kwargs)
            grid_io[0] += int(membership.shape[0])
            grid_io[1] += len(cells)
            return cells

        return counted

    def raw(self) -> dict:
        from spans import ROOT as ROOT_SPAN
        from spans import layer_entries, outermost_time, self_times

        spans = self.recorder.finished()
        rebuild_s = outermost_time(spans, "broker/ContentBroker.rebuild")
        return {
            "self_s": self_times(spans),
            "entries": layer_entries(spans),
            "n_spans": len(spans),
            "traced_wall_s": sum(
                end - start for name, start, end, _ in spans if name == ROOT_SPAN
            ),
            "rebuild_s": rebuild_s,
            "grid_cells_in": self.grid_io[0],
            "grid_hypercells_out": self.grid_io[1],
        }


def repetition(workload, seed, trace, scratch, sample=False) -> dict:
    import workloads
    from hostspeed import Sampler
    from repro.obs import get_registry

    tracing = Tracing() if trace else None
    raw = {}
    around = after = None
    if tracing is not None:
        around = tracing.recorder.run_root

        def after():
            raw.update(tracing.raw())

    outcome, timing = workloads.run_workload(
        workload, seed, scratch, around=around, after=after,
        sampler=Sampler() if sample and tracing is None else None,
    )
    record = {
        "workload": workload,
        "seed": seed,
        "trace": tracing is not None,
        **timing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": outcome.ops,
        "offered": outcome.offered,
        "processed": outcome.processed,
        "shed": outcome.shed,
        "pubs": outcome.pubs,
        "cost": outcome.cost,
        "unicast_cost": outcome.unicast_cost,
        "lost_entirely": outcome.lost_entirely,
        "owed": outcome.owed,
        "lost_deliveries": outcome.lost_deliveries,
        "digest": outcome.digest,
        "failures": outcome.failures,
        "extras": outcome.extras,
    }
    if tracing is not None:
        raw["counters"] = _counters(get_registry().snapshot())
        record["layers"] = raw
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sample", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", default=str(ROOT / ".bench_build" / "scratch"))
    parser.add_argument("--prebuild", action="store_true")
    args = parser.parse_args(argv)
    if args.prebuild:
        import numpy
        from repro.kernels import backend_name, get_backend

        get_backend()
        print(json.dumps({"backend": backend_name(), "numpy": numpy.__version__}))
        return 0
    os.makedirs(args.scratch, exist_ok=True)
    record = repetition(
        args.workload, args.seed, bool(args.trace), args.scratch, bool(args.sample)
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
