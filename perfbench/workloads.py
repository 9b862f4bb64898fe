"""The four benchmark workloads: seeded inputs, one repetition, checks.

Every workload is one call into the program's public API with inputs
derived from a seed.  :func:`run_workload` times it, records when set-up
ended (the first event offered to a service, or the first clustering fit
for ``batch``) and returns an :class:`Outcome` with the accounting the
output checks and metrics need.  Nothing here changes what the program
computes: the probes below only observe calls.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "WORKLOADS",
    "SIZES",
    "Outcome",
    "Probe",
    "conservation_failures",
    "run_workload",
]

#: per-workload sizes; every repetition of a run uses the same sizes
SIZES = {
    "publish": {"n_events": 7000, "n_subscriptions": 100},
    "fleet": {
        "n_events": 300,
        "n_subscriptions": 80,
        "shards": 4,
        # drift-triggered refits fire on some seeds and not on others,
        # which would make wall time bimodal across seeds; with them off
        # every run does the same 12 rebuilds (initial, warm and cold on
        # each shard)
        "drift_threshold": 1e9,
    },
    "chaos": {
        "n_subscriptions": 120,
        "n_events": 150,
        "node_fraction": 0.1,
        "n_link_faults": 10,
        "n_churn": 20,
    },
    "batch": {
        "n_events": 150,
        "n_groups": 40,
        "algorithms": ("kmeans", "forgy", "mst", "pairs"),
        "schemes": ("dense", "alm"),
        # every algorithm gets the paper's pairs budget of 2000
        # hyper-cells (the paper gives the others 6000), so one cell set
        # is built per input and a repetition takes about three seconds
        "max_cells": 2000,
    },
}


@dataclass
class Outcome:
    """What one repetition did, in the program's own accounting."""

    #: events offered / processed / shed, per stream
    offered: Dict[str, int]
    processed: Dict[str, int]
    shed: Dict[str, int]
    #: operations the throughput metric counts
    ops: int
    #: publications priced, their total delivery cost and what unicast
    #: to every interested subscriber would have cost for the same events
    pubs: int
    cost: float
    unicast_cost: float
    #: publications whose whole audience was unreachable
    lost_entirely: int
    #: subscriber deliveries owed, and owed but not made
    owed: int
    lost_deliveries: int
    #: the deterministic report the digest is taken over
    report: str
    failures: List[str] = field(default_factory=list)
    #: workload-specific numbers for the per-layer metrics
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.report.encode()).hexdigest()[:16]


class Probe:
    """Observes the program's service entry points without changing them.

    ``first`` is the clock reading at the first event offered (a service
    ``run``, the chaos replay loop) or the first clustering fit, whichever
    the workload reaches first; ``services`` holds every service whose
    ``run`` was called, with the events it was offered.
    """

    def __init__(self) -> None:
        self.first: Optional[float] = None
        self.services: List[tuple] = []

    def _mark(self) -> None:
        if self.first is None:
            self.first = time.perf_counter()

    def install(self, fit_marks: bool) -> None:
        from repro.faults.chaos import ChaosRunner
        from repro.online.service import BrokerService

        probe = self
        run = BrokerService.run

        def observed_run(service, events):
            probe._mark()
            probe.services.append((service, list(events)))
            return run(service, events)

        BrokerService.run = observed_run
        timeline = ChaosRunner._timeline

        def observed_timeline(runner):
            result = timeline(runner)
            probe._mark()
            return result

        ChaosRunner._timeline = observed_timeline
        if fit_marks:
            from repro.clustering import kmeans, mst, pairwise

            for cls in (
                kmeans.KMeansClustering,
                kmeans.ForgyKMeansClustering,
                mst.MSTClustering,
                pairwise.PairwiseGroupingClustering,
            ):
                self._mark_on_call(cls, "fit")

    def _mark_on_call(self, cls: type, attr: str) -> None:
        original = getattr(cls, attr)
        probe = self

        def marked(*args, **kwargs):
            probe._mark()
            return original(*args, **kwargs)

        setattr(cls, attr, marked)


def conservation_failures(
    where: str,
    offered: Dict[str, int],
    processed: Dict[str, int],
    shed: Dict[str, int],
) -> List[str]:
    """processed + shed == offered on every stream."""
    failures = []
    for stream in sorted(set(offered) | set(processed) | set(shed)):
        n_offered = offered.get(stream, 0)
        n_done = processed.get(stream, 0) + shed.get(stream, 0)
        if n_done != n_offered:
            failures.append(
                f"{where}: stream {stream!r} processed+shed={n_done} "
                f"!= offered={n_offered}"
            )
    return failures


def _stream_counts(events) -> Dict[str, int]:
    return dict(Counter(event.stream for event in events))


def _completeness_failures(where: str, lost: int) -> List[str]:
    if lost:
        return [f"{where}: {lost} subscriber deliveries lost without faults"]
    return []


# ----------------------------------------------------------------------
def _publish_run(seed: int, scratch: str):
    from repro.online.soak import SoakConfig, run_soak

    size = SIZES["publish"]
    config = SoakConfig(
        n_events=size["n_events"],
        n_subscriptions=size["n_subscriptions"],
        seed=seed,
    )
    return config, run_soak(config, finalize=False)


def _publish_account(ran, probe: Probe) -> Outcome:
    config, result = ran
    service, events = probe.services[0]
    svc = result.service
    stats = service.broker.stats
    offered = _stream_counts(events)
    failures = conservation_failures(
        "publish", offered, svc.n_processed, svc.n_shed
    )
    failures += _completeness_failures("publish", stats.lost_deliveries)
    return Outcome(
        offered=offered,
        processed=dict(svc.n_processed),
        shed=dict(svc.n_shed),
        ops=len(events),
        pubs=svc.n_processed.get("pub", 0),
        cost=stats.total_cost,
        unicast_cost=stats.total_unicast_cost,
        lost_entirely=stats.n_lost,
        owed=stats.expected_deliveries,
        lost_deliveries=stats.lost_deliveries,
        report=result.deterministic_report(),
        failures=failures,
        extras={
            "joins": svc.joins,
            "unassigned_joins": svc.unassigned_joins,
            "queue_wait_p99_vs": _queue_wait_p99([svc], config.service_rate),
        },
    )


def _queue_wait_p99(results, service_rate: float) -> float:
    """p99 virtual queue wait: latency minus the fixed service time."""
    import numpy as np

    latencies = [v for result in results for v in result.all_latencies()]
    if not latencies:
        return 0.0
    waits = np.asarray(latencies) - 1.0 / service_rate
    return float(np.percentile(np.maximum(waits, 0.0), 99.0))


def _fleet_run(seed: int, scratch: str):
    from repro.fleet.soak import FleetConfig, run_fleet

    size = SIZES["fleet"]
    checkpoint_dir = os.path.join(scratch, f"fleet-{seed}")
    os.makedirs(checkpoint_dir, exist_ok=True)
    config = FleetConfig(
        n_events=size["n_events"],
        n_subscriptions=size["n_subscriptions"],
        seed=seed,
        shards=size["shards"],
        sharding="region",
        fleet_policy="forward",
        churn_fraction=0.5,
        drift_threshold=size["drift_threshold"],
        workers=1,
        checkpoint_dir=checkpoint_dir,
    )
    return config, run_fleet(config, finalize=True)


def _fleet_account(ran, probe: Probe) -> Outcome:
    from repro.persistence import load_fleet_state, load_shard_checkpoint

    config, result = ran
    checkpoint_dir = config.checkpoint_dir
    try:
        failures: List[str] = []
        # read the checkpoint back: per-shard k and waste as written
        fleet_state = load_fleet_state(os.path.join(checkpoint_dir, "fleet.npz"))
        if fleet_state.split != [s.k for s in result.shards]:
            failures.append(
                f"fleet checkpoint split {fleet_state.split} != "
                f"{[s.k for s in result.shards]}"
            )
        for shard in result.shards:
            state = load_shard_checkpoint(
                os.path.join(checkpoint_dir, f"shard-{shard.shard}.npz")
            )
            if state.k != shard.k or state.online.current_waste != shard.current_waste:
                failures.append(
                    f"fleet shard {shard.shard} checkpoint k={state.k} "
                    f"waste={state.online.current_waste!r} != "
                    f"k={shard.k} waste={shard.current_waste!r}"
                )
        n_bytes = sum(
            os.path.getsize(os.path.join(checkpoint_dir, name))
            for name in os.listdir(checkpoint_dir)
        )
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)

    offered: Dict[str, int] = Counter()
    processed: Dict[str, int] = Counter()
    shed: Dict[str, int] = Counter()
    for shard, (service, events) in zip(result.shards, probe.services):
        counts = _stream_counts(events)
        svc = shard.service
        failures += conservation_failures(
            f"fleet shard {shard.shard}", counts, svc.n_processed, svc.n_shed
        )
        offered.update(counts)
        processed.update(svc.n_processed)
        shed.update(svc.n_shed)
    if len(probe.services) != len(result.shards):
        failures.append(
            f"fleet ran {len(probe.services)} shard services for "
            f"{len(result.shards)} shards"
        )
    stats = [service.broker.stats for service, _ in probe.services]
    lost = sum(s.lost_deliveries for s in stats)
    failures += _completeness_failures("fleet", lost)
    warm = sum(s.warm_waste for s in result.shards)
    cold = sum(s.cold_waste for s in result.shards)
    seconds = [s.seconds for s in result.shards]
    return Outcome(
        offered=dict(offered),
        processed=dict(processed),
        shed=dict(shed),
        ops=config.n_events,
        pubs=processed.get("pub", 0),
        cost=sum(s.total_cost for s in stats),
        unicast_cost=sum(s.total_unicast_cost for s in stats),
        lost_entirely=sum(s.n_lost for s in stats),
        owed=sum(s.expected_deliveries for s in stats),
        lost_deliveries=lost,
        report=result.deterministic_report(),
        failures=failures,
        extras={
            "joins": sum(s.service.joins for s in result.shards),
            "unassigned_joins": sum(
                s.service.unassigned_joins for s in result.shards
            ),
            "queue_wait_p99_vs": _queue_wait_p99(
                [s.service for s in result.shards], config.service_rate
            ),
            "waste_ratio": warm / cold,
            "shard_seconds": sum(seconds),
            "shard_skew": max(seconds) / (sum(seconds) / len(seconds)),
            "forwards": result.total_forwards,
            "checkpoint_bytes": n_bytes,
        },
    )


def _chaos_run(seed: int, scratch: str):
    from repro.broker import BrokerConfig
    from repro.faults import ChaosRunner, FaultSchedule
    from repro.sim.scenario import build_preliminary_scenario

    size = SIZES["chaos"]
    scenario = build_preliminary_scenario(
        n_nodes=100, n_subscriptions=size["n_subscriptions"], seed=seed
    )
    schedule = FaultSchedule.generate(
        scenario.topology,
        horizon=100.0,
        seed=seed,
        node_fraction=size["node_fraction"],
        n_link_faults=size["n_link_faults"],
        n_churn=size["n_churn"],
        n_subscribers=size["n_subscriptions"],
    )
    config = BrokerConfig(
        n_groups=20,
        scheme="overlay",
        rebalance_after=10**9,
        rebuild_debounce=2.0,
        rebuild_backoff_base=1.0,
        full_rebuild_fraction=0.3,
    )
    runner = ChaosRunner(
        scenario, schedule, config=config, n_events=size["n_events"], seed=seed
    )
    return schedule, runner, runner.run()


def _chaos_account(ran, probe: Probe) -> Outcome:
    schedule, runner, report = ran
    size = SIZES["chaos"]
    failures = []
    if report.silently_lost:
        failures.append(f"chaos: {report.silently_lost} publications silently lost")
    offered = {"pub": size["n_events"], "fault": len(schedule)}
    processed = {"pub": report.n_publications, "fault": len(schedule)}
    failures += conservation_failures("chaos", offered, processed, {})
    record = report.as_dict()
    # wall-clock and provenance fields are not part of the deterministic
    # outcome; everything else (counts, costs, per-event costs) is
    for key in (
        "total_rebuild_seconds", "mean_rebuild_seconds",
        "kernel_backend", "workers",
    ):
        record.pop(key)
    lines = [f"{key} {record[key]!r}" for key in sorted(record)]
    lines += [repr(cost) for cost in report.per_event_costs]
    return Outcome(
        offered=offered,
        processed=processed,
        shed={},
        ops=size["n_events"] + len(schedule),
        pubs=report.n_publications,
        cost=report.total_cost,
        unicast_cost=runner.broker.stats.total_unicast_cost,
        lost_entirely=report.n_lost,
        owed=report.expected_deliveries,
        lost_deliveries=report.lost_deliveries,
        report="\n".join(lines) + "\n",
        failures=failures,
        extras={"degraded_pubs": report.n_degraded},
    )


def _batch_run(seed: int, scratch: str):
    from repro.sim.experiment import ExperimentContext
    from repro.sim.scenario import build_evaluation_scenario

    size = SIZES["batch"]
    scenario = build_evaluation_scenario(modes=1, seed=seed)
    context = ExperimentContext(scenario, n_events=size["n_events"])
    rows = []
    for name in size["algorithms"]:
        rows.extend(
            context.run_grid_algorithm(
                name,
                size["n_groups"],
                max_cells=size["max_cells"],
                schemes=size["schemes"],
            )
        )
    return scenario, context, rows


def _batch_account(ran, probe: Probe) -> Outcome:
    scenario, context, rows = ran
    size = SIZES["batch"]
    n_events = size["n_events"]
    failures = [
        f"batch: {r.algorithm}/{r.scheme} priced {r.summary.n_events} "
        f"of {n_events} publications"
        for r in rows
        if r.summary.n_events != n_events
    ]
    # every plan passed DeliveryPlan.audit (it raises on a missed
    # subscriber), so all owed deliveries were made
    interested = scenario.subscriptions.batch_interested_subscribers(
        [event.point for event in context.events]
    )
    owed = sum(len(ids) for ids in interested) * len(rows)
    report = "".join(
        f"{r.algorithm} {r.scheme} K={r.n_groups} cells={r.n_cells} "
        f"unicast={r.summary.unicast!r} broadcast={r.summary.broadcast!r} "
        f"ideal={r.summary.ideal!r} achieved={r.summary.achieved!r} "
        f"wasted={r.summary.wasted_deliveries!r}\n"
        for r in rows
    )
    pubs = n_events * len(rows)
    return Outcome(
        offered={"pub": pubs},
        processed={"pub": sum(r.summary.n_events for r in rows)},
        shed={},
        ops=pubs,
        pubs=pubs,
        cost=sum(r.summary.achieved * n_events for r in rows),
        unicast_cost=sum(r.summary.unicast * n_events for r in rows),
        lost_entirely=0,
        owed=owed,
        lost_deliveries=0,
        report=report,
        failures=failures,
    )


#: name -> (run the program on seeded inputs, account for the result)
WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "publish": (_publish_run, _publish_account),
    "fleet": (_fleet_run, _fleet_account),
    "chaos": (_chaos_run, _chaos_account),
    "batch": (_batch_run, _batch_account),
}


def run_workload(
    name: str,
    seed: int,
    scratch: str,
    around: Optional[Callable] = None,
    after: Optional[Callable[[], None]] = None,
    sampler=None,
) -> Tuple[Outcome, Dict[str, float]]:
    """One timed repetition: ``(outcome, timing)``.

    Only the program call is timed; the accounting and output checks run
    after the clock stops.  ``around(fn, *args)`` runs ``fn`` (the traced
    pass passes its root span) and ``after()`` is called as soon as it
    returns.  Set-up ends at the first event offered or first fit that
    the probe installed here sees.

    ``timing`` holds ``wall_s`` and ``setup_s``.  With a
    :class:`hostspeed.Sampler` probing the host during the call, those
    leave out the probes' time, and ``ref_wall_s`` and ``ref_setup_s``
    hold the same stretches in reference seconds.
    """
    probe = Probe()
    probe.install(fit_marks=name == "batch")
    run, account = WORKLOADS[name]
    gc.collect()
    if sampler is not None:
        sampler.start()
    try:
        start = time.perf_counter()
        if around is None:
            ran = run(seed, scratch)
        else:
            ran = around(run, seed, scratch)
        end = time.perf_counter()
    finally:
        if sampler is not None:
            sampler.stop()
    if after is not None:
        after()
    first = probe.first if probe.first is not None else end
    timing = {"wall_s": end - start, "setup_s": first - start}
    if sampler is not None:
        timing["wall_s"], timing["ref_wall_s"] = sampler.span(start, end)
        timing["setup_s"], timing["ref_setup_s"] = sampler.span(start, first)
    return account(ran, probe), timing
