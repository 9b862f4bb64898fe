"""Tests of the benchmark's own code (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def _tree():
    # workload [0, 10]
    #   online/run [1, 9]
    #     broker/publish [2, 5]
    #       matching/match [2.5, 3.5]
    #       delivery/cost [3.5, 4.5]
    #     broker/publish [6, 8]
    #       broker/rebuild [6, 7.5]
    #         grid/cells [6, 7]
    return [
        ("workload", 0.0, 10.0, -1),
        ("online/run", 1.0, 9.0, 0),
        ("broker/publish", 2.0, 5.0, 1),
        ("matching/match", 2.5, 3.5, 2),
        ("delivery/cost", 3.5, 4.5, 2),
        ("broker/publish", 6.0, 8.0, 1),
        ("broker/rebuild", 6.0, 7.5, 5),
        ("grid/cells", 6.0, 7.0, 6),
    ]


def test_self_times_subtract_children():
    selfs = spans.self_times(_tree())
    assert selfs == pytest.approx(
        {
            "workload": 2.0,
            "online": 3.0,
            "broker": 1.0 + 0.5 + 0.5,
            "matching": 1.0,
            "delivery": 1.0,
            "grid": 1.0,
        }
    )
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [
        ("workload", 0.0, 4.0, -1),
        ("a/x", 1.0, 3.0, 0),
        ("b/y", 2.0, 3.5, 0),  # overlaps its sibling by one second
    ]
    selfs = spans.self_times(tree)
    assert selfs["workload"] == pytest.approx(4.0 - 2.5)


def test_outermost_time_and_layer_entries():
    tree = _tree() + [("broker/rebuild", 7.0, 7.2, 6)]
    # the nested rebuild at [7, 7.2] is inside the one at [6, 7.5]
    assert spans.outermost_time(tree, "broker/rebuild") == pytest.approx(1.5)
    assert spans.layer_entries(_tree()) == {
        "workload": 1, "online": 1, "broker": 2, "matching": 1,
        "delivery": 1, "grid": 1,
    }


def test_recorder_nests_spans_in_call_order():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap(lambda: None, "grid/inner")
    outer = recorder.wrap(lambda: inner(), "broker/outer")
    recorder.run_root(outer)
    names = [(name, parent) for name, _, _, parent in recorder.finished()]
    assert names == [("workload", -1), ("broker/outer", 0), ("grid/inner", 1)]


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
def test_span_leaves_out_probes_and_scales_by_their_rates():
    sampler = hostspeed.Sampler()
    ref = hostspeed.REF_RATE
    # probes at [0, 0.1], [1.1, 1.2], [2.2, 2.3]; program time between
    sampler.samples = [(0.0, 0.1, ref), (1.1, 1.2, ref / 2), (2.2, 2.3, ref / 2)]
    program, reference = sampler.span(0.0, 2.3)
    assert program == pytest.approx(2.0)
    # first segment at 0.75 of reference speed, second at 0.5
    assert reference == pytest.approx(0.75 + 0.5)
    # a stretch that ends inside the first segment
    assert sampler.span(0.1, 0.6) == pytest.approx((0.5, 0.375))


def test_sampler_probes_while_the_program_runs():
    sampler = hostspeed.Sampler()
    sampler.start()
    began = time.perf_counter()
    while time.perf_counter() - began < 0.4:
        sum(range(1000))
    end = time.perf_counter()
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert len(sampler.samples) >= 5
    program, reference = sampler.span(began, end)
    probes = sum(e - s for s, e, _ in sampler.samples[1:-1])
    assert program == pytest.approx(end - began - probes, rel=0.05)
    assert reference > 0


# ----------------------------------------------------------------------
# layer map
# ----------------------------------------------------------------------
def test_layer_map_resolves_against_the_program():
    targets = layers.resolve()
    assert {t.layer for t in targets} == set(run.LAYER_NAMES)


@pytest.mark.parametrize(
    "entry",
    [
        ("repro.grid.cells", "build_cell_set_renamed"),
        ("repro.broker.broker", "ContentBroker.rebuild_renamed"),
        ("repro.broker.broker", "NoSuchClass.rebuild"),
        ("repro.no_such_module", "anything"),
    ],
)
def test_layer_map_raises_on_a_missing_function(entry):
    with pytest.raises(layers.LayerMapError):
        layers.resolve({"grid": (entry,)})


def test_install_replaces_module_level_copies(monkeypatch):
    import repro.grid as grid_package
    import repro.grid.cells as cells

    original = cells.build_cell_set
    for module in layers._loaded_repro_modules():
        if getattr(module, "build_cell_set", None) is original:
            # registered so monkeypatch restores it after the test
            monkeypatch.setattr(module, "build_cell_set", original)
    names = []

    def wrap(fn, name):
        names.append(name)
        return lambda *args, **kwargs: fn(*args, **kwargs)

    targets = layers.resolve({"grid": (("repro.grid.cells", "build_cell_set"),)})
    assert layers.install(targets, wrap) >= 2  # defining module + package
    assert names == ["grid/build_cell_set"]
    assert cells.build_cell_set is not original
    assert grid_package.build_cell_set is cells.build_cell_set


# ----------------------------------------------------------------------
# output checks fail the run
# ----------------------------------------------------------------------
def _record(seed, **changes):
    record = {
        "workload": "publish",
        "seed": seed,
        "trace": False,
        "wall_s": 2.0,
        "setup_s": 0.5,
        "ref_wall_s": 1.6,
        "ref_setup_s": 0.4,
        "peak_rss_mb": 100.0,
        "ops": 10,
        "offered": {"pub": 9, "churn": 1},
        "processed": {"pub": 9, "churn": 1},
        "shed": {"pub": 0, "churn": 0},
        "pubs": 9,
        "cost": 90.0,
        "unicast_cost": 180.0,
        "lost_entirely": 0,
        "owed": 20,
        "lost_deliveries": 0,
        "digest": f"d{seed}",
        "failures": [],
        "extras": {},
    }
    record.update(changes)
    return record


def _main(make_record):
    """run.main with a stub repetition returning ``make_record(seed)``."""

    def rep(workload, seed, trace, sample, timeout):
        return make_record(seed), ""

    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(
            ["--workload", "publish", "--seed", "1", "--seconds", "0"],
            rep=rep,
            ledger=None,
        )
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def test_conservation_check_flags_a_broken_stream():
    failures = workloads.conservation_failures(
        "stub", {"pub": 10, "churn": 2}, {"pub": 9, "churn": 2}, {"pub": 0}
    )
    assert len(failures) == 1 and "'pub'" in failures[0]


def test_stubbed_broken_conservation_fails_the_run():
    def rep(seed):
        offered = {"pub": 9, "churn": 1}
        processed = {"pub": 8, "churn": 1}  # one publication vanished
        shed = {"pub": 0, "churn": 0}
        failures = workloads.conservation_failures("stub", offered, processed, shed)
        return _record(seed, processed=processed, failures=failures)

    code, line = _main(rep)
    assert code != 0
    assert line["correct"] is False


def test_clean_stub_passes_with_every_metric():
    code, line = _main(_record)
    assert code == 0 and line["correct"] is True
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert [name for name, _ in run.END_TO_END] == list(line["metrics"])
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_digest_mismatch_is_a_problem(tmp_path):
    same = [_record(3, digest="a"), _record(3, digest="a")]
    assert run.determinism_problems(same, None, "src") == []
    differ = [_record(3, digest="a"), _record(3, digest="b")]
    assert run.determinism_problems(differ, None, "src")
    # across runs of the same sources, through the ledger
    ledger = tmp_path / "digests.json"
    assert run.determinism_problems([_record(3, digest="a")], ledger, "src") == []
    assert run.determinism_problems([_record(3, digest="b")], ledger, "src")
    assert run.determinism_problems([_record(3, digest="b")], ledger, "new") == []


def test_benchmark_json_lists_the_runner_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_traced_repetition_attributes_its_wall_time(tmp_path):
    # a small publish soak in a fresh interpreter: the span wrappers stay
    # out of this test process
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import workloads, worker\n"
        "workloads.SIZES['publish'].update(n_events=300, n_subscriptions=40)\n"
        f"print(json.dumps(worker.repetition('publish', 3, True, {str(tmp_path)!r})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=run.child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["failures"] == []
    layers_raw = record["layers"]
    assert sum(layers_raw["self_s"].values()) == pytest.approx(
        layers_raw["traced_wall_s"], rel=1e-6
    )
    assert layers_raw["self_s"]["workload"] < 0.1 * layers_raw["traced_wall_s"]
    assert layers_raw["counters"]["broker_rebuilds_total"] == 1
    assert record["processed"]["pub"] + record["processed"]["churn"] == 300
