"""Self-tests of the benchmark itself.

From the repository root:

    python3 -m pytest perfbench -q

They run each workload traced on one table of its pool (about a minute
and a half in all) and check that every span a per-layer metric is built from fires on
the workloads README.md assigns it to, that spans reached through names
other modules imported fire too, and that wrapping the program leaves its
result files byte for byte the same. They also check how the speed probe
scales a time and that its clock leaves out the probe's own time.
"""
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import add_program_path  # noqa: E402

add_program_path()
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SPANS = ("data.load_dataset", "data.stratified_split", "experiments.build_pipeline")

# span -> workloads whose timed phase must call it
WORK_SPANS = {
    "data.fit_discretization": ("ensemble", "select"),
    "data.discretize_mdl": ("ensemble", "select"),
    "fs_ensemble.run_selector": ("ensemble", "select"),
    "filters.inconsistency_rate": ("select",),
    "filters.relieff": ("select",),
    "search.SubsetEvaluator.score": ("ensemble", "select"),
    "search.best_first": ("select",),
    "search.genetic_search": ("ensemble", "select"),
    "svm.pairwise_problems": ("grid", "ensemble"),
    "svm.train_from_problems": ("grid", "ensemble"),
    "svm.smo_train": ("grid", "ensemble"),
    "svm.train_multiclass": ("ensemble",),
    "svm.SvmModel.predict_matrix": ("grid", "ensemble", "serve"),
    "svm.kernel_matrix": ("grid", "ensemble", "serve"),
    "bagging.bagging_train": ("ensemble",),
    "bagging.bootstrap_sample": ("ensemble",),
    "bagging.member_agreement": ("ensemble",),
    "bagging.EnsembleModel.member_predictions": ("ensemble",),
    "bagging.EnsembleModel.predict_dataset": ("ensemble",),
    "bagging.EnsembleModel.predict_values": ("serve",),
    "experiments.cmd_experiment": ("grid", "ensemble"),
}


def one_table(monkeypatch, name):
    cls = workloads.WORKLOADS[name]
    monkeypatch.setattr(cls, "pool", cls.pool[:1])


def run(name, work: Path, trace: bool):
    work.mkdir()
    res = workloads.run_workload(name, seed=0, seconds=0, trace=trace, work=work)
    assert res.failed == 0, res.problems
    return res


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    out = {}
    try:
        for name in workloads.WORKLOADS:
            one_table(mp, name)
            work = tmp_path_factory.mktemp(name) / "traced"
            out[name] = run(name, work, trace=True)
            out[name].work = work
    finally:
        mp.undo()
    return out


@pytest.mark.parametrize("name", ["grid", "ensemble", "select", "serve"])
def test_every_assigned_span_fires(traced, name):
    res = traced[name]
    for span in SETUP_SPANS:
        assert res.setup_trace.calls[span] == len(res.setup_times), span
    want = {span for span, names in WORK_SPANS.items() if name in names}
    missing = sorted(span for span in want if res.work_trace.calls.get(span, 0) == 0)
    assert not missing


def test_spans_behind_imported_names_fire(traced):
    grid, ens, sel, serve = (traced[n] for n in ("grid", "ensemble", "select", "serve"))
    # experiments calls these through names it imported
    assert grid.work_trace.calls["svm.pairwise_problems"] == 1
    assert grid.work_trace.calls["svm.train_from_problems"] == 30
    assert ens.work_trace.calls["bagging.bagging_train"] == workloads.ENSEMBLE_MEMBERS
    assert ens.work_trace.calls["bagging.member_agreement"] == workloads.ENSEMBLE_MEMBERS - 1
    assert sel.work_trace.calls["fs_ensemble.run_selector"] == 6
    assert sel.work_trace.calls["data.fit_discretization"] == 1
    # bagging calls train_multiclass through the name it imported
    assert ens.work_trace.values["bagging.members_trained"] == 28
    assert serve.setup_trace.calls["bagging.load_ensemble"] == len(serve.setup_times)


def test_layer_metrics_per_pass(traced):
    grid = traced["grid"]
    m = tracer.layer_metrics(grid.setup_trace, len(grid.setup_times), grid.work_trace, grid.passes, grid.cpu_s)
    assert m["svm.smo_train_calls"] == 90
    assert m["svm.nonconverged"] == 0
    assert m["svm.smo_updates"] > 0 and m["svm.support_vectors"] > 0
    sel = traced["select"]
    m = tracer.layer_metrics(sel.setup_trace, len(sel.setup_times), sel.work_trace, sel.passes, sel.cpu_s)
    assert all(m[f"fs_ensemble.run_selector_s.{label}"] > 0 for label in tracer.SELECTOR_LABELS)
    assert 0 < m["search.memo_hit_ratio"] < 1
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert set(m) == {x["name"] for x in spec["per_layer"]}


def result_files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv")) if "_timing_" not in p.name}


@pytest.mark.parametrize("name", ["grid", "ensemble"])
def test_traced_run_writes_identical_results(traced, tmp_path, monkeypatch, name):
    one_table(monkeypatch, name)
    run(name, tmp_path / "plain", trace=False)
    table = workloads.WORKLOADS[name].pool[0]
    plain = result_files(tmp_path / "plain" / f"out_{table}")
    assert plain and plain == result_files(traced[name].work / f"out_{table}")


def test_changed_table_fails_the_run(tmp_path, monkeypatch):
    rec = json.loads(workloads.INPUTS.read_text())
    rec["tables"]["20260811"] = "0" * 64
    fake = tmp_path / "inputs.json"
    fake.write_text(json.dumps(rec))
    monkeypatch.setattr(workloads, "INPUTS", fake)
    with pytest.raises(workloads.InputMismatch):
        workloads.Serve(tmp_path, seed=0)


def test_speed_probe_scales_by_the_ticks_around_an_interval():
    probe = speed.SpeedProbe()
    nominal = speed.REFERENCES["interpreter"][1]
    # a tick every 20 ms; the interpreter reference takes twice as long
    # from 10 s on, the kernel reference four times as long
    probe.stamps = [i * 0.02 for i in range(1000)]
    refs = probe.refs["interpreter"]
    refs[:] = [nominal * (1 if t < 10 else 2) for t in probe.stamps]
    kernel = speed.REFERENCES["kernel"][1]
    probe.refs["kernel"] = [kernel * (1 if t < 10 else 4) for t in probe.stamps]
    assert probe.scale(15.0, 16.0, 0.5) == pytest.approx(1 / 3)
    assert probe.scale(15.0, 16.0, 0.0) == pytest.approx(1 / 4)
    assert probe.scale(2.0, 3.0, 1.0) == pytest.approx(1.0)
    assert probe.scale(15.0, 16.0, 1.0) == pytest.approx(0.5)
    # a quarter of slow ticks in the window do not move the lower quartile
    refs[100:400:4] = [nominal * 3] * len(refs[100:400:4])
    assert probe.scale(3.0, 6.0, 1.0) == pytest.approx(1.0)
    # a window with too few ticks widens to MIN_TICKS of them
    probe.stamps = [0.0, 100.0] + [200.0] * 20
    refs[:] = [nominal / 2] * 2 + [nominal] * 20
    assert probe.scale(0.0, 0.0, 1.0) == pytest.approx(1.0)


def test_speed_probe_clock_leaves_out_the_reference_runs():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        c0, t0 = probe.clock(), time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        c1, t1 = probe.clock(), time.perf_counter()
    finally:
        probe.stop()
    assert len(probe.stamps) >= 5 and probe.spent > 0
    assert all(len(v) == len(probe.stamps) for v in probe.refs.values())
    assert c1 - c0 == pytest.approx((t1 - t0) - probe.spent, abs=2e-3)
