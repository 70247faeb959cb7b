"""The four benchmark workloads and the loop that measures them.

Every workload runs on full 2126-row synthetic tables made by
`ctgsvm.synth.make_ctg_like` from the table seeds in its pool. Each table's
SHA-256 is recorded in `inputs.json`; a generated table that does not match
fails the run, so a change to the generator cannot silently change what is
measured. Every run covers the whole pool, so runs on different workload
seeds do the same work; the workload seed sets the order in which the
pool's tables are run and, on `serve`, the order of the requests.
"""
from __future__ import annotations

import csv
import hashlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Program functions are called through their modules, so that the tracer's
# replacements of them are the ones called.
from ctgsvm import bagging, data, experiments, svm
from ctgsvm.experiments import EXP2_SELECTORS, ExperimentConfig
from ctgsvm.synth import make_ctg_like
from speed import PlainClock, SpeedProbe
from tracer import OpTimer, Record, Tracer

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs.json"

EXPERIMENT_SEED = 42
EXTRA_SETUPS = 10  # set-ups before the first pass, on top of one per pass
GRID_ACCURACY_BAND = 97.0  # acceptance criterion 5: every grid cell at or above
ENSEMBLE_MEMBERS = 7  # exp4 sweeps 1..7 members, so criterion 7's 7-member row exists
SERVE_MEMBERS = 10


class InputMismatch(RuntimeError):
    """A generated input differs from the one recorded for its seed."""


def table_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_table(work: Path, table_seed: int) -> Path:
    path = work / f"table_{table_seed}.csv"
    data.export_csv(make_ctg_like(table_seed), path)
    return path


def experiment_config(table: Path, out_dir: Path, **overrides) -> ExperimentConfig:
    return ExperimentConfig(data=str(table), seed=EXPERIMENT_SEED, out_dir=str(out_dir), **overrides)


def selection_names(pipe, code: str, search: str) -> str:
    names = pipe.train.feature_names
    return ";".join(names[f] for f in sorted(pipe.selection(code, search).selected))


@dataclass
class PassResult:
    """What one pass did: its operations and the checks that failed."""

    spans: dict = field(default_factory=dict)  # operation -> (start, end) on the work clock
    failed: int = 0
    problems: list[str] = field(default_factory=list)


class Workload:
    """A named workload: a pool of tables, a set-up, and one pass per table."""

    name = ""
    pool: tuple[int, ...] = ()
    # weight of speed.py's `interpreter` reference, against `kernel`, in the
    # speed that scales passes and operations: the blend that tracked the
    # pass times best over runs in fast and slow spells of the baseline
    # machine. Set-ups, table parsing in the interpreter, use 1.
    interpreter_share = 0.5

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.probe = PlainClock()  # run_workload sets the run's clock
        self.recorded = json.loads(INPUTS.read_text(encoding="utf-8"))
        self.tables = {}
        for t in self.pool:
            path = write_table(work, t)
            want = self.recorded["tables"].get(str(t))
            got = table_digest(path)
            if got != want:
                raise InputMismatch(f"table seed {t}: generated SHA-256 {got} != recorded {want}")
            self.tables[t] = path

    def setup(self) -> None:
        """The work before the first unit of work: table load, column drop, split."""
        experiments.build_pipeline(experiment_config(self.tables[self.pool[0]], self.work))

    def start(self) -> None:
        """Called once between the set-ups and the first pass."""

    def finish(self) -> None:
        """Called once after the last pass."""

    def run_pass(self, table_seed: int, index: int):
        raise NotImplementedError

    def check(self, table_seed: int, outcome) -> PassResult:
        raise NotImplementedError


class _ExperimentWorkload(Workload):
    """One `cmd_experiment` run per pass; each binary machine is an operation."""

    exp_id = ""
    overrides: dict = {}

    def start(self) -> None:
        self.machines = OpTimer(svm, self.probe.clock)

    def finish(self) -> None:
        self.machines.close()

    def run_pass(self, table_seed, index):
        out = self.work / f"out_{table_seed}"
        n0 = len(self.machines.spans)
        code = experiments.cmd_experiment(
            self.exp_id, experiment_config(self.tables[table_seed], out, **self.overrides), log=lambda *a: None
        )
        return code, out, n0

    def check(self, table_seed, outcome) -> PassResult:
        code, out, n0 = outcome
        res = PassResult(spans=dict(enumerate(self.machines.spans[n0:])))
        if code != 0:
            res.problems.append(f"{self.exp_id} on table {table_seed} exited {code}")
        with open(out / f"{self.exp_id}_{self.table_name}_seed{EXPERIMENT_SEED}.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        res.problems += self.check_rows(table_seed, rows)
        # a non-converged machine is a failed operation, a failed check one more
        res.failed = self.machines.converged[n0:].count(False) + len(res.problems)
        return res


class Grid(_ExperimentWorkload):
    """exp1: 30 C x degree cells, 90 machines on all 21 features, one shared Gram."""

    name = "grid"
    pool = (20260811,)
    exp_id = "exp1"
    table_name = "grid"
    interpreter_share = 0.2  # the Gram builds are most of a pass

    def check_rows(self, table_seed, rows):
        bad = [
            f"C={r['C']},degree={r['degree']}" for r in rows
            if r["flags"] or float(r["combined_accuracy"]) < GRID_ACCURACY_BAND
        ]
        if len(rows) != 30 or bad:
            return [f"exp1 on table {table_seed}: {len(rows)} cells, below band or non-converged: {bad}"]
        return []


class Ensemble(_ExperimentWorkload):
    """exp4 on the EFS41 set, bagged SVM at C=1000, degree 4, 1..7 members:
    28 member trainings and 84 machines on bootstrap problems."""

    name = "ensemble"
    pool = (20260811,)
    exp_id = "exp4"
    table_name = "sweep"
    overrides = {"exp4_members": ENSEMBLE_MEMBERS}

    def check_rows(self, table_seed, rows):
        failed = [f"exp4 on table {table_seed}: row {r['members']} flagged {r['flags']}" for r in rows if r["flags"]]
        row = rows[ENSEMBLE_MEMBERS - 1]
        voting = float(row["voting_combined"])
        members = [float(row[f"member_{i}_accuracy"]) for i in range(1, ENSEMBLE_MEMBERS + 1)]
        if not all(voting >= m for m in members):
            failed.append(f"exp4 on table {table_seed}: 7-member voting {voting} below a member {members}")
        return failed


class Select(Workload):
    """MDL discretization and the six exp2 selectors on the training partition."""

    name = "select"
    pool = (20260811, 1)

    def run_pass(self, table_seed, index):
        pipe = experiments.build_pipeline(experiment_config(self.tables[table_seed], self.work))
        pipe.dmap
        clock, spans = self.probe.clock, {}
        for code, search in EXP2_SELECTORS:
            t0 = clock()
            pipe.selection(code, search)
            spans[f"{code}-{search}"] = (t0, clock())
        return pipe, spans

    def check(self, table_seed, outcome) -> PassResult:
        pipe, spans = outcome
        want = self.recorded["selections"][str(table_seed)]
        res = PassResult(spans=spans)
        for code, search in EXP2_SELECTORS:
            label = f"{code}-{search}"
            got = selection_names(pipe, code, search)
            if got != want[label]:
                res.failed += 1
                res.problems.append(f"{label} on table {table_seed}: {got} != recorded {want[label]}")
        return res


class Serve(Workload):
    """Single-row classification through a reloaded 10-member EFS41 ensemble,
    one caller in a closed loop, every table row once per pass."""

    name = "serve"
    pool = (20260811,)

    def __init__(self, work, seed):
        super().__init__(work, seed)
        # untimed preparation: train and save the model the set-ups load
        table = self.tables[self.pool[0]]
        pipe = experiments.build_pipeline(experiment_config(table, work))
        feats = sorted(experiments.exp4_feature_set(pipe))
        cfg = pipe.cfg
        ens = bagging.bagging_train(
            pipe.train,
            bagging.EnsembleConfig(
                members=SERVE_MEMBERS, base=cfg.svm(cfg.exp4_c, cfg.exp4_degree), master_seed=cfg.seed
            ),
            feature_mask=feats,
            standardizer=data.fit_standardizer(data.select_features(pipe.train, feats)),
        )
        self.model_path = work / "serve_ensemble.txt"
        bagging.save_ensemble(ens, self.model_path)
        self.expected = ens.predict_dataset(pipe.work)[0]

    def setup(self) -> None:
        pipe = experiments.build_pipeline(experiment_config(self.tables[self.pool[0]], self.work))
        self.model = bagging.load_ensemble(self.model_path)
        self.rows = pipe.work.feature_matrix()

    def run_pass(self, table_seed, index):
        order = np.random.default_rng([self.seed, index]).permutation(len(self.rows))
        rows, predict, clock = self.rows, self.model.predict_values, self.probe.clock
        labels, spans = [], {}
        for i in order:
            t0 = clock()
            label = predict(rows[i])
            spans[int(i)] = (t0, clock())
            labels.append(label)
        return order, labels, spans

    def check(self, table_seed, outcome) -> PassResult:
        order, labels, spans = outcome
        res = PassResult(spans=spans)
        wrong = [int(i) for i, lab in zip(order, labels) if lab != self.expected[i]]
        res.failed = len(wrong)
        if wrong:
            res.problems.append(f"reloaded ensemble disagrees with the batch labels on rows {wrong[:10]}")
        return res


WORKLOADS = {w.name: w for w in (Grid, Ensemble, Select, Serve)}


@dataclass
class RunResult:
    """Set-up, pass and operation times of a run, scaled by the speed probe
    (unscaled in a traced run), with the unscaled set-up and pass times."""

    setup_times: list[float]
    pass_times: dict[int, list[float]]
    op_latencies: dict[tuple, list[float]]
    raw_setup_times: list[float]
    raw_pass_times: dict[int, list[float]]
    ref_quantiles_s: dict[str, float] | None
    attempted: int
    failed: int
    problems: list[str]
    passes: int
    timed_s: float
    cpu_s: float
    setup_trace: Record | None = None
    work_trace: Record | None = None

    def end_to_end(self, peak_rss_mb: float) -> dict[str, float]:
        # an operation's latency is the median of its repeats in the run, so
        # a passing slow spell of the machine moves neither percentile
        per_op = [statistics.median(v) for v in self.op_latencies.values()]
        p50, p99 = np.percentile(np.array(per_op) * 1e3, [50, 99])
        return {
            "setup_s": statistics.median(self.setup_times),
            "wall_s": statistics.fmean(statistics.median(t) for t in self.pass_times.values()),
            "peak_rss_mb": peak_rss_mb,
            "req_p50_ms": float(p50),
            "req_p99_ms": float(p99),
        }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> RunResult:
    """Run whole cycles over the pool while the run is more than half a
    cycle short of `seconds`; at least one cycle always runs. A set-up
    precedes every pass, and `EXTRA_SETUPS` more precede the first, so that
    setup_s is a median over the whole run.

    An untraced run samples the machine's speed throughout (speed.py) and
    scales every set-up, pass and operation time by the speed around it;
    a traced run reports unscaled times."""
    wl = WORKLOADS[name](work, seed)
    probe = PlainClock() if trace else SpeedProbe()
    wl.probe = probe
    clock = probe.clock
    tracer = setup_rec = work_rec = None
    if trace:
        tracer, setup_rec, work_rec = Tracer(), Record(), Record()
        tracer.install()
    k = seed % len(wl.pool)
    order = wl.pool[k:] + wl.pool[:k]
    setup_spans, pass_spans, op_spans, problems = [], {t: [] for t in wl.pool}, defaultdict(list), []
    cycles = []
    attempted = failed = passes = 0
    cpu_s = 0.0

    def setup():
        if tracer:
            tracer.rec = setup_rec
        t0 = clock()
        wl.setup()
        setup_spans.append((t0, clock()))
        if tracer:
            tracer.rec = work_rec

    probe.start()
    try:
        for _ in range(EXTRA_SETUPS):
            setup()
        wl.start()
        try:
            start = time.perf_counter()
            while not cycles or time.perf_counter() - start + statistics.median(cycles) / 2 < seconds:
                c0 = time.perf_counter()
                for t in order:
                    setup()
                    u0, p0 = time.process_time(), clock()
                    outcome = wl.run_pass(t, passes)
                    pass_spans[t].append((p0, clock()))
                    cpu_s += time.process_time() - u0
                    passes += 1
                    res = wl.check(t, outcome)
                    for op, span in res.spans.items():
                        op_spans[(t, op)].append(span)
                    attempted += len(res.spans)
                    failed += res.failed
                    problems += res.problems
                cycles.append(time.perf_counter() - c0)
        finally:
            wl.finish()
    finally:
        probe.stop()
        if tracer:
            tracer.close()

    def scaled(spans, share=wl.interpreter_share):
        return [(b - a) * probe.scale(a, b, share) for a, b in spans]

    def raw(spans):
        return [b - a for a, b in spans]

    return RunResult(
        setup_times=scaled(setup_spans, 1.0),
        pass_times={t: scaled(s) for t, s in pass_spans.items()},
        op_latencies={op: scaled(s) for op, s in op_spans.items()},
        raw_setup_times=raw(setup_spans),
        raw_pass_times={t: raw(s) for t, s in pass_spans.items()},
        ref_quantiles_s=None if trace else probe.ref_quantiles_s(),
        attempted=attempted,
        failed=min(failed, attempted),
        problems=problems,
        passes=passes,
        timed_s=sum(sum(raw(s)) for s in pass_spans.values()),
        cpu_s=cpu_s,
        setup_trace=setup_rec,
        work_trace=work_rec,
    )
