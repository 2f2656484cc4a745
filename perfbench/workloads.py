"""The benchmark's four workloads, driven through the package's public functions.

Each workload writes its inputs with a seeded generator into a temporary
directory (untimed), reads them back through `load_dataset`, warms up, and
then repeats one timed unit until the run's seconds are spent:

* train-distmult-nell23k, train-transe-wdsinger: the unit is one optimizer
  step (`batch_loss`, `backward`, `Adam.step`);
* infer-fb15k237-10: the unit is one cycle of a filtered `evaluate_split`
  over a DistMult block of the valid split, one over a TransE block of a
  fixed sample of it, and `explain` on a few fixed (source, target) pairs;
* fit-synthetic: the unit is one `fit` call on the planted-rule KG.

Correctness gates run outside the timed regions and count into
`ops_total` / `ops_failed`.
"""
from __future__ import annotations

import importlib
import itertools
import math
import resource
import statistics
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import shapes
from tracing import Tracer

kgdata = importlib.import_module("hogrn.kgdata")
training = importlib.import_module("hogrn.training")
evaluation = importlib.import_module("hogrn.evaluation")
explaining = importlib.import_module("hogrn.explain")
seeding = importlib.import_module("hogrn.seeding")
synthetic = importlib.import_module("hogrn.synthetic")
optim = importlib.import_module("hogrn.optim")

BATCH = 256
LAMBDA_REL = 0.1
TEMPERATURE = 1.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def percentile_with_tail(values, q: float):
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    if len(values) * (1.0 - q / 100.0) < 10:
        return None
    return float(np.percentile(values, q))


def attempt(fn):
    """Run one op; returns (value, seconds, error text or None)."""
    started = perf_counter()
    try:
        value, error = fn(), None
    except Exception as err:  # an op that raises is a failed op; the run goes on
        value, error = None, f"{type(err).__name__}: {err}"
    return value, perf_counter() - started, error


class Gates:
    """Correctness checks; each one is an op that passes or fails."""

    def __init__(self):
        self.total = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str):
        self.total += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)


@dataclass
class Run:
    """One workload run: its settings, its tracer (traced runs only) and what it found."""

    seed: int
    seconds: float
    smoke: bool
    workdir: Path
    tracer: Tracer | None = None
    gates: Gates = field(default_factory=Gates)
    setup_s: list[float] = field(default_factory=list)
    traced_units: int = 0
    overhead_pct: float | None = None
    _build: object = None
    _pending_setups: int = 0

    def untimed(self):
        """Work outside the measured phases (gates, fresh models) is not charged to layers."""
        return self.tracer.in_phase("other") if self.tracer else nullcontext()

    def setup(self, build, reps: int):
        """Time `build` `reps` times; returns the first result.

        Untraced, the first set-up runs now and the others between timed
        units, spread over the run, so that their median does not hang on one
        moment of a shared machine. Traced, all of them run now.
        """
        self._build = build
        if self.tracer is None:
            self._pending_setups = reps - 1
            return self._timed_build()
        with self.tracer.installed():
            state = self._timed_build()
            for _ in range(reps - 1):
                self._timed_build()
        return state

    def _timed_build(self):
        started = perf_counter()
        state = self._build()
        self.setup_s.append(perf_counter() - started)
        return state

    def measure(self, unit, rate, min_units: int, max_units: int):
        """Repeat `unit` for the run's seconds; returns the list of unit results.

        A unit is started only while it is expected to end within the time
        left, and at least `min_units` run. A traced run spends half its
        seconds untraced and half traced; the traced half is returned, and the
        untraced one gives the tracing overhead by way of `rate`.
        """
        if self.tracer is None:
            return self._repeat(unit, self.seconds, min_units, max_units)
        plain = self._repeat(unit, self.seconds / 2, min_units, max_units)
        with self.tracer.installed(), self.tracer.in_phase("run"):
            traced = self._repeat(unit, self.seconds / 2, min_units, max_units)
        self.traced_units = len(traced)
        self.overhead_pct = 100.0 * (rate(plain) / rate(traced) - 1.0)
        return traced

    def _repeat(self, unit, seconds, min_units, max_units):
        results = []
        started = perf_counter()
        last = 0.0
        spaced = self._pending_setups
        while len(results) < min_units or (
                len(results) < max_units and perf_counter() - started + last <= seconds):
            t0 = perf_counter()
            results.append(unit())
            last = perf_counter() - t0
            done = spaced - self._pending_setups
            if self._pending_setups and perf_counter() - started >= seconds * (done + 1) / (spaced + 1):
                self._timed_build()
                self._pending_setups -= 1
        for _ in range(self._pending_setups):
            self._timed_build()
        self._pending_setups = 0
        return results


# --- training steps at a published shape ------------------------------------

def train_workload(run: Run, shape_name: str, head: str) -> dict:
    shape = shapes.TINY if run.smoke else shapes.PUBLISHED[shape_name]
    data_dir = run.workdir / "data"
    shapes.write_dataset(data_dir, shape, run.seed)
    config = training.TrainConfig(dim=100, num_layers=2, head=head, batch_size=BATCH,
                                  seed=run.seed)

    def build():
        store, vocab = kgdata.load_dataset(data_dir)
        graph = kgdata.ExtendedGraph(store.train, vocab.num_entities, vocab.num_relations)
        queries = training.build_queries(graph)
        model = config.build_model(graph)
        optimizer = optim.Adam(model.params, lr=config.lr)
        return store, vocab, graph, queries, model, optimizer

    store, vocab, graph, queries, model, optimizer = run.setup(build, 5)
    order = seeding.substream(run.seed, "shuffling").permutation(len(queries))
    mask_rng = seeding.substream(run.seed, "masking")
    losses: list[float] = []

    def work(idx):
        model.params.zero_grad()
        loss = training.batch_loss(model, queries, idx, mask_rng, LAMBDA_REL, TEMPERATURE)
        loss.backward()
        optimizer.step()
        return loss.item()

    def step() -> float:
        k = len(losses)
        idx = np.take(order, np.arange(k * BATCH, (k + 1) * BATCH), mode="wrap")
        value, elapsed, error = attempt(lambda: work(idx))
        loss = math.nan if value is None else value
        losses.append(loss)
        run.gates.record(math.isfinite(loss), f"step {k}: {error or f'loss {loss}'}")
        return elapsed

    # Warm-up: the first step pays first-touch page faults on the tape's
    # arrays (gigabytes at NELL23K shape), up to 40% of a step. A user pays it
    # once per process, not on each of an epoch's hundreds of steps, so it is
    # left out of the rate and reported beside it.
    warmup_s = step()

    def rate(times):
        return BATCH / median(times)

    times = run.measure(step, rate, min_units=2, max_units=200)
    return {
        "queries_per_s": rate(times),
        "latency_ms": 1000.0 * median(times),
        "named": [
            ("train_queries_per_s", rate(times), "1/s"),
            ("step_ms_p50", 1000.0 * median(times), "ms"),
            ("epoch_s_estimate", len(queries) / rate(times), "s"),
        ],
        "samples": {"steps": len(times)},
        "details": {
            "dataset": kgdata.degree_report(store, vocab).as_dict(),
            "extended_edges": int(graph.num_edges),
            "queries_per_epoch": len(queries),
            "batch_size": BATCH,
            "head": head,
            "step_s": times,
            "warmup_step_s": warmup_s,
            "loss_trajectory": losses,
        },
    }


# --- filtered ranking and explanations at FB15K-237-10% shape --------------

def explain_pairs(train: np.ndarray, num_entities: int, count: int, rng) -> list[tuple[int, int]]:
    """A quarter of the sources are the highest-degree entities, the rest uniform.

    Targets are one or two hops away. With hubs a quarter of the calls, the
    median call is an ordinary one and the 90th percentile a hub one.
    """
    ends = np.concatenate([train[:, [0, 2]], train[:, [2, 0]]])
    ends = ends[np.argsort(ends[:, 0], kind="stable")]
    starts = np.searchsorted(ends[:, 0], np.arange(num_entities + 1))
    degree = np.diff(starts)

    def neighbour(e):
        return int(ends[starts[e] + rng.integers(degree[e]), 1])

    hubs = np.argsort(-degree, kind="stable")[:count // 4]
    uniform = rng.choice(np.flatnonzero(degree > 0), size=count - hubs.size)
    sources = np.concatenate([hubs, uniform])[rng.permutation(count)]
    pairs = []
    for source in sources.tolist():
        first = neighbour(source)
        second = neighbour(first)
        pairs.append((source, second if second != source else first))
    return pairs


def infer_workload(run: Run) -> dict:
    shape = shapes.TINY if run.smoke else shapes.PUBLISHED["FB15K-237-10%"]
    data_dir = run.workdir / "data"
    shapes.write_dataset(data_dir, shape, run.seed)
    dm_block, te_block, te_sample = (16, 8, 32) if run.smoke else (256, 32, 1024)
    num_pairs, pairs_per_cycle = (16, 2) if run.smoke else (160, 5)
    config = training.TrainConfig(dim=100, num_layers=2, head="distmult", seed=run.seed)

    # The set-up ends with the states that ranking and explaining read.
    def build():
        store, vocab = kgdata.load_dataset(data_dir)
        graph = kgdata.ExtendedGraph(store.train, vocab.num_entities, vocab.num_relations)
        filter_index = evaluation.build_filter_index(store, vocab)
        model = config.build_model(graph)
        h, z, attentions = model.eval_states()
        return store, vocab, graph, filter_index, h, z, attentions

    store, vocab, graph, filter_index, h, z, attentions = run.setup(build, 4)
    num_raw = vocab.num_relations
    rng = np.random.default_rng([run.seed, 7])
    valid = store.valid
    te_valid = valid[np.sort(rng.choice(valid.shape[0], size=min(te_sample, valid.shape[0]),
                                        replace=False))]
    pairs = explain_pairs(store.train, vocab.num_entities, num_pairs, rng)

    # One query per head (a tail query for DistMult, a head query for TransE):
    # the oracle scores in pure Python, about a second per query at this shape.
    mismatches = 0
    with run.untimed():
        for head, which in (("distmult", 0), ("transe", 1)):
            triple = valid[rng.integers(valid.shape[0])][None, :]
            fast = evaluation.evaluate_split(head, h, z, triple, filter_index, num_raw,
                                             "both", keep_ranks=True).ranks[which]
            s, r, t = (int(v) for v in triple[0])
            src, rel, gold = (s, r, t) if which == 0 else (t, r + num_raw, s)
            known = filter_index.get((src, rel), np.empty(0, dtype=np.int64))
            slow = evaluation.oracle_rank(head, h, z, src, rel, gold, known)
            mismatches += int(fast != slow)
            run.gates.record(fast == slow,
                             f"{head} rank {fast} != oracle {slow} for ({src}, {rel}, {gold})")

    cycle_ids = itertools.count()
    path_counts = []

    def rank_block(head, triples, block, k):
        chunk = np.take(triples, np.arange(k * block, (k + 1) * block), axis=0, mode="wrap")
        report, elapsed, error = attempt(lambda: evaluation.evaluate_split(
            head, h, z, chunk, filter_index, num_raw, "both"))
        ok = report is not None and math.isfinite(report.mrr) and report.num_queries == 2 * block
        run.gates.record(ok, f"{head} block {k}: {error or 'bad report'}")
        return 2 * block, elapsed

    def explain_one(source, target):
        paths, elapsed, error = attempt(lambda: explaining.explain(graph, attentions, source, target))
        ok = paths is not None and all(math.isfinite(p.score) for p in paths)
        run.gates.record(ok, f"explain {source}->{target}: {error or 'non-finite score'}")
        path_counts.append(0 if paths is None else len(paths))
        return elapsed

    def cycle() -> dict:
        k = next(cycle_ids)
        dm_q, dm_s = rank_block("distmult", valid, dm_block, k)
        te_q, te_s = rank_block("transe", te_valid, te_block, k)
        explain_s = [explain_one(*pairs[(k * pairs_per_cycle + j) % len(pairs)])
                     for j in range(pairs_per_cycle)]
        return {"dm_q": dm_q, "dm_s": dm_s, "te_q": te_q, "te_s": te_s, "explain_s": explain_s}

    def rate(cycles):
        return median([(c["dm_q"] + c["te_q"]) / (c["dm_s"] + c["te_s"]) for c in cycles])

    warm_started = perf_counter()
    cycle()  # fills explain's lazy edge indexes and warms the allocator
    first_cycle_s = perf_counter() - warm_started
    cycles = run.measure(cycle, rate, min_units=2, max_units=100_000)
    explain_s = [s for c in cycles for s in c["explain_s"]]
    dm_rate = median([c["dm_q"] / c["dm_s"] for c in cycles])
    te_rate = median([c["te_q"] / c["te_s"] for c in cycles])
    p90 = percentile_with_tail(explain_s, 90)
    return {
        "queries_per_s": rate(cycles),
        "latency_ms": 1000.0 * median(explain_s),
        "named": [
            ("rank_qps_distmult", dm_rate, "1/s"),
            ("rank_qps_transe", te_rate, "1/s"),
            ("explain_ms_p50", 1000.0 * median(explain_s), "ms"),
            ("explain_ms_p90", None if p90 is None else 1000.0 * p90, "ms"),
            ("valid_pass_distmult_s_estimate", 2 * valid.shape[0] / dm_rate, "s"),
        ],
        "samples": {"cycles": len(cycles), "explain_calls": len(explain_s),
                    "distmult_queries": sum(c["dm_q"] for c in cycles),
                    "transe_queries": sum(c["te_q"] for c in cycles)},
        "details": {
            "dataset": kgdata.degree_report(store, vocab).as_dict(),
            "extended_edges": int(graph.num_edges),
            "oracle_mismatches": mismatches,
            "first_cycle_s": first_cycle_s,
            "explain_pairs": pairs,
            "mean_paths_per_explain": float(np.mean(path_counts)),
        },
    }


# --- the real fit loop on the planted-rule KG -------------------------------

def fit_workload(run: Run) -> dict:
    num_entities, epochs = (80, 8) if run.smoke else (200, 12)
    store, vocab = synthetic.rule_composition_kg(num_entities=num_entities, seed=run.seed)
    data_dir = run.workdir / "data"
    shapes.write_triples(data_dir, store.train, store.valid, store.test,
                         vocab.entities, vocab.relations)
    # the acceptance-criteria settings, with patience = epochs so every fit runs them all
    config = training.TrainConfig(dim=64, num_layers=2, head="distmult", lr=1e-2,
                                  batch_size=128, max_epochs=epochs, patience=epochs,
                                  mask_ratio=0.1, lambda_rel=0.1, direction="both",
                                  seed=run.seed)

    def build():
        store, vocab = kgdata.load_dataset(data_dir)
        graph = kgdata.ExtendedGraph(store.train, vocab.num_entities, vocab.num_relations)
        return store, vocab, graph, config.build_model(graph)

    store, vocab, graph, model = run.setup(build, 15)
    with run.untimed():
        filter_index = evaluation.build_filter_index(store, vocab)
        baseline = evaluation.constant_baseline_mrr(
            store.test, filter_index, vocab.num_entities, vocab.num_relations, "both")
        num_queries = len(training.build_queries(graph))
    outcomes = []

    def one_fit(model) -> float:
        k = len(outcomes)
        result, elapsed, error = attempt(lambda: training.fit(model, store, vocab, config)[0])
        if result is None:
            run.gates.record(False, f"fit {k}: {error}")
            outcomes.append(None)
            return elapsed
        with run.untimed():
            h, z, _ = model.eval_states()
            mrr = evaluation.evaluate_split(model.head, h, z, store.test, filter_index,
                                            vocab.num_relations, "both").mrr
        losses = [e.loss for e in result.history]
        outcomes.append((mrr, losses))
        reference = outcomes[0]
        run.gates.record(all(math.isfinite(v) for v in losses), f"fit {k}: losses {losses}")
        run.gates.record(mrr > baseline, f"fit {k}: test MRR {mrr} not above baseline {baseline}")
        run.gates.record(reference is not None and (mrr, losses[-1]) == (reference[0], reference[1][-1]),
                         f"fit {k}: test MRR {mrr} / final loss {losses[-1]} differ from fit 0")
        return elapsed

    def unit():
        with run.untimed():
            fresh = config.build_model(graph)
        return one_fit(fresh)

    def rate(times):
        return epochs * num_queries / median(times)

    first_fit_s = one_fit(model)  # warm-up, and the reference for the determinism gate
    times = run.measure(unit, rate, min_units=2, max_units=1000)
    reference = outcomes[0]
    return {
        "queries_per_s": rate(times),
        "latency_ms": 1000.0 * median(times),
        "named": [
            ("fit_s", median(times), "s"),
            ("test_mrr", None if reference is None else reference[0], "mrr"),
            ("baseline_mrr", baseline, "mrr"),
        ],
        "samples": {"fits": len(times)},
        "details": {
            "dataset": kgdata.degree_report(store, vocab).as_dict(),
            "epochs": epochs,
            "queries_per_epoch": num_queries,
            "fit_s": times,
            "first_fit_s": first_fit_s,
            "loss_trajectory": None if reference is None else reference[1],
        },
    }


WORKLOADS = {
    "train-distmult-nell23k": lambda run: train_workload(run, "NELL23K", "distmult"),
    "train-transe-wdsinger": lambda run: train_workload(run, "WD-singer", "transe"),
    "infer-fb15k237-10": infer_workload,
    "fit-synthetic": fit_workload,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 work_root: Path) -> dict:
    """Run one workload and return its figures, per-layer table included when traced."""
    work_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        run = Run(seed=seed, seconds=seconds, smoke=smoke, workdir=Path(tmp),
                  tracer=Tracer() if trace else None)
        out = WORKLOADS[name](run)
    out["setup_s"] = run.setup_s
    out["setup_s_p50"] = median(run.setup_s)
    out["peak_rss_mb"] = peak_rss_mb()
    out["ops_total"] = run.gates.total
    out["ops_failed"] = run.gates.failed
    out["failures"] = run.gates.failures
    if run.tracer is not None:
        counts = {"setup": len(run.setup_s), "run": run.traced_units}
        layers = run.tracer.metrics(counts)
        layers["evaluation.oracle_mismatches"] = float(out["details"].get("oracle_mismatches", 0))
        layers["trace.overhead_pct"] = run.overhead_pct
        out["per_layer"] = layers
        out["layer_table"] = run.tracer.layer_table(counts)
        out["spans"] = run.tracer.spans
    return out
