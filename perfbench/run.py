#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload train-favorita-embedded \\
        --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, timed with tracing off.
``--trace 1`` runs one round of the workload untraced (the baseline of
the tracing overhead), then one more round with the program's layer boundaries wrapped (spans)
and a shortened serving round with ``tracemalloc`` on, prints the
per-layer metrics, and writes the spans and a per-layer
summary to ``.bench_build/perfbench/``.  Every output is checked against
the oracle in ``oracle.py``; a mismatch counts as a failed operation and
the exit code is 1.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import time

#: set-up is counted from here, imports included
T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")

#: inherited settings that would change what runs; cleared and recorded
CLEARED_ENV = (
    "JOINBOOST_CHAOS",
    "JOINBOOST_NUM_WORKERS",
    "JOINBOOST_EXECUTOR",
    "JOINBOOST_SERVE_DEADLINE",
)

#: the trained model (Figure 8's Favorita GBM, one worker thread)
TRAIN_PARAMS = {"num_iterations": 8, "num_leaves": 16, "num_workers": 1}
#: the served model
SERVE_PARAMS = {"num_iterations": 16, "num_leaves": 4, "num_workers": 1}
HOT_KEYS = 8
#: most lookup pairs the tracemalloc round makes (it runs ~6x slower)
MEMORY_ROUND_PAIRS = 50
#: numbers the sqlite files of one process (the warm-up's too)
SQLITE_FILES = itertools.count()
#: every run makes at least this many rounds, so it has at least
#: MIN_ROUNDS * key_pairs lookups of each kind (the tail is fixed by it)
MIN_ROUNDS = 2
#: tolerances of the training oracle (the paper's equivalence holds to
#: float summation order, about 1e-12 on these targets)
PREDICTION_TOLERANCE = 1e-9
RMSE_RELATIVE_TOLERANCE = 1e-9

END_TO_END = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("train_rmse", "rmse"),
    ("peak_rss_mb", "MiB"),
    ("key_cold_p50_ms", "ms"),
    ("key_cold_tail_ms", "ms"),
    ("key_hot_p50_ms", "ms"),
    ("key_hot_tail_ms", "ms"),
    ("bulk_sql_s", "s"),
    ("bulk_compiled_s", "s"),
    ("serve_ops_per_s", "ops/s"),
]


@dataclasses.dataclass(frozen=True)
class Workload:
    backend: str  # "embedded" or "sqlite"
    fact_rows: int
    trains_per_round: bool  # False: one model trained in set-up, then serve
    key_pairs: int  # cold/hot lookup pairs per serving round
    bulk_calls: int  # score_sql + score_compiled pairs per serving round


WORKLOADS = {
    # The in-Python SQL stack (parse, plan, execute) does all the work.
    "train-favorita-embedded": Workload("embedded", 100_000, True, 25, 1),
    # sqlite's C engine replaces the embedded sql/engine layers; the fact
    # table is smaller so a run takes about as long as the embedded one.
    # Its lookups are ~8x faster than the embedded engine's; a round makes
    # 16x the lookups so that its serving lasts long enough to average the
    # host's speed swings (up to 1.8x, each lasting a second or more).
    "train-favorita-sqlite": Workload("sqlite", 10_000, True, 400, 8),
    # Key lookups and bulk scoring against a model deployed in set-up.
    "serve-favorita-keys": Workload("embedded", 100_000, False, 25, 2),
}


def digest(scores) -> str:
    import numpy as np

    array = np.ascontiguousarray(scores, dtype=np.float64)
    return hashlib.sha256(array.tobytes()).hexdigest()


@dataclasses.dataclass
class Op:
    """One request to the program, kept for the oracle check."""

    kind: str  # train, cold, hot, sql, compiled
    model: int  # index into Bench.models
    seconds: float
    timed: bool
    keys: Optional[Dict[str, int]] = None
    scores: object = None  # lookup scores; digest for bulk calls
    served_by: Optional[str] = None
    degraded_reason: Optional[str] = None


class Bench:
    """One workload run: set-up, timed rounds, oracle checks."""

    def __init__(self, name: str, seed: int, tracer, rows: Optional[int] = None):
        import numpy as np

        self.name = name
        self.workload = WORKLOADS[name]
        self.rows = rows or self.workload.fact_rows
        self.seed = seed
        self.tracer = tracer
        self.rng = np.random.default_rng([seed, 1])
        self.ops: List[Op] = []
        self.models: List[object] = []
        self.rmse: List[float] = []  # the program's rmse, per model
        self.serve_walls: List[float] = []
        self.conn = None
        self.graph = None
        self.gateway = None
        self.hot: List[Dict[str, int]] = []
        self.cold = iter(())

    # -- connectors -----------------------------------------------------
    def load(self) -> None:
        """Replace the connector with a fresh one holding the seeded
        Favorita schema."""
        import repro
        import repro.datasets

        self.finish()
        if self.workload.backend == "sqlite":
            os.makedirs(SCRATCH, exist_ok=True)
            name = f"sqlite-{os.getpid()}-{next(SQLITE_FILES)}.db"
            conn = repro.SQLiteConnector(path=os.path.join(SCRATCH, name))
        else:
            conn = repro.connect()
        _, self.graph = repro.datasets.favorita(
            db=conn, num_fact_rows=self.rows, seed=self.seed
        )
        self.conn = conn

    def finish(self) -> None:
        """Drop the connector (and a sqlite store's files)."""
        conn, self.conn, self.gateway = self.conn, None, None
        if conn is None or self.workload.backend != "sqlite":
            return
        conn.close()
        for suffix in ("", "-wal", "-shm"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(conn.path + suffix)

    def read_tables(self, names):
        import oracle

        if self.workload.backend == "sqlite":
            return oracle.read_sqlite_tables(self.conn.path, names)
        return oracle.read_embedded_tables(self.conn, names)

    def choose_keys(self) -> None:
        """Hot keys and a never-repeating cold-key sequence, drawn from
        the (item_id, store_id) pairs present in the stored fact table."""
        import numpy as np

        fact = self.read_tables(["sales"])["sales"]
        pairs = np.unique(np.stack([fact["item_id"], fact["store_id"]], axis=1), axis=0)
        pairs = pairs[self.rng.permutation(len(pairs))]
        keys = [{"item_id": int(i), "store_id": int(s)} for i, s in pairs]
        self.hot, self.cold = keys[:HOT_KEYS], iter(keys[HOT_KEYS:])

    # -- operations -----------------------------------------------------
    def train(self, params: Dict) -> float:
        import repro

        with self.tracer.span("train"):
            start = time.perf_counter()
            model = repro.train_gradient_boosting(self.conn, self.graph, dict(params))
            seconds = time.perf_counter() - start
        self.models.append(model)
        self.rmse.append(float("nan"))
        self.ops.append(Op("train", len(self.models) - 1, seconds, True))
        return seconds

    def record_rmse(self) -> None:
        """The program's rmse of every model trained on this connector
        that has none yet."""
        import repro

        for index, value in enumerate(self.rmse):
            if value != value:  # NaN
                self.rmse[index] = repro.rmse_on_join(
                    self.conn, self.graph, self.models[index])

    def deploy(self) -> None:
        """Put the newest model behind a gateway and warm every path:
        the hot keys (so their statements are parsed), one throwaway
        cold key, and one bulk call of each kind."""
        import repro

        service = repro.PredictionService(self.conn, self.graph)
        self.gateway = repro.ServingGateway(service, deadline_seconds=60.0)
        self.gateway.deploy(self.models[-1])
        for keys in self.hot:
            self.lookup("hot", keys, timed=False)
        self.lookup("cold", next(self.cold), timed=False)
        self.bulk("sql", timed=False)
        self.bulk("compiled", timed=False)

    def lookup(self, kind: str, keys: Dict[str, int], timed: bool = True) -> None:
        start = time.perf_counter()
        response = self.gateway.score_key(keys)
        seconds = time.perf_counter() - start
        self.ops.append(Op(
            kind, len(self.models) - 1, seconds, timed, keys,
            response.scores.copy(), response.served_by, response.degraded_reason,
        ))

    def bulk(self, kind: str, timed: bool = True) -> None:
        call = self.gateway.score_sql if kind == "sql" else self.gateway.score_compiled
        start = time.perf_counter()
        response = call()
        seconds = time.perf_counter() - start
        self.ops.append(Op(
            kind, len(self.models) - 1, seconds, timed, None,
            digest(response.scores), response.served_by, response.degraded_reason,
        ))

    def serve_round(self, pairs: Optional[int] = None) -> float:
        """The closed-loop client: cold and hot lookups alternate, with
        the bulk calls spread evenly among them (so that they, too,
        sample the whole round).  ``pairs`` shortens the round, keeping
        the workload's share of bulk calls (at least one).  Returns the
        timed wall."""
        bulks = self.workload.bulk_calls
        if pairs is None:
            pairs = self.workload.key_pairs
        else:
            bulks = max(1, bulks * pairs // self.workload.key_pairs)
        with self.tracer.span("serve"):
            start = time.perf_counter()
            for pair in range(pairs):
                self.lookup("cold", next(self.cold))
                self.lookup("hot", self.hot[int(self.rng.integers(HOT_KEYS))])
                if (pair + 1) * bulks // pairs > pair * bulks // pairs:
                    self.bulk("sql")
                    self.bulk("compiled")
            wall = time.perf_counter() - start
        self.serve_walls.append(wall)
        return wall

    # -- rounds ---------------------------------------------------------
    def round(self, first: bool) -> float:
        """One round of the workload; returns its timed wall.  A training
        round starts from freshly loaded data (untimed) so that no round
        inherits another's caches."""
        if not self.workload.trains_per_round:
            return self.serve_round()
        if not first:
            self.load()
        seconds = self.train(TRAIN_PARAMS)
        self.deploy()
        seconds += self.serve_round()
        self.record_rmse()
        return seconds

    def warm_up(self) -> None:
        """A small end-to-end pass on a throwaway connector, so lazy
        imports and first-call paths are paid before timing starts."""
        warm = Bench(self.name, self.seed, self.tracer, rows=2_000)
        warm.load()
        warm.choose_keys()
        warm.train({"num_iterations": 2, "num_leaves": 4, "num_workers": 1})
        warm.deploy()
        warm.finish()

    def set_up(self) -> float:
        """Everything before the first timed operation; returns
        ``setup_s``."""
        self.load()
        self.choose_keys()
        if self.workload.trains_per_round:
            self.warm_up()
        else:
            self.train(SERVE_PARAMS)
            self.deploy()
        return time.perf_counter() - T_START

    def run(self, seconds: float, min_rounds: int = MIN_ROUNDS) -> Dict[str, object]:
        setup_s = self.set_up()
        elapsed, walls = 0.0, []
        peak_rss_mb = None
        while len(walls) < min_rounds or elapsed < seconds:
            walls.append(self.round(first=not walls))
            elapsed += walls[-1]
            if peak_rss_mb is None:
                # after one round: a fixed amount of work, however many
                # rounds the host's speed allows
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not self.workload.trains_per_round:
            self.record_rmse()
        return {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "walls": walls}

    # -- traced passes --------------------------------------------------
    def counters(self) -> Dict[str, float]:
        from repro.engine import operators

        encodings = {}
        if self.workload.backend == "embedded" and self.conn is not None:
            encodings = self.conn.encodings.stats()
        kernel = self.gateway.service.cache.stats() if self.gateway else {}
        return {
            "encode_passes": operators.encode_census()["passes"],
            "encoding_hits": encodings.get("hits", 0),
            "encoding_stores": encodings.get("stores", 0),
            "kernel_hits": kernel.get("hits", 0),
            "kernel_misses": kernel.get("misses", 0),
        }

    def traced_round(self) -> Dict[str, float]:
        """One round with spans recorded; returns its timed wall and the
        program's own counters over that round."""
        before = self.counters()
        if self.workload.trains_per_round:
            # the round opens a new connector and gateway, counting from 0
            before.update(encoding_hits=0, encoding_stores=0, kernel_hits=0, kernel_misses=0)
        self.tracer.enabled = True
        try:
            wall = self.round(first=False)
        finally:
            self.tracer.enabled = False
        after = self.counters()
        delta = {k: after[k] - before[k] for k in after}
        lookups = delta["kernel_hits"] + delta["kernel_misses"]
        return {
            "wall": wall,
            "engine.encode_passes": delta["encode_passes"],
            "engine.encoding_cache_hits": delta["encoding_hits"],
            "engine.encoding_cache_stores": delta["encoding_stores"],
            "engine.profiles_held": len(self.conn.profiles),
            "serve.kernel_cache_hit_ratio": delta["kernel_hits"] / lookups if lookups else 0.0,
        }

    def memory_round(self) -> Dict[str, float]:
        """One more serving round, of at most :data:`MEMORY_ROUND_PAIRS`
        lookup pairs, under ``tracemalloc``: MiB allocated during it and
        still held at its end, by allocating module."""
        import layers

        tracemalloc.start()
        try:
            self.serve_round(min(self.workload.key_pairs, MEMORY_ROUND_PAIRS))
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        return layers.held_by_module(snapshot)

    # -- oracle ---------------------------------------------------------
    def check(self) -> int:
        """Compare every output with the oracle; returns failures."""
        import numpy as np
        import oracle

        schema = oracle.schema_from_graph(self.graph)
        tables = self.read_tables([schema.fact] + [e[1] for e in schema.edges])
        frame = oracle.join_frame(tables, schema)
        y = frame[schema.target]
        reference = None
        if self.workload.trains_per_round:
            ref_model, X, _ = oracle.fit_reference(frame, schema, TRAIN_PARAMS)
            reference = ref_model.predict(X)
        model_ok, expected = [], []
        for index, model in enumerate(self.models):
            scores = model.predict_arrays(frame)
            expected.append((scores, digest(scores)))
            gap = 0.0
            if reference is not None:
                gap = float(np.max(np.abs(scores - reference)))
                target_rmse = oracle.rmse(y, reference)
            else:
                target_rmse = oracle.rmse(y, scores)
            rel = abs(self.rmse[index] - target_rmse) / target_rmse
            model_ok.append(gap <= PREDICTION_TOLERANCE and rel <= RMSE_RELATIVE_TOLERANCE)
            if not model_ok[-1]:
                print(f"model {index}: prediction gap {gap:.3g}, rmse "
                      f"{self.rmse[index]!r} vs oracle {target_rmse!r}", file=sys.stderr)
        failures = 0
        for op in self.ops:
            if op.kind == "train":
                ok = model_ok[op.model]
            else:
                scores, want_digest = expected[op.model]
                primary = "key" if op.kind in ("cold", "hot") else op.kind
                ok = op.served_by == primary and op.degraded_reason is None
                if op.kind in ("cold", "hot"):
                    want = scores[oracle.key_mask(tables, schema.fact, op.keys)]
                    ok = ok and np.array_equal(op.scores, want)
                else:
                    ok = ok and op.scores == want_digest
                if not ok:
                    print(f"{op.kind} {op.keys}: served by {op.served_by} "
                          f"({op.degraded_reason}), output differs from the "
                          f"recursive reference", file=sys.stderr)
            failures += not ok
        return failures

    def end_to_end(self, run: Dict[str, object]) -> Dict[str, float]:
        import metrics

        def timed(kind):
            return [op.seconds for op in self.ops if op.kind == kind and op.timed]

        pct = metrics.tail_percentile(MIN_ROUNDS * self.workload.key_pairs)
        serve_ops = [op for op in self.ops if op.timed and op.kind != "train"]
        return {
            "setup_s": run["setup_s"],
            "train_s": statistics.median(timed("train")),
            "train_rmse": statistics.median(self.rmse),
            "peak_rss_mb": run["peak_rss_mb"],
            "key_cold_p50_ms": 1e3 * statistics.median(timed("cold")),
            "key_cold_tail_ms": 1e3 * metrics.tail(timed("cold"), pct),
            "key_hot_p50_ms": 1e3 * statistics.median(timed("hot")),
            "key_hot_tail_ms": 1e3 * metrics.tail(timed("hot"), pct),
            "bulk_sql_s": statistics.fmean(timed("sql")),
            "bulk_compiled_s": statistics.fmean(timed("compiled")),
            "serve_ops_per_s": len(serve_ops) / sum(self.serve_walls),
        }


def write_trace(bench: Bench, spans: List[list], partition: Dict, metrics: Dict,
                recorded_env: Dict) -> str:
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, f"trace-{bench.name}-seed{bench.seed}.json")
    with open(path, "w") as handle:
        json.dump({
            "workload": bench.name,
            "seed": bench.seed,
            "env_cleared": recorded_env,
            "partition": partition,
            "metrics": metrics,
            "span_fields": ["name", "start", "end", "parent", "attrs"],
            "spans": spans,
        }, handle)
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    recorded_env = {name: os.environ.pop(name, None) for name in CLEARED_ENV}
    # The gateway's compiled path takes its worker count from this
    # default (``auto`` would follow the host's CPU count); pin it.
    os.environ["JOINBOOST_NUM_WORKERS"] = "1"
    print(f"env cleared: {json.dumps(recorded_env)}", file=sys.stderr)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import layers
    import spans as sp

    tracer = sp.Tracer()
    bench = Bench(args.workload, args.seed, tracer)
    try:
        # A traced run prints no end-to-end metric, so it needs no second
        # round for the tail rule: one untraced round is the baseline of
        # trace.overhead_ratio, and the run stays within its time limit.
        run = bench.run(args.seconds, min_rounds=1 if args.trace else MIN_ROUNDS)
        if args.trace:
            layers.install(tracer)
            counters = bench.traced_round()
            memory = bench.memory_round()
        failures = bench.check()
        if args.trace:
            untraced = statistics.median(run["walls"])
            counters["trace.overhead_ratio"] = counters.pop("wall") / untraced - 1
            values = layers.summarize(tracer.spans, counters, memory)
            units = dict(layers.metric_units())
            partition = {root: sp.partition(tracer.spans, root) for root in ("train", "serve")}
            path = write_trace(bench, tracer.spans, partition, values, recorded_env)
            print(f"spans and per-layer summary: {path}", file=sys.stderr)
        else:
            values = bench.end_to_end(run)
            units = dict(END_TO_END)
    finally:
        bench.finish()
    result = {
        "correct": failures == 0,
        "attempted": len(bench.ops),
        "failed": failures,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
