"""Tests of the benchmark's own code (not part of the program's suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans as sp  # noqa: E402


# ---------------------------------------------------------------------------
# The tail rule
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n, pct", [(1, 50), (39, 50), (40, 75), (41, 75),
                                    (50, 80), (64, 84), (100, 90), (1000, 99)])
def test_tail_percentile(n, pct):
    assert metrics.tail_percentile(n) == pct


@pytest.mark.parametrize("n", range(40, 400))
def test_tail_leaves_ten_samples_beyond_and_is_the_highest_such(n):
    samples = list(range(n))
    pct = metrics.tail_percentile(n)
    assert n - 1 - metrics.percentile(samples, pct) >= 10
    assert n - 1 - metrics.percentile(samples, pct + 1) < 10


def test_tail_below_forty_samples_is_the_median():
    samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    assert metrics.tail(samples, metrics.tail_percentile(len(samples))) == \
        statistics.median(samples)


def test_spread_is_interquartile_share_of_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert metrics.spread(values) == (q3 - q1) / 5.5


# ---------------------------------------------------------------------------
# The numpy join
# ---------------------------------------------------------------------------
def three_tables():
    """fact -> d1 -> d2, with a fact key missing from d1 and a d1 key
    missing from d2."""
    return {
        "fact": {"k1": np.array([0, 1, 2, 1, 7]),
                 "y": np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                 "local": np.array([0.5, 0.25, 0.125, 1.0, 2.0])},
        "d1": {"k1": np.array([2, 1, 0]), "k2": np.array([10, 11, 99]),
               "a": np.array([20.0, 21.0, 22.0])},
        "d2": {"k2": np.array([11, 10]), "b": np.array([-1.0, -2.0])},
    }


SCHEMA = oracle.Schema(
    fact="fact",
    target="y",
    edges=[("fact", "d1", ["k1"], ["k1"]), ("d1", "d2", ["k2"], ["k2"])],
    features=[("fact", "local"), ("d1", "a"), ("d2", "b")],
)


def test_join_rows_follow_keys_and_mark_dangling_rows():
    rows = oracle.join_rows(three_tables(), SCHEMA)
    assert rows["d1"].tolist() == [2, 1, 0, 1, -1]
    assert rows["d2"].tolist() == [-1, 0, 1, 0, -1]


def test_join_frame_matches_a_row_by_row_join():
    tables = three_tables()
    frame = oracle.join_frame(tables, SCHEMA)
    expected = {"local": [], "a": [], "b": [], "y": []}
    for f in range(5):
        k1 = tables["fact"]["k1"][f]
        d1 = [i for i in range(3) if tables["d1"]["k1"][i] == k1]
        d2 = [j for j in range(2) for i in d1 if tables["d2"]["k2"][j] == tables["d1"]["k2"][i]]
        expected["local"].append(tables["fact"]["local"][f])
        expected["y"].append(tables["fact"]["y"][f])
        expected["a"].append(tables["d1"]["a"][d1[0]] if d1 else np.nan)
        expected["b"].append(tables["d2"]["b"][d2[0]] if d2 else np.nan)
    for column, values in expected.items():
        np.testing.assert_array_equal(frame[column], np.array(values))


def test_join_rejects_a_non_unique_dimension_key():
    tables = three_tables()
    tables["d2"]["k2"] = np.array([10, 10])
    with pytest.raises(ValueError):
        oracle.join_rows(tables, SCHEMA)


def test_schema_from_graph_orients_edges_away_from_the_fact():
    import repro

    conn = repro.connect()
    for name, data in three_tables().items():
        conn.create_table(name, data)
    train_set = repro.join_graph(conn)
    train_set.add_node("fact", X=["local"], y="y")
    train_set.add_node("d2", X=["b"])
    train_set.add_node("d1", X=["a"])
    train_set.add_edge("d2", "d1", ["k2"])
    train_set.add_edge("d1", "fact", ["k1"])
    schema = oracle.schema_from_graph(train_set.graph)
    assert schema.fact == "fact" and schema.target == "y"
    assert schema.edges == SCHEMA.edges


def test_read_sqlite_tables_keeps_types_and_nulls(tmp_path):
    import sqlite3

    path = str(tmp_path / "t.db")
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (k INTEGER, x REAL)")
    conn.executemany("INSERT INTO t VALUES (?, ?)", [(3, 1.5), (1, None)])
    conn.commit()
    conn.close()
    table = oracle.read_sqlite_tables(path, ["t"])["t"]
    assert table["k"].dtype == np.int64 and table["k"].tolist() == [3, 1]
    assert table["x"][0] == 1.5 and math.isnan(table["x"][1])


# ---------------------------------------------------------------------------
# Spans and the per-layer accounting
# ---------------------------------------------------------------------------
def test_self_times_and_partition_add_up_to_the_wall():
    ticks = iter(range(100))
    tracer = sp.Tracer(clock=lambda: float(next(ticks)))
    tracer.enabled = True
    inner = tracer.wrap(lambda: None, "sql.parse")
    middle = tracer.wrap(lambda: (inner(), inner()), "engine.execute")
    with tracer.span("train"):
        middle()
        inner()
    with tracer.span("serve"):
        inner()
    selfs = sp.self_times(tracer.spans)
    # train [0, 9]: execute [1, 6] holds parses [2, 3] and [4, 5];
    # one more parse [7, 8] sits directly under train
    assert [s[sp.NAME] for s in tracer.spans][:5] == [
        "train", "engine.execute", "sql.parse", "sql.parse", "sql.parse"]
    assert selfs[:5] == [9 - 5 - 1, 5 - 2, 1, 1, 1]
    part = sp.partition(tracer.spans, "train")
    assert part == {"other": 3, "engine": 3, "sql": 3, "wall": 9}
    assert sum(v for k, v in part.items() if k != "wall") == part["wall"]


def test_patch_repoints_imported_references(monkeypatch):
    import types

    owner = types.ModuleType("repro_fake_owner")
    user = types.ModuleType("repro_fake_user")

    def f(x):
        return x + 1

    owner.f = user.f = f
    monkeypatch.setitem(sys.modules, "repro_fake_owner", owner)
    monkeypatch.setitem(sys.modules, "repro_fake_user", user)
    tracer = sp.Tracer()
    tracer.patch(owner, "f", "fake.f", lambda a, k: {"x": a[0]}, lambda r: {"r": r})
    assert user.f is owner.f is not f
    assert user.f(1) == 2 and tracer.spans == []  # off: a plain call
    tracer.enabled = True
    assert user.f(2) == 3
    assert tracer.spans[0][sp.NAME] == "fake.f"
    assert tracer.spans[0][sp.ATTRS] == {"x": 2, "r": 3}


def test_traced_training_layers_account_for_the_wall():
    """Install the real wrappers around a small training and serving
    pass: layer self times plus the roots' remainder equal the wall, and
    the summary's ``train.other_s`` is that remainder."""
    import repro
    import repro.datasets

    tracer = sp.Tracer()
    layers.install(tracer)
    try:
        tracer.enabled = True
        conn = repro.connect()
        _, graph = repro.datasets.favorita(db=conn, num_fact_rows=2_000, seed=3)
        with tracer.span("train"):
            model = repro.train_gradient_boosting(
                conn, graph, {"num_iterations": 2, "num_leaves": 4, "num_workers": 1})
        gateway = repro.ServingGateway(repro.PredictionService(conn, graph))
        gateway.deploy(model)
        with tracer.span("serve"):
            gateway.score_key({"item_id": 1, "store_id": 2})
            gateway.score_sql()
    finally:
        tracer.enabled = False
    values = layers.summarize(tracer.spans, {})
    for root in ("train", "serve"):
        part = sp.partition(tracer.spans, root)
        layer_sum = sum(v for k, v in part.items() if k != "wall")
        assert layer_sum == pytest.approx(part["wall"], rel=1e-9)
        assert values[f"{root}.other_s"] == pytest.approx(part["other"])
        assert part["other"] < part["wall"]
    assert values["sql.parse_calls"] > 0 and values["engine.statements"] > 0
    assert values["split.scan_calls"] > 0 and values["backends.serve_key_statements"] == 1
    assert values["backends.serve_sql_statements"] == 1


def test_sqlite_benches_in_one_process_get_their_own_files():
    """The warm-up's throwaway bench loads while the run's own still
    holds its store; neither may reuse the other's file."""
    main = run.Bench("train-favorita-sqlite", 1, sp.Tracer(), rows=200)
    warm = run.Bench("train-favorita-sqlite", 1, sp.Tracer(), rows=200)
    try:
        main.load()
        warm.load()
        assert main.conn.path != warm.conn.path
    finally:
        warm.finish()
        main.finish()


@pytest.mark.parametrize("short", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_serving_round_spreads_its_bulk_calls_among_the_lookups(name, short, monkeypatch):
    """A round makes exactly ``bulk_calls`` bulk pairs, evenly spaced
    among the lookup pairs, the last after the last lookup pair; the
    shortened tracemalloc round keeps that share, with at least one."""
    bench = run.Bench(name, 1, sp.Tracer())
    calls = []
    monkeypatch.setattr(bench, "lookup", lambda kind, keys: calls.append(kind))
    monkeypatch.setattr(bench, "bulk", lambda kind: calls.append(kind))
    bench.hot, bench.cold = [{}] * run.HOT_KEYS, iter(lambda: {}, None)
    workload = bench.workload
    pairs, bulks = workload.key_pairs, workload.bulk_calls
    if short:
        pairs = min(pairs, run.MEMORY_ROUND_PAIRS)
        bulks = max(1, bulks * pairs // workload.key_pairs)
        bench.serve_round(pairs)
    else:
        bench.serve_round()
    assert calls.count("cold") == calls.count("hot") == pairs
    assert calls.count("sql") == calls.count("compiled") == bulks
    assert calls[-2:] == ["sql", "compiled"]
    pairs_before = [calls[:i].count("cold") for i, kind in enumerate(calls) if kind == "sql"]
    gaps = np.diff([0] + pairs_before)
    assert gaps.max() - gaps.min() <= 1


# ---------------------------------------------------------------------------
# The benchmark's declaration matches what the command prints
# ---------------------------------------------------------------------------
def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
