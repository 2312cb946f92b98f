"""Which program functions the traced run wraps, and the per-layer
metrics computed from their spans.

Span names are ``<layer>.<what>``; the layer is the ``repro`` package
the wrapped code lives in (``core.*`` modules go by their module name:
``frontier``, ``trainer``, ``split``, ``residual``, ``sql_score``,
``compile``, ``predict``).  Every ``_s`` metric is *self* time (the span
minus its traced children) summed over the traced pass, except
``backends.<tag>_s``, which is the whole time of the statements carrying
that tag.  The roots ``train`` and ``serve`` are opened by the
benchmark around its timed operations; their own self time is
``train.other_s`` / ``serve.other_s``.
"""

from __future__ import annotations

import sys
import tracemalloc
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import spans as sp

#: statement tags reported one by one; every other tag is ``other``
TAGS = (
    "lift", "message", "feature", "frontier_delta", "residual_update",
    "serve_key", "serve_sql",
)

#: modules whose held memory is reported (``mem.<module>_mb``)
MEM_MODULES = ("sql", "engine", "storage", "backends", "factorize", "core", "serve")

#: span name -> self-time metric
SELF_METRICS = {
    "datasets.generate": "datasets.generate_s",
    "sql.parse": "sql.parse_s",
    "engine.query": "engine.query_s",
    "engine.update": "engine.update_s",
    "storage.filter": "storage.filter_s",
    "backends.sqlite.translate": "backends.sqlite.translate_s",
    "backends.sqlite.convert": "backends.sqlite.convert_s",
    "factorize.lift": "factorize.lift_s",
    "factorize.absorption": "factorize.absorption_s",
    "frontier.best_splits": "frontier.best_splits_s",
    "frontier.apply_split": "frontier.apply_split_s",
    "trainer.tree": "trainer.tree_s",
    "split.scan": "split.scan_s",
    "residual.update": "residual.update_s",
    "sql_score.render": "sql_score.render_s",
    "compile.compile": "compile.compile_s",
    "compile.kernel": "compile.kernel_s",
    "predict.feature_frame": "predict.feature_frame_s",
    "serve.gateway": "serve.admit_s",
}

#: span name -> call-count metric
COUNT_METRICS = {
    "sql.parse": "sql.parse_calls",
    "engine.statement": "engine.statements",
    "split.scan": "split.scan_calls",
    "residual.update": "residual.updates",
}


def metric_units() -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = list(SELF_METRICS.values()) + list(COUNT_METRICS.values())
    names += [
        "sql.parse_cache_hit_ratio",
        "engine.encode_passes",
        "engine.encoding_cache_hits",
        "engine.encoding_cache_stores",
        "engine.profiles_held",
        "backends.sqlite.engine_s",
        "factorize.message_cache_hit_ratio",
        "split.thresholds_scanned",
        "sql_score.statement_bytes",
        "serve.kernel_cache_hit_ratio",
        "train.other_s",
        "serve.other_s",
        "trace.overhead_ratio",
    ]
    for tag in TAGS + ("other",):
        names += [f"backends.{tag}_s", f"backends.{tag}_statements"]
    names += [f"mem.{m}_mb" for m in MEM_MODULES + ("other",)]
    return [(n, unit_of(n)) for n in names]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _arg(position: int, keyword: str):
    """An attrs reader returning one call argument by position or name."""
    def read(args, kwargs):
        if keyword in kwargs:
            return kwargs[keyword]
        return args[position] if len(args) > position else None
    return read


def install(tracer: sp.Tracer) -> None:
    """Wrap the program's layer boundaries; call once per process."""
    import repro.backends.base as base
    import repro.backends.dialect as dialect
    import repro.backends.embedded as embedded
    import repro.backends.sqlite3_backend as sqlite_backend
    import repro.core.compile as compile_
    import repro.core.frontier as frontier
    import repro.core.predict as predict
    import repro.core.residual as residual
    import repro.core.split as split
    import repro.core.sql_score as sql_score
    import repro.core.trainer as trainer
    import repro.engine.database as database
    import repro.engine.planner as planner
    import repro.factorize.cache as fcache
    import repro.factorize.executor as executor
    import repro.serve.gateway as gateway
    import repro.serve.service as service
    import repro.sql.parser as parser
    import repro.storage.column as column

    datasets = sys.modules["repro.datasets.favorita"]
    tag_of = _arg(2, "tag")
    values_of = _arg(3, "values")
    nulls_of = _arg(4, "nulls")

    def statement(backend, tag=None):
        return lambda a, k: {"tag": tag or tag_of(a, k), "backend": backend}

    def thresholds(a, k):
        return {"thresholds": int(len(values_of(a, k)) - nulls_of(a, k).sum())}

    sqlite = sqlite_backend.SQLiteConnector
    patches = [
        (datasets, "favorita", "datasets.generate"),
        (parser, "parse", "sql.parse"),
        (database.Database, "execute", "engine.execute"),
        (database.Database, "_run_statement", "engine.statement"),
        (database.Database, "_run_update", "engine.update"),
        (planner, "run_query", "engine.query"),
        (column.Column, "filter", "storage.filter"),
        (embedded.EmbeddedConnector, "execute", "backends.execute",
         statement("embedded")),
        (database.Database, "execute_read", "backends.execute", statement("embedded")),
        (embedded.EmbeddedConnector, "replace_column", "backends.replace_column",
         statement("embedded", "residual_update")),
        (sqlite, "execute", "backends.execute", statement("sqlite")),
        (sqlite, "execute_read", "backends.execute", statement("sqlite")),
        (sqlite, "replace_column", "backends.replace_column",
         statement("sqlite", "residual_update")),
        (dialect.SQLiteDialect, "translate", "backends.sqlite.translate"),
        (base, "column_from_values", "backends.sqlite.convert"),
        (executor.Factorizer, "lift", "factorize.lift"),
        (executor.Factorizer, "multi_absorption", "factorize.absorption"),
        (fcache.MessageCache, "lookup", "factorize.cache_lookup", None,
         lambda r: {"hit": r is not None}),
        (frontier.FrontierEvaluator, "best_splits", "frontier.best_splits"),
        (frontier.FrontierState, "apply_split", "frontier.apply_split"),
        (trainer.DecisionTreeTrainer, "train", "trainer.tree"),
        (split, "best_split_from_aggregates", "split.scan", thresholds),
        (residual.ResidualUpdater, "apply_additive", "residual.update"),
        (residual.ResidualUpdater, "apply_general", "residual.update"),
        (sql_score, "sql_scores", "sql_score.bulk"),
        (sql_score, "score_by_key", "sql_score.key"),
        (sql_score, "scoring_select_sql", "sql_score.render", None,
         lambda r: {"bytes": len(r)}),
        (compile_, "compile_model", "compile.compile"),
        (compile_.CompiledGradientBoosting, "predict_arrays", "compile.kernel"),
        (predict, "feature_frame", "predict.feature_frame"),
        (gateway.ServingGateway, "score_key", "serve.gateway"),
        (gateway.ServingGateway, "score_sql", "serve.gateway"),
        (gateway.ServingGateway, "score_compiled", "serve.gateway"),
        (service.PredictionService, "score_key", "serve.service"),
        (service.PredictionService, "score_sql", "serve.service"),
        (service.PredictionService, "score_all", "serve.service"),
    ]
    for owner, attr, name, *attrs in patches:
        tracer.patch(owner, attr, name, *attrs)


def _outermost_statements(spans: List[list]) -> List[list]:
    """Statement spans not nested in another statement span (sqlite's
    ``execute_read`` hands writes to ``execute``; count them once)."""
    names = ("backends.execute", "backends.replace_column")
    out = []
    for s in spans:
        parent = s[sp.PARENT]
        nested = False
        while parent >= 0:
            if spans[parent][sp.NAME] in names:
                nested = True
                break
            parent = spans[parent][sp.PARENT]
        if s[sp.NAME] in names and not nested:
            out.append(s)
    return out


def summarize(
    spans: List[list],
    counters: Dict[str, float],
    memory: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``counters`` carries what the program counts itself (encode passes,
    encoding- and kernel-cache deltas, profiles held, overhead);
    ``memory`` maps module -> MiB held at the end of the memory pass.
    """
    metrics: Dict[str, float] = {name: 0.0 for name, _ in metric_units()}
    selfs = sp.self_times(spans)
    for s, own in zip(spans, selfs):
        name = s[sp.NAME]
        if name in SELF_METRICS:
            metrics[SELF_METRICS[name]] += own
        if name in COUNT_METRICS:
            metrics[COUNT_METRICS[name]] += 1
        if name == "backends.execute" and s[sp.ATTRS]["backend"] == "sqlite":
            metrics["backends.sqlite.engine_s"] += own
        if name == "split.scan":
            metrics["split.thresholds_scanned"] += s[sp.ATTRS]["thresholds"]
        if name == "sql_score.render" and "bytes" in s[sp.ATTRS]:
            metrics["sql_score.statement_bytes"] += s[sp.ATTRS]["bytes"]
        if name in ("train", "serve") and s[sp.PARENT] < 0:
            metrics[f"{name}.other_s"] += own
    for s in _outermost_statements(spans):
        tag = s[sp.ATTRS]["tag"]
        tag = tag if tag in TAGS else "other"
        metrics[f"backends.{tag}_s"] += s[sp.END] - s[sp.START]
        metrics[f"backends.{tag}_statements"] += 1

    children = defaultdict(list)
    for s in spans:
        if s[sp.PARENT] >= 0:
            children[s[sp.PARENT]].append(s[sp.NAME])
    executes = [i for i, s in enumerate(spans) if s[sp.NAME] == "engine.execute"]
    hits = sum(1 for i in executes if "sql.parse" not in children[i])
    metrics["sql.parse_cache_hit_ratio"] = hits / len(executes) if executes else 0.0
    lookups = [
        s[sp.ATTRS]["hit"] for s in spans
        if s[sp.NAME] == "factorize.cache_lookup" and "hit" in s[sp.ATTRS]
    ]
    metrics["factorize.message_cache_hit_ratio"] = (
        sum(lookups) / len(lookups) if lookups else 0.0
    )
    metrics.update(counters)
    for module, mib in (memory or {}).items():
        metrics[f"mem.{module}_mb"] = mib
    return metrics


def held_by_module(snapshot: tracemalloc.Snapshot) -> Dict[str, float]:
    """MiB still held per allocating ``repro`` package (``other`` for
    allocations made outside the package)."""
    out = {m: 0.0 for m in MEM_MODULES + ("other",)}
    marker = "/repro/"
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename
        module = "other"
        if marker in filename:
            module = filename.rsplit(marker, 1)[1].split("/", 1)[0]
            module = module if module in out else "other"
        out[module] += stat.size / 2**20
    return out
