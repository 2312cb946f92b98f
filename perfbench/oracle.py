"""Reference outputs computed apart from the program's SQL path.

The spec is the equivalence the factorized-learning literature relies on
(Cromp et al., *Relational Boosted Regression Trees*; Bentayeb & Darmont):
a model trained over the normalized schema equals the model trained on the
materialized join.  This module therefore

* reads the stored base tables directly (the embedded engine's column
  arrays, or the sqlite file through its own ``sqlite3`` connection),
* rebuilds the join in numpy with its own breadth-first walk and
  dictionary key lookups — no SQL, no ``feature_frame``, no planner,
* fits ``ExactGradientBoosting`` (pre-sorted exact splits on one table)
  with the same hyperparameters,
* and gives serving reference scores from the recursive
  ``model.predict_arrays`` over rows selected by a key mask computed here.
"""

from __future__ import annotations

import dataclasses
import sqlite3
from typing import Dict, List, Sequence, Tuple

import numpy as np

Tables = Dict[str, Dict[str, np.ndarray]]


@dataclasses.dataclass
class Schema:
    """A snowflake schema: ``edges`` are (parent, child, parent_keys,
    child_keys) with every child key unique (N-to-1 from the fact side)."""

    fact: str
    target: str
    edges: List[Tuple[str, str, List[str], List[str]]]
    features: List[Tuple[str, str]]


def schema_from_graph(graph) -> Schema:
    """The schema a join graph declares, with edges oriented away from
    the fact table by a breadth-first walk of its own."""
    fact = graph.target_relation
    seen = {fact}
    frontier = [fact]
    edges = []
    while frontier:
        parent = frontier.pop(0)
        for edge in graph.edges:
            if parent not in (edge.left, edge.right):
                continue
            child = edge.right if edge.left == parent else edge.left
            if child in seen:
                continue
            seen.add(child)
            frontier.append(child)
            edges.append(
                (parent, child, list(edge.keys_for(parent)), list(edge.keys_for(child)))
            )
    return Schema(
        fact=fact,
        target=graph.relations[fact].target,
        edges=edges,
        features=list(graph.all_features()),
    )


def _array(values: list) -> np.ndarray:
    """sqlite row values as a numpy column (NULL -> NaN for numbers)."""
    if all(isinstance(v, int) for v in values):
        return np.asarray(values, dtype=np.int64)
    if all(v is None or isinstance(v, (int, float)) for v in values):
        return np.asarray([np.nan if v is None else v for v in values], dtype=np.float64)
    return np.asarray(values, dtype=object)


def read_sqlite_tables(path: str, names: Sequence[str]) -> Tables:
    """Every column of ``names`` from a sqlite database file, in rowid
    order, through a connection of our own."""
    out: Tables = {}
    conn = sqlite3.connect(path)
    try:
        for name in names:
            cursor = conn.execute(f"SELECT * FROM {name} ORDER BY rowid")
            columns = [d[0] for d in cursor.description]
            rows = cursor.fetchall()
            out[name] = {
                c: _array([row[i] for row in rows]) for i, c in enumerate(columns)
            }
    finally:
        conn.close()
    return out


def read_embedded_tables(conn, names: Sequence[str]) -> Tables:
    """Every column of ``names`` from the embedded engine's storage (NULL
    slots of numeric columns become NaN)."""
    out: Tables = {}
    for name in names:
        table = conn.table(name)
        cols = {}
        for c in table.column_names():
            column = table.column(c)
            values = np.asarray(column.values)
            if column.valid is not None and values.dtype.kind in "if":
                values = np.where(column.valid, values.astype(np.float64), np.nan)
            cols[c] = values
        out[name] = cols
    return out


def join_rows(tables: Tables, schema: Schema) -> Dict[str, np.ndarray]:
    """For each relation, the row matching each fact row (-1 where a join
    key has no match, or its parent row is already missing)."""
    n = len(next(iter(tables[schema.fact].values())))
    rows = {schema.fact: np.arange(n)}
    for parent, child, parent_keys, child_keys in schema.edges:
        child_cols = [tables[child][k] for k in child_keys]
        index: Dict[tuple, int] = {}
        for i, key in enumerate(zip(*(c.tolist() for c in child_cols))):
            if key in index:
                raise ValueError(f"{child}: key {key} is not unique")
            index[key] = i
        parent_rows = rows[parent]
        parent_cols = [tables[parent][k].tolist() for k in parent_keys]
        out = np.full(n, -1, dtype=np.int64)
        for f, p in enumerate(parent_rows.tolist()):
            if p >= 0:
                out[f] = index.get(tuple(col[p] for col in parent_cols), -1)
        rows[child] = out
    return rows


def join_frame(tables: Tables, schema: Schema) -> Dict[str, np.ndarray]:
    """The materialized join, narrowed to the features and the target:
    fact-aligned float arrays (NaN where a row dangles)."""
    rows = join_rows(tables, schema)
    frame = {}
    for relation, column in schema.features + [(schema.fact, schema.target)]:
        idx = rows[relation]
        values = np.asarray(tables[relation][column], dtype=np.float64)
        gathered = values[np.where(idx >= 0, idx, 0)] if len(values) else np.zeros(len(idx))
        gathered[idx < 0] = np.nan
        frame[column] = gathered
    return frame


def fit_reference(frame: Dict[str, np.ndarray], schema: Schema, params: Dict):
    """``ExactGradientBoosting`` on the joined table with the model's
    hyperparameters; returns (reference model, feature matrix, target)."""
    from repro.baselines.exactgbm import ExactGradientBoosting

    X = np.column_stack([frame[c] for _, c in schema.features])
    y = frame[schema.target]
    model = ExactGradientBoosting(
        num_iterations=params["num_iterations"],
        num_leaves=params["num_leaves"],
        learning_rate=params.get("learning_rate", 0.1),
        min_child_samples=params.get("min_data_in_leaf", 1),
    ).fit(X, y)
    return model, X, y


def rmse(y: np.ndarray, predictions: np.ndarray) -> float:
    keep = ~np.isnan(y)
    return float(np.sqrt(np.mean((y[keep] - predictions[keep]) ** 2)))


def key_mask(tables: Tables, fact: str, keys: Dict[str, object]) -> np.ndarray:
    """Fact rows whose columns equal ``keys`` — the rows a key lookup
    must score, in fact order."""
    fact_cols = tables[fact]
    n = len(next(iter(fact_cols.values())))
    mask = np.ones(n, dtype=bool)
    for column, value in keys.items():
        mask &= fact_cols[column] == value
    return mask
