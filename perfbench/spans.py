"""Spans recorded from outside the program, and their per-layer summary.

:class:`Tracer` wraps public functions and methods of the ``repro``
modules in place (module attributes, every other module's imported
reference to the same function, and class attributes).  Nothing under
``src/`` changes; a process that never calls :meth:`Tracer.patch` runs
the program untouched.  Spans are kept in memory as
``[name, start, end, parent, attrs]`` and written out when the run ends.

The benchmark drives one client thread with ``num_workers=1``, so spans
nest strictly and a span's self time is its duration minus the summed
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """In-memory span recorder; off until :attr:`enabled` is set."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.spans: List[list] = []
        self._stack: List[int] = []

    def _open(self, name: str, attrs: Optional[dict]) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, attrs])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][END] = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block (the benchmark's own roots)."""
        if not self.enabled:
            yield
            return
        sid = self._open(name, None)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(
        self,
        fn: Callable,
        name: str,
        attrs: Optional[Callable] = None,
        result_attrs: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span named ``name`` per call while enabled.

        ``attrs(args, kwargs)`` and, when the call returns,
        ``result_attrs(result)`` give dicts stored on the span (a
        statement's tag, thresholds scanned, bytes rendered).  A call
        that raises gets ``{"error": <exception type>}``.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer._open(name, attrs(args, kwargs) if attrs else None)
            span = tracer.spans[sid]
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ATTRS] = {**(span[ATTRS] or {}), "error": type(exc).__name__}
                raise
            finally:
                tracer._close(sid)
            if result_attrs is not None:
                span[ATTRS] = {**(span[ATTRS] or {}), **result_attrs(result)}
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def patch(
        self,
        owner,
        attr: str,
        name: str,
        attrs: Optional[Callable] = None,
        result_attrs: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` (a module function or a class method)
        with a traced wrapper.  For a module function, every loaded
        ``repro`` module that imported the same object by name is
        repointed too, so ``from x import f`` call sites are traced."""
        original = inspect.getattr_static(owner, attr)
        if getattr(original, "__wrapped_by_tracer__", False):
            raise ValueError(f"{owner!r}.{attr} is already traced")
        wrapped = self.wrap(original, name, attrs, result_attrs)
        setattr(owner, attr, wrapped)
        if inspect.ismodule(owner):
            for module_name, module in list(sys.modules.items()):
                if not module_name.startswith("repro") or module is owner:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def root_of(spans: List[list]) -> List[int]:
    """The index of each span's outermost ancestor (itself for a root)."""
    roots = []
    for i, s in enumerate(spans):
        parent = s[PARENT]
        roots.append(i if parent < 0 else roots[parent])
    return roots


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return name.split(".", 1)[0]


def partition(spans: List[list], root_name: str) -> Dict[str, float]:
    """Self time of every span under the roots named ``root_name``,
    summed per layer, plus ``other`` (the roots' own self time) and
    ``wall`` (the roots' summed duration).  The layers and ``other`` add
    up to ``wall``."""
    selfs = self_times(spans)
    roots = root_of(spans)
    out: Dict[str, float] = defaultdict(float)
    wall = 0.0
    for i, s in enumerate(spans):
        top = spans[roots[i]]
        if top[NAME] != root_name:
            continue
        if roots[i] == i:
            out["other"] += selfs[i]
            wall += s[END] - s[START]
        else:
            out[layer_of(s[NAME])] += selfs[i]
    out["wall"] = wall
    return dict(out)

