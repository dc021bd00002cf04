"""Spans recorded from outside the program, around its public calls.

:meth:`Recorder.install` rebinds the public entry points of the layers
(gateway, serving, store, sampling, views, scoring, forward, trainer)
in every loaded ``repro`` module to timing wrappers.  Nothing inside
``src/`` changes; the wrapped functions run unmodified.  Spans live in
memory (name, start, end, parent, request id, rows) and are written out
once, by the caller, when the traced process ends.

Parents come from a context variable, so nesting is right both on the
scoring thread (a call stack) and on the event loop (one context per
request task).  A layer's self time is its span minus the union of its
children's intervals (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)

#: A span: (id, parent id, name, start s, end s, request id, rows, key).
Span = Tuple[int, Optional[int], str, float, float, object, int, object]


def _len_arg(index: int) -> Callable:
    return lambda args, kwargs: (len(args[index]), None)


def _extract(extract, args, kwargs):
    """Rows/key of a call; a call shape the extractor does not know
    records no rows instead of failing the traced program."""
    if extract is None:
        return None
    try:
        return extract(args, kwargs)
    except (IndexError, TypeError, AttributeError, ValueError):
        return None


def _batch_rows(args, kwargs):
    return getattr(args[2], "batch_size", 0), None


def _nodes_key(args, kwargs):
    nodes = tuple(int(n) for n in args[1])
    return len(nodes), nodes


def _edge_key(args, kwargs):
    u, v = int(args[1]), int(args[2])
    return 2, (min(u, v), max(u, v))


def _node_key(args, kwargs):
    return 1, (int(args[1]),)


def _request_key(args, kwargs):
    request = args[1]
    return 0, request.get("op") if isinstance(request, dict) else None


#: (module, function, span name, row/key extractor).
FUNCTIONS = (
    ("repro.graph.sampling", "sample_enclosing_subgraphs", "sampling",
     _len_arg(1)),
    ("repro.core.views", "build_batched_views", "views.build", _len_arg(0)),
    ("repro.serving.service", "sample_target_views", "views.build",
     _len_arg(1)),
    ("repro.core.views", "batch_graph_views", "views.rebatch", _len_arg(0)),
    ("repro.core.views", "batch_hypergraph_views", "views.rebatch",
     _len_arg(0)),
    ("repro.core.scoring", "score_target_span", "scoring.loop", _len_arg(1)),
    ("repro.core.trainer", "train_chunk", "trainer.chunk", _len_arg(2)),
)

#: (module, class, method, span name, extractor).
METHODS = (
    ("repro.tensor.backend", "TensorBackend", "forward_batch", "forward",
     _batch_rows),
    ("repro.core.trainer", "BourneTrainer", "fit", "trainer.fit", None),
    ("repro.optim.adam", "Adam", "step", "trainer.step", None),
    ("repro.serving.store", "GraphStore", "add_edge", "store.write", None),
    ("repro.serving.store", "GraphStore", "add_nodes", "store.write", None),
    ("repro.serving.store", "GraphStore", "update_features", "store.write",
     None),
    ("repro.serving.store", "GraphStore", "compact", "store.compact", None),
    ("repro.serving.service", "ScoringService", "score_nodes",
     "serving.score_nodes", _nodes_key),
    ("repro.serving.service", "ScoringService", "score_edge",
     "serving.score_edge", _edge_key),
    ("repro.serving.service", "ScoringService", "swap_model", "serving.swap",
     None),
    ("repro.serving.registry", "ModelRegistry", "load", "serving.load", None),
    ("repro.gateway.server", "Gateway", "dispatch", "gateway.dispatch",
     _request_key),
    ("repro.gateway.batcher", "MicroBatcher", "score_node", "gateway.batcher",
     _node_key),
    ("repro.gateway.batcher", "MicroBatcher", "score_edge", "gateway.batcher",
     _edge_key),
)


class Recorder:
    """Collects spans from the wrappers :meth:`install` puts in place."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------
    def _record(self, sid, parent, name, start, end, request, info):
        rows, key = info if info is not None else (0, None)
        # list.append is atomic under the GIL: the loop thread and the
        # scoring thread record concurrently without a lock.
        self.spans.append((sid, parent, name, start, end, request, rows, key))

    def wrap(self, fn, name: str, extract=None):
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):
            is_dispatch = name == "gateway.dispatch"

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent = _CURRENT.get()
                sid = next(self._ids)
                info = _extract(extract, args, kwargs)
                token = _CURRENT.set(sid)
                req_token = None
                if is_dispatch and isinstance(args[1], dict):
                    req_token = _REQUEST.set(args[1].get("id"))
                request = _REQUEST.get()
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = clock()
                    if req_token is not None:
                        _REQUEST.reset(req_token)
                    _CURRENT.reset(token)
                    self._record(sid, parent, name, start, end, request, info)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _CURRENT.get()
            sid = next(self._ids)
            info = _extract(extract, args, kwargs)
            token = _CURRENT.set(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                _CURRENT.reset(token)
                self._record(sid, parent, name, start, end, _REQUEST.get(),
                             info)

        return wrapper

    def install(self) -> "Recorder":
        """Wrap every entry point in :data:`FUNCTIONS` and
        :data:`METHODS`; module-level functions are rebound in every
        loaded ``repro`` module that imported them by name."""
        for module_name, *_ in FUNCTIONS + METHODS:
            importlib.import_module(module_name)
        importlib.import_module("repro.cli")
        for module_name, attr, name, extract in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(original, name, extract)
            for mod_name, module in list(sys.modules.items()):
                if (mod_name.startswith("repro")
                        and getattr(module, attr, None) is original):
                    self._rebind(module, attr, wrapped)
        for module_name, cls_name, attr, name, extract in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._rebind(cls, attr, self.wrap(cls.__dict__[attr], name,
                                              extract))
        return self

    def _rebind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def load_spans(path: str) -> List[Span]:
    with open(path) as handle:
        return [tuple(row[:7]) + (tuple(row[7]) if row[7] is not None
                                  else None,) for row in json.load(handle)]


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Seconds of each span not covered by its children (children
    clipped to the parent's interval; overlapping children count once)."""
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[3], span[4]))
    result = {}
    for sid, _, _, start, end, *_ in spans:
        clipped = [(max(s, start), min(e, end)) for s, e in children[sid]
                   if e > start and s < end]
        result[sid] = (end - start) - union_length(clipped)
    return result

