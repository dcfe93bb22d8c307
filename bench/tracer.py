"""Call tracing for the benchmark's traced run.

``Tracer.install`` wraps every public function and method of each loaded
``mwgraph`` module at every place it is bound: the defining module, every
module that imported it by name (``from .linalg import as_symmetric``), the
package's re-exports and module-level dispatch tables such as the CLI's
handler map.  It also wraps the ``numpy.linalg`` routines, tracing only the
calls made from ``mwgraph`` code (the "kernel" layer).

Spans are kept in memory as parallel arrays (name id, start, end, parent
span, operation id) and are reduced to per-layer metrics, or written out,
only after the traced round ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from collections import Counter
from functools import cached_property

import numpy as np

KERNEL_FUNCS = ("eigh", "eigvalsh", "eig", "eigvals", "svd", "norm", "inv", "pinv",
                "solve", "lstsq", "det", "slogdet", "matrix_rank", "qr", "cholesky")
EIG_FUNCS = ("eigh", "eigvalsh", "eig", "eigvals")

# cached properties of acceptance.Suite that build the input corpus
CORPUS_SPANS = tuple(f"acceptance.Suite.{name}" for name in (
    "random_graphs", "lift_graphs", "built_expanders", "members", "scalar_regular_members"))
CRITERIA = (("A1", "a1_frame_identity"), ("A2", "a2_normalized_bound"),
            ("A3", "a3_trace_bounds"), ("A4", "a4_sheaf_factorization"),
            ("A5", "a5_regular_eml"), ("A6", "a6_irregular_eml"),
            ("A7", "a7_cheeger_lower_bounds"), ("A8", "a8_counterexample"),
            ("A9", "a9_expander_search"), ("A10", "a10_alon_boppana"),
            ("A11", "a11_truss"))


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counters: Counter = Counter()
        self.assembled: dict[int, object] = {}  # id -> graph, kept alive so ids stay unique
        self._stack = [-1]
        self._undo: list = []
        self._hooks = {
            "jsonio.dumps": self._count_json_bytes,
            "expansion.cheeger_constants": self._count_subsets,
            "expansion.verify_counterexample": self._count_subsets,
            "operators.assemble": self._note_assembled,
            "graphgen.enumerate_regular_graphs": self._count_classes,
        }

    # --- hooks run after a traced call returns ------------------------------

    def _count_json_bytes(self, args, kwargs, result):
        self.counters["jsonio.bytes"] += len(result.encode("utf-8"))

    def _count_subsets(self, args, kwargs, result):
        n = _first_arg(args, kwargs, "G").base.n
        self.counters["expansion.subsets_scanned"] += (1 << (n - 1)) - 1

    def _note_assembled(self, args, kwargs, result):
        graph = _first_arg(args, kwargs, "G")
        self.assembled[id(graph)] = graph

    def _count_classes(self, args, kwargs, result):
        self.counters["graphgen.classes"] += len(result)

    def _count_eig(self, args, kwargs, result):
        shape = np.shape(_first_arg(args, kwargs, "a"))
        stacked = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
        self.counters["kernel.eig_matrices"] += stacked
        self.counters["kernel.eig_flops_est"] += stacked * shape[-1] ** 3

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, fn, span_name: str, after=None):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._name_ids[span_name]
        after = after or self._hooks.get(span_name)
        names, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _wrap_kernel(self, fn, fname: str):
        traced = self._wrap(fn, f"kernel.{fname}",
                            self._count_eig if fname in EIG_FUNCS else None)

        @functools.wraps(fn)
        def dispatch(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("mwgraph."):
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)

        return dispatch

    def _set(self, target, key, value, item=False):
        if item:
            self._undo.append((target, key, target[key], True))
            target[key] = value
        else:
            self._undo.append((target, key, getattr(target, key), False))
            setattr(target, key, value)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            span = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._wrap(obj.__func__, span)))
            elif isinstance(obj, types.FunctionType):
                self._set(cls, attr, self._wrap(obj, span))
            elif isinstance(obj, cached_property):
                self._set(obj, "func", self._wrap(obj.func, span))

    def install(self, package) -> None:
        prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if name.startswith(prefix) and m is not None]
        wrapped: dict = {}
        for mod in modules:
            layer = mod.__name__[len(prefix):]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif isinstance(obj, type):
                    self._wrap_class(obj, layer)
        # rebind every binding of a wrapped function, not just the defining one
        for mod in modules + [package]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if isinstance(value, types.FunctionType) and value in wrapped:
                            self._set(obj, key, wrapped[value], item=True)
        for fname in KERNEL_FUNCS:
            fn = getattr(np.linalg, fname, None)
            if fn is not None:
                self._set(np.linalg, fname, self._wrap_kernel(fn, fname))

    def uninstall(self) -> None:
        while self._undo:
            target, key, old, item = self._undo.pop()
            if item:
                target[key] = old
            else:
                setattr(target, key, old)

    # --- reduction ----------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.intc)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        return name, start, end, parent

    def _corpus_and_criteria(self, name, dur, parent):
        """(corpus seconds, {criterion: seconds excluding nested corpus builds})."""
        ids = self._name_ids
        corpus_ids = {ids[s] for s in CORPUS_SPANS if s in ids}
        criterion_ids = {ids[f"acceptance.Suite.{m}"]: cid for cid, m in CRITERIA
                         if f"acceptance.Suite.{m}" in ids}
        times = {cid: 0.0 for cid, _ in CRITERIA}
        for idx in np.flatnonzero(np.isin(name, list(criterion_ids))):
            times[criterion_ids[int(name[idx])]] += float(dur[idx])
        corpus = 0.0
        for idx in np.flatnonzero(np.isin(name, list(corpus_ids))):
            ancestor, outermost = int(parent[idx]), True
            while ancestor >= 0:
                if int(name[ancestor]) in corpus_ids:
                    outermost = False
                    break
                if int(name[ancestor]) in criterion_ids:
                    times[criterion_ids[int(name[ancestor])]] -= float(dur[idx])
                    break
                ancestor = int(parent[ancestor])
            if outermost:
                corpus += float(dur[idx])
        return corpus, times

    def layer_metrics(self, items: int, ops: int) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        name, start, end, parent = self._arrays()
        dur = end - start
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        self_time = dur - child
        size = len(self.names)
        calls_by = np.bincount(name, minlength=size)
        self_by = np.bincount(name, weights=self_time, minlength=size)

        def calls(span):
            return int(calls_by[self._name_ids[span]]) if span in self._name_ids else 0

        def self_s(*spans):
            return float(sum(self_by[self._name_ids[s]] for s in spans if s in self._name_ids))

        def layer_self(layer):
            return self_s(*(s for s in self.names if s.split(".", 1)[0] == layer))

        c = self.counters
        scans = calls("expansion.cheeger_constants") + calls("expansion.verify_counterexample")
        eig_calls = sum(calls(f"kernel.{f}") for f in EIG_FUNCS)
        corpus_s, criteria_s = self._corpus_and_criteria(name, dur, parent)
        metrics = {
            "linalg.as_symmetric.calls": calls("linalg.as_symmetric"),
            "linalg.is_psd.calls": calls("linalg.is_psd"),
            "linalg.rank_psd.calls": calls("linalg.rank_psd"),
            "linalg.spectral_norm.calls": calls("linalg.spectral_norm"),
            "linalg.kernel_dim.calls": calls("linalg.kernel_dim"),
            "linalg.self_s": layer_self("linalg"),
            "linalg.validations_per_item": calls("linalg.as_symmetric") / items,
            "graphs.from_weights.calls": calls("graphs.MatrixWeightedGraph.from_weights"),
            "graphs.regularity.calls": calls("graphs.regularity"),
            "graphs.self_s": layer_self("graphs"),
            "frames.eta.calls": calls("frames.eta"),
            "frames.eta.self_s": self_s("frames.eta"),
            "frames.build_expander.calls": calls("frames.build_expander"),
            "frames.self_s": layer_self("frames"),
            "graphgen.canonical_code.calls": calls("graphgen.canonical_code"),
            "graphgen.canonical_code.self_s": self_s("graphgen.canonical_code"),
            "graphgen.enumerate.self_s": self_s("graphgen.enumerate_regular_graphs"),
            "graphgen.proper_colorings.self_s": self_s("graphgen.proper_colorings"),
            "graphgen.classes_per_code_call":
                c["graphgen.classes"] / max(calls("graphgen.canonical_code"), 1),
            "expansion.scans": scans,
            "expansion.scans_per_op": scans / ops,
            "expansion.subsets_scanned": c["expansion.subsets_scanned"],
            "expansion.self_s": layer_self("expansion"),
            "expansion.eml_exhaustive.self_s": self_s("expansion.eml_regular_exhaustive",
                                                      "expansion.eml_irregular_exhaustive"),
            "operators.assemble.calls": calls("operators.assemble"),
            "operators.assemble.self_s": self_s("operators.assemble"),
            "operators.assemble_per_graph":
                calls("operators.assemble") / max(len(self.assembled), 1),
            "sheaf.build_coboundary.calls": calls("sheaf.build_coboundary"),
            "sheaf.self_s": layer_self("sheaf"),
            "acceptance.corpus_s": corpus_s,
        }
        metrics.update({f"acceptance.{cid}_s": t for cid, t in criteria_s.items()})
        metrics.update({
            "jsonio.dumps.calls": calls("jsonio.dumps"),
            "jsonio.self_s": layer_self("jsonio"),
            "jsonio.bytes": c["jsonio.bytes"],
            "cli.self_s": layer_self("cli"),
            "kernel.eig_calls": eig_calls,
            "kernel.eig_matrices": c["kernel.eig_matrices"],
            "kernel.eig_flops_est": c["kernel.eig_flops_est"],
            "kernel.self_s": layer_self("kernel"),
            "trace.spans": len(dur),
        })
        return metrics

    def calls_within(self, span: str, ancestor: str) -> int:
        """Calls of ``span`` made, at any depth, inside a call of ``ancestor``."""
        if span not in self._name_ids or ancestor not in self._name_ids:
            return 0
        name, _, _, parent = self._arrays()
        inside = name == self._name_ids[ancestor]
        has_parent = parent >= 0
        while True:
            grown = inside.copy()
            grown[has_parent] |= inside[parent[has_parent]]
            if (grown == inside).all():
                break
            inside = grown
        return int(np.count_nonzero(inside & (name == self._name_ids[span])))

    def save(self, path) -> None:
        name, start, end, parent = self._arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end,
                 parent=parent, op=np.frombuffer(self.op, dtype=np.intc))
