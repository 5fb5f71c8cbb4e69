"""In-memory span tracer that attributes time to docrel's layers from outside.

`Tracer.install` replaces each layer function at the attribute where the
package looks it up at call time (a module global or a class attribute), so
every call goes through a wrapper that records a span (name, start, end,
parent) and, for some layers, counts taken from its arguments or result.
`uninstall` puts the originals back. A target that a refactor removed is
listed in `absent` instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager


def _tokens(args, result):
    return {"encoders.tokens": args[0].shape[0]}


def _intra(args, result):
    return {"intra.instances": len(result.provenance)}


def _candidates(args, result):
    pairs = len(args[0])
    return {"reasoning.pool_pairs": pairs,
            "reasoning.unmasked": sum(len(c) + 1 for c in result),
            "reasoning.cells": pairs * pairs}


def _backward(args, result):
    return {"autodiff.tape_records": len(args[0].tape)}


def _step(args, result):
    params = args[0].params
    n = sum(p.data.size for p in params)
    # AdamW reads grad, m, v and the weights and writes m, v and the weights
    return {"optim.params": n, "optim.bytes": 7 * sum(p.data.nbytes for p in params)}


# (layer, targets, observer). A target names the attribute through which the
# package calls the function; observers turn arguments and result into counts.
LAYERS = [
    ("corpus.prepare", ("docrel.prepare_document", "docrel.training.prepare_document"), None),
    ("graph.build", ("docrel.model.build_mention_graph",), None),
    ("model.init", ("docrel.model.RelationModel.__init__",), None),
    ("model.forward", ("docrel.model.RelationModel.forward",), None),
    ("encoders.embed", ("docrel.model.embed_tokens",), None),
    ("encoders.sent", ("docrel.model.encode_sentence",), _tokens),
    ("encoders.doc", ("docrel.model.encode_document",), _tokens),
    ("inter.propagate", ("docrel.model.propagate",), None),
    ("inter.node_final", ("docrel.model.node_final_rep",), None),
    ("intra.pair_rep", ("docrel.model.intra_mod.intra_pair_rep",), _intra),
    ("inter.pair_rep", ("docrel.model.inter_mod.inter_pair_rep",), None),
    ("reasoning.candidates", ("docrel.model.chain_candidates",), _candidates),
    ("reasoning.update", ("docrel.model.reasoning_update",), None),
    ("model.classifier", ("docrel.model.relation_probabilities",), None),
    ("model.loss", ("docrel.model.bce_loss",), None),
    ("autodiff.backward", ("docrel.training.backward",), _backward),
    ("optim.step", ("docrel.optim.AdamW.step",), _step),
]


def _resolve(target: str):
    """(owner, attribute) for a dotted target, or None when it no longer exists."""
    parts = target.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:-1], 1):
        nxt = getattr(obj, part, None)
        if nxt is None:
            try:
                nxt = importlib.import_module(".".join(parts[:i + 1]))
            except ImportError:
                return None
        obj = nxt
    if not hasattr(obj, parts[-1]):
        return None
    return obj, parts[-1]


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or None, counts dict or None]
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def count(self, idx: int, counts: dict) -> None:
        span_counts = self.spans[idx][4] or {}
        for key, n in counts.items():
            span_counts[key] = span_counts.get(key, 0) + n
        self.spans[idx][4] = span_counts

    def _wrap(self, name: str, fn, observe):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                try:
                    tracer.count(idx, observe(args, result))
                except (AttributeError, TypeError, IndexError):
                    pass  # the counted structure changed; the span still stands
            return result

        return wrapper

    def install(self) -> None:
        self.absent = []
        for name, targets, observe in LAYERS:
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.absent.append(target)
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[3] is None and s[0] == name]

    def totals(self, root: int) -> dict:
        """Per-name duration, self time, call count and counts under one root span."""
        dur: dict[str, float] = {}
        self_t: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, float] = {}
        under = {root}
        for i in range(root, len(self.spans)):
            name, start, end, parent, span_counts = self.spans[i]
            if i != root and parent not in under:
                continue
            under.add(i)
            d = end - start
            dur[name] = dur.get(name, 0.0) + d
            self_t[name] = self_t.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            if parent is not None:
                pname = self.spans[parent][0]
                self_t[pname] = self_t.get(pname, 0.0) - d
            for key, n in (span_counts or {}).items():
                counts[key] = counts.get(key, 0) + n
        return {"dur": dur, "self": self_t, "calls": calls, "counts": counts}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures: set-up phases as the median over traced set-ups,
    loop layers per document over all traced units."""
    setups = [tracer.totals(i) for i in tracer.roots("setup")]
    units = [tracer.totals(i) for i in tracer.roots("unit")]

    def setup_median(kind, key):
        return statistics.median(s[kind].get(key, 0.0) for s in setups) if setups else 0.0

    def loop_sum(kind, key):
        return sum(u[kind].get(key, 0.0) for u in units)

    docs = loop_sum("counts", "docs") or 1
    out = {
        "corpus.load_s": setup_median("dur", "corpus.load"),
        "corpus.prepare_s": setup_median("dur", "corpus.prepare"),
        "graph.build_s": setup_median("dur", "graph.build"),
        "model.init_s": setup_median("dur", "model.init"),
        "checkpoint.load_s": setup_median("dur", "checkpoint.load"),
    }
    for key in ("corpus.tokens", "corpus.pairs_intra", "corpus.pairs_inter",
                "graph.nodes", "graph.edges", "checkpoint.bytes"):
        out[key] = setup_median("counts", key)
    per_doc = {
        "encoders.embed_s": ("dur", "encoders.embed"),
        "encoders.sent_s": ("dur", "encoders.sent"),
        "encoders.sent_calls": ("calls", "encoders.sent"),
        "encoders.doc_s": ("dur", "encoders.doc"),
        "encoders.tokens": ("counts", "encoders.tokens"),
        "intra.pair_rep_s": ("dur", "intra.pair_rep"),
        "intra.pair_rep_calls": ("calls", "intra.pair_rep"),
        "intra.instances": ("counts", "intra.instances"),
        "inter.propagate_s": ("dur", "inter.propagate"),
        "inter.node_final_s": ("dur", "inter.node_final"),
        "inter.pair_rep_s": ("dur", "inter.pair_rep"),
        "inter.pair_rep_calls": ("calls", "inter.pair_rep"),
        "reasoning.candidates_s": ("dur", "reasoning.candidates"),
        "reasoning.candidates_calls": ("calls", "reasoning.candidates"),
        "reasoning.update_s": ("dur", "reasoning.update"),
        "reasoning.pool_pairs": ("counts", "reasoning.pool_pairs"),
        "model.forward_s": ("dur", "model.forward"),
        "model.forward_self_s": ("self", "model.forward"),
        "model.classifier_s": ("dur", "model.classifier"),
        "model.loss_s": ("dur", "model.loss"),
        "autodiff.backward_s": ("dur", "autodiff.backward"),
        "autodiff.backward_calls": ("calls", "autodiff.backward"),
        "optim.step_s": ("dur", "optim.step"),
        "optim.step_calls": ("calls", "optim.step"),
        "training.train_self_s": ("self", "training.train"),
        "training.predict_s": ("dur", "training.predict"),
        "training.predict_self_s": ("self", "training.predict"),
        "training.records": ("counts", "training.records"),
        "evaluation.suite_s": ("dur", "evaluation.suite"),
        "evaluation.write_s": ("dur", "evaluation.write"),
        "evaluation.decided": ("counts", "evaluation.decided"),
    }
    for metric, (kind, key) in per_doc.items():
        out[metric] = loop_sum(kind, key) / docs
    cells = loop_sum("counts", "reasoning.cells")
    out["reasoning.candidate_share"] = loop_sum("counts", "reasoning.unmasked") / cells if cells else 0.0
    backwards = loop_sum("calls", "autodiff.backward")
    out["autodiff.tape_records"] = loop_sum("counts", "autodiff.tape_records") / backwards if backwards else 0.0
    steps = loop_sum("calls", "optim.step")
    out["optim.params"] = loop_sum("counts", "optim.params") / steps if steps else 0.0
    out["optim.bytes_per_step"] = loop_sum("counts", "optim.bytes") / steps if steps else 0.0
    records = loop_sum("counts", "training.records")
    out["evaluation.decided_share"] = loop_sum("counts", "evaluation.decided") / records if records else 0.0
    out["trace.spans"] = sum(sum(u["calls"].values()) for u in units) / docs
    out["trace.absent"] = len(tracer.absent)
    return out
