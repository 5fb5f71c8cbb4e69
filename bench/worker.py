"""One phase of one workload, in a process of its own; `run.py` starts it.

    worker.py inputs  --workload W --seed N --dir D
        writes the corpora (and, for eval*, a checkpoint) into D and prints
        their manifest;
    worker.py measure --workload W --seed N --seconds S --trace 0|1 --dir D
        sets up several times, then repeats the workload's unit of work until
        S seconds have passed, checks every unit's outputs and prints the
        figures.

Each phase prints one JSON object as its last stdout line. Measuring runs in a
process that generated nothing, so its peak RSS is the workload's own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import docrel  # noqa: E402
from docrel.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from docrel.evaluation import train_fact_names, write_predictions  # noqa: E402

import docgen  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

if Path(docrel.__file__).resolve().parent != ROOT / "src" / "docrel":
    sys.exit(f"benchmark: imported docrel from {docrel.__file__}, not from this checkout")

# corpus shape and sizes per workload. `train` trains on TRAIN_UNIT_DOCS
# documents per train_model call; eval* score the whole dev corpus per unit.
WORKLOADS = {
    "train": {"shape": "docred", "dev_docs": 0},
    "eval": {"shape": "docred", "dev_docs": 4},
    "eval-long": {"shape": "long", "dev_docs": 2},
}
SHAPES = {"docred": docgen.DOCRED, "long": docgen.LONG}
TRAIN_DOCS = 8          # 100 facts: every one of the 96 relation labels occurs
TRAIN_UNIT_DOCS = 2     # one epoch, batch 1: two optimizer steps per unit
SETUPS = 5


def _census(path, kind: str, need_all_labels: bool) -> dict:
    realised = docgen.census(docrel.load_docred(path))
    return {"kind": kind, "realised": realised,
            "problems": docgen.census_problems(realised, kind, need_all_labels)}


def make_inputs(workload: str, seed: int, out: Path) -> dict:
    spec = WORKLOADS[workload]
    train_path = out / "train.json"
    docgen.write(train_path, docgen.generate(seed, "train", TRAIN_DOCS, docgen.DOCRED))
    manifest = {"train": str(train_path), "census": [_census(train_path, "docred", True)]}
    if not spec["dev_docs"]:
        return manifest

    dev_records = docgen.generate(seed, spec["shape"], spec["dev_docs"], SHAPES[spec["shape"]])
    dev_path = out / "dev.json"
    docgen.write(dev_path, dev_records)
    manifest["dev"] = str(dev_path)
    manifest["census"].append(_census(dev_path, spec["shape"], False))
    manifest["gold"] = docgen.gold_counts(dev_records)

    # an untrained, seeded model; its threshold decides about as many
    # (pair, relation) records as the dev set has gold facts
    vocab = docrel.build_vocabulary(docrel.load_docred(train_path))
    config = docrel.TrainingConfig(seed=seed)
    model = docrel.RelationModel(config, vocab)
    scores = []
    for doc in docrel.load_docred(dev_path, vocab=vocab):
        try:
            feats = docrel.prepare_document(doc, vocab, config.allow_overlap)
            scores += [r.score for r in docrel.predict_documents(model, [feats]).records]
        except Exception:
            continue  # the measuring phase runs this document again and counts its failure
    gold = manifest["gold"]["overall"]
    threshold = float(np.sort(scores)[-gold]) if len(scores) >= gold else 0.5
    ckpt = out / "model.ckpt"
    save_checkpoint(ckpt, model.state_arrays(), config.to_text(),
                    meta={"vocab": vocab.to_json(), "threshold": threshold})
    manifest["checkpoint"] = str(ckpt)
    return manifest


class Run:
    """Counters and problems of one measuring run."""

    def __init__(self, seconds: float, trace: bool):
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s = {False: [], True: []}   # keyed by traced
        self.docs_per_s = {False: [], True: []}
        self.fingerprint: list = []

    def traced(self, i: int) -> bool:
        """In a traced run odd set-ups and units are traced; even ones are the
        untraced reference for the tracing overhead."""
        return self.tracer is not None and i % 2 == 1

    def span(self, traced: bool, name: str):
        return self.tracer.span(name) if traced else nullcontext()

    def count(self, traced: bool, idx, counts: dict) -> None:
        if traced:
            self.tracer.count(idx, counts)

    def setups(self, setup) -> object:
        state = None
        for i in range(SETUPS):
            traced = self.traced(i)
            state = None  # drop the previous model before building the next
            if traced:
                self.tracer.install()
            try:
                t0 = time.perf_counter()
                with self.span(traced, "setup") as root:
                    state = setup(self, traced, root)
                self.setup_s[traced].append(time.perf_counter() - t0)
            finally:
                if traced:
                    self.tracer.uninstall()
        return state

    def units(self, unit) -> None:
        """Unit 0 warms up (first-touch page faults, BLAS threads) and is
        checked but not timed; units 1, 2, ... run until `seconds` have passed."""
        unit(self, 0, False)
        start = time.perf_counter()
        i = 1
        while time.perf_counter() - start < self.seconds or i <= (2 if self.tracer else 1):
            traced = self.traced(i)
            if traced:
                self.tracer.install()
            try:
                unit(self, i, traced)
            finally:
                if traced:
                    self.tracer.uninstall()
            i += 1

    def timed_unit(self, i: int, traced: bool, n_docs: int, work, check) -> None:
        """Run `work` as one unit over `n_docs` documents; a raise fails them all."""
        self.attempted += n_docs
        try:
            t0 = time.perf_counter()
            with self.span(traced, "unit") as root:
                out = work()
            elapsed = time.perf_counter() - t0
        except Exception as e:
            self.failed += n_docs
            self.problems.append(f"unit {i}: {n_docs} documents failed: {e!r}")
            traceback.print_exc()
            return
        self.count(traced, root, {"docs": n_docs})
        if i > 0:
            self.docs_per_s[traced].append(n_docs / elapsed)
        self.problems += [f"unit {i}: {p}" for p in check(out)]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def setup_train(manifest: dict, seed: int):
    def setup(run: Run, traced: bool, root):
        with run.span(traced, "corpus.load"):
            docs = docrel.load_docred(manifest["train"])
        vocab = docrel.build_vocabulary(docs)
        config = docrel.TrainingConfig(seed=seed, epochs=1, batch_size=1)
        features = [docrel.prepare_document(d, vocab, config.allow_overlap) for d in docs]
        docrel.RelationModel(config, vocab)
        run.count(traced, root, _corpus_counts(features))
        return docs, vocab, config
    return setup


def unit_train(state):
    docs, vocab, config = state
    n_units = len(docs) // TRAIN_UNIT_DOCS

    def unit(run: Run, i: int, traced: bool):
        batch = docs[(i % n_units) * TRAIN_UNIT_DOCS:][:TRAIN_UNIT_DOCS]

        def work():
            with run.span(traced, "training.train"):
                return docrel.train_model(batch, config, vocab=vocab, log=lambda msg: None)

        def check(result) -> list[str]:
            losses = [row.loss for row in result.history]
            run.fingerprint.append([repr(v) for v in losses])
            problems = [f"epoch {k + 1} loss {v!r} is not finite"
                        for k, v in enumerate(losses) if not np.isfinite(v)]
            if len(losses) != config.epochs:
                problems.append(f"{len(losses)} epochs recorded, {config.epochs} run")
            problems += [f"parameter {name} is not finite after training"
                         for name, arr in result.best_state.items() if not np.isfinite(arr).all()]
            return problems

        run.timed_unit(i, traced, len(batch) * config.epochs, work, check)
    return unit


# ---------------------------------------------------------------------------
# eval and eval-long: the steps of `docrel eval` plus the prediction file
# ---------------------------------------------------------------------------

def setup_eval(manifest: dict):
    def setup(run: Run, traced: bool, root):
        with run.span(traced, "checkpoint.load"):
            ckpt = load_checkpoint(manifest["checkpoint"])
            config = docrel.TrainingConfig.from_mapping(
                dict(line.split(" = ", 1) for line in ckpt.config_text.strip().splitlines()))
            vocab = docrel.Vocabulary.from_json(ckpt.meta["vocab"])
        model = docrel.RelationModel(config, vocab)
        with run.span(traced, "checkpoint.load"):
            model.load_state(ckpt.arrays)
        threshold = float(ckpt.meta["threshold"])
        del ckpt
        with run.span(traced, "corpus.load"):
            docs = docrel.load_docred(manifest["dev"], vocab=vocab)
            train_names = train_fact_names(docrel.load_docred(manifest["train"], vocab=vocab))
        features = [docrel.prepare_document(d, vocab, config.allow_overlap) for d in docs]
        run.count(traced, root, {**_corpus_counts(features),
                                 "checkpoint.bytes": os.path.getsize(manifest["checkpoint"])})
        return model, vocab, threshold, docs, features, train_names
    return setup


def unit_eval(state, manifest: dict, pred_path: Path):
    model, vocab, threshold, docs, features, train_names = state

    def unit(run: Run, i: int, traced: bool):
        def work():
            with run.span(traced, "training.predict") as predict:
                preds = docrel.predict_documents(model, features, threshold=threshold)
            with run.span(traced, "evaluation.suite"):
                report = docrel.compute_f1_suite(preds, docs, train_names=train_names)
            with run.span(traced, "evaluation.write"):
                write_predictions(pred_path, preds, vocab)
            return preds, predict, report

        def check(out) -> list[str]:
            preds, predict, report = out
            if traced:
                run.count(traced, predict, {"training.records": len(preds.records),
                                            "evaluation.decided": len(preds.decided())})
            return check_eval(pred_path, report, docs, vocab, threshold, manifest["gold"])

        run.timed_unit(i, traced, len(features), work, check)
    return unit


def check_eval(pred_path: Path, report, docs, vocab, threshold: float, gold: dict) -> list[str]:
    try:
        rows = json.loads(pred_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        return [f"prediction file unreadable: {e}"]
    problems = []
    n_entities = {d.title: len(d.entities) for d in docs}
    for row in rows:
        n = n_entities.get(row.get("title"))
        h, t, score = row.get("h_idx"), row.get("t_idx"), row.get("score")
        if n is None or not (isinstance(h, int) and isinstance(t, int)
                             and 0 <= h < n and 0 <= t < n and h != t):
            problems.append(f"row names no ordered entity pair: {row}")
        elif row.get("r") not in vocab.rel2id:
            problems.append(f"row has an unknown relation: {row}")
        elif not (isinstance(score, float) and threshold <= score <= 1.0):
            problems.append(f"row score outside [{threshold}, 1]: {row}")
    if len(rows) != report.overall.tp + report.overall.fp:
        problems.append(f"{len(rows)} rows, overall TP+FP is "
                        f"{report.overall.tp + report.overall.fp}")
    for name in ("overall", "intra", "inter"):
        s = getattr(report, name)
        if s.tp + s.fn != gold[name]:
            problems.append(f"{name} TP+FN is {s.tp + s.fn}, generated gold is {gold[name]}")
    if gold["intra"] + gold["inter"] != gold["overall"]:
        problems.append(f"intra + inter gold {gold['intra']} + {gold['inter']} "
                        f"!= overall {gold['overall']}")
    return problems[:20]


def _corpus_counts(features) -> dict:
    n = len(features)
    intra = sum(p.kind is docrel.PairKind.INTRA for f in features for p in f.pairs)
    return {
        "corpus.tokens": sum(f.doc.n_tokens for f in features) / n,
        "corpus.pairs_intra": intra / n,
        "corpus.pairs_inter": (sum(len(f.pairs) for f in features) - intra) / n,
        "graph.nodes": sum(f.graph.n_nodes for f in features) / n,
        "graph.edges": sum(len(e) for f in features for e in f.graph.edges.values()) / n,
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    run = Run(seconds, trace)
    if workload == "train":
        state = run.setups(setup_train(manifest, seed))
        run.units(unit_train(state))
    else:
        state = run.setups(setup_eval(manifest))
        run.units(unit_eval(state, manifest, out / "predictions.json"))
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "setup_s": run.setup_s[False],
        "docs_per_s": run.docs_per_s[False],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": run.fingerprint,
        "env": environment(),
    }
    if run.tracer is not None:
        layers = layer_metrics(run.tracer)
        med = statistics.median
        traced, plain = run.docs_per_s[True], run.docs_per_s[False]
        # traced minus untraced, over the alternating units and set-ups of this run
        layers["trace.overhead_docs_per_s"] = med(traced) - med(plain) if traced and plain else 0.0
        layers["trace.overhead_share"] = 1.0 - med(traced) / med(plain) if traced and plain else 0.0
        layers["trace.overhead_setup_s"] = med(run.setup_s[True]) - med(run.setup_s[False])
        result["layers"] = layers
        result["absent"] = run.tracer.absent
        run.tracer.write(ROOT / ".bench_work" / f"trace-{workload}.jsonl")
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("inputs", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args()
    if args.phase == "inputs":
        result = make_inputs(args.workload, args.seed, args.dir)
        (args.dir / "manifest.json").write_text(json.dumps(result), encoding="utf-8")
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
