"""Command-line entry point: train / eval / predict / explain / graph-stats."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainingConfig
from .corpus import (Document, PairKind, Vocabulary, build_vocabulary,
                     enumerate_entity_pairs, load_docred)
from .errors import (CheckpointError, ConfigError, ContractError, DocrelError, NotFoundError,
                     ParseError, TrainingDiverged, ValidationError)
from .evaluation import (compute_f1_suite, enumerate_two_hop, read_predictions,
                         train_fact_names, write_predictions)
from .explain import explain_pair, render_explanation
from .graph import build_mention_graph
from .model import RelationModel, prepare_document
from .training import _titles, predict_documents, train_model

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_CONFIG = 4
EXIT_CHECKPOINT_MISMATCH = 5
EXIT_BAD_DATA = 6
EXIT_DIVERGED = 7
EXIT_NOT_FOUND = 8

_ERROR_CODES = [
    (TrainingDiverged, EXIT_DIVERGED, "training-diverged"),
    (CheckpointError, EXIT_CHECKPOINT_MISMATCH, "checkpoint-mismatch"),
    (ConfigError, EXIT_BAD_CONFIG, "bad-config"),
    (NotFoundError, EXIT_NOT_FOUND, "not-found"),
    (ParseError, EXIT_BAD_DATA, "bad-data"),
    (ValidationError, EXIT_BAD_DATA, "bad-data"),
    (ContractError, EXIT_BAD_DATA, "bad-data"),
]


def _fail(code: int, name: str, message: str) -> int:
    print(f"error: code={name} detail={message}", file=sys.stderr)
    return code


def _load_config(args) -> TrainingConfig:
    if getattr(args, "config", None):
        config = TrainingConfig.from_file(args.config)
    else:
        config = TrainingConfig()
    for key in ("seed", "epochs", "topk"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    if getattr(args, "allow_overlap", None):
        config.allow_overlap = args.allow_overlap
    if getattr(args, "no_reasoning", False):
        config.no_reasoning = True
    if getattr(args, "no_context", False):
        config.no_context = True
    if getattr(args, "inter4intra", False):
        config.inter4intra = True
    config.validate()
    return config


def _load_model(checkpoint_path, config_path=None) -> tuple[RelationModel, Vocabulary, float]:
    """The model, vocabulary and decision threshold stored in a checkpoint."""
    ckpt = load_checkpoint(checkpoint_path)
    if config_path:
        wanted = TrainingConfig.from_file(config_path).to_text()
        if wanted != ckpt.config_text:
            raise CheckpointError(
                f"{checkpoint_path}: checkpoint was trained with a different config")
    try:
        mapping = dict(line.split(" = ", 1) for line in ckpt.config_text.strip().splitlines())
    except ValueError as e:  # a line without " = "
        raise CheckpointError(f"{checkpoint_path}: malformed config text in the checkpoint "
                              f"({e})") from e
    config = TrainingConfig.from_mapping(mapping)
    try:
        vocab = Vocabulary.from_json(ckpt.meta["vocab"])
        threshold = float(ckpt.meta.get("threshold", 0.5))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise CheckpointError(f"{checkpoint_path}: no usable vocabulary or threshold "
                              f"in the checkpoint metadata ({e!r})") from e
    model = RelationModel(config, vocab)
    model.load_state(ckpt.arrays)
    return model, vocab, threshold


def _save_model(path, model: RelationModel, threshold: float) -> None:
    save_checkpoint(path, model.state_arrays(), model.config.to_text(),
                    meta={"vocab": model.vocab.to_json(), "threshold": threshold})


def _predict(command: str, model: RelationModel, features, threshold: float):
    """predict_documents, after one stderr line naming the documents that have no
    entity pair and so give no prediction rows."""
    pairless = [f.doc.title for f in features if not f.heads.size]
    if pairless:
        print(f"{command}: {len(pairless)} of {len(features)} documents have no entity pair "
              f"and give no predictions{_titles(pairless)}", file=sys.stderr)
    return predict_documents(model, features, threshold=threshold)


def _cmd_train(args) -> int:
    config = _load_config(args)
    train_docs = load_docred(args.data)
    vocab = build_vocabulary(train_docs, min_freq=config.min_freq)
    dev_docs = load_docred(args.dev, vocab=vocab) if args.dev else None
    result = train_model(train_docs, config, dev_docs=dev_docs, vocab=vocab)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.model.load_state(result.best_state)
    _save_model(out / "model.ckpt", result.model, result.threshold)
    (out / "config.txt").write_text(config.to_text(), encoding="utf-8")
    with (out / "history.jsonl").open("w", encoding="utf-8") as fh:
        for row in result.history:
            fh.write(json.dumps({
                "epoch": row.epoch, "loss": row.loss, "pairs": row.n_pairs,
                "dev_f1": row.dev_f1, "threshold": row.threshold,
            }, sort_keys=True) + "\n")
    print(f"checkpoint written to {out / 'model.ckpt'}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.pred:
        # score an existing prediction file, no checkpoint needed
        vocab_source = args.train or args.data
        vocab = build_vocabulary(load_docred(vocab_source))
        docs = load_docred(args.data, vocab=vocab)
        preds = read_predictions(args.pred, vocab)
    else:
        if not args.checkpoint:
            raise ConfigError("eval needs either --checkpoint or --pred")
        model, vocab, threshold = _load_model(args.checkpoint, args.config)
        docs = load_docred(args.data, vocab=vocab)
        overlap = args.allow_overlap or model.config.allow_overlap
        features = [prepare_document(d, vocab, overlap) for d in docs]
        preds = _predict("eval", model, features, threshold)
    train_names = train_fact_names(load_docred(args.train, vocab=vocab)) if args.train else set()
    report = compute_f1_suite(preds, docs, train_names=train_names)
    text = report.render()
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(text, encoding="utf-8")
        (out / "report.json").write_text(
            json.dumps(report.as_dict(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return EXIT_OK


def _cmd_predict(args) -> int:
    model, vocab, threshold = _load_model(args.checkpoint, args.config)
    docs = load_docred(args.data, vocab=vocab)
    overlap = args.allow_overlap or model.config.allow_overlap
    features = [prepare_document(d, vocab, overlap) for d in docs]
    preds = _predict("predict", model, features, threshold)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_predictions(out / "predictions.json", preds, vocab)
    print(f"predictions written to {out / 'predictions.json'}")
    return EXIT_OK


def _cmd_explain(args) -> int:
    model, vocab, threshold = _load_model(args.checkpoint, args.config)
    docs = load_docred(args.data, vocab=vocab)
    matches = [d for d in docs if d.title == args.doc]
    if not matches:
        raise NotFoundError(f"no document titled {args.doc!r} in {args.data}")
    try:
        head_s, tail_s = args.pair.split(",")
        head, tail = int(head_s), int(tail_s)
    except ValueError as e:
        raise ConfigError(f"--pair expects H,T entity ids: {args.pair!r}") from e
    feats = prepare_document(matches[0], vocab,
                             args.allow_overlap or model.config.allow_overlap)
    record = explain_pair(model, feats, head, tail, threshold=threshold)
    text = render_explanation(record, vocab)
    sys.stdout.write(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK


def _cmd_graph_stats(args) -> int:
    docs = load_docred(args.data)
    vocab = build_vocabulary(docs)
    pair_counts = {PairKind.INTRA: 0, PairKind.INTER: 0}
    fact_counts = {PairKind.INTRA: 0, PairKind.INTER: 0}
    edge_counts: dict[str, int] = {}
    two_hop_total = 0
    for doc in docs:
        kinds = {}
        for p in enumerate_entity_pairs(doc):
            pair_counts[p.kind] += 1
            kinds[(p.head, p.tail)] = p.kind
        for f in doc.facts:
            fact_counts[kinds[(f.head, f.tail)]] += 1
        g = build_mention_graph(doc)
        for kind, edges in g.edges.items():
            edge_counts[kind.value] = edge_counts.get(kind.value, 0) + len(edges)
        two_hop_total += len(enumerate_two_hop(doc.facts))
    total_facts = fact_counts[PairKind.INTRA] + fact_counts[PairKind.INTER]
    stats = {
        "documents": len(docs),
        "relations": vocab.n_relations,
        "facts": total_facts,
        "intra_facts": fact_counts[PairKind.INTRA],
        "inter_facts": fact_counts[PairKind.INTER],
        "inter_fact_share": (fact_counts[PairKind.INTER] / total_facts) if total_facts else 0.0,
        "intra_pairs": pair_counts[PairKind.INTRA],
        "inter_pairs": pair_counts[PairKind.INTER],
        "two_hop_instances": two_hop_total,
        "edges": dict(sorted(edge_counts.items())),
    }
    text = json.dumps(stats, indent=1, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docrel",
        description="Document-level relation extraction: separate intra/inter encoding "
                    "with graph propagation and chain-attention reasoning.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_data=True):
        if needs_data:
            p.add_argument("--data", required=True, help="DocRED-format JSON file")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory or file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--allow-overlap", choices=("reject", "first-wins"),
                       dest="allow_overlap",
                       help="how to featurize overlapping mentions of distinct entities")

    train = sub.add_parser("train", help="train a model and write a checkpoint")
    common(train)
    train.add_argument("--dev", help="dev set for periodic evaluation")
    train.add_argument("--epochs", type=int, help="override the config epoch count")
    train.add_argument("--topk", type=int, help="override the top-K context size")
    train.add_argument("--no-reasoning", action="store_true", dest="no_reasoning")
    train.add_argument("--no-context", action="store_true", dest="no_context")
    train.add_argument("--inter4intra", action="store_true", dest="inter4intra")
    train.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="score a checkpoint or a prediction file")
    common(ev)
    ev.add_argument("--checkpoint", help="checkpoint produced by train")
    ev.add_argument("--pred", help="existing prediction file to score")
    ev.add_argument("--train", help="training file for the Ign-F1 filter")
    ev.set_defaults(func=_cmd_eval)

    pred = sub.add_parser("predict", help="write a submission-shaped prediction file")
    common(pred)
    pred.add_argument("--checkpoint", required=True)
    pred.set_defaults(func=_cmd_predict)

    ex = sub.add_parser("explain", help="show attention provenance for one pair")
    common(ex)
    ex.add_argument("--checkpoint", required=True)
    ex.add_argument("--doc", required=True, help="document title")
    ex.add_argument("--pair", required=True, help="head,tail entity ids")
    ex.set_defaults(func=_cmd_explain)

    gs = sub.add_parser("graph-stats", help="corpus census: pairs, facts, edges, chains")
    common(gs)
    gs.set_defaults(func=_cmd_graph_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out", None) is None and args.command in ("train", "predict"):
        parser.error(f"{args.command} requires --out")
    try:
        return args.func(args)
    except DocrelError as e:
        for cls, code, name in _ERROR_CODES:
            if isinstance(e, cls):
                return _fail(code, name, str(e))
        return _fail(1, "error", str(e))
    except (FileNotFoundError, IsADirectoryError) as e:
        return _fail(EXIT_MISSING_FILE, "missing-file", str(e))


if __name__ == "__main__":
    sys.exit(main())
