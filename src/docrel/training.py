"""Training loop, negative resampling, threshold calibration, prediction runs."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .autodiff import Tape, backward
from .config import TrainingConfig, derive_rng
from .corpus import Document, Vocabulary, build_vocabulary, sample_training_pairs
from .errors import ContractError, TrainingDiverged
from .model import DocFeatures, DropoutState, RelationModel, prepare_document
from .optim import AdamW


class PredRecord(NamedTuple):
    title: str
    head: int
    tail: int
    relation: int
    score: float


_COLUMN_DTYPES = (object, np.int64, np.int64, np.int64, float)


@dataclass
class PredictionSet:
    """One row per scored (document, head, tail, relation), as parallel 1-D arrays.

    `threshold=None` means the rows were loaded as final decisions.
    """

    titles: np.ndarray
    heads: np.ndarray
    tails: np.ndarray
    relations: np.ndarray
    scores: np.ndarray
    threshold: float | None = 0.5

    @classmethod
    def from_records(cls, rows, threshold: float | None = 0.5) -> PredictionSet:
        """Build the arrays from (title, head, tail, relation, score) rows."""
        columns = list(zip(*rows)) or [()] * len(_COLUMN_DTYPES)
        return cls(*(np.array(c, dtype=d) for c, d in zip(columns, _COLUMN_DTYPES)),
                   threshold=threshold)

    @property
    def records(self) -> list[PredRecord]:
        """Every row, in row order; built on each access."""
        return self._records(slice(None))

    def decided_records(self) -> list[PredRecord]:
        """The rows that clear the threshold, in row order."""
        return self._records(slice(None) if self.threshold is None
                             else self.scores >= self.threshold)

    def decided(self) -> set[tuple[str, int, int, int]]:
        return {r[:4] for r in self.decided_records()}

    def _records(self, keep) -> list[PredRecord]:
        columns = (self.titles, self.heads, self.tails, self.relations, self.scores)
        return list(map(PredRecord._make, zip(*(c[keep].tolist() for c in columns))))


def calibrate_threshold(scores: np.ndarray, gold: np.ndarray,
                        default: float = 0.5, warn=None) -> float:
    """Micro-F1-maximizing threshold over all distinct scores; ties pick the larger.

    A sentinel above the maximum score is always a candidate so "predict
    nothing" can win when every prediction is wrong.
    """
    scores = np.asarray(scores, dtype=float)
    gold = np.asarray(gold, dtype=bool)
    if scores.size == 0:
        if warn:
            warn("calibrate_threshold: empty dev set, falling back to default")
        return default
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    tp = np.cumsum(gold[order])
    pred = np.arange(1, scores.size + 1)
    total_gold = int(gold.sum())
    f1 = np.zeros(scores.size)
    denom = pred + total_gold
    np.divide(2.0 * tp, denom, out=f1, where=denom > 0)
    # the threshold can only sit at the last position of each tie run; scores
    # descend, so the first best position is the largest threshold
    ends = np.flatnonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))
    best = ends[np.argmax(f1[ends])]
    if f1[best] <= 0.0:
        return float(s_sorted[0]) + 1.0  # predict nothing
    return float(s_sorted[best])


def predict_documents(model: RelationModel, features: list[DocFeatures],
                      threshold: float | None = None) -> PredictionSet:
    """Score every ordered entity pair of every document (no sampling).

    Rows run document by document, pair by pair, relation by relation. A
    document without pairs (fewer than two entities) gives no rows.
    """

    def rows(feats: DocFeatures) -> tuple[np.ndarray, ...]:
        # the forward graph of a document is released before the next forward
        out = model.forward(feats)
        n_pairs, n_rel = out.probs.shape
        return (np.full(n_pairs * n_rel, feats.doc.title, dtype=object),
                np.repeat(feats.heads, n_rel), np.repeat(feats.tails, n_rel),
                np.tile(np.arange(n_rel, dtype=np.int64), n_pairs), out.probs.data.ravel())

    blocks = [tuple(np.empty(0, dtype=d) for d in _COLUMN_DTYPES)]
    blocks += [rows(f) for f in features if f.heads.size]
    return PredictionSet(*map(np.concatenate, zip(*blocks)), threshold=threshold)


@dataclass
class EpochStats:
    epoch: int
    loss: float
    n_pairs: int
    dev_f1: float | None = None
    threshold: float | None = None


@dataclass
class TrainResult:
    model: RelationModel
    vocab: Vocabulary
    history: list[EpochStats] = field(default_factory=list)
    best_state: dict[str, np.ndarray] | None = None
    best_f1: float | None = None
    threshold: float = 0.5


def _titles(titles: list[str], shown: int = 3) -> str:
    """' (a, b, ...)' naming the first few titles, or '' for none."""
    if not titles:
        return ""
    more = ", ..." if len(titles) > shown else ""
    return f" ({', '.join(map(repr, titles[:shown]))}{more})"


def train_model(train_docs: list[Document], config: TrainingConfig,
                dev_docs: list[Document] | None = None,
                vocab: Vocabulary | None = None,
                log=lambda msg: print(msg, file=sys.stderr)) -> TrainResult:
    """Run the full loop: resample negatives, shuffle, step, periodically evaluate.

    Deterministic for a fixed seed on one thread; the best dev checkpoint (or
    the final state when no dev set is given) lands in the result.
    """
    config.validate()
    if not train_docs:
        raise ContractError("train_model: empty training corpus")
    if vocab is None:
        vocab = build_vocabulary(train_docs, min_freq=config.min_freq)
    features = [prepare_document(d, vocab, config.allow_overlap) for d in train_docs]
    dev_features = [prepare_document(d, vocab, config.allow_overlap) for d in dev_docs] \
        if dev_docs else None

    # the sampler keeps gold rows and draws negatives in proportion, so a document
    # without a pair or without a gold fact gives no rows in any epoch
    no_pairs = [f.doc.title for f in features if not f.heads.size]
    no_facts = [f.doc.title for f in features if f.heads.size and not f.gold.any()]
    if no_pairs or no_facts:
        log(f"train_model: {len(no_pairs) + len(no_facts)} of {len(features)} documents give "
            f"no training rows: {len(no_pairs)} without an entity pair{_titles(no_pairs)}, "
            f"{len(no_facts)} without a gold fact{_titles(no_facts)}")

    model = RelationModel(config, vocab)
    optimizer = AdamW(model.parameters(), lr=config.learning_rate,
                      weight_decay=config.weight_decay)
    result = TrainResult(model=model, vocab=vocab, threshold=config.threshold)

    def evaluate_dev() -> tuple[float, float]:
        """Micro F1 on the dev set at its own calibrated threshold, and that threshold."""
        scores = predict_documents(model, dev_features).scores
        gold = np.concatenate([f.gold.ravel() for f in dev_features])
        theta = calibrate_threshold(scores, gold, default=config.threshold, warn=log)
        decided = scores >= theta
        tp = int(gold[decided].sum())
        if not tp:
            return 0.0, theta
        p, r = tp / int(decided.sum()), tp / int(gold.sum())
        return 2 * p * r / (p + r), theta

    best_f1 = -1.0
    for epoch in range(1, config.epochs + 1):
        sample_rng = derive_rng(config.seed, "negatives", epoch)
        shuffle_rng = derive_rng(config.seed, "shuffle", epoch)
        drop_rng = derive_rng(config.seed, "dropout", epoch)
        sampled = [sample_training_pairs(f.gold.any(axis=1), config.neg_ratio, sample_rng)
                   for f in features]
        order = shuffle_rng.permutation(len(features))
        epoch_loss = 0.0
        epoch_pairs = 0
        for batch_no, start in enumerate(range(0, len(order), config.batch_size)):
            batch = order[start:start + config.batch_size]
            dropout = DropoutState(config.dropout, drop_rng)
            with Tape():
                loss = None
                for di in batch:
                    if not sampled[di].size:
                        continue
                    doc_loss = model.document_loss(features[di], sampled[di], dropout)
                    loss = doc_loss if loss is None else loss + doc_loss
                    epoch_pairs += sampled[di].size
                if loss is None:
                    continue
                value = float(loss.data)
                if not np.isfinite(value):
                    raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {batch_no}",
                                           epoch=epoch, batch=batch_no)
                backward(loss)
                epoch_loss += value
            # checked before the step, which would write the non-finite values into the weights
            bad = optimizer.first_non_finite_grad()
            if bad is not None:
                raise TrainingDiverged(
                    f"non-finite gradient of {bad} at epoch {epoch}, batch {batch_no}",
                    epoch=epoch, batch=batch_no,
                    max_abs_grad=optimizer.max_abs_grad(), parameter=bad)
            optimizer.step()

        stats = EpochStats(epoch=epoch, loss=epoch_loss, n_pairs=epoch_pairs)
        if dev_features and (epoch % config.eval_every == 0 or epoch == config.epochs):
            f1, theta = evaluate_dev()
            stats.dev_f1, stats.threshold = f1, theta
            if f1 > best_f1:
                best_f1 = f1
                result.best_state = model.state_arrays()
                result.best_f1 = f1
                result.threshold = theta
        result.history.append(stats)
        log(f"epoch {epoch}: loss={epoch_loss:.4f} pairs={epoch_pairs}"
            + (f" dev_f1={stats.dev_f1:.4f}" if stats.dev_f1 is not None else ""))

    # no dev set, or no epoch: the final weights
    if result.best_state is None:
        result.best_state = model.state_arrays()
    return result
