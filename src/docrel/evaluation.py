"""Metric suite: F1, Ign F1, intra-F1, inter-F1 and the two-hop infer-F1."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Document, PairKind, Vocabulary, enumerate_entity_pairs
from .errors import ContractError, ParseError, ValidationError
from .training import PredictionSet, PredRecord

Instance = tuple[str, int, int, int]  # (title, head, tail, relation)


@dataclass
class SliceScore:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    def as_dict(self) -> dict:
        return {"precision": self.precision, "recall": self.recall, "f1": self.f1,
                "tp": self.tp, "fp": self.fp, "fn": self.fn}


@dataclass
class EvaluationReport:
    overall: SliceScore
    ign: SliceScore
    intra: SliceScore
    inter: SliceScore
    infer: SliceScore | None = None
    notes: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        out = {
            "overall": self.overall.as_dict(),
            "ign": self.ign.as_dict(),
            "intra": self.intra.as_dict(),
            "inter": self.inter.as_dict(),
            "infer": self.infer.as_dict() if self.infer is not None else None,
            "notes": self.notes,
        }
        return out

    def render(self) -> str:
        rows = [("overall", self.overall), ("ign", self.ign),
                ("intra", self.intra), ("inter", self.inter)]
        if self.infer is not None:
            rows.append(("infer", self.infer))
        lines = [f"{'slice':<8} {'P':>8} {'R':>8} {'F1':>8} {'TP':>6} {'FP':>6} {'FN':>6}"]
        for name, s in rows:
            lines.append(f"{name:<8} {s.precision:>8.4f} {s.recall:>8.4f} {s.f1:>8.4f} "
                         f"{s.tp:>6} {s.fp:>6} {s.fn:>6}")
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines) + "\n"


def _score(pred: set[Instance], gold: set[Instance]) -> SliceScore:
    tp = len(pred & gold)
    return SliceScore(tp=tp, fp=len(pred) - tp, fn=len(gold) - tp)


def train_fact_names(train_docs: list[Document]) -> set[tuple[str, str, int]]:
    """(head surface, tail surface, relation id) for every surface combination."""
    out = set()
    for doc in train_docs:
        for f in doc.facts:
            heads = {m.surface for m in doc.entities[f.head].mentions}
            tails = {m.surface for m in doc.entities[f.tail].mentions}
            for h in heads:
                for t in tails:
                    out.add((h, t, f.relation))
    return out


def enumerate_two_hop(facts) -> set[tuple[int, int, int]]:
    """Gold instances (h, t, r) closed by a chain (h, k, *), (k, t, *) of gold facts."""
    heads: dict[int, set[int]] = {}
    for f in facts:
        heads.setdefault(f.head, set()).add(f.tail)
    out = set()
    for f in facts:
        mids = heads.get(f.head, set())
        if any(f.tail in heads.get(k, ()) for k in mids if k != f.tail):
            out.add((f.head, f.tail, f.relation))
    return out


def two_hop_pair_frame(facts) -> set[tuple[int, int]]:
    """(h, t) pairs connected by some two-hop chain of gold facts."""
    heads: dict[int, set[int]] = {}
    for f in facts:
        heads.setdefault(f.head, set()).add(f.tail)
    frame = set()
    for h, mids in heads.items():
        for k in mids:
            for t in heads.get(k, ()):
                if t != h:
                    frame.add((h, t))
    return frame


def infer_f1(pred: set[Instance], gold: set[Instance],
             frames: dict[str, set[tuple[int, int]]]) -> tuple[SliceScore, bool]:
    """Micro scores with both sets restricted to each document's two-hop frame."""
    def in_frame(inst: Instance) -> bool:
        title, h, t, _ = inst
        return (h, t) in frames.get(title, ())

    gold_2hop = {g for g in gold if in_frame(g)}
    pred_2hop = {p for p in pred if in_frame(p)}
    empty = not any(frames.values())
    return _score(pred_2hop, gold_2hop), empty


def compute_f1_suite(preds: PredictionSet, docs: list[Document],
                     train_docs: list[Document] | None = None,
                     train_names: set[tuple[str, str, int]] | None = None) -> EvaluationReport:
    """All five metrics over thresholded decisions.

    The Ign variant drops, from predictions and gold alike, instances whose
    (head surface, tail surface, relation) matches a training fact under any
    mention surface combination.
    """
    docs_by_title = {d.title: d for d in docs}
    gold: set[Instance] = {(d.title, f.head, f.tail, f.relation) for d in docs for f in d.facts}
    kinds: dict[tuple[str, int, int], PairKind] = {}
    for d in docs:
        for p in enumerate_entity_pairs(d):
            kinds[(d.title, p.head, p.tail)] = p.kind

    decided = preds.decided()
    for inst in decided:
        title, h, t, _ = inst
        if (title, h, t) not in kinds:
            raise ContractError(f"prediction on unknown pair {title!r} ({h}, {t})")

    if train_names is None:
        train_names = train_fact_names(train_docs) if train_docs else set()

    def is_train_fact(inst: Instance) -> bool:
        title, h, t, r = inst
        doc = docs_by_title[title]
        for hm in doc.entities[h].mentions:
            for tm in doc.entities[t].mentions:
                if (hm.surface, tm.surface, r) in train_names:
                    return True
        return False

    overall = _score(decided, gold)
    ign = _score({p for p in decided if not is_train_fact(p)},
                 {g for g in gold if not is_train_fact(g)})
    intra = _score({p for p in decided if kinds[p[:3]] is PairKind.INTRA},
                   {g for g in gold if kinds[g[:3]] is PairKind.INTRA})
    inter = _score({p for p in decided if kinds[p[:3]] is PairKind.INTER},
                   {g for g in gold if kinds[g[:3]] is PairKind.INTER})
    frames = {d.title: two_hop_pair_frame(d.facts) for d in docs}
    infer, empty = infer_f1(decided, gold, frames)
    report = EvaluationReport(overall=overall, ign=ign, intra=intra, inter=inter, infer=infer)
    if empty:
        report.notes.append("no two-hop instances in the gold set")
    return report


# ---------------------------------------------------------------------------
# prediction file interchange (DocRED submission shape plus a score field)
# ---------------------------------------------------------------------------

def write_predictions(path, preds: PredictionSet, vocab: Vocabulary) -> None:
    id2label = {rid: label for label, rid in vocab.rel2id.items()}
    score_of = {r[:4]: r.score for r in preds.decided_records()}
    rows = [
        {"title": title, "h_idx": h, "t_idx": t, "r": id2label[r], "score": score}
        for (title, h, t, r), score in sorted(score_of.items())
    ]
    Path(path).write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def read_predictions(path, vocab: Vocabulary) -> PredictionSet:
    try:
        rows = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(rows, list):
        raise ParseError(f"{path}: expected a JSON array of predictions")
    records = []
    for i, row in enumerate(rows):
        try:
            label = str(row["r"])
            if label not in vocab.rel2id:
                raise ValidationError(f"{path}: record {i}: unknown relation {label!r}")
            records.append(PredRecord(
                title=str(row["title"]), head=int(row["h_idx"]), tail=int(row["t_idx"]),
                relation=vocab.rel2id[label], score=float(row.get("score", 1.0))))
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"{path}: record {i}: malformed ({e!r})") from e
    return PredictionSet.from_records(records, threshold=None)
