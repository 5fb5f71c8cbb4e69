"""Explanation records: attended words, evidence sentences, reasoning chains."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import PairKind
from .errors import NotFoundError
from .model import DocFeatures, RelationModel


@dataclass
class WordHighlight:
    sentence_id: int
    token_index: int
    token: str
    alpha: float


@dataclass
class IntraContextView:
    sentence_id: int
    head_text: str
    tail_text: str
    top_words: list[WordHighlight]


@dataclass
class EvidenceView:
    sentence_id: int
    score: float   # logistic evidence score
    weight: float  # normalized


@dataclass
class ChainView:
    head: int
    tail: int
    gamma: float
    is_self: bool = False


@dataclass
class ExplanationRecord:
    title: str
    head: int
    tail: int
    kind: PairKind
    probabilities: np.ndarray
    decisions: list[int]
    intra_contexts: list[IntraContextView] = field(default_factory=list)
    evidence: list[EvidenceView] = field(default_factory=list)
    chains: list[ChainView] = field(default_factory=list)
    # raw forward values kept so the record can be replayed against the model
    gamma_row: np.ndarray | None = None
    candidate_ids: np.ndarray | None = None
    rep_before: np.ndarray | None = None
    rep_after: np.ndarray | None = None
    pool_before: np.ndarray | None = None


def explain_pair(model: RelationModel, feats: DocFeatures, head: int, tail: int,
                 threshold: float = 0.5) -> ExplanationRecord:
    """Run the forward pass for one document and package the attention weights."""
    doc = feats.doc
    n = len(feats.pair_rows)
    idx = int(feats.pair_rows[head, tail]) if 0 <= head < n and 0 <= tail < n else -1
    if idx < 0:
        raise NotFoundError(f"document {doc.title!r} has no pair ({head}, {tail})")
    out = model.forward(feats)
    probs = out.probs.data[idx].copy()
    record = ExplanationRecord(
        title=doc.title, head=head, tail=tail, kind=feats.pairs[idx].kind, probabilities=probs,
        decisions=sorted(int(r) for r in np.nonzero(probs >= threshold)[0]),
        rep_before=out.pool_input.data[idx].copy(),
        rep_after=out.reps_post.data[idx].copy(),
        pool_before=out.pool_input.data.copy(),
    )

    row = int(out.block_row[idx])
    n_intra = out.intra.vectors.shape[0] if out.intra is not None else 0
    if row >= n_intra:
        scores, alpha = out.inter.scores[row - n_intra], out.inter.alpha[row - n_intra]
        record.evidence = [
            EvidenceView(sentence_id=k, score=float(scores[k]), weight=float(alpha[k]))
            for k in range(len(alpha))
        ]
    else:
        route, inst = out.intra, out.intra.instances
        words = [w for sent in doc.sentences for w in sent]
        texts = [" ".join(words[t] for t in np.flatnonzero(m)) for m in feats.mention_means]
        for i in np.flatnonzero(inst.pair == row):
            sid = int(inst.sentence[i])
            off = feats.sent_offsets[sid]
            record.intra_contexts.append(IntraContextView(
                sentence_id=sid, head_text=texts[inst.head[i]], tail_text=texts[inst.tail[i]],
                top_words=[WordHighlight(sid, int(t - off), words[t], float(route.alpha[i, t]))
                           for t in route.topk[i] if t >= 0],
            ))

    if out.gamma is not None:
        # scatter the pair's 2L cell weights onto the rows behind them
        cells = out.groups.cells(idx)
        kept = cells >= 0
        record.gamma_row = np.zeros(len(out.rows))
        record.gamma_row[cells[kept]] = out.gamma[idx, kept]
        record.candidate_ids = np.sort(cells[kept & (cells != idx)])
        views = [ChainView(head=head, tail=tail, gamma=float(record.gamma_row[idx]), is_self=True)]
        for j in record.candidate_ids:
            row = out.rows[j]
            views.append(ChainView(head=int(feats.heads[row]), tail=int(feats.tails[row]),
                                   gamma=float(record.gamma_row[j])))
        views.sort(key=lambda v: -v.gamma)
        record.chains = views
    return record


def render_explanation(record: ExplanationRecord, vocab=None) -> str:
    lines = [
        f"document: {record.title}",
        f"pair: head={record.head} tail={record.tail} kind={record.kind.value}",
    ]
    if record.decisions:
        for r in record.decisions:
            label = vocab.relation_label(r) if vocab is not None else str(r)
            lines.append(f"predicted: {label} (p={record.probabilities[r]:.4f})")
    else:
        lines.append("predicted: nothing above threshold")
    for ctx in record.intra_contexts:
        lines.append(f"co-occurrence in sentence {ctx.sentence_id}: "
                     f"[{ctx.head_text}] .. [{ctx.tail_text}]")
        for w in ctx.top_words:
            lines.append(f"  top word: {w.token!r} (alpha={w.alpha:.4f})")
    if record.evidence:
        lines.append("evidence sentences:")
        for ev in sorted(record.evidence, key=lambda e: -e.weight):
            lines.append(f"  sentence {ev.sentence_id}: score={ev.score:.4f} "
                         f"weight={ev.weight:.4f}")
    if record.chains:
        lines.append("reasoning attention:")
        for ch in record.chains:
            tag = " (self)" if ch.is_self else ""
            lines.append(f"  pair ({ch.head}, {ch.tail}): gamma={ch.gamma:.4f}{tag}")
    return "\n".join(lines) + "\n"
