"""Per-pair reference for the pair routes and reasoning: one Python object and
one small graph per pair, or per (head mention, tail mention) instance, and a
dense (P, P) chain attention.

This is the code the whole-document routes in `docrel.intra`, `docrel.inter`
and `RelationModel.forward`, and the block attention of `docrel.reasoning`,
replaced, kept as the oracle they are compared against. It reuses the model's
parameters and every layer outside the pair routes and reasoning (encoders,
R-GCN, classifier).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from docrel import autodiff as ad
from docrel.autodiff import Tensor
from docrel.corpus import Document, EntityPair, PairKind
from docrel.encoders import embed_tokens, encode_document, encode_sentence
from docrel.errors import ContractError, ShapeError
from docrel.explain import (ChainView, EvidenceView, ExplanationRecord, IntraContextView,
                            WordHighlight)
from docrel.inter import EVIDENCE_EPS, node_final_rep, propagate
from docrel.model import _NO_DROPOUT, DocFeatures, DropoutState, RelationModel, bce_loss
from docrel.model import relation_probabilities


@dataclass
class IntraContext:
    """Attention provenance for one (head mention, tail mention) co-occurrence."""

    sentence_id: int
    head_span: tuple[int, int]
    tail_span: tuple[int, int]
    scores: np.ndarray
    alpha: np.ndarray
    topk: np.ndarray


@dataclass
class EvidenceDistribution:
    scores: np.ndarray
    alpha: np.ndarray


@dataclass
class PairRepresentation:
    head: int
    tail: int
    kind: PairKind
    vector: Tensor
    provenance: "list[IntraContext] | EvidenceDistribution | None" = None


@dataclass
class OracleForward:
    pairs: list[EntityPair]
    reps_pre: list[PairRepresentation]
    pool_input: Tensor
    reps_post: Tensor
    gamma: np.ndarray | None
    candidates: list[np.ndarray] | None
    probs: Tensor


def mention_span_rep(g: Tensor, span: tuple[int, int]) -> Tensor:
    s, t = span
    if t - s == 1:
        return ad.take_rows(g, s)
    return ad.mean(ad.narrow(g, s, t), axis=0)


def context_attention(head: Tensor, tail: Tensor, g: Tensor, w_intra: Tensor):
    query = ad.matmul(w_intra, ad.concat([head, tail], axis=-1))
    scores = ad.relu(ad.matmul(g, query))
    return scores, ad.softmax(scores)


def topk_context(g: Tensor, alpha: Tensor, k: int, beta: float):
    idx = ad.topk_indices(alpha.data, k)
    top_mean = ad.mean(ad.take_rows(g, idx), axis=0)
    weighted = ad.matmul(alpha, g)
    return beta * top_mean + (1.0 - beta) * weighted, idx


def co_occur_sentences(doc: Document, head: int, tail: int) -> list[int]:
    """Ascending ids of the sentences holding a mention of both entities."""
    def sentences(eid):
        return {m.sentence_id for m in doc.entities[eid].mentions}
    return sorted(sentences(head) & sentences(tail))


def intra_pair_rep(pair: EntityPair, doc: Document, sent_states: list[Tensor],
                   w_intra: Tensor, k: int, beta: float,
                   average: str = "flat") -> PairRepresentation:
    head_mentions = doc.entities[pair.head].mentions
    tail_mentions = doc.entities[pair.tail].mentions
    per_sentence: list[list[Tensor]] = []
    contexts = []
    for sid in co_occur_sentences(doc, pair.head, pair.tail):
        g = sent_states[sid]
        instances = []
        for hm in head_mentions:
            if hm.sentence_id != sid:
                continue
            for tm in tail_mentions:
                if tm.sentence_id != sid:
                    continue
                e_h = mention_span_rep(g, hm.span)
                e_t = mention_span_rep(g, tm.span)
                scores, alpha = context_attention(e_h, e_t, g, w_intra)
                c, idx = topk_context(g, alpha, k, beta)
                instances.append(ad.concat([e_h, e_t, c], axis=-1))
                contexts.append(IntraContext(
                    sentence_id=sid, head_span=hm.span, tail_span=tm.span,
                    scores=scores.data.copy(), alpha=alpha.data.copy(), topk=idx))
        if instances:
            per_sentence.append(instances)
    if not per_sentence:
        raise ContractError(f"pair ({pair.head}, {pair.tail}) has no co-occurrence instance")

    def mean_of(vectors):
        return vectors[0] if len(vectors) == 1 else ad.mean(ad.stack(vectors), axis=0)

    if average == "flat":
        vector = mean_of([v for group in per_sentence for v in group])
    else:
        vector = mean_of([mean_of(group) for group in per_sentence])
    return PairRepresentation(head=pair.head, tail=pair.tail, kind=PairKind.INTRA,
                              vector=vector, provenance=contexts)


def entity_rep(mention_node_ids: list[int], m: Tensor) -> Tensor:
    if len(mention_node_ids) == 1:
        return ad.take_rows(m, mention_node_ids[0])
    return ad.mean(ad.take_rows(m, np.asarray(mention_node_ids)), axis=0)


def evidence_weights(head: Tensor, tail: Tensor, m_sentences: Tensor, w_k: Tensor):
    d = m_sentences.shape[1]
    w = ad.reshape(w_k, (3 * d,))
    base = ad.matmul(ad.narrow(w, 0, 2 * d), ad.concat([head, tail], axis=-1))
    logits = ad.matmul(m_sentences, ad.narrow(w, 2 * d, 3 * d)) + base
    scores = ad.sigmoid(logits)
    return scores, ad.div(scores, ad.tsum(scores) + EVIDENCE_EPS)


def inter_pair_rep(pair: EntityPair, head: Tensor, tail: Tensor, m_sentences: Tensor,
                   w_k: Tensor, kind: PairKind) -> PairRepresentation:
    scores, alpha = evidence_weights(head, tail, m_sentences, w_k)
    context = ad.matmul(alpha, m_sentences)
    vector = ad.concat([head, tail, context], axis=-1)
    return PairRepresentation(
        head=pair.head, tail=pair.tail, kind=kind, vector=vector,
        provenance=EvidenceDistribution(scores=scores.data.copy(), alpha=alpha.data.copy()))


def chain_candidates(heads: np.ndarray, tails: np.ndarray) -> list[np.ndarray]:
    """Candidate pool of each pair (heads[i], tails[i]): the pairs (h, k) and (k, t)
    with k outside {h, t}, ascending."""
    heads, tails = np.asarray(heads), np.asarray(tails)
    n = len(heads)
    mask = (heads[:, None] == heads) ^ (tails[:, None] == tails)
    # flat ids run row by row, so row i's candidates are the ids in [i n, (i + 1) n)
    cells = np.flatnonzero(mask)
    return np.split(cells % max(n, 1), np.searchsorted(cells, np.arange(1, n + 1) * n))[:-1]


def reasoning_update(reps: Tensor, candidates: list[np.ndarray],
                     w_att: Tensor) -> tuple[Tensor, np.ndarray]:
    """Dense self-attention over the pool: a (P, P) mask, scores and softmax.
    Returns the new (P, 3d) matrix and the (P, P) gamma (zeros outside the pool)."""
    n, width = reps.shape
    if w_att.shape != (width, width):
        raise ShapeError(f"reasoning_update: weight {w_att.shape}, expected {(width, width)}")
    sizes = np.fromiter(map(len, candidates), np.int64, n)
    rows = np.concatenate([np.arange(n), np.repeat(np.arange(n), sizes)])
    cols = np.concatenate([np.arange(n), *candidates])
    mask = np.full((n, n), -np.inf)
    mask[rows, cols] = 0.0
    queries = ad.linear(reps, w_att)
    scores = ad.matmul(queries, ad.transpose(reps)) + ad.constant(mask)
    gamma = ad.softmax(scores)
    return ad.matmul(gamma, reps), gamma.data.copy()


def dense_gamma(groups, gamma: np.ndarray) -> np.ndarray:
    """The (P, 2L) cell weights of `docrel.reasoning.chain_attention` scattered to
    the (P, P) layout of `reasoning_update` above."""
    out = np.zeros((len(gamma),) * 2)
    for i in range(len(gamma)):
        cells = groups.cells(i)
        kept = cells >= 0
        out[i, cells[kept]] = gamma[i, kept]
    return out


def mention_doc_spans(feats: DocFeatures) -> list[tuple[int, int]]:
    spans = []
    for node in feats.graph.nodes[:len(feats.graph.mention_nodes)]:
        eid, mi, sid = node.payload
        m = feats.doc.entities[eid].mentions[mi]
        offset = feats.doc.sentence_offsets()[sid]
        spans.append((offset + m.start, offset + m.end))
    return spans


def forward(model: RelationModel, feats: DocFeatures, rows=None,
            dropout: DropoutState = _NO_DROPOUT) -> OracleForward:
    """The forward over the pairs at `rows` of feats.pairs (every pair when None)."""
    cfg = model.config
    doc = feats.doc
    pairs = list(feats.pairs) if rows is None else [feats.pairs[i] for i in rows]

    # sentence by sentence; the states take one dropout mask over the whole document
    spans = list(zip(feats.sent_offsets, feats.sent_offsets[1:]))
    states, sent_summaries = [], []
    for lo, hi in spans:
        g, summary = encode_sentence(embed_tokens(feats.doc_feats[lo:hi], model.embeddings),
                                     model.sent_encoder)
        states.append(model._project(g))
        sent_summaries.append(model._project(summary))
    states = dropout.apply(ad.concat(states, axis=0), ("sent",))
    sent_states = [ad.take_rows(states, np.arange(lo, hi)) for lo, hi in spans]

    node_m = None
    if any(p.kind is PairKind.INTER or cfg.inter4intra for p in pairs):
        g_doc, d_doc = encode_document(embed_tokens(feats.doc_feats, model.embeddings),
                                       model.doc_encoder)
        g_doc = dropout.apply(model._project(g_doc), ("doc",))
        rows = [mention_span_rep(g_doc, span) for span in mention_doc_spans(feats)]
        h0 = ad.concat([ad.stack(rows), *sent_summaries, model._project(d_doc)], axis=0)
        node_m = node_final_rep(propagate(h0, feats.agg, model.rgcn), model.rgcn.w_u)

    m_sentences = None
    entity_cache: dict[int, Tensor] = {}

    def entity_vec(eid: int) -> Tensor:
        if eid not in entity_cache:
            ids = sorted(nid for (e, _), nid in feats.graph.mention_nodes.items() if e == eid)
            entity_cache[eid] = entity_rep(ids, node_m)
        return entity_cache[eid]

    reps_pre = []
    for p in pairs:
        if p.kind is PairKind.INTRA and not cfg.inter4intra:
            rep = intra_pair_rep(p, doc, sent_states, model.w_intra.tensor, cfg.topk, cfg.beta,
                                 average=cfg.intra_average)
        else:
            if m_sentences is None:
                m_sentences = ad.take_rows(node_m, np.asarray(feats.graph.sentence_nodes))
            rep = inter_pair_rep(p, entity_vec(p.head), entity_vec(p.tail), m_sentences,
                                 model.w_evidence.tensor, kind=p.kind)
        if cfg.no_context:
            dm = cfg.model_width
            kept = ad.narrow(rep.vector, 0, 2 * dm)
            rep.vector = ad.concat([kept, ad.constant(np.zeros(dm))], axis=-1)
        reps_pre.append(rep)

    pool = ad.stack([r.vector for r in reps_pre])
    pool_input = pool
    gamma = None
    candidates = None
    if not cfg.no_reasoning:
        candidates = chain_candidates(np.array([p.head for p in pairs]),
                                      np.array([p.tail for p in pairs]))
        for _ in range(cfg.reasoning_layers):
            pool_input = pool
            pool, gamma = reasoning_update(pool, candidates, model.w_att.tensor)
    probs = relation_probabilities(pool, model.classifier, dropout, ("cls",))
    return OracleForward(pairs=pairs, reps_pre=reps_pre, pool_input=pool_input,
                         reps_post=pool, gamma=gamma, candidates=candidates, probs=probs)


def gold_targets(model: RelationModel, doc: Document, pairs: list[EntityPair]) -> np.ndarray:
    """(len(pairs), |R|) targets, one fact at a time."""
    y = np.zeros((len(pairs), model.vocab.n_relations))
    for i, p in enumerate(pairs):
        for f in doc.facts:
            if (f.head, f.tail) == (p.head, p.tail):
                y[i, f.relation] = 1.0
    return y


def document_loss(model: RelationModel, feats: DocFeatures, rows=None,
                  dropout: DropoutState = _NO_DROPOUT) -> Tensor:
    out = forward(model, feats, rows, dropout)
    return bce_loss(out.probs, gold_targets(model, feats.doc, out.pairs),
                    reduction=model.config.loss_reduction)


def explain_pair(model: RelationModel, feats: DocFeatures, head: int, tail: int,
                 threshold: float = 0.5) -> ExplanationRecord:
    doc = feats.doc
    idx = next(i for i, p in enumerate(feats.pairs) if (p.head, p.tail) == (head, tail))
    out = forward(model, feats)
    pair = out.pairs[idx]
    rep = out.reps_pre[idx]
    probs = out.probs.data[idx].copy()
    record = ExplanationRecord(
        title=doc.title, head=head, tail=tail, kind=pair.kind, probabilities=probs,
        decisions=sorted(int(r) for r in np.nonzero(probs >= threshold)[0]),
        rep_before=out.pool_input.data[idx].copy(),
        rep_after=out.reps_post.data[idx].copy(),
        pool_before=out.pool_input.data.copy(),
    )
    if isinstance(rep.provenance, EvidenceDistribution):
        ev = rep.provenance
        record.evidence = [
            EvidenceView(sentence_id=k, score=float(ev.scores[k]), weight=float(ev.alpha[k]))
            for k in range(len(ev.alpha))
        ]
    elif rep.provenance:
        for ctx in rep.provenance:
            sent = doc.sentences[ctx.sentence_id]
            record.intra_contexts.append(IntraContextView(
                sentence_id=ctx.sentence_id,
                head_text=" ".join(sent[ctx.head_span[0]:ctx.head_span[1]]),
                tail_text=" ".join(sent[ctx.tail_span[0]:ctx.tail_span[1]]),
                top_words=[
                    WordHighlight(ctx.sentence_id, int(t), sent[int(t)], float(ctx.alpha[int(t)]))
                    for t in ctx.topk
                ],
            ))
    if out.gamma is not None:
        record.gamma_row = out.gamma[idx].copy()
        cand = out.candidates[idx]
        record.candidate_ids = cand.copy()
        views = [ChainView(head=head, tail=tail, gamma=float(record.gamma_row[idx]), is_self=True)]
        for j in cand:
            q = out.pairs[int(j)]
            views.append(ChainView(head=q.head, tail=q.tail,
                                   gamma=float(record.gamma_row[int(j)])))
        views.sort(key=lambda v: -v.gamma)
        record.chains = views
    return record
