"""Intra-sentential pair representations from co-occurred sentences only.

Head and tail mentions are span means over sentence-level word states; the
context vector mixes the plain mean of the top-K attended words with the full
attention-weighted sum so the attention weights stay trainable.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document, EntityPair, PairKind
from .errors import ContractError, ShapeError
from .reps import IntraContext, PairRepresentation


def mention_span_rep(g: Tensor, span: tuple[int, int]) -> Tensor:
    """Arithmetic mean of the (n, d) word states g inside a half-open span."""
    s, t = span
    if not (0 <= s < t <= g.shape[0]):
        raise ContractError(f"mention span [{s}, {t}) outside sequence of length {g.shape[0]}")
    if t - s == 1:
        return ad.take_row(g, s)
    return ad.mean(ad.narrow(g, s, t), axis=0)


def context_attention(head: Tensor, tail: Tensor, g: Tensor,
                      w_intra: Tensor) -> tuple[Tensor, Tensor]:
    """Relatedness scores s_k = relu(q . g_k) with q = W [head; tail], then softmax."""
    d = g.shape[1]
    if w_intra.shape != (d, 2 * d):
        raise ShapeError(f"context_attention: weight {w_intra.shape}, expected {(d, 2 * d)}")
    query = ad.matmul(w_intra, ad.concat([head, tail], axis=-1))
    scores = ad.relu(ad.matmul(g, query))
    alpha = ad.softmax(scores)
    return scores, alpha


def topk_context(g: Tensor, alpha: Tensor, k: int, beta: float) -> tuple[Tensor, np.ndarray]:
    """beta * mean(top-K words) + (1 - beta) * full weighted sum; K caps at n."""
    if k < 1:
        raise ContractError(f"top-K count must be >= 1: {k}")
    if not (0.0 <= beta <= 1.0):
        raise ContractError(f"beta must lie in [0, 1]: {beta}")
    idx = ad.topk_indices(alpha.data, k)
    top_mean = ad.mean(ad.take_rows(g, idx), axis=0)
    weighted = ad.matmul(alpha, g)
    return beta * top_mean + (1.0 - beta) * weighted, idx


def intra_pair_rep(pair: EntityPair, doc: Document, sent_states: list[Tensor],
                   w_intra: Tensor, k: int, beta: float,
                   average: str = "flat") -> PairRepresentation:
    """Mean of [head; tail; context] over the mention-pair co-occurrence instances.

    `sent_states[i]` holds the (n_i, d) word states of sentence i.

    `flat` averages all instances in one pass; `nested` averages instances
    within each co-occurred sentence first, then averages the sentences.
    """
    if pair.kind is not PairKind.INTRA:
        raise ContractError(f"intra_pair_rep called on {pair.kind} pair ({pair.head}, {pair.tail})")
    if average not in ("flat", "nested"):
        raise ContractError(f"intra averaging mode must be flat or nested: {average!r}")
    head_mentions = doc.entities[pair.head].mentions
    tail_mentions = doc.entities[pair.tail].mentions
    per_sentence: list[list[Tensor]] = []
    contexts = []
    for sid in pair.co_occur_sentences:
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
        raise ContractError(
            f"pair ({pair.head}, {pair.tail}) routed intra but has no co-occurrence instance")

    def mean_of(vectors):
        return vectors[0] if len(vectors) == 1 else ad.mean(ad.stack(vectors), axis=0)

    if average == "flat":
        vector = mean_of([v for group in per_sentence for v in group])
    else:
        vector = mean_of([mean_of(group) for group in per_sentence])
    return PairRepresentation(head=pair.head, tail=pair.tail, kind=PairKind.INTRA,
                              vector=vector, provenance=contexts)
