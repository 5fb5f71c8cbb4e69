"""Intra-sentential pair representations from co-occurred sentences only.

Head and tail mentions are span means over sentence-level word states; the
context vector mixes the plain mean of the top-K attended words with the full
attention-weighted sum so the attention weights stay trainable. One attention
over the document's words serves every instance, each masked to the words of
its own sentence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document
from .errors import ContractError, ShapeError


@dataclass(frozen=True)
class IntraInstances:
    """Mention-pair co-occurrences, one row per (head mention, tail mention,
    sentence), ordered by pair, then sentence, head mention and tail mention."""

    n_pairs: int
    pair: np.ndarray      # (I,) row of the instance's pair in its pair list
    sentence: np.ndarray  # (I,)
    head: np.ndarray      # (I,) head mention, numbered as the graph's mention nodes
    tail: np.ndarray      # (I,) tail mention

    def select(self, rows: np.ndarray) -> "IntraInstances":
        """The instances of pairs `rows`, renumbered to their positions in `rows`."""
        lo = np.searchsorted(self.pair, rows)
        counts = np.searchsorted(self.pair, rows, side="right") - lo
        ids = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        return IntraInstances(len(rows), np.repeat(np.arange(len(rows)), counts),
                              self.sentence[ids], self.head[ids], self.tail[ids])


def intra_instances(doc: Document, pair_rows: np.ndarray) -> IntraInstances:
    """Every co-occurrence in a sentence of the mentions of the pairs in
    `pair_rows`, the (E, E) table of each (head, tail) pair's row, -1 where none."""
    mentions = np.array([(e.id, m.sentence_id) for e in doc.entities for m in e.mentions],
                        dtype=np.int64).reshape(-1, 2)
    entity, sentence = mentions.T
    a, b = np.nonzero((sentence[:, None] == sentence) & (pair_rows[entity[:, None], entity] >= 0))
    pair = pair_rows[entity[a], entity[b]]
    order = np.lexsort((b, a, sentence[a], pair))
    a, b = a[order], b[order]
    return IntraInstances(int(np.count_nonzero(pair_rows >= 0)), pair[order], sentence[a], a, b)


def span_means(spans, n: int) -> np.ndarray:
    """(len(spans), n) matrix whose row i averages rows [s_i, t_i) of an (n, d) matrix."""
    spans = np.asarray(spans, dtype=np.int64).reshape(-1, 2)
    s, t = spans[:, :1], spans[:, 1:]
    if np.any((s < 0) | (t <= s) | (t > n)):
        raise ContractError(f"a mention span in {spans.tolist()} is empty or outside [0, {n})")
    cols = np.arange(n)
    return ((cols >= s) & (cols < t)) / (t - s)


def context_attention(head: Tensor, tail: Tensor, g: Tensor, w_intra: Tensor,
                      inside: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Relatedness scores s_k = relu(q . g_k) with q = W [head; tail], then softmax.

    head and tail are (d,) for one instance or (I, d) for I instances; scores
    and weights are then (n,) or (I, n). A bool `inside` of that shape keeps
    each row to its own words (None: every word); the others score 0, weight 0.
    """
    d = g.shape[1]
    if w_intra.shape != (d, 2 * d):
        raise ShapeError(f"context_attention: weight {w_intra.shape}, expected {(d, 2 * d)}")
    query = ad.linear(ad.concat([head, tail], axis=-1), w_intra)
    logits = ad.linear(query, g)
    inside = np.ones(logits.shape, dtype=bool) if inside is None else inside
    # zeroed before the relu, masked words make no kink the decision trace could see
    scores = ad.relu(logits * ad.constant(inside))
    return scores, ad.softmax(scores + ad.constant(np.where(inside, 0.0, -np.inf)))


def topk_context(g: Tensor, alpha: Tensor, k: int, beta: float,
                 inside: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """beta * mean(top-K words) + (1 - beta) * full weighted sum; K caps at n.

    alpha is (n,) or (I, n); a bool `inside` of that shape takes each row's
    top-K among its own words only (None means every word). The chosen word
    indices come back ascending, as (K,) or (I, K) with K = min(k, n); a row
    with fewer than K words inside pads them with -1 at the end.
    """
    if k < 1:
        raise ContractError(f"top-K count must be >= 1: {k}")
    if not (0.0 <= beta <= 1.0):
        raise ContractError(f"beta must lie in [0, 1]: {beta}")
    inside = np.ones(alpha.shape, dtype=bool) if inside is None else inside
    idx = ad.topk_indices(np.where(inside, alpha.data, -np.inf), k)
    chosen = np.take_along_axis(inside, idx, axis=-1)
    select = np.zeros(alpha.shape)
    np.put_along_axis(select, idx, chosen / chosen.sum(axis=-1, keepdims=True), axis=-1)
    mix = ad.constant(beta * select) + (1.0 - beta) * alpha
    n = alpha.shape[-1]
    idx = np.sort(np.where(chosen, idx, n), axis=-1)
    return ad.matmul(mix, g), np.where(idx < n, idx, -1)


class IntraRoute(NamedTuple):
    vectors: Tensor            # (n_pairs, 3d) pair representations
    instances: IntraInstances
    alpha: np.ndarray          # (I, T) attention weights per instance, 0 outside its sentence
    topk: np.ndarray           # (I, K) chosen document positions, ascending, padded with -1


def intra_pair_rep(inst: IntraInstances, sent_states: Tensor, mention_means: np.ndarray,
                   offsets: np.ndarray, w_intra: Tensor, k: int, beta: float,
                   average: str = "flat") -> IntraRoute:
    """Mean of [head; tail; context] over each pair's co-occurrence instances `inst`.

    `sent_states` holds the (T, d) word states of the document's sentences
    one after another; rows offsets[i]:offsets[i + 1] are sentence i's. Row m
    of the (mentions, T) `mention_means` averages mention m's words. `flat`
    averages all instances of a pair in one pass; `nested` averages instances
    within each co-occurred sentence first, then averages the sentences.
    """
    if average not in ("flat", "nested"):
        raise ContractError(f"intra averaging mode must be flat or nested: {average!r}")
    if np.any(np.bincount(inst.pair, minlength=inst.n_pairs) == 0):
        raise ContractError("a pair routed intra has no co-occurrence instance")
    inside = inst.sentence[:, None] == np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    head = ad.matmul(ad.constant(mention_means[inst.head]), sent_states)
    tail = ad.matmul(ad.constant(mention_means[inst.tail]), sent_states)
    _, alpha = context_attention(head, tail, sent_states, w_intra, inside)
    context, topk = topk_context(sent_states, alpha, k, beta, inside)
    # a pair's weight goes evenly to its cells: all its instances (flat), or
    # its instances in one sentence (nested); a cell's instances share it
    cell = inst.pair * len(offsets) + (inst.sentence if average == "nested" else 0)
    _, first, which = np.unique(cell, return_index=True, return_inverse=True)
    weight = 1.0 / (np.bincount(which)[which] * np.bincount(inst.pair[first])[inst.pair])
    average_matrix = np.zeros((inst.n_pairs, inst.pair.size))
    average_matrix[inst.pair, np.arange(inst.pair.size)] = weight
    vectors = ad.matmul(ad.constant(average_matrix), ad.concat([head, tail, context], axis=-1))
    return IntraRoute(vectors, inst, alpha.data, topk)
