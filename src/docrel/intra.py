"""Intra-sentential pair representations from co-occurred sentences only.

Head and tail mentions are span means over sentence-level word states; the
context vector mixes the plain mean of the top-K attended words with the full
attention-weighted sum so the attention weights stay trainable. One batched
attention runs per sentence that hosts an instance.
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
    pair: np.ndarray        # (I,) row of the instance's pair in its pair list
    sentence: np.ndarray    # (I,)
    head_means: np.ndarray  # (I, n_max) averages the head mention's words of its sentence
    tail_means: np.ndarray  # (I, n_max) the same for the tail mention

    def select(self, rows: np.ndarray) -> "IntraInstances":
        """The instances of pairs `rows`, renumbered to their positions in `rows`."""
        lo = np.searchsorted(self.pair, rows)
        counts = np.searchsorted(self.pair, rows, side="right") - lo
        ids = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        return IntraInstances(len(rows), np.repeat(np.arange(len(rows)), counts),
                              self.sentence[ids], self.head_means[ids], self.tail_means[ids])


def intra_instances(doc: Document, pair_rows: np.ndarray) -> IntraInstances:
    """Every co-occurrence in a sentence of the mentions of the pairs in
    `pair_rows`, the (E, E) table of each (head, tail) pair's row, -1 where none."""
    mentions = np.array([(e.id, m.sentence_id, m.start, m.end)
                         for e in doc.entities for m in e.mentions], dtype=np.int64).reshape(-1, 4)
    entity, sentence = mentions[:, 0], mentions[:, 1]
    # mention indices run entity by entity, each entity's mentions in list order
    a, b = np.nonzero((sentence[:, None] == sentence) & (pair_rows[entity[:, None], entity] >= 0))
    pair = pair_rows[entity[a], entity[b]]
    order = np.lexsort((b, a, sentence[a], pair))
    a, b = a[order], b[order]
    n_max = max(map(len, doc.sentences), default=0)
    return IntraInstances(int(np.count_nonzero(pair_rows >= 0)), pair[order], sentence[a],
                          span_means(mentions[a, 2:], n_max), span_means(mentions[b, 2:], n_max))


def span_means(spans, n: int) -> np.ndarray:
    """(len(spans), n) matrix whose row i averages rows [s_i, t_i) of an (n, d) matrix."""
    spans = np.asarray(spans, dtype=np.int64).reshape(-1, 2)
    s, t = spans[:, :1], spans[:, 1:]
    if np.any((s < 0) | (t <= s) | (t > n)):
        raise ContractError(f"a mention span in {spans.tolist()} is empty or outside [0, {n})")
    cols = np.arange(n)
    return ((cols >= s) & (cols < t)) / (t - s)


def context_attention(head: Tensor, tail: Tensor, g: Tensor,
                      w_intra: Tensor) -> tuple[Tensor, Tensor]:
    """Relatedness scores s_k = relu(q . g_k) with q = W [head; tail], then softmax.

    head and tail are (d,) for one instance or (I, d) for I instances of one
    sentence; scores and weights are then (n,) or (I, n).
    """
    d = g.shape[1]
    if w_intra.shape != (d, 2 * d):
        raise ShapeError(f"context_attention: weight {w_intra.shape}, expected {(d, 2 * d)}")
    query = ad.linear(ad.concat([head, tail], axis=-1), w_intra)
    scores = ad.relu(ad.linear(query, g))
    alpha = ad.softmax(scores)
    return scores, alpha


def topk_context(g: Tensor, alpha: Tensor, k: int, beta: float) -> tuple[Tensor, np.ndarray]:
    """beta * mean(top-K words) + (1 - beta) * full weighted sum; K caps at n.

    alpha is (n,) or (I, n); the chosen word indices come back ascending, as
    (K,) or (I, K).
    """
    if k < 1:
        raise ContractError(f"top-K count must be >= 1: {k}")
    if not (0.0 <= beta <= 1.0):
        raise ContractError(f"beta must lie in [0, 1]: {beta}")
    rows = alpha.data.reshape(-1, alpha.shape[-1])
    idx = np.array([ad.topk_indices(row, k) for row in rows], dtype=np.int64)
    select = np.zeros(rows.shape)
    select[np.arange(len(idx))[:, None], idx] = 1.0 / idx.shape[1]
    mix = ad.constant(beta * select.reshape(alpha.shape)) + (1.0 - beta) * alpha
    return ad.matmul(mix, g), idx.reshape(alpha.shape[:-1] + idx.shape[1:])


class IntraRoute(NamedTuple):
    vectors: Tensor            # (n_pairs, 3d) pair representations
    instances: IntraInstances
    alpha: np.ndarray          # (I, n_max) attention weights per instance, zero-padded
    topk: np.ndarray           # (I, K) chosen word indices, ascending, padded with -1


def intra_pair_rep(inst: IntraInstances, sent_states: Tensor, offsets: np.ndarray,
                   w_intra: Tensor, k: int, beta: float, average: str = "flat") -> IntraRoute:
    """Mean of [head; tail; context] over each pair's co-occurrence instances `inst`.

    `sent_states` holds the (T, d) word states of the document's sentences
    one after another; rows offsets[i]:offsets[i + 1] are sentence i's. `flat`
    averages all instances of a pair in one pass; `nested` averages instances
    within each co-occurred sentence first, then averages the sentences.
    """
    if average not in ("flat", "nested"):
        raise ContractError(f"intra averaging mode must be flat or nested: {average!r}")
    if np.any(np.bincount(inst.pair, minlength=inst.n_pairs) == 0):
        raise ContractError("a pair routed intra has no co-occurrence instance")
    order = np.argsort(inst.sentence, kind="stable")
    hosts, starts = np.unique(inst.sentence[order], return_index=True)
    alpha = np.zeros(inst.head_means.shape)
    topk = np.full((inst.pair.size, min(k, alpha.shape[1])), -1, dtype=np.int64)
    blocks = []
    for s, rows in zip(hosts, np.split(order, starts[1:])):
        g = ad.narrow(sent_states, offsets[s], offsets[s + 1])
        n = g.shape[0]
        head = ad.matmul(ad.constant(inst.head_means[rows, :n]), g)
        tail = ad.matmul(ad.constant(inst.tail_means[rows, :n]), g)
        _, s_alpha = context_attention(head, tail, g, w_intra)
        context, idx = topk_context(g, s_alpha, k, beta)
        blocks.append(ad.concat([head, tail, context], axis=-1))
        alpha[rows, :n] = s_alpha.data
        topk[rows, :idx.shape[1]] = idx
    # a pair's weight goes evenly to its cells: all its instances (flat), or
    # its instances in one sentence (nested); a cell's instances share it
    cell = inst.pair * len(offsets) + (inst.sentence if average == "nested" else 0)
    _, first, which = np.unique(cell, return_index=True, return_inverse=True)
    weight = 1.0 / (np.bincount(which)[which] * np.bincount(inst.pair[first])[inst.pair])
    # block rows run sentence by sentence; one matrix averages them into pairs
    average_matrix = np.zeros((inst.n_pairs, inst.pair.size))
    average_matrix[inst.pair[order], np.arange(order.size)] = weight[order]
    vectors = ad.matmul(ad.constant(average_matrix), ad.concat(blocks, axis=0))
    return IntraRoute(vectors, inst, alpha, topk)
