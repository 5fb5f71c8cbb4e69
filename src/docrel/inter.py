"""Inter-sentential route: R-GCN over the mention graph plus evidence selection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError
from .graph import EdgeKind, MentionGraph
from .optim import Parameter

EVIDENCE_EPS = 1e-12


@dataclass
class RgcnParams:
    layers: list[dict[EdgeKind, Parameter]]  # one (d_g, d_g) matrix per layer per edge kind
    w_u: Parameter                           # (d_g, (N+1) * d_g) layer-aggregation matrix

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def parameters(self) -> list[Parameter]:
        out = []
        for layer in self.layers:
            out.extend(layer[kind] for kind in EdgeKind)
        out.append(self.w_u)
        return out

    @classmethod
    def create(cls, rng: np.random.Generator, width: int, n_layers: int) -> "RgcnParams":
        from .encoders import glorot
        layers = []
        for li in range(n_layers):
            layers.append({
                kind: Parameter(f"rgcn.{li}.{kind.value}", glorot(rng, (width, width)))
                for kind in EdgeKind
            })
        w_u = Parameter("rgcn.agg", glorot(rng, (width, (n_layers + 1) * width)))
        return cls(layers=layers, w_u=w_u)


def aggregation_matrices(g: MentionGraph) -> dict[EdgeKind, np.ndarray]:
    """Per-kind constant matrices A with A[u, v] = 1/c_u for v in N(u) or v = u.

    c_u = max(1, |N(u)|) so isolated nodes keep their self term intact.
    """
    n = g.n_nodes
    out = {}
    for kind in EdgeKind:
        edges = np.asarray(g.edges[kind], dtype=np.int64).reshape(-1, 2)
        u, v = np.concatenate([edges, edges[:, ::-1]]).T  # both directions
        share = 1.0 / np.maximum(1, np.bincount(u, minlength=n))
        A = np.zeros((n, n))
        A[u, v] = share[u]
        A[np.arange(n), np.arange(n)] += share
        out[kind] = A
    return out


def rgcn_layer(h: Tensor, agg: dict[EdgeKind, np.ndarray],
               layer_params: dict[EdgeKind, Parameter]) -> Tensor:
    """h_u' = relu(sum over kinds of (1/c) sum over N(u) + self of W_kind h_v)."""
    total = None
    for kind in EdgeKind:
        msg = ad.linear(h, layer_params[kind].tensor)
        routed = ad.matmul(ad.constant(agg[kind]), msg)
        total = routed if total is None else total + routed
    return ad.relu(total)


def propagate(h0: Tensor, agg: dict[EdgeKind, np.ndarray], params: RgcnParams) -> list[Tensor]:
    """All layer states [h^0 .. h^N]."""
    states = [h0]
    for layer_params in params.layers:
        states.append(rgcn_layer(states[-1], agg, layer_params))
    return states


def node_final_rep(states: list[Tensor], w_u: Parameter) -> Tensor:
    """m_u = relu(W_u [h^0 ; ... ; h^N]) per node."""
    cat = ad.concat(states, axis=-1)
    if w_u.data.shape[1] != cat.shape[1]:
        raise ShapeError(
            f"node_final_rep: aggregation matrix {w_u.data.shape} vs states {cat.shape}")
    return ad.relu(ad.linear(cat, w_u.tensor))


def evidence_weights(entities: Tensor, heads: np.ndarray, tails: np.ndarray,
                     m_sentences: Tensor, w_k: Tensor) -> tuple[Tensor, Tensor]:
    """Logistic evidence score per sentence, then sum-normalization.

    w_k has shape (1, 3 * d_g) and scores [head; tail; m_sentence_k] for the P
    pairs (entities[heads[i]], entities[tails[i]]); its [head; tail] term is
    formed per entity (`pair_linear`). The normalizer carries a 1e-12 floor so
    all-zero scores cannot divide by zero. Scores and weights are (P, S).
    """
    d = m_sentences.shape[1]
    if w_k.shape != (1, 3 * d):
        raise ShapeError(f"evidence_weights: weight {w_k.shape}, expected {(1, 3 * d)}")
    base = ad.pair_linear(entities, heads, tails, None, w_k)
    sentence = ad.matmul(m_sentences, ad.narrow(ad.reshape(w_k, (3 * d,)), 2 * d, 3 * d))
    scores = ad.sigmoid(base + sentence)
    alpha = ad.div(scores, ad.reshape(ad.tsum(scores, axis=-1), base.shape) + EVIDENCE_EPS)
    return scores, alpha


class InterRoute(NamedTuple):
    vectors: Tensor     # (P, 3d) pair representations [head; tail; context]
    context: Tensor     # (P, d) evidence-weighted sentence average, the last third
    scores: np.ndarray  # (P, S) logistic evidence score per sentence
    weights: Tensor     # (P, S) scores normalized by their row sum; context = weights @ sentences

    @property
    def alpha(self) -> np.ndarray:
        """The evidence weights as an array."""
        return self.weights.data


def inter_pair_rep(entities: Tensor, heads: np.ndarray, tails: np.ndarray,
                   m_sentences: Tensor, w_k: Tensor) -> InterRoute:
    """[head; tail; evidence-weighted sentence average] of the pairs
    (entities[heads[i]], entities[tails[i]]), with the distribution kept."""
    scores, alpha = evidence_weights(entities, heads, tails, m_sentences, w_k)
    context = ad.matmul(alpha, m_sentences)
    vectors = ad.concat([ad.take_rows(entities, heads), ad.take_rows(entities, tails), context],
                        axis=-1)
    return InterRoute(vectors, context, scores.data, alpha)
