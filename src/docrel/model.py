"""Full model: embeddings, encoders, both pair routes, reasoning, classifier."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import inter as inter_mod
from . import intra as intra_mod
from .autodiff import Tensor
from .config import TrainingConfig, derive_rng
from .corpus import Document, Vocabulary, enumerate_entity_pairs, featurize_document
from .encoders import BiLstm, EmbeddingLayers, embed_tokens, encode_document, encode_sentence, glorot
from .errors import ContractError, ShapeError, ValidationError
from .graph import EdgeKind, MentionGraph, build_mention_graph
from .inter import InterRoute, RgcnParams, aggregation_matrices, node_final_rep, propagate
from .intra import IntraInstances, IntraRoute, intra_instances, span_means
from .optim import Parameter
from .reasoning import ChainGroups, EntityRows, chain_candidates, reasoning_update

BCE_EPS = 1e-12


@dataclass
class DocFeatures:
    """Everything about one document that does not depend on parameters."""

    doc: Document
    doc_feats: np.ndarray          # (T, 3) id triples, sentences concatenated
    sent_offsets: np.ndarray       # (S + 1,) first token of each sentence, then T
    graph: MentionGraph
    agg: dict[EdgeKind, np.ndarray]
    pairs: list                                 # (P,) head, tail and kind of each pair
    heads: np.ndarray                           # (P,) head entity id per pair
    tails: np.ndarray                           # (P,) tail entity id per pair
    pair_rows: np.ndarray                       # (E, E) row of pair (h, t), -1 on the diagonal
    instances: IntraInstances                   # co-occurrences; intra pairs have some
    mention_means: np.ndarray                   # (mention nodes, tokens) span averages
    entity_means: np.ndarray                    # (entities, nodes) mention-node averages
    gold: np.ndarray                            # (P, |R|) bool, pair holds relation


def prepare_document(doc: Document, vocab: Vocabulary,
                     allow_overlap: str = "reject") -> DocFeatures:
    sent_feats = featurize_document(doc, vocab, allow_overlap=allow_overlap)
    doc_feats = np.concatenate(sent_feats, axis=0) if sent_feats else np.zeros((0, 3), np.int64)
    offsets = doc.sentence_offsets()
    graph = build_mention_graph(doc)
    pairs = enumerate_entity_pairs(doc)
    heads, tails = np.array([(p.head, p.tail) for p in pairs], dtype=np.int64).reshape(-1, 2).T
    pair_rows = np.full((len(doc.entities),) * 2, -1, dtype=np.int64)
    pair_rows[heads, tails] = np.arange(len(pairs))
    spans, owners = [], []
    for node in graph.nodes[:len(graph.mention_nodes)]:
        eid, mi, sid = node.payload
        m = doc.entities[eid].mentions[mi]
        spans.append((offsets[sid] + m.start, offsets[sid] + m.end))
        owners.append(eid)
    entity_means = np.zeros((len(doc.entities), graph.n_nodes))  # zero on non-mention nodes
    entity_means[owners, np.arange(len(owners))] = 1.0
    entity_means /= np.maximum(entity_means.sum(axis=1, keepdims=True), 1.0)
    facts = np.array([(f.head, f.tail, f.relation) for f in doc.facts],
                     dtype=np.int64).reshape(-1, 3)
    if np.any((facts[:, 2] < 0) | (facts[:, 2] >= vocab.n_relations)):
        raise ValidationError(f"document {doc.title!r}: a fact's relation id is outside "
                              f"the {vocab.n_relations} relations of the vocabulary")
    gold = np.zeros((len(pairs), vocab.n_relations), dtype=bool)
    gold[pair_rows[facts[:, 0], facts[:, 1]], facts[:, 2]] = True
    return DocFeatures(
        doc=doc, doc_feats=doc_feats, sent_offsets=np.array(offsets + [len(doc_feats)]),
        graph=graph, agg=aggregation_matrices(graph), pairs=pairs,
        heads=heads, tails=tails, pair_rows=pair_rows, instances=intra_instances(doc, pair_rows),
        mention_means=span_means(spans, len(doc_feats)), entity_means=entity_means, gold=gold)


class DropoutState:
    """Inverted-dropout mask source; freeze to reuse masks across forwards."""

    def __init__(self, rate: float, rng: np.random.Generator | None, frozen: bool = False):
        self.rate = rate
        self.rng = rng
        self.frozen = frozen
        self._masks: dict[tuple, np.ndarray] = {}

    def apply(self, t: Tensor, key: tuple) -> Tensor:
        if self.rate == 0.0 or self.rng is None:
            return t
        if self.frozen and key in self._masks:
            mask = self._masks[key]
            if mask.shape != t.shape:
                raise ContractError(f"frozen dropout mask {key} has shape {mask.shape}, "
                                    f"tensor has {t.shape}")
        else:
            mask = ad.dropout_mask(self.rng, t.shape, self.rate)
            if self.frozen:
                self._masks[key] = mask
        return ad.dropout(t, mask)


_NO_DROPOUT = DropoutState(0.0, None)


@dataclass
class ClassifierParams:
    w2: Parameter  # (hidden, 3 * model width)
    b1: Parameter  # (hidden,)
    w1: Parameter  # (|R|, hidden)
    b2: Parameter  # (|R|,)

    def parameters(self) -> list[Parameter]:
        return [self.w2, self.b1, self.w1, self.b2]

    @classmethod
    def create(cls, rng: np.random.Generator, rep_width: int, hidden: int,
               n_relations: int) -> "ClassifierParams":
        return cls(
            w2=Parameter("cls.w2", glorot(rng, (hidden, rep_width))),
            b1=Parameter("cls.b1", np.zeros(hidden)),
            w1=Parameter("cls.w1", glorot(rng, (n_relations, hidden))),
            b2=Parameter("cls.b2", np.zeros(n_relations)),
        )


def relation_probabilities(rep, params: ClassifierParams,
                           dropout: DropoutState = _NO_DROPOUT,
                           dropout_key: tuple = ("cls",)) -> Tensor:
    """sigmoid(W1 relu(W2 r + b1) + b2), per relation independently."""
    rep = ad.as_tensor(rep) if not isinstance(rep, Tensor) else rep
    if rep.shape[-1] != params.w2.data.shape[1]:
        raise ShapeError(f"relation_probabilities: rep width {rep.shape[-1]}, "
                         f"classifier expects {params.w2.data.shape[1]}")
    hidden = ad.relu(ad.linear(rep, params.w2.tensor, params.b1.tensor))
    hidden = dropout.apply(hidden, dropout_key)
    return ad.sigmoid(ad.linear(hidden, params.w1.tensor, params.b2.tensor))


def bce_loss(probs: Tensor, targets: np.ndarray, reduction: str = "sum") -> Tensor:
    """Binary cross entropy against a {0,1} target array, summed by default."""
    if probs.shape != tuple(np.asarray(targets).shape):
        raise ShapeError(f"bce_loss: probs {probs.shape} vs targets {np.asarray(targets).shape}")
    y = np.asarray(targets, dtype=probs.data.dtype)
    p = ad.clip(probs, BCE_EPS, 1.0 - BCE_EPS)
    pos = ad.mul(ad.log(p), ad.constant(y))
    neg = ad.mul(ad.log(1.0 - p), ad.constant(1.0 - y))
    total = -1.0 * ad.tsum(pos + neg)
    if reduction == "mean":
        return total / float(max(1, y.size))
    if reduction != "sum":
        raise ContractError(f"bce_loss: unknown reduction {reduction!r}")
    return total


@dataclass
class DocForward:
    """Forward results for one document over a chosen pair subset."""

    rows: np.ndarray                     # (P,) rows of the pairs into feats.heads/tails
    reps_pre: Tensor                     # (P, 3d) pre-reasoning, in pair order
    intra: IntraRoute | None             # intra block, with the attention of every instance
    inter: InterRoute | None             # inter block, with the evidence of every pair
    block_row: np.ndarray                # (P,) row of each pair in [intra block; inter block]
    pool_input: Tensor                   # (P, 3d) matrix entering the last reasoning layer
    reps_post: Tensor                    # (P, 3d) matrix after reasoning (== pool when disabled)
    gamma: np.ndarray | None             # (P, 2L) cell weights of the last reasoning layer
    groups: ChainGroups | None           # head and tail groups behind the gamma cells
    probs: Tensor                        # (P, |R|)


class RelationModel:
    """Parameter container plus the end-to-end forward pass."""

    def __init__(self, config: TrainingConfig, vocab: Vocabulary):
        config.validate()
        self.config = config
        self.vocab = vocab
        rng = derive_rng(config.seed, "init")
        d_in = config.word_dim + config.type_dim + config.coref_dim
        self.embeddings = EmbeddingLayers.create(
            rng, vocab.n_words, vocab.n_types, vocab.n_coref,
            config.word_dim, config.type_dim, config.coref_dim)
        self.sent_encoder = BiLstm.create(rng, "enc.sent", d_in, config.hidden_size)
        self.doc_encoder = BiLstm.create(rng, "enc.doc", d_in, config.hidden_size)
        self.projection: Parameter | None = None
        if config.needs_projection:
            self.projection = Parameter(
                "proj", glorot(rng, (config.model_width, config.encoder_width)))
        dm = config.model_width
        self.w_intra = Parameter("intra.att", glorot(rng, (dm, 2 * dm)))
        self.rgcn = RgcnParams.create(rng, dm, config.gcn_layers)
        self.w_evidence = Parameter("inter.evidence", glorot(rng, (1, 3 * dm)))
        self.w_att = Parameter("reason.att", glorot(rng, (3 * dm, 3 * dm)))
        self.classifier = ClassifierParams.create(
            rng, 3 * dm, config.classifier_width, vocab.n_relations)

    def parameters(self) -> list[Parameter]:
        out = self.embeddings.parameters()
        out += self.sent_encoder.parameters()
        out += self.doc_encoder.parameters()
        if self.projection is not None:
            out.append(self.projection)
        out.append(self.w_intra)
        out += self.rgcn.parameters()
        out.append(self.w_evidence)
        out.append(self.w_att)
        out += self.classifier.parameters()
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {p.name: p.data.copy() for p in self.parameters()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        for p in self.parameters():
            if p.name not in arrays:
                raise ContractError(f"missing parameter {p.name!r} in state")
            src = np.asarray(arrays[p.name])
            if src.shape != p.data.shape:
                raise ShapeError(f"parameter {p.name!r}: state {src.shape} vs model {p.data.shape}")
            p.data[...] = src

    def _project(self, t: Tensor) -> Tensor:
        if self.projection is None:
            return t
        return ad.linear(t, self.projection.tensor)

    def initial_node_states(self, feats: DocFeatures, g_doc: Tensor,
                            sent_summaries: Tensor, d_doc: Tensor) -> Tensor:
        """Graph node start values: mention nodes from their document-level token
        means, sentence nodes from the (S, d) sentence summaries, the document node
        from the (1, d) document summary. Inputs are already projected to the model
        width."""
        mentions = ad.matmul(ad.constant(feats.mention_means), g_doc)
        return ad.concat([mentions, sent_summaries, d_doc], axis=0)

    def forward(self, feats: DocFeatures, rows: np.ndarray | None = None,
                dropout: DropoutState = _NO_DROPOUT) -> DocForward:
        """Scores the pairs at `rows` of feats.heads/feats.tails, every pair when None."""
        cfg = self.config
        n_pairs = len(feats.heads)
        rows = np.arange(n_pairs) if rows is None else np.asarray(rows, dtype=np.int64)
        if not rows.size:
            raise ContractError(f"document {feats.doc.title!r}: no entity pairs to score")
        if rows.min() < 0 or rows.max() >= n_pairs or np.unique(rows).size != rows.size:
            raise ContractError(f"document {feats.doc.title!r}: pair rows must be distinct "
                                f"and inside [0, {n_pairs})")

        # one embedding feeds both encoders; one sweep per direction reads every sentence
        x = embed_tokens(feats.doc_feats, self.embeddings)
        g, summaries = encode_sentence(x, self.sent_encoder, np.diff(feats.sent_offsets))
        sent_states = dropout.apply(self._project(g), ("sent",))
        sent_summaries = self._project(summaries)

        routed_intra = np.isin(rows, feats.instances.pair) & (not cfg.inter4intra)
        intra_pos, inter_pos = np.flatnonzero(routed_intra), np.flatnonzero(~routed_intra)
        intra = inter = entity_rows = None
        if intra_pos.size:
            intra = intra_mod.intra_pair_rep(
                feats.instances.select(rows[intra_pos]), sent_states, feats.mention_means,
                feats.sent_offsets, self.w_intra.tensor, cfg.topk, cfg.beta, cfg.intra_average)
        if inter_pos.size:
            g_doc, d_doc = encode_document(x, self.doc_encoder)
            g_doc = dropout.apply(self._project(g_doc), ("doc",))
            h0 = self.initial_node_states(feats, g_doc, sent_summaries, self._project(d_doc))
            states = propagate(h0, feats.agg, self.rgcn)
            node_m = node_final_rep(states, self.rgcn.w_u)
            entities = ad.matmul(ad.constant(feats.entity_means), node_m)
            sel = rows[inter_pos]
            inter = inter_mod.inter_pair_rep(
                entities, feats.heads[sel], feats.tails[sel],
                ad.take_rows(node_m, feats.graph.sentence_nodes), self.w_evidence.tensor)
            # the first reasoning layer forms these rows' queries per entity
            entity_rows = EntityRows(inter_pos, entities, feats.heads[sel], feats.tails[sel],
                                     None if cfg.no_context else inter.context)

        block_row = np.argsort(np.concatenate([intra_pos, inter_pos]))
        routed = [(route.vectors, pos) for route, pos in ((intra, intra_pos), (inter, inter_pos))
                  if route is not None]
        reps_pre = ad.place_rows([v for v, _ in routed], [pos for _, pos in routed])
        if cfg.no_context:
            dm = cfg.model_width
            reps_pre = reps_pre * ad.constant(np.repeat([1.0, 0.0], [2 * dm, dm]))
        pool = pool_input = reps_pre
        gamma = groups = None
        if not cfg.no_reasoning:
            groups = chain_candidates(feats.heads[rows], feats.tails[rows])
            for _ in range(cfg.reasoning_layers):
                pool_input = pool
                pool, gamma = reasoning_update(pool, groups, self.w_att.tensor, entity_rows)
                entity_rows = None  # later layers read mixtures of rows
        probs = relation_probabilities(pool, self.classifier, dropout, ("cls",))
        return DocForward(rows=rows, reps_pre=reps_pre, intra=intra, inter=inter,
                          block_row=block_row, pool_input=pool_input, reps_post=pool,
                          gamma=gamma, groups=groups, probs=probs)

    def document_loss(self, feats: DocFeatures, rows: np.ndarray | None = None,
                      dropout: DropoutState = _NO_DROPOUT) -> Tensor:
        out = self.forward(feats, rows, dropout)
        return bce_loss(out.probs, feats.gold[out.rows], reduction=self.config.loss_reduction)
