"""Seeded DocRED-shaped corpus generator.

The targets are the published DocRED census (Yao et al. 2019, arXiv
1906.06127): 96 relations, 6 entity types, ~8 sentences and ~200 tokens, ~19.5
entities, ~26 mentions and ~12.5 facts per document, 40.7% of facts on entity
pairs that never share a sentence. `LONG` doubles every per-document count.

Per-document sizes follow a fixed pattern by document index, not by seed, so
the work a document costs hardly varies with the seed; the seed moves words,
mention placement, names, facts and labels. Documents are written as DocRED
JSON so the benchmark reads them back through `load_docred`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from docrel import PairKind, enumerate_entity_pairs

RELATIONS = [f"P{100 + 7 * i}" for i in range(96)]
TYPES = ["PER", "ORG", "LOC", "TIME", "NUM", "MISC"]
N_FILLER_WORDS = 4000
NAMES_PER_TYPE = 150
INTER_SHARE = 0.407
MENTION_LENGTHS = (1, 2, 3)
MENTION_LENGTH_P = (0.5, 0.3, 0.2)


@dataclass(frozen=True)
class Shape:
    sentences: int
    tokens: int
    entities: tuple[int, ...]   # per-document entity counts, cycled by document index
    mentions_per_entity: float
    facts: tuple[int, ...]      # per-document fact counts, cycled by document index


DOCRED = Shape(sentences=8, tokens=200, entities=(19, 20), mentions_per_entity=1.34,
               facts=(12, 13))
LONG = Shape(sentences=16, tokens=400, entities=(40,), mentions_per_entity=1.34, facts=(25,))

# what a realised corpus must show: (census key, target, allowed relative deviation)
CENSUS_TARGETS = {
    "docred": {"sentences": (8.0, 0.01), "tokens": (200.0, 0.01), "entities": (19.5, 0.03),
               "mentions": (26.1, 0.05), "facts": (12.5, 0.05), "inter_share": (0.407, 0.08)},
    "long": {"sentences": (16.0, 0.01), "tokens": (400.0, 0.01), "entities": (40.0, 0.01),
             "mentions": (53.6, 0.05), "facts": (25.0, 0.01), "inter_share": (0.407, 0.08)},
}


def _zipf_p(n: int) -> np.ndarray:
    p = 1.0 / (np.arange(n) + 10.0)
    return p / p.sum()


_FILLER_P = _zipf_p(N_FILLER_WORDS)


def _sentence_lengths(rng: np.random.Generator, shape: Shape) -> list[int]:
    base = shape.tokens // shape.sentences
    lengths = base + rng.integers(-8, 9, size=shape.sentences)
    lengths = np.maximum(lengths, 15)
    while lengths.sum() != shape.tokens:
        i = int(rng.integers(shape.sentences))
        step = 1 if lengths.sum() < shape.tokens else -1
        if lengths[i] + step >= 15:
            lengths[i] += step
    return [int(n) for n in lengths]


def _document(rng: np.random.Generator, shape: Shape, index: int, title: str,
              labels) -> dict:
    n_ent = shape.entities[index % len(shape.entities)]
    n_facts = shape.facts[index % len(shape.facts)]
    lengths = _sentence_lengths(rng, shape)
    sents = [[f"w{i}" for i in rng.choice(N_FILLER_WORDS, size=n, p=_FILLER_P)]
             for n in lengths]

    types = [TYPES[i] for i in rng.integers(len(TYPES), size=n_ent)]
    types[:len(TYPES)] = TYPES[:min(len(TYPES), n_ent)]  # every type in every document
    full_names = []
    for etype in types:
        n_tok = int(rng.choice(MENTION_LENGTHS, p=MENTION_LENGTH_P))
        name = int(rng.integers(NAMES_PER_TYPE))
        full_names.append([f"{etype.lower()}{name}"] + [f"{etype.lower()}{name}_{k}"
                                                        for k in range(1, n_tok)])

    # one mention per entity plus extras on distinct entities; an entity's
    # mentions sit in distinct sentences, and a sentence keeps room for filler
    n_extra = round(shape.mentions_per_entity * n_ent) - n_ent
    owners = list(range(n_ent)) + [int(e) for e in rng.choice(n_ent, size=n_extra, replace=False)]
    used_tokens = [0] * shape.sentences
    placed: list[list[tuple[int, int]]] = [[] for _ in range(shape.sentences)]  # (entity, length)
    ent_sents: list[set[int]] = [set() for _ in range(n_ent)]
    for eid in owners:
        first = not ent_sents[eid]
        length = len(full_names[eid]) if first else int(rng.integers(1, len(full_names[eid]) + 1))
        for sid in rng.permutation(shape.sentences):
            sid = int(sid)
            if sid not in ent_sents[eid] and used_tokens[sid] + length <= lengths[sid] // 2:
                break
        else:
            raise RuntimeError(f"{title}: no room for a mention of entity {eid}")
        ent_sents[eid].add(sid)
        used_tokens[sid] += length
        placed[sid].append((eid, length))

    vertex_set: list[list[dict]] = [[] for _ in range(n_ent)]
    for sid, members in enumerate(placed):
        order = rng.permutation(len(members))
        free = lengths[sid] - sum(length for _, length in members)
        gaps = np.sort(rng.integers(0, free + 1, size=len(members)))
        offset = 0
        for gap, mi in zip(gaps, order):
            eid, length = members[mi]
            start = int(gap) + offset
            tokens = full_names[eid][-length:]
            sents[sid][start:start + length] = tokens
            vertex_set[eid].append({"name": " ".join(tokens), "sent_id": sid,
                                    "pos": [start, start + length], "type": types[eid]})
            offset += length
    for mentions in vertex_set:
        mentions.sort(key=lambda m: (m["sent_id"], m["pos"][0]))

    intra_pairs, inter_pairs = [], []
    for h in range(n_ent):
        for t in range(n_ent):
            if h != t:
                (intra_pairs if ent_sents[h] & ent_sents[t] else inter_pairs).append((h, t))
    n_inter = labels.inter_quota(n_facts)
    if len(intra_pairs) < n_facts - n_inter:
        raise RuntimeError(f"{title}: {len(intra_pairs)} co-occurring pairs for "
                           f"{n_facts - n_inter} intra facts")
    chosen = [intra_pairs[i] for i in rng.choice(len(intra_pairs), n_facts - n_inter, replace=False)]
    chosen += [inter_pairs[i] for i in rng.choice(len(inter_pairs), n_inter, replace=False)]
    facts = []
    for h, t in chosen:
        shared = sorted(ent_sents[h] & ent_sents[t])
        evidence = shared[:1] if shared else sorted({min(ent_sents[h]), min(ent_sents[t])})
        facts.append({"h": h, "t": t, "r": labels.next(), "evidence": evidence})
    return {"title": title, "sents": sents, "vertexSet": vertex_set, "labels": facts}


class _Labels:
    """Deals relation labels in shuffled rounds over all 96, and inter-fact
    quotas that keep the running inter share at INTER_SHARE."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.deck: list[str] = []
        self.facts = 0
        self.inter = 0

    def next(self) -> str:
        if not self.deck:
            self.deck = [RELATIONS[i] for i in self.rng.permutation(len(RELATIONS))]
        return self.deck.pop()

    def inter_quota(self, n_facts: int) -> int:
        self.facts += n_facts
        quota = round(INTER_SHARE * self.facts) - self.inter
        self.inter += quota
        return quota


def generate(seed: int, split: str, n_docs: int, shape: Shape) -> list[dict]:
    """`n_docs` DocRED records; the same (seed, split) gives the same records."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, sum(map(ord, split)), n_docs])
    labels = _Labels(rng)
    return [_document(rng, shape, i, f"{split}-{seed}-{i}", labels) for i in range(n_docs)]


def gold_counts(records: list[dict]) -> dict:
    """Facts overall, on pairs sharing a sentence (intra) and on pairs that never do
    (inter), from the generated records alone."""
    counts = {"overall": 0, "intra": 0, "inter": 0}
    for rec in records:
        sents = [{m["sent_id"] for m in mentions} for mentions in rec["vertexSet"]]
        for fact in rec["labels"]:
            counts["overall"] += 1
            counts["intra" if sents[fact["h"]] & sents[fact["t"]] else "inter"] += 1
    return counts


def write(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)


def census(docs) -> dict:
    """Realised per-document means of loaded `docrel.corpus.Document`s."""
    n = len(docs)
    facts = inter = multi = mentions = 0
    for d in docs:
        kinds = {(p.head, p.tail): p.kind for p in enumerate_entity_pairs(d)}
        facts += len(d.facts)
        inter += sum(kinds[(f.head, f.tail)] is PairKind.INTER for f in d.facts)
        for e in d.entities:
            mentions += len(e.mentions)
            multi += sum(m.end - m.start > 1 for m in e.mentions)
    return {
        "documents": n,
        "sentences": sum(len(d.sentences) for d in docs) / n,
        "tokens": sum(d.n_tokens for d in docs) / n,
        "entities": sum(len(d.entities) for d in docs) / n,
        "mentions": mentions / n,
        "facts": facts / n,
        "inter_share": inter / facts if facts else 0.0,
        "multi_token_mention_share": multi / mentions if mentions else 0.0,
        "entity_types": len({e.type for d in docs for e in d.entities}),
        "relation_labels": len({f.label for d in docs for f in d.facts}),
    }


def census_problems(realised: dict, kind: str, need_all_labels: bool) -> list[str]:
    """Deviations of a realised census from its targets; empty when it matches."""
    problems = []
    for key, (target, tol) in CENSUS_TARGETS[kind].items():
        if abs(realised[key] - target) > tol * target:
            problems.append(f"{key}={realised[key]:.4g}, target {target} +-{tol:.0%}")
    if realised["entity_types"] != len(TYPES):
        problems.append(f"entity_types={realised['entity_types']}, target {len(TYPES)}")
    if realised["multi_token_mention_share"] <= 0.0:
        problems.append("no multi-token mentions")
    if need_all_labels and realised["relation_labels"] != len(RELATIONS):
        problems.append(f"relation_labels={realised['relation_labels']}, target {len(RELATIONS)}")
    return problems
