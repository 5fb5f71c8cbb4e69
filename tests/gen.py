"""Synthetic document generators shared by the test suite."""

from __future__ import annotations

import numpy as np

from docrel.corpus import Document, Entity, Mention, RelationFact

WORDS = [f"w{i}" for i in range(30)]
TYPES = ["PER", "CITY", "COUNTRY", "ORG"]

# relation label by (head type, tail type); the rule corpus is fully type-determined
RULES = {
    ("PER", "CITY"): "lives_in",
    ("CITY", "COUNTRY"): "part_of",
    ("PER", "COUNTRY"): "citizen_of",
    ("ORG", "CITY"): "based_in",
}


def random_document(rng: np.random.Generator, title: str | None = None,
                    max_sentences: int = 5, max_entities: int = 6,
                    max_mentions: int = 10, n_relations: int = 4,
                    min_sentences: int = 1, sentence_len: tuple[int, int] = (3, 7),
                    fact_prob: float = 0.3) -> Document:
    """Structurally valid random document: non-overlapping mentions, random facts."""
    n_sents = int(rng.integers(min_sentences, max_sentences + 1))
    sentences = [
        [WORDS[rng.integers(len(WORDS))] for _ in range(rng.integers(*sentence_len))]
        for _ in range(n_sents)
    ]
    n_entities = int(rng.integers(1, max_entities + 1))
    # carve non-overlapping single-token slots per sentence, then deal them out
    slots = [(sid, t) for sid, sent in enumerate(sentences) for t in range(len(sent))]
    rng.shuffle(slots)
    n_mentions = int(min(max_mentions, len(slots), n_entities + rng.integers(0, max_mentions)))
    n_mentions = max(n_mentions, n_entities)
    if n_mentions > len(slots):
        n_mentions = len(slots)
        n_entities = min(n_entities, n_mentions)
    owner = list(range(n_entities)) + [int(rng.integers(n_entities))
                                       for _ in range(n_mentions - n_entities)]
    entities = [Entity(e, TYPES[rng.integers(len(TYPES))], []) for e in range(n_entities)]
    for eid, (sid, t) in zip(owner, slots[:n_mentions]):
        entities[eid].mentions.append(Mention(sid, t, t + 1, sentences[sid][t]))
    facts = []
    seen = set()
    for h in range(n_entities):
        for t in range(n_entities):
            if h == t or rng.random() > fact_prob:
                continue
            r = int(rng.integers(n_relations))
            if (h, t, r) not in seen:
                seen.add((h, t, r))
                facts.append(RelationFact(h, t, r, f"r{r}", evidence=[]))
    return Document(title=title or f"doc-{rng.integers(1 << 30)}",
                    sentences=sentences, entities=entities, facts=facts)


def rule_document(rng: np.random.Generator, title: str) -> Document:
    """Document whose facts follow the type-pair rules, mixing intra and inter pairs.

    Layout: sentence 0 holds a PER and a CITY (intra lives_in), sentence 1 the
    COUNTRY plus a second CITY mention, later sentences hold an ORG and extra
    mentions. PER never co-occurs with COUNTRY, so citizen_of is inter.
    """
    def filler(n):
        return [WORDS[rng.integers(len(WORDS))] for _ in range(n)]

    names = {
        "PER": f"per{rng.integers(8)}",
        "CITY": f"city{rng.integers(8)}",
        "COUNTRY": f"country{rng.integers(8)}",
        "ORG": f"org{rng.integers(8)}",
    }
    s0 = [names["PER"], "lives", "in", names["CITY"]] + filler(1)
    s1 = [names["CITY"], "lies", "in", names["COUNTRY"]] + filler(1)
    s2 = [names["ORG"], "sits", "in", names["CITY"]] + filler(1)
    sentences = [s0, s1, s2]
    entities = [
        Entity(0, "PER", [Mention(0, 0, 1, names["PER"])]),
        Entity(1, "CITY", [Mention(0, 3, 4, names["CITY"]), Mention(1, 0, 1, names["CITY"]),
                           Mention(2, 3, 4, names["CITY"])]),
        Entity(2, "COUNTRY", [Mention(1, 3, 4, names["COUNTRY"])]),
        Entity(3, "ORG", [Mention(2, 0, 1, names["ORG"])]),
    ]
    facts = []
    for ent_h in entities:
        for ent_t in entities:
            label = RULES.get((ent_h.type, ent_t.type))
            if label is not None and ent_h.id != ent_t.id:
                facts.append(RelationFact(ent_h.id, ent_t.id, 0, label, evidence=[]))
    return Document(title=title, sentences=sentences, entities=entities, facts=facts)


def rule_corpus(rng: np.random.Generator, n_docs: int = 20) -> list[Document]:
    """Rule-based corpus with remapped relation ids consistent across documents."""
    docs = [rule_document(rng, f"rule-{i}") for i in range(n_docs)]
    labels = sorted({f.label for d in docs for f in d.facts})
    rel_ids = {label: i for i, label in enumerate(labels)}
    for d in docs:
        for f in d.facts:
            f.relation = rel_ids[f.label]
    return docs


def gold_instance_set(docs: list[Document]) -> set[tuple[str, int, int, int]]:
    """Every gold fact as a (title, head, tail, relation) key."""
    return {(d.title, f.head, f.tail, f.relation) for d in docs for f in d.facts}


def docred_json(docs: list[Document]) -> list[dict]:
    """Render documents back into the DocRED file schema."""
    out = []
    for doc in docs:
        vertex_set = []
        for e in doc.entities:
            vertex_set.append([
                {"name": m.surface, "sent_id": m.sentence_id,
                 "pos": [m.start, m.end], "type": e.type}
                for m in e.mentions
            ])
        labels = [
            {"h": f.head, "t": f.tail, "r": f.label, "evidence": list(f.evidence)}
            for f in doc.facts
        ]
        out.append({"title": doc.title, "sents": doc.sentences,
                    "vertexSet": vertex_set, "labels": labels})
    return out
