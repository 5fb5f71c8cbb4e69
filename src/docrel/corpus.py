"""DocRED-format corpus loading, vocabularies, featurization and pair routing."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, ParseError, ValidationError

NONE_LABEL = "<none>"
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


@dataclass(frozen=True)
class Mention:
    sentence_id: int
    start: int
    end: int  # half-open [start, end)
    surface: str

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass
class Entity:
    id: int
    type: str
    mentions: list[Mention]


@dataclass
class RelationFact:
    head: int
    tail: int
    relation: int
    label: str
    evidence: list[int] = field(default_factory=list)


@dataclass
class Document:
    title: str
    sentences: list[list[str]]
    entities: list[Entity]
    facts: list[RelationFact]

    @property
    def n_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)

    def sentence_offsets(self) -> list[int]:
        """Document-level offset of each sentence's first token."""
        offsets, total = [], 0
        for s in self.sentences:
            offsets.append(total)
            total += len(s)
        return offsets


class PairKind(Enum):
    INTRA = "intra"
    INTER = "inter"


@dataclass
class EntityPair:
    head: int
    tail: int
    kind: PairKind


@dataclass
class Vocabulary:
    word2id: dict[str, int]
    type2id: dict[str, int]
    rel2id: dict[str, int]
    n_coref: int  # rows of the coreference table, row 0 = no entity
    pad_id: int = 0
    unk_id: int = 1

    @property
    def n_words(self) -> int:
        return len(self.word2id)

    @property
    def n_types(self) -> int:
        return len(self.type2id)

    @property
    def n_relations(self) -> int:
        return len(self.rel2id)

    def word_id(self, token: str) -> int:
        return self.word2id.get(token, self.unk_id)

    def type_id(self, label: str) -> int:
        return self.type2id.get(label, self.type2id[NONE_LABEL])

    def relation_label(self, rel_id: int) -> str:
        for label, rid in self.rel2id.items():
            if rid == rel_id:
                return label
        raise ValidationError(f"unknown relation id {rel_id}")

    def to_json(self) -> dict:
        return {
            "word2id": self.word2id,
            "type2id": self.type2id,
            "rel2id": self.rel2id,
            "n_coref": self.n_coref,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "Vocabulary":
        return cls(
            word2id=dict(blob["word2id"]),
            type2id=dict(blob["type2id"]),
            rel2id=dict(blob["rel2id"]),
            n_coref=int(blob["n_coref"]),
        )


def validate_document(doc: Document) -> None:
    n_sents = len(doc.sentences)
    for ent in doc.entities:
        if not ent.mentions:
            raise ValidationError(f"document {doc.title!r}: entity {ent.id} has no mentions")
        for m in ent.mentions:
            if not (0 <= m.sentence_id < n_sents):
                raise ValidationError(
                    f"document {doc.title!r}: mention sentence {m.sentence_id} out of range")
            if not (0 <= m.start < m.end <= len(doc.sentences[m.sentence_id])):
                raise ValidationError(
                    f"document {doc.title!r}: span [{m.start}, {m.end}) outside sentence "
                    f"{m.sentence_id} of length {len(doc.sentences[m.sentence_id])}")
    ids = [e.id for e in doc.entities]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"document {doc.title!r}: duplicate entity ids")
    n_entities = len(doc.entities)
    for f in doc.facts:
        if f.head == f.tail:
            raise ValidationError(f"document {doc.title!r}: self-relation on entity {f.head}")
        if not (0 <= f.head < n_entities and 0 <= f.tail < n_entities):
            raise ValidationError(f"document {doc.title!r}: fact references unknown entity")
        for sid in f.evidence:
            if not (0 <= sid < n_sents):
                raise ValidationError(f"document {doc.title!r}: evidence sentence {sid} out of range")


def _record_to_document(record: dict, index: int, rel_ids: dict[str, int]) -> Document:
    try:
        title = str(record["title"])
        sents = [[str(tok) for tok in sent] for sent in record["sents"]]
        entities = []
        for eid, mention_list in enumerate(record["vertexSet"]):
            mentions = [
                Mention(
                    sentence_id=int(m["sent_id"]),
                    start=int(m["pos"][0]),
                    end=int(m["pos"][1]),
                    surface=str(m.get("name", "")),
                )
                for m in mention_list
            ]
            etype = str(mention_list[0].get("type", NONE_LABEL)) if mention_list else NONE_LABEL
            entities.append(Entity(id=eid, type=etype, mentions=mentions))
        facts = []
        for lab in _labels_of(record, index):
            label = str(lab["r"])
            facts.append(RelationFact(
                head=int(lab["h"]),
                tail=int(lab["t"]),
                relation=rel_ids[label],
                label=label,
                evidence=[int(s) for s in lab.get("evidence", [])],
            ))
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as e:
        raise ParseError(f"document {index}: malformed record ({e!r})") from e
    doc = Document(title=title, sentences=sents, entities=entities, facts=facts)
    validate_document(doc)
    return doc


def _labels_of(record: dict, index: int) -> list[dict]:
    labels = record.get("labels", [])
    if not isinstance(labels, list) or not all(isinstance(lab, dict) for lab in labels):
        raise ParseError(f"document {index}: labels must be a list of objects")
    return labels


def load_docred(path, vocab: Vocabulary | None = None) -> list[Document]:
    """Load a DocRED-format JSON file.

    Relation ids come from `vocab` when given (unknown labels are rejected);
    otherwise labels present in the file are numbered in sorted order.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParseError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(data, list):
        raise ParseError(f"{path}: expected a JSON array of documents")
    for i, record in enumerate(data):
        if not isinstance(record, dict):
            raise ParseError(f"document {i}: expected an object")
    # labels missing "r" are reported by the record parser
    found = [(i, lab["r"]) for i, record in enumerate(data)
             for lab in _labels_of(record, i) if "r" in lab]

    if vocab is not None:
        rel_ids = vocab.rel2id
        for i, r in found:
            if str(r) not in rel_ids:
                raise ValidationError(
                    f"document {data[i].get('title', i)!r}: relation {r!r} not in vocabulary")
    else:
        rel_ids = {label: i for i, label in enumerate(sorted({str(r) for _, r in found}))}

    docs = []
    titles = set()
    for i, record in enumerate(data):
        doc = _record_to_document(record, i, rel_ids)
        # evaluation keys gold facts and predictions by title
        if doc.title in titles:
            raise ValidationError(f"document {i}: duplicate title {doc.title!r}")
        titles.add(doc.title)
        docs.append(doc)
    return docs


def build_vocabulary(docs: list[Document], min_freq: int = 1) -> Vocabulary:
    """Build word/type/relation maps; words below min_freq map to the unknown id."""
    if not docs:
        raise ContractError("build_vocabulary: empty document list")
    counts: Counter[str] = Counter()
    for doc in docs:
        for sent in doc.sentences:
            counts.update(sent)
    kept = sorted((tok for tok, c in counts.items() if c >= min_freq),
                  key=lambda tok: (-counts[tok], tok))
    word2id = {PAD_TOKEN: 0, UNK_TOKEN: 1}
    for tok in kept:
        word2id[tok] = len(word2id)

    type_labels = sorted({e.type for doc in docs for e in doc.entities})
    type2id = {NONE_LABEL: 0}
    for label in type_labels:
        if label not in type2id:
            type2id[label] = len(type2id)

    rel_labels = sorted({f.label for doc in docs for f in doc.facts})
    rel2id = {label: i for i, label in enumerate(rel_labels)}

    max_entities = max(len(doc.entities) for doc in docs)
    return Vocabulary(word2id=word2id, type2id=type2id, rel2id=rel2id, n_coref=max_entities + 1)


def featurize_document(doc: Document, vocab: Vocabulary,
                       allow_overlap: str = "reject") -> list[np.ndarray]:
    """Per-sentence (n_i, 3) arrays of (word id, entity type id, coreference id).

    Tokens inside a mention carry the owning entity's type id and entity id + 1
    as coreference id (row 0 of both tables is reserved for "no entity").
    Entity ids past the coreference table are clamped to its last row.
    """
    if allow_overlap not in ("reject", "first-wins"):
        raise ConfigError(f"allow_overlap must be 'reject' or 'first-wins': {allow_overlap!r}")
    owner: list[np.ndarray] = [np.full(len(s), -1, dtype=np.int64) for s in doc.sentences]
    claims = []
    for ent in doc.entities:
        for m in ent.mentions:
            claims.append((m.sentence_id, m.start, ent.id, m))
    claims.sort(key=lambda c: (c[0], c[1], c[2]))
    for sid, start, eid, m in claims:
        taken = owner[sid][m.start:m.end]
        clash = taken[(taken >= 0) & (taken != eid)]
        if clash.size and allow_overlap == "reject":
            raise ValidationError(
                f"document {doc.title!r}: overlapping mentions of entities "
                f"{int(clash[0])} and {eid} in sentence {sid}")
        free = taken < 0
        taken[free] = eid

    coref_cap = vocab.n_coref - 1
    out = []
    for sid, sent in enumerate(doc.sentences):
        feats = np.zeros((len(sent), 3), dtype=np.int64)
        for t, tok in enumerate(sent):
            feats[t, 0] = vocab.word_id(tok)
            eid = int(owner[sid][t])
            if eid >= 0:
                feats[t, 1] = vocab.type_id(doc.entities[eid].type)
                feats[t, 2] = min(eid + 1, coref_cap) if coref_cap >= 1 else 0
        out.append(feats)
    return out


def enumerate_entity_pairs(doc: Document) -> list[EntityPair]:
    """All ordered pairs (h, t), h != t, routed intra iff mentions share a sentence."""
    sent_sets = {e.id: {m.sentence_id for m in e.mentions} for e in doc.entities}
    ids = sorted(sent_sets)
    return [EntityPair(h, t, PairKind.INTRA if sent_sets[h] & sent_sets[t] else PairKind.INTER)
            for h in ids for t in ids if h != t]


def sample_training_pairs(positive: np.ndarray, ratio: float,
                          rng: np.random.Generator) -> np.ndarray:
    """Ascending rows to train on: every row with a gold fact (`positive`) plus
    about positives/ratio of the others, drawn without replacement."""
    if ratio <= 0 or ratio > 1:
        raise ConfigError(f"positive/negative ratio must be in (0, 1]: {ratio}")
    keep = np.array(positive, dtype=bool)
    negatives = np.flatnonzero(~keep)
    want = min(negatives.size, int(round(int(keep.sum()) / ratio)))
    if want:
        keep[negatives[rng.choice(negatives.size, size=want, replace=False)]] = True
    return np.flatnonzero(keep)
