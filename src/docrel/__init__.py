"""Document-level relation extraction with separate intra- and inter-sentential
encoding, a mention-level graph with relational propagation, chain-attention
reasoning, and a self-contained numpy reverse-mode autodiff core."""

from .autodiff import Tape, Tensor, backward
from .config import TrainingConfig
from .corpus import (Document, Entity, EntityPair, Mention, PairKind, RelationFact,
                     Vocabulary, build_vocabulary, enumerate_entity_pairs,
                     featurize_document, load_docred, sample_training_pairs)
from .evaluation import EvaluationReport, compute_f1_suite, enumerate_two_hop
from .graph import EdgeKind, MentionGraph, NodeKind, build_mention_graph
from .model import RelationModel, prepare_document
from .optim import AdamW, Parameter
from .training import PredictionSet, calibrate_threshold, predict_documents, train_model

__version__ = "0.1.0"

__all__ = [
    "AdamW", "Document", "EdgeKind", "Entity", "EntityPair", "EvaluationReport",
    "Mention", "MentionGraph", "NodeKind", "PairKind", "Parameter", "PredictionSet",
    "RelationFact", "RelationModel", "Tape", "Tensor", "TrainingConfig", "Vocabulary",
    "backward", "build_mention_graph", "build_vocabulary", "calibrate_threshold",
    "compute_f1_suite", "enumerate_entity_pairs", "enumerate_two_hop",
    "featurize_document", "load_docred", "predict_documents", "prepare_document",
    "sample_training_pairs", "train_model",
]
