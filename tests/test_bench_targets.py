"""Every function the benchmark's tracer wraps still exists under its dotted name,
and one forward still calls the wrapped layers."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from docrel.config import TrainingConfig
from docrel.corpus import PairKind, build_vocabulary
from docrel.model import RelationModel, prepare_document
from gen import rule_corpus

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("target", [t for _, targets, _ in spans.LAYERS for t in targets])
def test_layer_target_resolves(target):
    assert spans._resolve(target) is not None, f"{target} is gone; its layer would read 0"


def test_tracer_sees_every_layer_of_one_forward():
    doc = rule_corpus(np.random.default_rng(3), 1)[0]
    vocab = build_vocabulary([doc])
    model = RelationModel(TrainingConfig(word_dim=6, type_dim=2, coref_dim=2, hidden_size=4,
                                         gcn_dim=8, gcn_layers=1, classifier_hidden=6,
                                         dropout=0.0), vocab)
    feats = prepare_document(doc, vocab)
    assert {p.kind for p in feats.pairs} == {PairKind.INTRA, PairKind.INTER}
    tracer = spans.Tracer()
    tracer.install()
    try:
        model.forward(feats)
    finally:
        tracer.uninstall()
    opened = {span[0] for span in tracer.spans}
    for layer in ("encoders.sent", "encoders.doc", "inter.propagate", "inter.node_final",
                  "intra.pair_rep", "inter.pair_rep", "reasoning.candidates",
                  "reasoning.update", "model.classifier"):
        assert layer in opened, f"{layer} opened no span; its benchmark layer would read 0"
