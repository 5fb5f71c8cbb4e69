"""Config defaults, file parsing, validation and seed derivation."""

import numpy as np
import pytest

from docrel.config import TrainingConfig, derive_rng, parse_config_file
from docrel.errors import ConfigError


def test_defaults_match_reported_hyperparameters():
    cfg = TrainingConfig()
    assert cfg.word_dim == 100
    assert cfg.type_dim == 20
    assert cfg.coref_dim == 20
    assert cfg.hidden_size == 512
    assert cfg.encoder_width == 1024
    assert cfg.gcn_dim == 1024
    assert cfg.gcn_layers == 3
    assert cfg.topk == 4
    assert cfg.beta == 0.9
    assert cfg.batch_size == 32
    assert cfg.learning_rate == 0.001
    assert cfg.weight_decay == 0.0001
    assert cfg.dropout == 0.5
    assert cfg.neg_ratio == 0.25
    assert not cfg.needs_projection  # 2*512 == 1024 at full scale


def test_word_dim_200_also_accepted():
    cfg = TrainingConfig(word_dim=200)
    cfg.validate()
    assert cfg.word_dim == 200


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nhidden_size = 8\n\ndropout = 0.3\nno_reasoning = true\n",
                    encoding="utf-8")
    cfg = TrainingConfig.from_file(path)
    assert cfg.hidden_size == 8
    assert cfg.dropout == 0.3
    assert cfg.no_reasoning is True


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        TrainingConfig.from_mapping({"warmup": "10"})


def test_unparseable_value_rejected():
    with pytest.raises(ConfigError):
        TrainingConfig.from_mapping({"hidden_size": "big"})
    with pytest.raises(ConfigError):
        TrainingConfig.from_mapping({"no_context": "maybe"})


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config_file(path)


@pytest.mark.parametrize("field,value", [
    ("dropout", 1.0), ("dropout", -0.1), ("neg_ratio", 0.0), ("neg_ratio", 1.5),
    ("learning_rate", 0.0), ("beta", 1.5), ("gcn_layers", 0), ("topk", 0),
    ("loss_reduction", "median"), ("epochs", -1),
    ("allow_overlap", "maybe"), ("weight_decay", -1.0),
])
def test_validation_rejects_out_of_range(field, value):
    with pytest.raises(ConfigError):
        TrainingConfig(**{field: value}).validate()


def test_canonical_text_is_stable_and_parseable():
    cfg = TrainingConfig(hidden_size=8, dropout=0.25)
    text = cfg.to_text()
    assert text == TrainingConfig(hidden_size=8, dropout=0.25).to_text()
    mapping = dict(line.split(" = ", 1) for line in text.strip().splitlines())
    again = TrainingConfig.from_mapping(mapping)
    assert again == cfg


def test_derive_rng_is_deterministic_and_tag_sensitive():
    a = derive_rng(7, "negatives", 3).random(4)
    b = derive_rng(7, "negatives", 3).random(4)
    c = derive_rng(7, "negatives", 4).random(4)
    d = derive_rng(8, "negatives", 3).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
