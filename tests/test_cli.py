"""End-to-end command-line flows in a temp directory, including exit codes."""

import copy
import json
import struct

import numpy as np
import pytest

from docrel.cli import (EXIT_BAD_CONFIG, EXIT_BAD_DATA, EXIT_CHECKPOINT_MISMATCH,
                        EXIT_MISSING_FILE, EXIT_NOT_FOUND, EXIT_OK, main)
from gen import docred_json, rule_corpus

CONFIG = """
# toy run
word_dim = 6
type_dim = 2
coref_dim = 2
hidden_size = 4
gcn_dim = 8
gcn_layers = 1
classifier_hidden = 6
topk = 2
dropout = 0.1
batch_size = 2
learning_rate = 0.01
epochs = 2
eval_every = 1
seed = 17
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(13)
    docs = rule_corpus(rng, 6)
    (root / "train.json").write_text(json.dumps(docred_json(docs[:4])), encoding="utf-8")
    (root / "dev.json").write_text(json.dumps(docred_json(docs[4:])), encoding="utf-8")
    (root / "config.txt").write_text(CONFIG, encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def trained(workspace):
    out = workspace / "run1"
    code = main(["train", "--data", str(workspace / "train.json"),
                 "--dev", str(workspace / "dev.json"),
                 "--config", str(workspace / "config.txt"), "--out", str(out)])
    assert code == EXIT_OK
    return out


def test_train_writes_artifacts(trained):
    assert (trained / "model.ckpt").exists()
    assert (trained / "config.txt").exists()
    history = [json.loads(line) for line in
               (trained / "history.jsonl").read_text().splitlines()]
    assert len(history) == 2
    assert all("loss" in row for row in history)


def test_train_is_reproducible(workspace, trained):
    out2 = workspace / "run2"
    code = main(["train", "--data", str(workspace / "train.json"),
                 "--dev", str(workspace / "dev.json"),
                 "--config", str(workspace / "config.txt"), "--out", str(out2)])
    assert code == EXIT_OK
    assert (out2 / "model.ckpt").read_bytes() == (trained / "model.ckpt").read_bytes()
    assert (out2 / "history.jsonl").read_bytes() == (trained / "history.jsonl").read_bytes()


def test_eval_from_checkpoint(workspace, trained, capsys):
    out = workspace / "eval1"
    code = main(["eval", "--data", str(workspace / "dev.json"),
                 "--checkpoint", str(trained / "model.ckpt"),
                 "--train", str(workspace / "train.json"), "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert set(report) >= {"overall", "ign", "intra", "inter", "infer"}
    assert "overall" in capsys.readouterr().out


def test_predict_then_eval_pred_file(workspace, trained):
    pred_dir = workspace / "pred"
    code = main(["predict", "--data", str(workspace / "dev.json"),
                 "--checkpoint", str(trained / "model.ckpt"), "--out", str(pred_dir)])
    assert code == EXIT_OK
    rows = json.loads((pred_dir / "predictions.json").read_text())
    for row in rows:
        assert set(row) == {"title", "h_idx", "t_idx", "r", "score"}
    out = workspace / "eval2"
    code = main(["eval", "--data", str(workspace / "dev.json"),
                 "--pred", str(pred_dir / "predictions.json"),
                 "--train", str(workspace / "train.json"), "--out", str(out)])
    assert code == EXIT_OK


def test_eval_empty_prediction_file(workspace, capsys):
    empty = workspace / "empty_pred.json"
    empty.write_text("[]", encoding="utf-8")
    out = workspace / "eval3"
    code = main(["eval", "--data", str(workspace / "dev.json"),
                 "--pred", str(empty), "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["overall"]["f1"] == 0.0
    assert report["overall"]["tp"] == 0


def test_explain_outputs_record(workspace, trained, capsys):
    docs = json.loads((workspace / "dev.json").read_text())
    title = docs[0]["title"]
    code = main(["explain", "--data", str(workspace / "dev.json"),
                 "--checkpoint", str(trained / "model.ckpt"),
                 "--doc", title, "--pair", "0,1"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "pair: head=0 tail=1" in text


def test_graph_stats_census(workspace, capsys):
    code = main(["graph-stats", "--data", str(workspace / "train.json")])
    assert code == EXIT_OK
    stats = json.loads(capsys.readouterr().out)
    assert stats["documents"] == 4
    assert stats["relations"] == 4
    assert stats["intra_facts"] + stats["inter_facts"] == stats["facts"]
    assert 0.0 < stats["inter_fact_share"] < 1.0
    assert stats["two_hop_instances"] > 0
    assert set(stats["edges"]) == {"intra-entity", "inter-entity",
                                   "sentence-mention", "sentence-document"}


def test_missing_file_exit_code(workspace, capsys):
    code = main(["graph-stats", "--data", str(workspace / "nope.json")])
    assert code == EXIT_MISSING_FILE
    assert "code=missing-file" in capsys.readouterr().err


def test_bad_config_key_exit_code(workspace, capsys):
    bad = workspace / "bad.txt"
    bad.write_text("no_such_knob = 3\n", encoding="utf-8")
    code = main(["train", "--data", str(workspace / "train.json"),
                 "--config", str(bad), "--out", str(workspace / "x")])
    assert code == EXIT_BAD_CONFIG
    assert "code=bad-config" in capsys.readouterr().err


def test_checkpoint_config_mismatch_exit_code(workspace, trained, capsys):
    other = workspace / "other.txt"
    other.write_text(CONFIG.replace("seed = 17", "seed = 18"), encoding="utf-8")
    code = main(["eval", "--data", str(workspace / "dev.json"),
                 "--checkpoint", str(trained / "model.ckpt"),
                 "--config", str(other), "--out", str(workspace / "y")])
    assert code == EXIT_CHECKPOINT_MISMATCH
    assert "code=checkpoint-mismatch" in capsys.readouterr().err


def test_malformed_data_exit_code(workspace, capsys):
    bad = workspace / "bad.json"
    bad.write_text("[{", encoding="utf-8")
    code = main(["graph-stats", "--data", str(bad)])
    assert code == EXIT_BAD_DATA


def test_explain_unknown_document(workspace, trained, capsys):
    code = main(["explain", "--data", str(workspace / "dev.json"),
                 "--checkpoint", str(trained / "model.ckpt"),
                 "--doc", "missing-title", "--pair", "0,1"])
    assert code == EXIT_NOT_FOUND


def test_unknown_flag_rejected(workspace):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(workspace / "train.json"),
              "--out", str(workspace / "z"), "--bogus"])
    assert exc.value.code == 2


def test_epochs_zero_checkpoint_matches_eval_of_init(workspace):
    # train --epochs 0 then eval: the checkpoint is the raw initialization
    out0 = workspace / "zero"
    code = main(["train", "--data", str(workspace / "train.json"),
                 "--config", str(workspace / "config.txt"),
                 "--epochs", "0", "--out", str(out0)])
    assert code == EXIT_OK

    from docrel.checkpoint import load_checkpoint
    from docrel.config import TrainingConfig
    from docrel.corpus import build_vocabulary, load_docred
    from docrel.model import RelationModel

    ckpt = load_checkpoint(out0 / "model.ckpt")
    cfg = TrainingConfig.from_file(workspace / "config.txt")
    cfg.epochs = 0
    vocab = build_vocabulary(load_docred(workspace / "train.json"))
    fresh = RelationModel(cfg, vocab)
    for name, arr in fresh.state_arrays().items():
        assert ckpt.arrays[name].tobytes() == arr.tobytes()


def test_threads_flag_is_gone(workspace, trained):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--data", str(workspace / "dev.json"),
              "--checkpoint", str(trained / "model.ckpt"),
              "--out", str(workspace / "pred-threads"), "--threads", "2"])
    assert exc.value.code == 2


def test_duplicate_titles_rejected(workspace, capsys):
    doc = {"title": "twin", "sents": [["a", "b", "c"]],
           "vertexSet": [[{"name": "a", "sent_id": 0, "pos": [0, 1], "type": "T"}],
                         [{"name": "c", "sent_id": 0, "pos": [2, 3], "type": "T"}]],
           "labels": [{"h": 0, "t": 1, "r": "r0", "evidence": [0]}]}
    data = workspace / "twins.json"
    data.write_text(json.dumps([doc, doc]), encoding="utf-8")
    pred = workspace / "twins-pred.json"
    pred.write_text("[]", encoding="utf-8")
    code = main(["eval", "--data", str(data), "--pred", str(pred)])
    assert code == EXIT_BAD_DATA
    assert "twin" in capsys.readouterr().err


@pytest.mark.parametrize("section,byte", [("meta", b"x"), ("meta", b"\xff"),
                                          ("config", b"\xff")])
def test_corrupt_checkpoint_text_maps_to_checkpoint_error(workspace, trained, section, byte):
    blob = bytearray((trained / "model.ckpt").read_bytes())
    (config_len,) = struct.unpack("<I", blob[40:44])
    offset = 44 if section == "config" else 44 + config_len + 4
    blob[offset:offset + 1] = byte
    bad = workspace / f"corrupt-{section}-{byte.hex()}.ckpt"
    bad.write_bytes(bytes(blob))
    code = main(["predict", "--data", str(workspace / "dev.json"),
                 "--checkpoint", str(bad), "--out", str(workspace / "pred-corrupt")])
    assert code == EXIT_CHECKPOINT_MISMATCH


@pytest.mark.parametrize("meta", [{"threshold": 0.5}, {"vocab": [1]},
                                  {"vocab": {"word2id": {}}}, "threshold-not-a-number"])
def test_checkpoint_without_a_usable_vocabulary_maps_to_checkpoint_error(workspace, trained,
                                                                       meta):
    from docrel.checkpoint import load_checkpoint, save_checkpoint
    ckpt = load_checkpoint(trained / "model.ckpt")
    if meta == "threshold-not-a-number":
        meta = dict(ckpt.meta, threshold="high")
    bad = workspace / "meta.ckpt"
    save_checkpoint(bad, ckpt.arrays, ckpt.config_text, meta=meta)
    code = main(["predict", "--data", str(workspace / "dev.json"),
                 "--checkpoint", str(bad), "--out", str(workspace / "pred-meta")])
    assert code == EXIT_CHECKPOINT_MISMATCH


@pytest.mark.parametrize("labels", [["r"], 3])
def test_train_on_labels_that_are_not_objects_maps_to_bad_data(workspace, labels):
    docs = json.loads((workspace / "train.json").read_text(encoding="utf-8"))
    docs[0]["labels"] = labels
    bad = workspace / "bad-labels.json"
    bad.write_text(json.dumps(docs), encoding="utf-8")
    code = main(["train", "--data", str(bad), "--config", str(workspace / "config.txt"),
                 "--out", str(workspace / "bad-labels-out")])
    assert code == EXIT_BAD_DATA


@pytest.mark.parametrize("field", ["pos", "sent_id", "h", "t", "evidence"])
def test_non_integer_field_maps_to_bad_data(workspace, field):
    docs = json.loads((workspace / "dev.json").read_text(encoding="utf-8"))
    mention = docs[0]["vertexSet"][0][0]
    label = docs[0]["labels"][0]
    if field == "pos":
        mention["pos"] = ["x", mention["pos"][1]]
    elif field == "sent_id":
        mention["sent_id"] = "x"
    elif field == "evidence":
        label["evidence"] = ["x"]
    else:
        label[field] = "x"
    bad = workspace / f"non-int-{field}.json"
    bad.write_text(json.dumps(docs), encoding="utf-8")
    assert main(["graph-stats", "--data", str(bad)]) == EXIT_BAD_DATA


def test_non_integer_prediction_index_maps_to_bad_data(workspace):
    docs = json.loads((workspace / "dev.json").read_text(encoding="utf-8"))
    row = {"title": docs[0]["title"], "h_idx": "x", "t_idx": 1,
           "r": docs[0]["labels"][0]["r"], "score": 0.9}
    pred = workspace / "non-int-pred.json"
    pred.write_text(json.dumps([row]), encoding="utf-8")
    code = main(["eval", "--data", str(workspace / "dev.json"), "--pred", str(pred),
                 "--train", str(workspace / "train.json")])
    assert code == EXIT_BAD_DATA


def one_entity(doc, title):
    doc = copy.deepcopy(doc)
    doc["title"] = title
    doc["vertexSet"] = doc["vertexSet"][:1]
    doc["labels"] = []
    return doc


def with_empty_sentence(doc, title):
    """The same document with an empty sentence inserted at position 1."""
    doc = copy.deepcopy(doc)
    doc["title"] = title
    doc["sents"].insert(1, [])
    for vertex in doc["vertexSet"]:
        for mention in vertex:
            mention["sent_id"] += mention["sent_id"] >= 1
    for label in doc["labels"]:
        label["evidence"] = [e + (e >= 1) for e in label["evidence"]]
    return doc


@pytest.mark.parametrize("degenerate", [one_entity, with_empty_sentence])
def test_predict_survives_a_degenerate_document(workspace, trained, degenerate):
    good = json.loads((workspace / "dev.json").read_text(encoding="utf-8"))[0]
    rows = {}
    for name, docs in (("alone", [good]), ("mixed", [degenerate(good, "degenerate"), good])):
        data = workspace / f"{degenerate.__name__}-{name}.json"
        data.write_text(json.dumps(docs), encoding="utf-8")
        out = workspace / f"pred-{degenerate.__name__}-{name}"
        code = main(["predict", "--data", str(data),
                     "--checkpoint", str(trained / "model.ckpt"), "--out", str(out)])
        assert code == EXIT_OK
        rows[name] = json.loads((out / "predictions.json").read_text(encoding="utf-8"))
    assert rows["alone"]
    assert [r for r in rows["mixed"] if r["title"] == good["title"]] == rows["alone"]


def test_predict_and_eval_name_the_documents_without_an_entity_pair(workspace, trained, capsys):
    good = json.loads((workspace / "dev.json").read_text(encoding="utf-8"))[0]
    for docs, line in (([one_entity(good, "lone"), good],
                        "1 of 2 documents have no entity pair and give no predictions ('lone')"),
                       ([good], None)):
        data = workspace / f"pairless-{len(docs)}.json"
        data.write_text(json.dumps(docs), encoding="utf-8")
        ckpt = ["--checkpoint", str(trained / "model.ckpt")]
        out = ["--out", str(workspace / f"pred-pairless-{len(docs)}")]
        for command, extra in (("predict", out), ("eval", [])):
            capsys.readouterr()
            assert main([command, "--data", str(data), *ckpt, *extra]) == EXIT_OK
            named = [e for e in capsys.readouterr().err.splitlines() if "no entity pair" in e]
            assert named == ([] if line is None else [f"{command}: {line}"])


def test_train_survives_an_empty_sentence(workspace):
    docs = json.loads((workspace / "train.json").read_text(encoding="utf-8"))
    docs[0] = with_empty_sentence(docs[0], docs[0]["title"])
    data = workspace / "train-empty-sentence.json"
    data.write_text(json.dumps(docs), encoding="utf-8")
    code = main(["train", "--data", str(data), "--config", str(workspace / "config.txt"),
                 "--epochs", "1", "--out", str(workspace / "run-empty-sentence")])
    assert code == EXIT_OK


def test_malformed_checkpoint_config_text_maps_to_checkpoint_error(workspace, trained, capsys):
    from docrel.checkpoint import load_checkpoint, save_checkpoint
    ckpt = load_checkpoint(trained / "model.ckpt")
    bad = workspace / "garbage-config.ckpt"
    save_checkpoint(bad, ckpt.arrays, "garbage\n", meta=ckpt.meta)
    code = main(["predict", "--data", str(workspace / "dev.json"),
                 "--checkpoint", str(bad), "--out", str(workspace / "pred-garbage")])
    assert code == EXIT_CHECKPOINT_MISMATCH
    assert "malformed config text" in capsys.readouterr().err


def test_checkpoint_with_the_removed_reasoning_pool_key_is_a_bad_config(workspace, trained,
                                                                       capsys):
    from docrel.checkpoint import load_checkpoint, save_checkpoint
    ckpt = load_checkpoint(trained / "model.ckpt")
    old = workspace / "reasoning-pool.ckpt"
    save_checkpoint(old, ckpt.arrays, ckpt.config_text + "reasoning_pool = chains\n",
                    meta=ckpt.meta)
    code = main(["predict", "--data", str(workspace / "dev.json"),
                 "--checkpoint", str(old), "--out", str(workspace / "pred-pool")])
    assert code == EXIT_BAD_CONFIG
    assert "reasoning_pool" in capsys.readouterr().err


def test_reasoning_pool_flag_is_gone(workspace):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(workspace / "train.json"),
              "--out", str(workspace / "pool"), "--reasoning-pool", "chains"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    "graph-stats --data {dir}",
    "predict --data {dev} --checkpoint {dir} --out {out}",
    "eval --data {dev} --checkpoint {ckpt} --train {dir}",
    "predict --data {dev} --checkpoint {ckpt} --config {dir} --out {out}",
], ids=["graph-stats-data", "predict-checkpoint", "eval-train", "predict-config"])
def test_a_directory_where_a_file_is_expected_is_a_missing_file(workspace, trained, argv,
                                                                capsys):
    directory = workspace / "a-directory"
    directory.mkdir(exist_ok=True)
    code = main(argv.format(dir=directory, dev=workspace / "dev.json",
                            ckpt=trained / "model.ckpt", out=workspace / "pred-dir").split())
    assert code == EXIT_MISSING_FILE
    err = capsys.readouterr().err
    assert "code=missing-file" in err and str(directory) in err
