"""Embedding widths, LSTM dynamics against an independent recurrence oracle."""

import numpy as np
import pytest

from docrel import autodiff as ad
from docrel.autodiff import Tape, Tensor, backward, check_gradients
from docrel.corpus import Document, Entity, Mention, Vocabulary, build_vocabulary
from docrel.encoders import (BiLstm, EmbeddingLayers, embed_tokens, encode_document,
                             encode_sentence, load_word_vectors)
from docrel.errors import NotFoundError, ParseError


def make_layers(rng, n_words=7, n_types=3, n_coref=4, dims=(5, 2, 2)):
    return EmbeddingLayers.create(rng, n_words, n_types, n_coref, *dims)


def test_embedding_width_at_paper_dims():
    rng = np.random.default_rng(0)
    layers = EmbeddingLayers.create(rng, 50, 7, 10, 100, 20, 20)
    feats = np.zeros((4, 3), dtype=np.int64)
    assert embed_tokens(feats, layers).shape == (4, 140)


def test_zero_tables_embed_to_zero():
    rng = np.random.default_rng(0)
    layers = make_layers(rng)
    for p in layers.parameters():
        p.tensor.data[...] = 0.0
    out = embed_tokens(np.array([[1, 1, 1], [2, 0, 3]]), layers)
    np.testing.assert_array_equal(out.data, np.zeros((2, 9)))


def test_one_hot_tables_reproduce_id_layout():
    rng = np.random.default_rng(0)
    layers = EmbeddingLayers.create(rng, 4, 3, 3, 4, 3, 3)
    layers.word.tensor.data[...] = np.eye(4)
    layers.etype.tensor.data[...] = np.eye(3)
    layers.coref.tensor.data[...] = np.eye(3)
    feats = np.array([[2, 1, 0], [0, 2, 2]])
    out = embed_tokens(feats, layers).data
    # explicit one-hot construction
    expected = np.zeros((2, 10))
    for row, (w, t, c) in enumerate(feats):
        expected[row, w] = 1.0
        expected[row, 4 + t] = 1.0
        expected[row, 7 + c] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_embed_rejects_out_of_range_ids():
    rng = np.random.default_rng(0)
    layers = make_layers(rng)
    with pytest.raises(NotFoundError, match="type"):
        embed_tokens(np.array([[0, 9, 0]]), layers)


def test_output_width_is_twice_hidden():
    rng = np.random.default_rng(1)
    lstm = BiLstm.create(rng, "enc", input_dim=6, hidden=512)
    x = Tensor(rng.normal(size=(2, 6)))
    g, summary = lstm.run(x)
    assert g.shape == (2, 1024)
    assert summary.shape == (1024,)


def test_zero_weights_give_zero_outputs():
    rng = np.random.default_rng(1)
    lstm = BiLstm.create(rng, "enc", input_dim=3, hidden=4)
    for p in lstm.parameters():
        p.tensor.data[...] = 0.0
    g, summary = lstm.run(Tensor(np.ones((3, 3))))
    np.testing.assert_array_equal(g.data, np.zeros((3, 8)))
    np.testing.assert_array_equal(summary.data, np.zeros(8))


def test_length_one_sentence_summary_equals_row_zero():
    rng = np.random.default_rng(2)
    lstm = BiLstm.create(rng, "enc", input_dim=4, hidden=3)
    g, summary = encode_sentence(Tensor(rng.normal(size=(1, 4))), lstm)
    np.testing.assert_allclose(summary.data, g.data[0], atol=0, rtol=0)


def test_empty_sequence_gives_no_states_and_the_zero_initial_summary():
    rng = np.random.default_rng(2)
    lstm = BiLstm.create(rng, "enc", input_dim=4, hidden=3)
    x = Tensor(np.zeros((0, 4)), requires_grad=True)
    with Tape():
        g, summary = lstm.run(x)
        assert g.shape == (0, 6)
        np.testing.assert_array_equal(summary.data, np.zeros(6))
        backward(ad.tsum(g), leaves=[x] + [p.tensor for p in lstm.parameters()])
    for p in lstm.parameters():
        np.testing.assert_array_equal(p.grad, np.zeros_like(p.data))


def numpy_lstm_oracle(x, w_x, w_h, b, hidden):
    """Step-by-step recurrence written independently of the tensor core."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    states = []
    for t in range(x.shape[0]):
        z = w_x @ x[t] + w_h @ h + b
        i = sig(z[:hidden])
        f = sig(z[hidden:2 * hidden])
        o = sig(z[2 * hidden:3 * hidden])
        g = np.tanh(z[3 * hidden:])
        c = f * c + i * g
        h = o * np.tanh(c)
        states.append(h.copy())
    return np.stack(states), h


def test_encoder_matches_independent_recurrence_oracle():
    rng = np.random.default_rng(3)
    hidden = 4
    lstm = BiLstm.create(rng, "enc", input_dim=5, hidden=hidden)
    x = rng.normal(size=(5, 5))
    g, summary = encode_document(Tensor(x), lstm)

    fw, fw_final = numpy_lstm_oracle(
        x, lstm.p["fw.Wx"].data, lstm.p["fw.Wh"].data, lstm.p["fw.b"].data, hidden)
    bw_rev, bw_final = numpy_lstm_oracle(
        x[::-1], lstm.p["bw.Wx"].data, lstm.p["bw.Wh"].data, lstm.p["bw.b"].data, hidden)
    bw = bw_rev[::-1]
    np.testing.assert_allclose(g.data, np.concatenate([fw, bw], axis=1), atol=1e-12)
    np.testing.assert_allclose(summary.data, np.concatenate([fw_final, bw_final]), atol=1e-12)


def test_document_encoder_equals_sentence_encoder_under_weight_tying():
    rng = np.random.default_rng(4)
    sent = BiLstm.create(rng, "s", input_dim=4, hidden=3)
    doc = BiLstm.create(rng, "d", input_dim=4, hidden=3)
    for key in doc.p:
        doc.p[key].tensor.data[...] = sent.p[key].data
    x = Tensor(rng.normal(size=(6, 4)))
    for a, b in zip(encode_sentence(x, sent), encode_document(x, doc)):
        np.testing.assert_array_equal(a.data, b.data)


def test_sentence_encoding_ignores_other_sentences():
    # feeding the same sentence is all the encoder ever sees; explicit check
    rng = np.random.default_rng(5)
    lstm = BiLstm.create(rng, "enc", input_dim=4, hidden=3)
    x = rng.normal(size=(4, 4))
    first = encode_sentence(Tensor(x), lstm)[0].data
    second = encode_sentence(Tensor(x), lstm)[0].data
    np.testing.assert_array_equal(first, second)


def test_encoder_gradients_at_toy_dims():
    # the loss reads every state of both directions and both final states
    rng = np.random.default_rng(6)
    lstm = BiLstm.create(rng, "enc", input_dim=3, hidden=3)
    for n in (1, 2, 5):
        x = Tensor(rng.normal(size=(n, 3)), requires_grad=True)

        def loss_fn():
            g, summary = lstm.run(x)
            return ad.tsum(ad.mul(g, g)) + ad.tsum(ad.tanh(summary))

        leaves = [x] + [p.tensor for p in lstm.parameters()]
        err, checked, skipped = check_gradients(loss_fn, leaves, eps=1e-6)
        assert err < 1e-6, n
        assert checked > 0


def test_tape_length_of_one_run_does_not_grow_with_the_sequence():
    rng = np.random.default_rng(7)
    lstm = BiLstm.create(rng, "enc", input_dim=3, hidden=2)
    lengths = []
    for n in (3, 30):
        with Tape() as tape:
            lstm.run(Tensor(rng.normal(size=(n, 3)), requires_grad=True))
            lengths.append(len(tape))
    assert lengths[0] == lengths[1]


def test_load_word_vectors(tmp_path):
    vocab = Vocabulary(word2id={"<pad>": 0, "<unk>": 1, "cat": 2, "dog": 3},
                       type2id={"<none>": 0}, rel2id={}, n_coref=2)
    path = tmp_path / "vecs.txt"
    path.write_text("cat 1.0 2.0\nbird 9.0 9.0\n", encoding="utf-8")
    rng = np.random.default_rng(0)
    table = load_word_vectors(path, vocab, dim=2, rng=rng)
    np.testing.assert_array_equal(table[2], [1.0, 2.0])
    assert table.shape == (4, 2)
    assert not np.array_equal(table[3], [9.0, 9.0])  # 'bird' not in vocab, 'dog' sampled


def test_load_word_vectors_width_mismatch(tmp_path):
    vocab = Vocabulary(word2id={"<pad>": 0, "<unk>": 1}, type2id={"<none>": 0},
                       rel2id={}, n_coref=2)
    path = tmp_path / "vecs.txt"
    path.write_text("cat 1.0 2.0 3.0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_word_vectors(path, vocab, dim=2, rng=np.random.default_rng(0))
