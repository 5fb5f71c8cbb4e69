"""Embedding widths, LSTM dynamics against an independent recurrence oracle,
and the length-batched sweep against one sweep per sequence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrel import autodiff as ad
from docrel.autodiff import Tape, Tensor, backward, check_gradients
from docrel.corpus import Document, Entity, Mention, Vocabulary, build_vocabulary
from docrel.config import TrainingConfig
from docrel.corpus import Document, Entity, Mention, RelationFact, Vocabulary, build_vocabulary
from docrel.encoders import (BiLstm, EmbeddingLayers, embed_tokens, encode_document,
                             encode_sentence, load_word_vectors, lstm_sweep)
from docrel.errors import ContractError, NotFoundError, ParseError
from docrel.model import RelationModel, prepare_document


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
    assert summary.shape == (1, 1024)


def test_zero_weights_give_zero_outputs():
    rng = np.random.default_rng(1)
    lstm = BiLstm.create(rng, "enc", input_dim=3, hidden=4)
    for p in lstm.parameters():
        p.tensor.data[...] = 0.0
    g, summary = lstm.run(Tensor(np.ones((3, 3))))
    np.testing.assert_array_equal(g.data, np.zeros((3, 8)))
    np.testing.assert_array_equal(summary.data, np.zeros((1, 8)))


def test_length_one_sentence_summary_equals_row_zero():
    rng = np.random.default_rng(2)
    lstm = BiLstm.create(rng, "enc", input_dim=4, hidden=3)
    g, summary = encode_sentence(Tensor(rng.normal(size=(1, 4))), lstm)
    np.testing.assert_allclose(summary.data, g.data, atol=0, rtol=0)


def test_empty_sequence_gives_no_states_and_the_zero_initial_summary():
    rng = np.random.default_rng(2)
    lstm = BiLstm.create(rng, "enc", input_dim=4, hidden=3)
    x = Tensor(np.zeros((0, 4)), requires_grad=True)
    with Tape():
        g, summary = lstm.run(x)
        assert g.shape == (0, 6)
        np.testing.assert_array_equal(summary.data, np.zeros((1, 6)))
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
    np.testing.assert_allclose(summary.data[0], np.concatenate([fw_final, bw_final]), atol=1e-12)


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


def sweep_inputs(rng, n, d=3, hidden=2, requires_grad=True):
    """x and the Wx, Wh, b of one direction."""
    shapes = ((n, d), (4 * hidden, d), (4 * hidden, hidden), (4 * hidden,))
    return [Tensor(rng.normal(size=shape), requires_grad=requires_grad) for shape in shapes]


def sweep_gradients(x, wx, wh, b, hidden, reverse, lengths, weights):
    """States and the gradients of sum(weights * states) for x, Wx, Wh and b."""
    leaves = [x, wx, wh, b]
    for t in leaves:
        t.zero_grad()
    with Tape():
        states = lstm_sweep(x, wx, wh, b, hidden, reverse=reverse, lengths=lengths)
        backward(ad.tsum(ad.mul(states, ad.constant(weights))), leaves=leaves)
    return states.data, [t.grad.copy() for t in leaves]


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_batched_sweep_gradients_over_mixed_lengths(reverse):
    # a length-1 and an empty sequence, out of sorted order
    rng = np.random.default_rng(8)
    lengths = [3, 1, 0, 5]
    x, wx, wh, b = sweep_inputs(rng, sum(lengths))
    weights = ad.constant(rng.normal(size=(sum(lengths), 2)))

    def loss_fn():
        states = lstm_sweep(x, wx, wh, b, 2, reverse=reverse, lengths=lengths)
        return ad.tsum(ad.mul(ad.tanh(states), weights))

    err, checked, skipped = check_gradients(loss_fn, [x, wx, wh, b], eps=1e-6)
    assert err < 1e-6
    assert checked == x.size + wx.size + wh.size + b.size and skipped == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=6), st.booleans(), st.integers(0, 2**16))
def test_batched_sweep_equals_one_sweep_per_sequence(lengths, reverse, seed):
    rng = np.random.default_rng(seed)
    hidden = 3
    x, wx, wh, b = sweep_inputs(rng, sum(lengths), hidden=hidden)
    weights = rng.normal(size=(sum(lengths), hidden))
    states, grads = sweep_gradients(x, wx, wh, b, hidden, reverse, lengths, weights)
    want_states = np.zeros_like(states)
    want_grads = [np.zeros_like(g) for g in grads]
    start = 0
    for n in lengths:
        part = slice(start, start + n)
        xs = Tensor(x.data[part], requires_grad=True)
        s, (gx, gwx, gwh, gb) = sweep_gradients(xs, wx, wh, b, hidden, reverse, None,
                                                weights[part])
        want_states[part] = s
        want_grads[0][part] = gx
        for total, g in zip(want_grads[1:], (gwx, gwh, gb)):
            total += g
        start += n
    np.testing.assert_allclose(states, want_states, rtol=0, atol=1e-12)
    for got, want in zip(grads, want_grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_run_summarises_each_sequence_and_zeroes_empty_ones():
    rng = np.random.default_rng(9)
    lstm = BiLstm.create(rng, "enc", input_dim=3, hidden=2)
    lengths = [0, 4, 0, 1]
    x = Tensor(rng.normal(size=(5, 3)))
    g, summary = lstm.run(x, lengths)
    assert g.shape == (5, 4) and summary.shape == (4, 4)
    for rows, k in ((slice(0, 4), 1), (slice(4, 5), 3)):
        g_k, summary_k = lstm.run(Tensor(x.data[rows]))
        np.testing.assert_allclose(g.data[rows], g_k.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(summary.data[k], summary_k.data[0], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(summary.data[[0, 2]], np.zeros((2, 4)))


def test_sweep_rejects_lengths_that_do_not_split_the_rows():
    rng = np.random.default_rng(10)
    x, wx, wh, b = sweep_inputs(rng, 4, requires_grad=False)
    for lengths in ([3], [2, 3], [5, -1]):
        with pytest.raises(ContractError):
            lstm_sweep(x, wx, wh, b, 2, lengths=lengths)


@pytest.mark.parametrize("inter4intra", [False, True], ids=["intra_route", "inter_route"])
def test_document_with_one_nonempty_sentence_encodes(inter4intra):
    sents = [[], ["a", "x", "b"], [], []]
    doc = Document("sparse", sents,
                   [Entity(0, "PER", [Mention(1, 0, 1, "a")]),
                    Entity(1, "LOC", [Mention(1, 2, 3, "b")])],
                   [RelationFact(0, 1, 0, "r0", [1])])
    vocab = build_vocabulary([doc])
    feats = prepare_document(doc, vocab)
    model = RelationModel(TrainingConfig(word_dim=4, type_dim=2, coref_dim=2, hidden_size=3,
                                         gcn_dim=6, gcn_layers=1, topk=2, classifier_hidden=4,
                                         inter4intra=inter4intra, seed=1), vocab)
    with Tape():
        loss = model.document_loss(feats)
        backward(loss)
    assert np.isfinite(loss.data)
    assert all(p.grad is None or np.isfinite(p.grad).all() for p in model.parameters())


def test_float32_sweep_keeps_float32_states_and_gradients(monkeypatch):
    # every array an op hands to the tape, before Tensor casts it to the default dtype
    made = []
    result, accum, adopt = ad._result, ad._accum, ad._adopt
    monkeypatch.setattr(ad, "_result", lambda data, *rest: made.append(data.dtype) or
                        result(data, *rest))
    monkeypatch.setattr(ad, "_accum", lambda t, g: made.append(g.dtype) or accum(t, g))
    monkeypatch.setattr(ad, "_adopt", lambda t, g: made.append(g.dtype) or adopt(t, g))
    ad.set_default_dtype(np.float32)
    try:
        rng = np.random.default_rng(11)
        lengths = [2, 0, 4, 1]
        x, wx, wh, b = sweep_inputs(rng, sum(lengths))
        for reverse in (False, True):
            made.clear()
            states, grads = sweep_gradients(x, wx, wh, b, 2, reverse, lengths,
                                            np.ones((sum(lengths), 2), np.float32))
            assert set(made) == {np.dtype(np.float32)}
            assert states.dtype == np.float32
            assert [g.dtype for g in grads] == [np.float32] * 4
    finally:
        ad.set_default_dtype(np.float64)


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
