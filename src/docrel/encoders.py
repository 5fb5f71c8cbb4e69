"""Token embedding and the sentence/document bidirectional LSTM encoders.

Each LSTM direction is one taped primitive, `lstm_sweep`, over all the
sequences of a document at once.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Vocabulary
from .errors import ContractError, NotFoundError, ParseError
from .optim import Parameter


def glorot(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in, fan_out = (shape[1], shape[0]) if len(shape) == 2 else (shape[0], shape[0])
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


class EmbeddingLayers:
    """Word, entity-type and coreference tables; row 0 of type/coref means "no entity"."""

    def __init__(self, word: Parameter, etype: Parameter, coref: Parameter):
        self.word = word
        self.etype = etype
        self.coref = coref

    @classmethod
    def create(cls, rng: np.random.Generator, n_words: int, n_types: int, n_coref: int,
               word_dim: int, type_dim: int, coref_dim: int,
               word_init: np.ndarray | None = None, scale: float = 1.0) -> "EmbeddingLayers":
        # unit-scale rows keep downstream activations alive at toy dims,
        # matching the component scale of typical pretrained vectors
        word = word_init if word_init is not None else rng.normal(0.0, scale, size=(n_words, word_dim))
        return cls(
            word=Parameter("embed.word", word),
            etype=Parameter("embed.type", rng.normal(0.0, scale, size=(n_types, type_dim))),
            coref=Parameter("embed.coref", rng.normal(0.0, scale, size=(n_coref, coref_dim))),
        )

    @property
    def width(self) -> int:
        return self.word.data.shape[1] + self.etype.data.shape[1] + self.coref.data.shape[1]

    def parameters(self) -> list[Parameter]:
        return [self.word, self.etype, self.coref]


def embed_tokens(feats: np.ndarray, layers: EmbeddingLayers) -> Tensor:
    """(n, 3) id triples -> (n, d_w + d_t + d_c) concatenated embedding rows."""
    feats = np.asarray(feats, dtype=np.int64)
    if feats.ndim != 2 or feats.shape[1] != 3:
        raise ContractError(f"embed_tokens: expected (n, 3) id triples, got {feats.shape}")
    for col, table, name in ((0, layers.word, "word"),
                             (1, layers.etype, "type"),
                             (2, layers.coref, "coref")):
        hi = table.data.shape[0]
        if feats[:, col].size and (feats[:, col].min() < 0 or feats[:, col].max() >= hi):
            raise NotFoundError(f"embed_tokens: {name} id out of range [0, {hi})")
    return ad.concat([
        ad.take_rows(layers.word.tensor, feats[:, 0]),
        ad.take_rows(layers.etype.tensor, feats[:, 1]),
        ad.take_rows(layers.coref.tensor, feats[:, 2]),
    ], axis=-1)


def lstm_sweep(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor, hidden: int,
               reverse: bool = False, lengths=None) -> Tensor:
    """All (T, H) hidden states of one LSTM direction over the rows of x, as one taped op.

    `lengths` splits the T rows into consecutive sequences (one sequence when
    None), each run from the zero state; row t of the result holds the state
    after reading row t of its sequence. A reverse sweep starts every sequence
    at its own last row.

    Gate layout is [input, forget, output, candidate]. The input projection of
    every row is one GEMM ahead of the time loop. The sequences are sorted
    longest first and the rows packed step by step, so the sequences still
    running at a step are a prefix of the previous step's and every step is one
    contiguous (b_t, H) x (H, 4H) GEMM plus the gate math. As
    sigmoid(z) = (1 + tanh(z / 2)) / 2, halving the sigmoid chunk (exact in
    binary floating point) lets one tanh call cover all four gates. Buffers take
    the dtype of x. The backward runs BPTT into dZ, then one GEMM per input; the
    finite-difference suite certifies it.
    """
    H = hidden
    xd, wx, wh = x.data, w_x.data, w_h.data
    n, dtype = xd.shape[0], xd.dtype
    lengths = np.asarray([n] if lengths is None else lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    lens = lengths[order]
    # packed row r is sequence seq[r] (by rank) at step step[r]; sorted longest
    # first, the sequences running at a step are a prefix of the previous step's
    running = np.arange(lens[0] if lens.size else 0)[:, None] < lens
    step, seq = np.nonzero(running)
    if (lens.size and lens[-1] < 0) or step.size != n:
        raise ContractError(f"lstm_sweep: lengths {lengths.tolist()} do not split {n} rows")
    tok = (np.cumsum(lengths) - lengths)[order][seq] + (lens[seq] - 1 - step if reverse else step)
    ends = np.cumsum(running.sum(axis=1)).tolist()
    blocks = list(zip([0] + ends[:-1], ends))   # packed rows of each step

    xp = xd[tok]
    zx = xp @ wx.T + b.data
    scale = np.repeat(np.array([0.5, 1.0], dtype=dtype), [3 * H, H])
    acts = np.empty((n, 4 * H), dtype)   # activated gates
    hs, cs = np.empty((n, H), dtype), np.empty((n, H), dtype)
    h = c = np.zeros((ends[0] if ends else 0, H), dtype)
    wh_t = wh.T
    # gate views, sliced once; the backward reads them too
    sig, i, f, o, g = (acts[:, :3 * H], acts[:, :H], acts[:, H:2 * H], acts[:, 2 * H:3 * H],
                       acts[:, 3 * H:])
    for lo, hi in blocks:
        np.tanh((zx[lo:hi] + h[:hi - lo] @ wh_t) * scale, out=acts[lo:hi])
        sig_t = sig[lo:hi]   # tanh(z / 2) -> sigmoid(z)
        sig_t *= 0.5
        sig_t += 0.5
        c_prev, c, h = c[:hi - lo], cs[lo:hi], hs[lo:hi]
        np.multiply(f[lo:hi], c_prev, out=c)
        c += i[lo:hi] * g[lo:hi]
        np.tanh(c, out=h)
        h *= o[lo:hi]
    out = np.empty_like(hs)
    out[tok] = hs

    def bw(grad):
        # the states each step read: its sequence's row one step back, zeros at step 0
        h_prev, c_prev = np.zeros_like(hs), np.zeros_like(cs)
        later = step > 0
        back = np.array([0] + ends)[step[later] - 1] + seq[later]
        h_prev[later], c_prev[later] = hs[back], cs[back]
        tc = np.tanh(cs)
        # dZ[r] = local[r] * [dc; dc; dh; dc] with dc, dh the step's state gradients
        local = np.concatenate([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                                tc * o * (1.0 - o), i * (1.0 - g * g)], axis=1)
        dc_dh = o * (1.0 - tc * tc)
        dhs = grad[tok]
        dz = np.empty((n, 4 * H), dtype)
        dh_next = dc_next = np.zeros((0, H), dtype)
        for lo, hi in reversed(blocks):
            # sequences that end at this step get no carry from the next
            k = dh_next.shape[0]
            dh = dhs[lo:hi]
            dh[:k] += dh_next
            dc = dh * dc_dh[lo:hi]
            dc[:k] += dc_next
            np.multiply(local[lo:hi], np.concatenate((dc, dc, dh, dc), axis=1), out=dz[lo:hi])
            dh_next = dz[lo:hi] @ wh
            dc_next = dc * f[lo:hi]
        if w_x.requires_grad:
            ad._adopt(w_x, dz.T @ xp)
        if w_h.requires_grad:
            ad._adopt(w_h, dz.T @ h_prev)
        ad._adopt(b, dz.sum(axis=0))
        if x.requires_grad:
            dx = np.empty_like(xd)
            dx[tok] = dz @ wx
            ad._adopt(x, dx)

    return ad._result(out, bw, x, w_x, w_h, b)


class BiLstm:
    """Single-layer bidirectional LSTM; output width is 2 x hidden."""

    def __init__(self, name: str, hidden: int, params: dict[str, Parameter]):
        self.name = name
        self.hidden = hidden
        self.p = params

    @classmethod
    def create(cls, rng: np.random.Generator, name: str, input_dim: int, hidden: int) -> "BiLstm":
        params = {}
        for tag in ("fw", "bw"):
            params[f"{tag}.Wx"] = Parameter(f"{name}.{tag}.Wx", glorot(rng, (4 * hidden, input_dim)))
            params[f"{tag}.Wh"] = Parameter(f"{name}.{tag}.Wh", glorot(rng, (4 * hidden, hidden)))
            params[f"{tag}.b"] = Parameter(f"{name}.{tag}.b", np.zeros(4 * hidden))
        return cls(name, hidden, params)

    def parameters(self) -> list[Parameter]:
        return [self.p[k] for k in ("fw.Wx", "fw.Wh", "fw.b", "bw.Wx", "bw.Wh", "bw.b")]

    @property
    def out_width(self) -> int:
        return 2 * self.hidden

    def run(self, x: Tensor, lengths=None) -> tuple[Tensor, Tensor]:
        """Per-row (T, 2H) states and (S, 2H) summaries of the S sequences that
        `lengths` splits the rows of x into (one sequence when None).

        A summary row is [last forward state; first backward state]; an empty
        sequence has no states and the zero initial state as its summary. Six
        tape records whatever T and S are, two more when a sequence is empty.
        """
        p, H = self.p, self.hidden
        lengths = np.asarray([x.shape[0]] if lengths is None else lengths, dtype=np.int64)
        fw = lstm_sweep(x, p["fw.Wx"].tensor, p["fw.Wh"].tensor, p["fw.b"].tensor, H,
                        lengths=lengths)
        bw = lstm_sweep(x, p["bw.Wx"].tensor, p["bw.Wh"].tensor, p["bw.b"].tensor, H,
                        reverse=True, lengths=lengths)
        ends = np.cumsum(lengths)
        kept = np.flatnonzero(lengths)
        summary = ad.concat([ad.take_rows(fw, ends[kept] - 1),
                             ad.take_rows(bw, (ends - lengths)[kept])], axis=-1)
        if kept.size < lengths.size:
            slot = np.full(lengths.size, kept.size)
            slot[kept] = np.arange(kept.size)
            summary = ad.take_rows(
                ad.concat([summary, ad.constant(np.zeros((1, 2 * H)))], axis=0), slot)
        return ad.concat([fw, bw], axis=-1), summary


def encode_sentence(x: Tensor, lstm: BiLstm, lengths=None) -> tuple[Tensor, Tensor]:
    """(T, 2H) per-token states and (S, 2H) summaries of one BiLSTM run over the
    S sentences of `lengths` tokens that the rows of x hold (one when None)."""
    return lstm.run(x, lengths)


# the document encoder is the same function over another BiLstm; its own name
# lets per-layer tracing time the two encoders apart
encode_document = encode_sentence


def load_word_vectors(path, vocab: Vocabulary, dim: int,
                      rng: np.random.Generator, scale: float = 0.3) -> np.ndarray:
    """Read `token v1 ... v_dim` lines; vocabulary words not in the file get sampled rows."""
    table = rng.normal(0.0, scale, size=(vocab.n_words, dim))
    found = 0
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        parts = line.rstrip().split(" ")
        if len(parts) != dim + 1:
            raise ParseError(f"{path}:{lineno}: expected {dim} values, got {len(parts) - 1}")
        wid = vocab.word2id.get(parts[0])
        if wid is not None:
            table[wid] = np.array([float(v) for v in parts[1:]])
            found += 1
    return table
