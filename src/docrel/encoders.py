"""Token embedding and the sentence/document bidirectional LSTM encoders.

Each LSTM direction over a sequence is one taped primitive, `lstm_sweep`.
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
               reverse: bool = False) -> Tensor:
    """All (n, H) hidden states of one LSTM direction over the rows of x, as one taped op.

    Gate layout is [input, forget, output, candidate]. The input projection of
    every step is one GEMM ahead of the time loop, which carries only the
    recurrent matvec and the gate math. As sigmoid(z) = (1 + tanh(z / 2)) / 2,
    halving the sigmoid chunk (exact in binary floating point) lets one tanh
    call cover all four gates. A reverse sweep reads row n-1 first; either way
    row t holds the state after reading row t. The backward runs BPTT into dZ,
    then one GEMM per input; the finite-difference suite certifies it.
    """
    H = hidden
    xd, wx, wh = x.data, w_x.data, w_h.data
    n = xd.shape[0]
    scale = np.repeat([0.5, 1.0], [3 * H, H])
    zx = xd @ wx.T + b.data
    acts = np.empty((n, 4 * H))   # activated gates
    hs, cs = np.empty((n, H)), np.empty((n, H))
    h = c = np.zeros(H)
    order = range(n - 1, -1, -1) if reverse else range(n)
    for t in order:
        a = acts[t]
        np.tanh((zx[t] + wh @ h) * scale, out=a)
        a[:3 * H] = a[:3 * H] * 0.5 + 0.5
        c = a[H:2 * H] * c + a[:H] * a[3 * H:]
        h = a[2 * H:3 * H] * np.tanh(c)
        cs[t] = c
        hs[t] = h

    def bw(grad):
        # the states each step read: its neighbour in sweep order, zeros for the first
        h_prev, c_prev = np.zeros_like(hs), np.zeros_like(cs)
        if reverse:
            h_prev[:-1], c_prev[:-1] = hs[1:], cs[1:]
        else:
            h_prev[1:], c_prev[1:] = hs[:-1], cs[:-1]
        i, f, o, g = np.split(acts, 4, axis=1)
        tc = np.tanh(cs)
        # dZ[t] = local[t] * [dc; dc; dh; dc] with dc, dh the step's state gradients
        local = np.concatenate([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                                tc * o * (1.0 - o), i * (1.0 - g * g)], axis=1)
        dc_dh = o * (1.0 - tc * tc)
        dz = np.empty((n, 4 * H))
        dh_next = dc_next = np.zeros(H)
        for t in reversed(order):
            dh = grad[t] + dh_next
            dc = dc_next + dh * dc_dh[t]
            dz[t] = local[t] * np.concatenate((dc, dc, dh, dc))
            dh_next = dz[t] @ wh
            dc_next = dc * f[t]
        if w_x.requires_grad:
            ad._accum(w_x, dz.T @ xd)
        if w_h.requires_grad:
            ad._accum(w_h, dz.T @ h_prev)
        ad._accum(b, dz.sum(axis=0))
        if x.requires_grad:
            ad._accum(x, dz @ wx)

    return ad._result(hs, bw, x, w_x, w_h, b)


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

    def run(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Per-step (n, 2H) states and the (2H,) summary [last forward; last backward].

        Six tape records whatever n is. Over zero steps the states are (0, 2H)
        and the summary is the zero initial state.
        """
        p, H, n = self.p, self.hidden, x.shape[0]
        fw = lstm_sweep(x, p["fw.Wx"].tensor, p["fw.Wh"].tensor, p["fw.b"].tensor, H)
        bw = lstm_sweep(x, p["bw.Wx"].tensor, p["bw.Wh"].tensor, p["bw.b"].tensor, H,
                        reverse=True)
        g = ad.concat([fw, bw], axis=-1)
        if n == 0:
            return g, ad.constant(np.zeros(2 * H))
        return g, ad.concat([ad.take_row(fw, n - 1), ad.take_row(bw, 0)], axis=-1)


def encode_sentence(x: Tensor, lstm: BiLstm) -> tuple[Tensor, Tensor]:
    """(n, 2H) per-token states and the (2H,) summary of one BiLSTM run over x."""
    return lstm.run(x)


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
