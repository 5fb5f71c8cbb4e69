"""Token embedding and the sentence/document bidirectional LSTM encoders."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Vocabulary
from .errors import ContractError, NotFoundError, ParseError
from .optim import Parameter


@dataclass
class EncodedSentence:
    g: Tensor        # (n_i, d) per-word vectors
    summary: Tensor  # (d,) final forward state ; final backward state


@dataclass
class EncodedDocument:
    g: Tensor        # (m, d)
    summary: Tensor  # (d,)


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


def lstm_cell(x: Tensor, t: int, hc: Tensor,
              w_x: Tensor, w_h: Tensor, b: Tensor, hidden: int) -> Tensor:
    """One fused LSTM step on row t of x; state rides packed as [h; c].

    Gate layout is [input, forget, output, candidate] so one sigmoid call
    covers the first three chunks. Fusing the cell into a single taped
    primitive keeps the tape short; the analytic backward below is what the
    finite-difference suite certifies.
    """
    H = hidden
    xd = x.data[t]
    hd, cd = hc.data[:H], hc.data[H:]
    z = b.data + w_x.data @ xd
    z += w_h.data @ hd
    gates = ad._sigmoid_values(z[:3 * H])
    i, f, o = gates[:H], gates[H:2 * H], gates[2 * H:]
    g = np.tanh(z[3 * H:])
    c_new = f * cd + i * g
    tc = np.tanh(c_new)
    data = np.empty(2 * H)
    data[:H] = o * tc
    data[H:] = c_new

    def bw(grad):
        gh = grad[:H]
        d_cnew = grad[H:] + gh * o * (1.0 - tc * tc)
        dz = np.empty(4 * H)
        dz[:H] = (d_cnew * g) * i * (1.0 - i)
        dz[H:2 * H] = (d_cnew * cd) * f * (1.0 - f)
        dz[2 * H:3 * H] = (gh * tc) * o * (1.0 - o)
        dz[3 * H:] = (d_cnew * i) * (1.0 - g * g)
        if w_x.requires_grad:
            ad._accum(w_x, np.outer(dz, xd))
        if w_h.requires_grad:
            ad._accum(w_h, np.outer(dz, hd))
        ad._accum(b, dz)
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[t] += w_x.data.T @ dz
        if hc.requires_grad:
            if hc.grad is None:
                hc.grad = np.zeros_like(hc.data)
            hc.grad[:H] += w_h.data.T @ dz
            hc.grad[H:] += d_cnew * f

    return ad._result(data, bw, x, hc, w_x, w_h, b)


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

    def _sweep(self, x: Tensor, order: range, tag: str) -> tuple[list[Tensor], Tensor]:
        H = self.hidden
        w_x, w_h, b = self.p[f"{tag}.Wx"].tensor, self.p[f"{tag}.Wh"].tensor, self.p[f"{tag}.b"].tensor
        hc = ad.constant(np.zeros(2 * H))
        states: list[Tensor] = [None] * x.shape[0]  # type: ignore[list-item]
        for t in order:
            hc = lstm_cell(x, t, hc, w_x, w_h, b, H)
            states[t] = ad.narrow(hc, 0, H)
        return states, states[order[-1]]

    def run(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Returns per-step (n, 2H) states and the (2H,) final-states summary."""
        n = x.shape[0]
        if n < 1:
            raise ContractError(f"{self.name}: empty sequence")
        fw_states, fw_final = self._sweep(x, range(n), "fw")
        bw_states, bw_final = self._sweep(x, range(n - 1, -1, -1), "bw")
        g = ad.concat([ad.stack(fw_states), ad.stack(bw_states)], axis=-1)
        summary = ad.concat([fw_final, bw_final], axis=-1)
        return g, summary


def encode_sentence(x: Tensor, lstm: BiLstm) -> EncodedSentence:
    g, summary = lstm.run(x)
    return EncodedSentence(g=g, summary=summary)


def encode_document(x: Tensor, lstm: BiLstm) -> EncodedDocument:
    g, summary = lstm.run(x)
    return EncodedDocument(g=g, summary=summary)


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
