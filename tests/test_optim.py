"""AdamW against a hand-stepped recurrence and the whole-array update; checkpoint round-trips."""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrel import autodiff as ad
from docrel.autodiff import Tape, backward
from docrel.checkpoint import load_checkpoint, save_checkpoint
from docrel.errors import CheckpointError, ConfigError
from docrel.optim import BLOCK, AdamW, Parameter
from docrel.training import train_model
from test_training import small_corpus, tiny_config


def oracle_step(opt):
    """The whole-array AdamW update, one fresh array per operation."""
    b1, b2 = opt.betas
    opt.t += 1
    for i, p in enumerate(opt.params):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        opt.m[i] = b1 * opt.m[i] + (1.0 - b1) * g
        opt.v[i] = b2 * opt.v[i] + (1.0 - b2) * (g * g)
        m_hat = opt.m[i] / (1.0 - b1 ** opt.t)
        v_hat = opt.v[i] / (1.0 - b2 ** opt.t)
        update = m_hat / (np.sqrt(v_hat) + opt.eps)
        if opt.weight_decay:
            update = update + opt.weight_decay * p.data
        p.tensor.data -= opt.lr * update
        p.zero_grad()


@pytest.fixture(params=[np.float64, np.float32], ids=["f64", "f32"])
def dtype(request):
    ad.set_default_dtype(request.param)
    try:
        yield request.param
    finally:
        ad.set_default_dtype(np.float64)


def test_zero_gradient_zero_decay_is_fixed_point():
    p = Parameter("w", np.array([1.0, -2.0]))
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    before = p.data.copy()
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_first_step_moves_by_about_lr():
    # grad 1 on a scalar: m_hat = v_hat = 1 after bias correction
    p = Parameter("w", np.array(1.0))
    p.tensor.grad = np.array(1.0)
    AdamW([p], lr=0.001, weight_decay=0.0).step()
    assert p.data == pytest.approx(1.0 - 0.001, rel=1e-6)


def test_three_steps_match_hand_computed_recurrence():
    # independent scalar AdamW trace computed with plain floats
    lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.1
    theta, m, v = 0.7, 0.0, 0.0
    grads = [0.3, -0.2, 0.5]
    expected = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * (m_hat / (v_hat ** 0.5 + eps) + wd * theta)
        expected.append(theta)

    p = Parameter("w", np.array(0.7))
    opt = AdamW([p], lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
    seen = []
    for g in grads:
        p.tensor.grad = np.array(g)
        opt.step()
        seen.append(float(p.data))
    np.testing.assert_allclose(seen, expected, rtol=0, atol=1e-15)


def test_decay_is_decoupled_from_gradient():
    # zero gradient, nonzero decay: moments stay zero, value shrinks by lr*wd*theta
    p = Parameter("w", np.array(2.0))
    opt = AdamW([p], lr=0.1, weight_decay=0.01)
    opt.step()
    assert p.data == pytest.approx(2.0 - 0.1 * 0.01 * 2.0)
    assert opt.m[0] == pytest.approx(0.0) and opt.v[0] == pytest.approx(0.0)


def test_gradients_cleared_after_step():
    p = Parameter("w", np.array([1.0]))
    p.tensor.grad = np.array([1.0])
    opt = AdamW([p], lr=0.01)
    opt.step()
    assert p.grad is None
    assert opt.t == 1


def test_nonpositive_lr_rejected():
    with pytest.raises(ConfigError):
        AdamW([Parameter("w", np.zeros(1))], lr=0.0)


@pytest.mark.parametrize("eps", [0.0, -1e-8])
def test_nonpositive_eps_rejected(eps):
    # eps = 0 with a zero second moment would write 0/0 = NaN into the weights
    with pytest.raises(ConfigError):
        AdamW([Parameter("w", np.zeros(1))], eps=eps)


def test_step_counts_are_monotone_per_parameter():
    p = Parameter("w", np.array([0.0]))
    opt = AdamW([p], lr=0.01)
    for want in (1, 2, 3):
        opt.step()
        assert opt.t == want


@pytest.mark.parametrize("shape", [(), (7, 5), (BLOCK,), (BLOCK + 1,), (3, BLOCK + 5)],
                         ids=["0d", "under_block", "one_block", "block_plus_one", "blocks"])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("missing", [False, True], ids=["grads", "grad_none_at_step_2"])
def test_step_is_bit_identical_to_the_whole_array_update(shape, weight_decay, missing, dtype):
    rng = np.random.default_rng(3)
    init = rng.normal(size=shape)
    grads = [rng.normal(size=shape) for _ in range(3)]
    grads[0] = np.where(rng.random(shape) < 0.1, 0.0, grads[0])
    if missing:
        grads[1] = None
    sides = []
    for step in (AdamW.step, oracle_step):
        p = Parameter("w", init)
        opt = AdamW([p], lr=0.01, weight_decay=weight_decay)
        for g in grads:
            p.tensor.grad = None if g is None else np.asarray(g, dtype=dtype)
            step(opt)
        sides.append({"data": p.data, "m": opt.m[0], "v": opt.v[0], "t": opt.t, "grad": p.grad})
    got, want = sides
    assert got["data"].shape == shape
    for name in ("data", "m", "v"):
        assert got[name].dtype == dtype
        assert got[name].tobytes() == want[name].tobytes(), name
    assert got["t"] == want["t"] == 3 and got["grad"] is None


def test_parameter_from_a_transposed_array_moves_like_the_oracle():
    base = np.random.default_rng(4).normal(size=(3, 5))
    got, want = Parameter("w", base.T), Parameter("w", base.T.copy())
    assert got.data.flags.c_contiguous
    for p, step in ((got, AdamW.step), (want, oracle_step)):
        p.tensor.grad = np.ones((5, 3))
        step(AdamW([p], lr=0.1))
    assert not np.array_equal(got.data, base.T)
    assert got.data.tobytes() == want.data.tobytes()


def test_step_allocates_a_small_fraction_of_the_parameter():
    p = Parameter("w", np.ones((1000, 1000)))
    p.tensor.grad = np.full((1000, 1000), 0.5)
    opt = AdamW([p], lr=0.01)
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * p.data.nbytes


def resident_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads /proc/self/statm")
def test_parameters_and_optimizer_leave_the_moments_unwritten_until_a_step():
    before = resident_bytes()
    p = Parameter("w", np.zeros((2048, 2048)))
    opt = AdamW([p])
    grown = resident_bytes() - before
    # the moments are 2 x 32 MB; written zeros would all be resident
    assert grown < 0.25 * p.data.nbytes
    assert opt.m[0].shape == opt.v[0].shape == p.data.shape and not opt.m[0].any()


def test_training_with_the_oracle_step_gives_identical_weights_and_losses(monkeypatch):
    docs = small_corpus()

    def run():
        return train_model(docs[:3], tiny_config(epochs=2), dev_docs=docs[3:],
                           log=lambda m: None)

    got = run()
    monkeypatch.setattr(AdamW, "step", oracle_step)
    want = run()
    assert set(got.best_state) == set(want.best_state)
    for name, arr in want.best_state.items():
        assert got.best_state[name].tobytes() == arr.tobytes(), name
    assert ([(s.epoch, s.loss, s.dev_f1, s.threshold) for s in got.history]
            == [(s.epoch, s.loss, s.dev_f1, s.threshold) for s in want.history])


def test_optimizer_drives_simple_quadratic_down():
    p = Parameter("w", np.array([4.0, -3.0]))
    opt = AdamW([p], lr=0.05, weight_decay=0.0)
    for _ in range(400):
        with Tape():
            loss = ad.tsum(ad.mul(p.tensor, p.tensor))
            backward(loss)
        opt.step()
    assert np.abs(p.data).max() < 1e-2


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "embed.word": rng.normal(size=(7, 3)),
        "cls.b": rng.normal(size=5),
        "scalar": np.array(np.pi),
    }
    config_text = "alpha = 1\nbeta = two\n"
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, arrays, config_text, meta={"threshold": 0.25})
    ckpt = load_checkpoint(path)
    assert ckpt.config_text == config_text
    assert ckpt.meta == {"threshold": 0.25}
    assert set(ckpt.arrays) == set(arrays)
    for name, arr in arrays.items():
        assert ckpt.arrays[name].tobytes() == arr.tobytes()
        assert ckpt.arrays[name].shape == arr.shape


def test_checkpoint_save_is_deterministic(tmp_path):
    arrays = {"a": np.arange(6.0).reshape(2, 3)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, arrays, "k = v\n")
    save_checkpoint(p2, arrays, "k = v\n")
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_detects_corruption(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"a": np.ones(4)}, "k = v\n")
    blob = bytearray(path.read_bytes())
    blob[10] ^= 0xFF  # inside the stored digest
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_meta_must_be_an_object(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"a": np.ones(2)}, "k = v\n", meta=[1])
    with pytest.raises(CheckpointError, match="not a JSON object"):
        load_checkpoint(path)


def small_checkpoint(path):
    save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(3, dtype=np.float32),
                           "s": np.array(2.0)},
                    "k = v\n", meta={"vocab": {"rel2id": {"r": 0}}, "threshold": 0.5})
    return path.read_bytes()


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ckpt-fuzz")
    return directory, small_checkpoint(directory / "clean.ckpt")


@settings(max_examples=400, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 255)), max_size=4),
       cut=st.none() | st.integers(0, 10 ** 6))
def test_corrupt_checkpoint_lets_only_checkpoint_error_out(fuzz_checkpoint, flips, cut):
    directory, clean = fuzz_checkpoint
    blob = bytearray(clean)
    for pos, mask in flips:
        blob[pos % len(blob)] ^= mask
    if cut is not None:
        del blob[cut % len(blob):]
    path = directory / "corrupt.ckpt"
    path.write_bytes(bytes(blob))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


def test_corrupt_dims_fail_the_length_check(tmp_path):
    blob = bytearray(small_checkpoint(tmp_path / "clean.ckpt"))
    first_dim = blob.index(b"\x01\x00w") + 3 + 2  # name, then dtype code and ndim
    blob[first_dim:first_dim + 4] = b"\xff\xff\xff\x7f"
    path = tmp_path / "dims.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_float32_records(tmp_path):
    path = tmp_path / "model.ckpt"
    arr = np.arange(4, dtype=np.float32)
    save_checkpoint(path, {"a": arr}, "")
    loaded = load_checkpoint(path).arrays["a"]
    assert loaded.dtype == np.float32
    assert loaded.tobytes() == arr.tobytes()


def test_checkpoint_bytes_are_pinned(tmp_path):
    # the SHA-256 of this checkpoint as written before saving was streamed
    rng = np.random.default_rng(2024)
    arrays = {"enc.w": rng.normal(size=(3, 4)), "enc.b": rng.normal(size=5).astype(np.float32),
              "enc.t": rng.normal(size=(4, 2)).T, "empty": np.zeros((0, 2)),
              "scalar": np.array(1.5)}
    path = tmp_path / "pinned.ckpt"
    save_checkpoint(path, arrays, "hidden_size = 8\nseed = 3\n",
                    meta={"threshold": 0.25, "vocab": {"w": [1, 2]}})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "790fbe2179f9c0abeca85f4425c7412ec68cb873b776ee8ca33fded069718070"


def test_failed_checkpoint_write_keeps_the_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "model.ckpt"
    old = small_checkpoint(path)
    # the first record is streamed out before the second one's dtype fails
    with pytest.raises(CheckpointError, match="unsupported dtype"):
        save_checkpoint(path, {"w": np.ones(3), "bad": np.arange(3)}, "k = v\n")
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_onto_a_directory_leaves_no_temp(tmp_path):
    target = tmp_path / "model.ckpt"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        save_checkpoint(target, {"w": np.ones(3)}, "k = v\n")
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
