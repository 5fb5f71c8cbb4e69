"""Tensor core: forward values against naive oracles, backward against FD."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrel import autodiff as ad
from docrel.autodiff import Tape, Tensor, backward, check_gradients
from docrel.errors import ContractError, NotFoundError, ShapeError
from docrel.reasoning import chain_attention, chain_candidates


def leaf(values):
    return Tensor(np.asarray(values, dtype=float), requires_grad=True)


def gradient_check(f, x, eps=1e-5):
    """Max relative error between reverse-mode and central-difference gradients of f at x."""
    return check_gradients(lambda: f(x), [x], eps=eps)[0]


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_softmax_uniform_on_equal_inputs():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_relu_definition():
    out = ad.relu(Tensor([1.0, -2.0]))
    np.testing.assert_array_equal(out.data, [1.0, 0.0])


def test_matmul_against_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 2))
    expected = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(3):
                expected[i, j] += a[i, k] * b[k, j]
    out = ad.matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-15)


def test_matmul_shape_error_names_op():
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
def test_softmax_rows_are_distributions(values):
    out = ad.softmax(Tensor(values)).data
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) < 1e-6


def test_mean_and_sum_values():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(ad.mean(x, axis=0).data, [2.0, 3.0])
    np.testing.assert_allclose(ad.tsum(x).data, 10.0)


def test_concat_and_stack_roundtrip():
    a, b = Tensor([1.0, 2.0]), Tensor([3.0])
    np.testing.assert_array_equal(ad.concat([a, b], axis=-1).data, [1, 2, 3])
    np.testing.assert_array_equal(ad.stack([Tensor([1.0, 2.0]), Tensor([3.0, 4.0])]).data,
                                  [[1, 2], [3, 4]])


def test_embedding_out_of_range_raises():
    table = Tensor(np.ones((3, 2)))
    with pytest.raises(NotFoundError):
        ad.take_rows(table, [0, 3])


def test_dropout_mask_is_inverted():
    rng = np.random.default_rng(1)
    mask = ad.dropout_mask(rng, (1000,), 0.25)
    kept = mask[mask > 0]
    np.testing.assert_allclose(kept, 1 / 0.75)
    assert 0.6 < (mask > 0).mean() < 0.9


def test_topk_ties_break_to_lowest_index():
    np.testing.assert_array_equal(ad.topk_indices(np.array([0.5, 0.5]), 1), [0])
    np.testing.assert_array_equal(ad.topk_indices(np.array([0.1, 0.9, 0.9]), 2), [1, 2])
    np.testing.assert_array_equal(ad.topk_indices(np.array([0.1, 0.2]), 5), [0, 1])


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_square():
    x = leaf(3.0)
    with Tape():
        y = ad.mul(x, x)
        backward(y)
    assert x.grad == pytest.approx(6.0)


def test_backward_rejects_non_scalar():
    x = leaf([1.0, 2.0])
    with Tape():
        y = ad.mul(x, x)
        with pytest.raises(ContractError):
            backward(y)


def test_backward_mean_sigmoid_linear_matches_fd_oracle():
    # independent central-difference loop, not the library's own checker
    rng = np.random.default_rng(2)
    W = rng.normal(size=(3, 4))
    x = leaf(rng.normal(size=4))

    def loss_value(vec):
        return float(np.mean(1 / (1 + np.exp(-(W @ vec)))))

    with Tape():
        out = ad.mean(ad.sigmoid(ad.matmul(Tensor(W), x)))
        backward(out)
    eps = 1e-6
    for i in range(4):
        bumped = x.data.copy()
        bumped[i] += eps
        dipped = x.data.copy()
        dipped[i] -= eps
        fd = (loss_value(bumped) - loss_value(dipped)) / (2 * eps)
        assert ad.relative_error(float(x.grad[i]), fd) < 1e-4


def test_unreached_leaf_keeps_no_gradient():
    x, unused = leaf([1.0, 2.0]), leaf([5.0])
    with Tape():
        y = ad.tsum(ad.mul(x, x))
        backward(y)
    assert unused.grad is None  # optimizer treats missing gradients as zeros
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_zero_fills_listed_unreachable_leaves():
    x, unused = leaf([1.0, 2.0]), leaf([5.0, 6.0])
    with Tape():
        y = ad.tsum(ad.mul(x, x))
        backward(y, leaves=[x, unused])
    np.testing.assert_array_equal(unused.grad, [0.0, 0.0])
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_gradients_accumulate_across_uses():
    x = leaf(2.0)
    with Tape():
        y = ad.add(ad.mul(x, x), ad.mul(3.0, x))
        backward(y)
    assert x.grad == pytest.approx(7.0)


def test_first_gradient_is_a_copy_unless_handed_over():
    x = leaf(np.zeros(3))
    g = np.array([1.0, -0.0, 2.0])
    ad._accum(x, g)
    assert x.grad is not g and x.grad.dtype == x.data.dtype
    g[0] = 5.0
    np.testing.assert_array_equal(x.grad, [1.0, 0.0, 2.0])
    ad._accum(x, g)
    np.testing.assert_array_equal(x.grad, [6.0, 0.0, 4.0])

    fresh = np.array([1.0, 2.0, 3.0])
    y = leaf(np.zeros(3))
    ad._adopt(y, fresh)
    assert y.grad is fresh
    ad._adopt(y, np.ones(3))
    np.testing.assert_array_equal(y.grad, [2.0, 3.0, 4.0])
    # another dtype or a broadcast shape is copied into the tensor's own
    z = leaf(np.zeros((2, 3)))
    ad._adopt(z, np.ones(3, np.float32))
    assert z.grad.shape == (2, 3) and z.grad.dtype == np.float64


def test_place_rows_inverts_take_rows():
    x = np.arange(12.0).reshape(6, 2)
    rows = [np.array([4, 0, 5]), np.array([2, 1, 3])]
    placed = ad.place_rows([Tensor(x[r]) for r in rows], rows)
    np.testing.assert_array_equal(placed.data, x)
    whole = Tensor(x)
    assert ad.place_rows([whole], [np.arange(6)]) is whole
    with pytest.raises(ContractError):
        ad.place_rows([Tensor(x[:3]), Tensor(x[:3])], [[0, 1, 2], [2, 3, 4]])
    with pytest.raises(ShapeError):
        ad.place_rows([Tensor(x[:3])], [[0, 1]])


def test_no_tape_means_no_recording():
    x = leaf([1.0])
    y = ad.mul(x, x)
    assert y.tape is None and not y.requires_grad


def test_decision_trace_sees_only_its_own_thread():
    def other():
        ad.relu(Tensor(np.ones(3)))

    with ad.decision_trace() as trace:
        worker = threading.Thread(target=other)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and trace == []
        ad.relu(Tensor(-np.ones(2)))
    assert [kind for kind, _ in trace] == ["relu"]


def test_broadcast_add_gradient_reduces():
    m = leaf(np.ones((3, 2)))
    b = leaf(np.zeros(2))
    with Tape():
        out = ad.tsum(ad.add(m, b))
        backward(out)
    np.testing.assert_allclose(b.grad, [3.0, 3.0])
    np.testing.assert_allclose(m.grad, np.ones((3, 2)))


def pieces(x, *shapes):
    """Consecutive pieces of the flat leaf x, one per shape, so one leaf feeds every input."""
    out, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(ad.reshape(ad.narrow(x, start, start + size), shape))
        start += size
    return out


PAIRS = (np.array([0, 0, 1, 2]), np.array([1, 2, 2, 0]))  # heads, tails over 3 entities
PAIR_ROWS = np.array([0, 2, 3, 5])                         # among 6 rows; 1 and 4 are plain


def pair_linear_sentences(x):
    entities, alpha, sentences, w, plain = pieces(x, (3, 2), (4, 3), (3, 2), (2, 6), (6, 6))
    out = ad.pair_linear(entities, *PAIRS, (alpha, sentences), w, plain=plain, rows=PAIR_ROWS)
    return ad.tsum(ad.mul(out, ad.constant(np.arange(12.0).reshape(6, 2))))


def pair_linear_plain(x):
    entities, w, plain = pieces(x, (3, 2), (2, 6), (6, 6))
    out = ad.pair_linear(entities, *PAIRS, None, w, plain=plain, rows=PAIR_ROWS)
    return ad.tsum(ad.mul(out, ad.constant(np.arange(12.0).reshape(6, 2))))


def chain_attention_values(x):
    queries, reps, values = pieces(x, (4, 3), (4, 3), (4, 2))
    out, _ = chain_attention(queries, reps, chain_candidates(*PAIRS), values)
    return ad.tsum(ad.mul(out, ad.constant(np.arange(8.0).reshape(4, 2))))


# every primitive's Jacobian agrees with central differences
@pytest.mark.parametrize("name,fn,shape", [
    ("add", lambda x: ad.tsum(ad.add(x, 0.5)), (4,)),
    ("sub", lambda x: ad.tsum(ad.sub(1.5, x)), (4,)),
    ("mul", lambda x: ad.tsum(ad.mul(x, x)), (4,)),
    ("div", lambda x: ad.tsum(ad.div(1.0, ad.add(x, 3.0))), (4,)),
    ("matmul", lambda x: ad.tsum(ad.matmul(x, ad.constant(np.arange(6.0).reshape(3, 2)))), (2, 3)),
    ("linear", lambda x: ad.tsum(ad.linear(x, ad.constant(np.arange(6.0).reshape(2, 3)),
                                           ad.constant(np.ones(2)))), (4, 3)),
    ("transpose", lambda x: ad.tsum(ad.mul(ad.transpose(x), 2.0)), (2, 3)),
    ("concat", lambda x: ad.tsum(ad.concat([x, ad.mul(x, 2.0)], axis=-1)), (3,)),
    ("stack", lambda x: ad.tsum(ad.stack([ad.take_rows(x, 0), ad.take_rows(x, 1)])), (2, 3)),
    ("narrow", lambda x: ad.tsum(ad.narrow(x, 1, 3)), (4,)),
    ("take_rows", lambda x: ad.tsum(ad.take_rows(x, np.array([0, 2, 2]))), (3, 2)),
    ("place_rows", lambda x: ad.tsum(ad.mul(
        ad.place_rows([ad.take_rows(x, [0, 2]),
                       ad.mul(ad.take_rows(x, [1]), ad.take_rows(x, [0]))], [[2, 0], [1]]),
        ad.constant(np.arange(6.0).reshape(3, 2)))), (3, 2)),
    ("mean0", lambda x: ad.tsum(ad.mean(x, axis=0)), (3, 2)),
    ("mean_all", lambda x: ad.mean(x), (3, 2)),
    ("reshape", lambda x: ad.tsum(ad.mul(ad.reshape(x, (6,)), 1.5)), (2, 3)),
    ("sigmoid", lambda x: ad.tsum(ad.sigmoid(x)), (5,)),
    ("tanh", lambda x: ad.tsum(ad.tanh(x)), (5,)),
    ("softmax", lambda x: ad.tsum(ad.mul(ad.softmax(x), ad.constant(np.arange(5.0)))), (5,)),
    ("log", lambda x: ad.tsum(ad.log(ad.add(ad.mul(x, x), 1.0))), (4,)),
    ("relu", lambda x: ad.tsum(ad.relu(x)), (6,)),
    ("clip", lambda x: ad.tsum(ad.clip(x, -0.5, 0.5)), (5,)),
    ("pair_linear_sentences", pair_linear_sentences, (72,)),
    ("pair_linear_plain", pair_linear_plain, (54,)),
    ("chain_attention_values", chain_attention_values, (32,)),
])
def test_primitive_jacobians_match_finite_differences(name, fn, shape):
    rng = np.random.default_rng(hash(name) % (2 ** 32))
    x = leaf(rng.normal(size=shape) * 0.7)
    assert gradient_check(fn, x, eps=1e-6) < 1e-4, name


# ---------------------------------------------------------------------------
# gradient_check harness behavior
# ---------------------------------------------------------------------------

def test_gradient_check_polynomial_is_tight():
    x = leaf([1.0, 2.0])
    err = gradient_check(lambda t: ad.tsum(ad.mul(t, t)), x, eps=1e-5)
    assert err < 1e-8


def test_gradient_check_skips_dead_relu_coordinate():
    x = leaf([1.0, 0.0])
    err, checked, skipped = check_gradients(lambda: ad.tsum(ad.relu(x)), [x])
    assert skipped == 1 and checked == 1 and err < 1e-8


def test_gradient_check_skips_topk_boundary():
    x = leaf([0.5, 0.5, 0.1])

    def f(t):
        idx = ad.topk_indices(t.data, 1)
        return ad.tsum(ad.take_rows(ad.reshape(t, (3, 1)), idx))

    err, checked, skipped = check_gradients(lambda: f(x), [x])
    # perturbing either tied coordinate flips the selection
    assert skipped == 2 and checked == 1


def test_determinism_bitwise():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(4, 4))

    def run():
        x = leaf(np.arange(4.0))
        with Tape():
            loss = ad.tsum(ad.softmax(ad.matmul(ad.constant(W), ad.tanh(x))))
            backward(loss)
        return loss.data.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()
