import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import molflow.autodiff as ad
from molflow.autodiff import (
    AdamState,
    SeededRng,
    Tensor,
    adam_step,
    backward,
    fnv1a_64,
    gradient_check,
)


def test_matmul_hand_arithmetic():
    out = ad.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
    assert np.array_equal(out, np.array([[3.0], [7.0]]))


def test_sigmoid_symmetry_point():
    assert ad.sigmoid(np.array(0.0)) == 0.5


def test_concat_definition():
    assert np.array_equal(ad.concat([np.array([1.0, 2.0]), np.array([3.0])]), [1.0, 2.0, 3.0])


def test_matmul_shape_mismatch_raises():
    with pytest.raises(ValueError):
        ad.matmul(np.ones((2, 3)), np.ones((2, 3)))


def test_backward_square():
    x = Tensor(3.0)
    y = x * x
    y.backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_sigmoid_at_zero():
    x = Tensor(0.0)
    ad.sigmoid(x).backward()
    assert x.grad == pytest.approx(0.25)


def test_backward_product_rule():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 4.0])
    ad.tsum(a * b).backward()
    assert np.array_equal(a.grad, [3.0, 4.0])
    assert np.array_equal(b.grad, [1.0, 2.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        (x * x).backward()


def test_unreachable_leaf_gets_zero_gradient():
    x = Tensor([1.0, 2.0])
    orphan = Tensor([5.0])
    grads = backward(ad.tsum(x * x), [x, orphan])
    assert np.array_equal(grads[0], [2.0, 4.0])
    assert np.array_equal(grads[1], [0.0])


def test_gradient_check_square_and_constant():
    assert gradient_check(lambda x: ad.tsum(x * x), np.array([2.0]), eps=1e-5) < 1e-6
    assert gradient_check(lambda x: ad.tsum(x * 0.0) + 3.0, np.array([1.0, -2.0])) == 0.0


def test_gradient_check_eps_range():
    with pytest.raises(ValueError):
        gradient_check(lambda x: ad.tsum(x), np.ones(2), eps=0.5)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_gradient_check_mixed_ops(seed):
    rng = SeededRng(seed)
    w = rng.normal((3, 3))

    def f(x):
        h = ad.tanh(ad.reshape(x, (1, 3)) @ w)
        return ad.tsum(ad.sigmoid(h) * x) + ad.tsum(ad.sqrt(x * x + 1.0))

    assert gradient_check(f, rng.normal((3,)), eps=1e-6) < 1e-5


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_backward_linearity(seed):
    # grad of (f + g) equals grad f + grad g elementwise
    rng = SeededRng(seed)
    a = rng.normal((4, 4))
    b = rng.normal((4, 4))
    point = rng.normal((4,))

    def f(x):
        return ad.tsum(ad.tanh(ad.reshape(x, (1, 4)) @ a))

    def g(x):
        return ad.tsum(ad.sigmoid(ad.reshape(x, (1, 4)) @ b) * x)

    xf = Tensor(point)
    f(xf).backward()
    xg = Tensor(point)
    g(xg).backward()
    xs = Tensor(point)
    (f(xs) + g(xs)).backward()
    assert np.allclose(xs.grad, xf.grad + xg.grad, atol=1e-12, rtol=0.0)


def test_gather_concat_reshape_transpose_gradients():
    rng = SeededRng(3)

    def f(x):
        g1 = ad.gather(x, [0, 2], axis=1)
        g2 = ad.gather(x, [1], axis=1)
        cat = ad.concat([g1, g2, g1], axis=1)  # (5, 5)
        return ad.tsum(ad.reshape(cat, (25, 1)) * 0.7)

    assert gradient_check(f, rng.normal((5, 5))) < 1e-8


def test_log_sigmoid_matches_log_of_sigmoid_and_is_stable():
    x = np.array([-3.0, 0.0, 2.5])
    assert np.allclose(ad.log_sigmoid(x), np.log(ad.sigmoid(x)), atol=1e-12)
    assert np.isfinite(ad.log_sigmoid(np.array([-500.0, 500.0]))).all()
    assert gradient_check(lambda t: ad.tsum(ad.log_sigmoid(t)), np.array([0.3, -1.2])) < 1e-8


def test_adam_first_step_closed_form():
    params = [np.zeros(4)]
    grads = [np.ones(4)]
    state = AdamState.for_params(params, lr=1e-3)
    out = adam_step(params, grads, state)
    # bias-corrected first step: -lr * 1 / (1 + eps)
    expected = -1e-3 / (1.0 + 1e-8)
    assert np.allclose(out[0], expected, atol=1e-15)
    assert state.step == 1


def test_adam_zero_gradient_keeps_params():
    params = [np.array([1.0, -2.0])]
    state = AdamState.for_params(params, lr=1e-3)
    out = adam_step(params, [np.zeros(2)], state)
    assert np.array_equal(out[0], params[0])


def test_adam_deterministic():
    def run():
        params = [np.array([0.5, -0.5])]
        state = AdamState.for_params(params, lr=1e-2)
        for k in range(5):
            params = adam_step(params, [np.array([0.1 * k, -0.2])], state)
        return params[0]

    assert np.array_equal(run(), run())


def test_adam_rejects_non_finite_gradient():
    params = [np.zeros(2)]
    state = AdamState.for_params(params)
    with pytest.raises(ValueError):
        adam_step(params, [np.array([1.0, np.nan])], state)


def test_seeded_rng_reproducible_and_spawn_independent():
    a = SeededRng(99).normal((5,))
    b = SeededRng(99).normal((5,))
    assert np.array_equal(a, b)
    child1 = SeededRng(99).spawn("x").normal((5,))
    child2 = SeededRng(99).spawn("y").normal((5,))
    assert not np.array_equal(child1, child2)
    assert np.array_equal(child1, SeededRng(99).spawn("x").normal((5,)))


def test_fnv1a_known_vector():
    # standard FNV-1a 64-bit test vector
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C


def test_determinism_of_training_trajectory():
    # same seed + same inputs => bit-identical short training trajectories
    def run():
        rng = SeededRng(11)
        w = [rng.normal((3, 3))]
        state = AdamState.for_params(w, lr=1e-3)
        trace = []
        for _ in range(100):
            leaf = Tensor(w[0])
            loss = ad.tsum(ad.tanh(leaf) * leaf)
            loss.backward()
            w = adam_step(w, [leaf.grad], state)
            trace.append(loss.data.copy())
        return np.array(trace), w[0]

    t1, w1 = run()
    t2, w2 = run()
    assert np.array_equal(t1, t2)
    assert np.array_equal(w1, w2)
