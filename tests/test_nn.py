import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonsim.nn import (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, AdamState,
                       adam_step, backward, flatten, forward, init_params,
                       layer_sizes_of, layer_views, load_params, save_params)


def forward_oracle(params, x):
    # independent straight-line re-implementation with explicit loops
    h = [float(v) for v in x]
    num_layers = len(params) // 2
    for i in range(num_layers):
        w, b = params[2 * i], params[2 * i + 1]
        out = []
        for j in range(w.shape[1]):
            acc = b[j]
            for k in range(w.shape[0]):
                acc += h[k] * w[k, j]
            if i < num_layers - 1 and acc < 0.0:
                acc = 0.0
            out.append(acc)
        h = out
    return np.array(h)


class TestForward:
    def test_zero_params_zero_output(self):
        params = [np.zeros((3, 4)), np.zeros(4), np.zeros((4, 5)), np.zeros(5)]
        assert np.array_equal(forward(params, [1.0, 0.0, 0.0]), np.zeros(5))

    def test_identity_relu_passthrough(self):
        params = [np.eye(3), np.zeros(3), np.eye(3), np.zeros(3),
                  np.eye(3), np.zeros(3)]
        assert np.array_equal(forward(params, [1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = init_params((3, 6, 6, 5), rng)
            x = rng.normal(size=3)
            np.testing.assert_allclose(forward(params, x),
                                       forward_oracle(params, x), atol=1e-12)

    def test_negative_output_representable(self):
        rng = np.random.default_rng(1)
        outs = [forward(init_params((3, 24, 24, 5), rng), [0.0, 1.0, 0.0]).min()
                for _ in range(50)]
        assert min(outs) < 0.0


def output_bias_grad(predicted, target):
    """Output-bias gradient of the taken action for a network whose output
    is its bias alone: the derivative of the masked squared error."""
    params = [np.zeros((3, 5)), np.full(5, float(predicted))]
    return backward(params, [1.0, 0.0, 0.0], 0, target)[-1][0]


class TestLoss:
    def test_zero_at_match(self):
        assert output_bias_grad(2.5, 2.5) == 0.0

    def test_known_value(self):
        assert output_bias_grad(0.0, 2.0) == -4.0

    def test_gradient_factor(self):
        # d/dpred (target - pred)^2 = 2 (pred - target)
        pred, target, h = 1.3, -0.7, 1e-7
        num = ((target - pred - h) ** 2 - (target - pred + h) ** 2) / (2 * h)
        assert num == pytest.approx(output_bias_grad(pred, target), abs=1e-6)
        assert output_bias_grad(pred, target) == 2 * (pred - target)


def finite_difference_grads(params, x, action, target, h=1e-5):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat, gflat = p.ravel(), g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = (target - forward(params, x)[action]) ** 2
            flat[k] = orig - h
            down = (target - forward(params, x)[action]) ** 2
            flat[k] = orig
            gflat[k] = (up - down) / (2 * h)
        grads.append(g)
    return grads


class TestBackward:
    def test_zero_gradient_at_optimum(self):
        rng = np.random.default_rng(2)
        params = init_params((3, 24, 24, 5), rng)
        x = np.array([0.0, 1.0, 0.0])
        target = forward(params, x)[3]
        grads = backward(params, x, 3, target)
        assert all(np.allclose(g, 0.0, atol=1e-15) for g in grads)

    def test_non_taken_action_head_untouched(self):
        rng = np.random.default_rng(3)
        params = init_params((3, 24, 24, 5), rng)
        x = np.array([1.0, 0.0, 0.0])
        grads = backward(params, x, 2, 1.5)
        w_out, b_out = grads[-2], grads[-1]
        for a in range(5):
            if a != 2:
                assert np.all(w_out[:, a] == 0.0)
                assert b_out[a] == 0.0

    def test_matches_finite_differences_small_net(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            params = init_params((3, 8, 8, 5), rng)
            x = np.zeros(3)
            x[rng.integers(3)] = 1.0
            action = int(rng.integers(5))
            target = float(rng.normal(scale=3.0))
            analytic = backward(params, x, action, target)
            numeric = finite_difference_grads(params, x, action, target)
            for a, n in zip(analytic, numeric):
                np.testing.assert_allclose(a, n, rtol=1e-4, atol=1e-6)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def nets_and_batches(draw):
    """A random dense net and a batch of 1-64 inputs, one-hot or real."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=2, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    params = init_params(tuple(sizes), rng)
    params = [p + rng.normal(scale=0.1, size=p.shape) for p in params]
    rows = draw(st.integers(1, 64))
    if draw(st.booleans()):
        x = np.eye(sizes[0])[rng.integers(sizes[0], size=rows)]
    else:
        x = rng.normal(scale=2.0, size=(rows, sizes[0]))
    actions = rng.integers(sizes[-1], size=rows)
    targets = rng.normal(scale=3.0, size=rows)
    return params, x, actions, targets


class TestBatch:
    @settings(max_examples=150, deadline=None)
    @given(nets_and_batches())
    def test_forward_rows_match_single_calls(self, case):
        params, x, _, _ = case
        batch = forward(params, x)
        for row, q in zip(x, batch):
            assert same_bits(forward(params, row), q)

    @settings(max_examples=150, deadline=None)
    @given(nets_and_batches())
    def test_backward_is_running_sum_of_single_calls(self, case):
        params, x, actions, targets = case
        running = None
        for row, a, y in zip(x, actions, targets):
            g = backward(params, row, int(a), float(y))
            running = g if running is None else [u + v for u, v in zip(running, g)]
        batch = backward(params, x, actions, targets)
        assert len(batch) == len(running)
        assert all(same_bits(u, v) for u, v in zip(batch, running))


def per_layer_adam(params, grads, m, v, t, lr):
    """Transcription of the update as a loop over the parameter arrays."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    new_params = []
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = b1 * m[i] + (1.0 - b1) * g
        v[i] = b2 * v[i] + (1.0 - b2) * g * g
        m_hat = m[i] / (1.0 - b1 ** t)
        v_hat = v[i] / (1.0 - b2 ** t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON))
    return new_params


class TestAdam:
    def test_zero_gradient_keeps_weights(self):
        params = np.array([1.0, -2.0, 0.5])
        state = AdamState.for_params(params)
        new, state = adam_step(params, np.zeros(3), state)
        assert np.array_equal(new[:2], params[:2])
        assert np.array_equal(new[2:], params[2:])

    def test_single_step_closed_form(self):
        # one step against unit gradient: bias-corrected moments are exactly
        # one, so the step is lr / (1 + eps)
        params = np.array([0.0])
        state = AdamState.for_params(params, learning_rate=1e-3)
        new, state = adam_step(params, np.array([1.0]), state)
        expected = -1e-3 * 1.0 / (np.sqrt(1.0) + 1e-8)
        assert new[0] == pytest.approx(expected, abs=1e-18)

    def test_two_step_closed_form_oracle(self):
        # closed-form simulation of two updates with constant unit gradient
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        w, m, v = 0.0, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * 1.0
            v = b2 * v + (1 - b2) * 1.0
            w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

        params = np.array([0.0])
        state = AdamState.for_params(params, learning_rate=lr)
        p1, state = adam_step(params, np.array([1.0]), state)
        p2, state = adam_step(p1, np.array([1.0]), state)
        assert p2[0] == pytest.approx(w, abs=1e-15)
        # bias correction makes a constant-gradient step constant, and
        # second-moment growth means it can never grow
        step1 = p1[0] - 0.0
        step2 = p2[0] - p1[0]
        assert abs(step2) <= abs(step1) * (1 + 1e-12)

    def test_effective_step_shrinks_when_gradients_grow(self):
        params = np.array([0.0])
        state = AdamState.for_params(params, learning_rate=1e-3)
        p1, state = adam_step(params, np.array([1.0]), state)
        p2, state = adam_step(p1, np.array([4.0]), state)
        # per unit of gradient the move shrank: second moment grew faster
        step1 = abs(p1[0] - 0.0) / 1.0
        step2 = abs(p2[0] - p1[0]) / 4.0
        assert step2 < step1

    def test_inputs_never_mutated(self):
        rng = np.random.default_rng(5)
        params = flatten(init_params((3, 24, 24, 5), rng))
        before = params.copy()
        grads = np.ones_like(params)
        adam_step(params, grads, AdamState.for_params(params))
        assert np.array_equal(params, before)

    def test_matches_per_layer_update_bit_for_bit(self):
        # the flat vector's elementwise update gives each value the bits the
        # per-array loop gives it, step after step
        rng = np.random.default_rng(8)
        params = init_params((3, 24, 24, 5), rng)
        flat = flatten(params)
        state = AdamState.for_params(flat, learning_rate=1e-2)
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        for t in range(1, 21):
            grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=p.shape)
                     for p in params]
            params = per_layer_adam(params, grads, m, v, t, 1e-2)
            flat, state = adam_step(flat, flatten(grads), state)
            for got, want in [(flat, params), (state.m, m), (state.v, v)]:
                assert got.tobytes() == flatten(want).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 12), st.integers(1, 6), st.integers(0, 10_000),
           st.floats(1e-6, 1.0))
    def test_zero_gradient_signs_move_no_parameter(self, data, size, steps, t0, lr):
        # the backward pass's einsum products may give +0.0 where a multiply
        # gives -0.0; flipping the sign of every zero gradient leaves the
        # parameters' bytes as they are and the moments equal
        values = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])
        vector = st.lists(values, min_size=size, max_size=size).map(np.array)
        params = data.draw(vector) + 0.0  # no parameter is -0.0
        m = data.draw(vector)
        v = np.abs(data.draw(vector))
        states = [AdamState(m.copy(), v.copy(), t0, lr) for _ in range(2)]
        flipped = params.copy()
        for _ in range(steps):
            grads = data.draw(st.lists(values | st.just(0.0), min_size=size,
                                       max_size=size).map(np.array))
            params, states[0] = adam_step(params, grads, states[0])
            flipped, states[1] = adam_step(flipped, np.where(grads == 0, -grads, grads),
                                           states[1])
            assert params.tobytes() == flipped.tobytes()
            assert np.array_equal(states[0].m, states[1].m)
            assert states[0].v.tobytes() == states[1].v.tobytes()

    def test_training_decreases_loss_on_fixed_batch(self):
        rng = np.random.default_rng(6)
        params = init_params((3, 24, 24, 5), rng)
        sizes = layer_sizes_of(params)
        targets = rng.normal(scale=2.0, size=(3, 5))
        batch = [(np.eye(3)[s], a, targets[s, a])
                 for s in range(3) for a in range(5)]
        flat = flatten(params)
        state = AdamState.for_params(flat, learning_rate=1e-3)

        def total_loss(ps):
            return sum((y - forward(ps, x)[a]) ** 2 for x, a, y in batch)

        losses = [total_loss(params)]
        for _ in range(50):
            grads = None
            for x, a, y in batch:
                g = backward(params, x, a, y)
                grads = g if grads is None else [u + v for u, v in zip(grads, g)]
            grads = [g / len(batch) for g in grads]
            flat, state = adam_step(flat, flatten(grads), state)
            params = layer_views(flat, sizes)
            losses.append(total_loss(params))
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestInitAndPersistence:
    def test_init_reproducible(self):
        a = init_params((3, 24, 24, 5), np.random.default_rng(42))
        b = init_params((3, 24, 24, 5), np.random.default_rng(42))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_init_bounds_and_shapes(self):
        params = init_params((3, 24, 24, 5), np.random.default_rng(0))
        assert layer_sizes_of(params) == (3, 24, 24, 5)
        bound0 = np.sqrt(6.0 / (3 + 24))
        assert np.abs(params[0]).max() <= bound0
        assert np.all(params[1] == 0.0)

    def test_save_load_roundtrip(self, tmp_path):
        params = init_params((3, 24, 24, 5), np.random.default_rng(9))
        path = tmp_path / "weights.txt"
        save_params(flatten(params), layer_sizes_of(params), path)
        loaded = load_params(path)
        assert len(loaded) == len(params)
        for a, b in zip(params, loaded):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-16)

    def test_layer_views_share_the_vector(self):
        params = init_params((3, 4, 2), np.random.default_rng(1))
        flat = flatten(params)
        views = layer_views(flat, (3, 4, 2))
        assert all(np.array_equal(a, b) for a, b in zip(views, params))
        flat[:] = 0.0
        assert all(np.all(v == 0.0) for v in views)
        with pytest.raises(ValueError):
            layer_views(flat[:-1], (3, 4, 2))

    def test_load_rejects_a_short_file(self, tmp_path):
        path = tmp_path / "weights.txt"
        save_params(np.zeros(10), (3, 4, 2), path)
        with pytest.raises(ValueError, match="does not match header"):
            load_params(path)

    @pytest.mark.parametrize("text", ["", "0.0\n1.0\n", "# weights 3 4 2\n0.0\n"],
                             ids=["empty", "values only", "other header"])
    def test_load_rejects_a_file_with_no_layer_header(self, tmp_path, text):
        path = tmp_path / "weights.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="missing layer-size header"):
            load_params(path)
