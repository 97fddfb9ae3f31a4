"""Dense value network in plain numpy: forward pass, masked-MSE
backpropagation (both on one input or a batch) and the adaptive-moments
optimizer.

The network is a stack of affine layers with ReLU between them and a linear
output head, so negative value targets stay representable.  Parameters are
a flat list [W0, b0, W1, b1, ...] with W of shape (fan_in, fan_out).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_LAYER_SIZES = (3, 24, 24, 5)


def init_params(layer_sizes=DEFAULT_LAYER_SIZES,
                rng: np.random.Generator | None = None) -> list[np.ndarray]:
    """Glorot-uniform weights, zero biases."""
    rng = rng if rng is not None else np.random.default_rng()
    params: list[np.ndarray] = []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        params.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        params.append(np.zeros(fan_out))
    return params


def layer_sizes_of(params: list[np.ndarray]) -> tuple[int, ...]:
    return (params[0].shape[0],) + tuple(w.shape[1] for w in params[0::2])


def _activations(params: list[np.ndarray], x: np.ndarray) -> list[np.ndarray]:
    """Every layer's output, the input first, for one input (in,) or a
    batch (B, in).  Each row goes through its own vector-matrix product, so
    a batch row is bit-identical to the same input evaluated alone."""
    acts = [x]
    num_layers = len(params) // 2
    for i in range(num_layers):
        z = (acts[-1][..., None, :] @ params[2 * i])[..., 0, :] + params[2 * i + 1]
        acts.append(np.maximum(z, 0.0) if i < num_layers - 1 else z)
    return acts


def forward(params: list[np.ndarray], x) -> np.ndarray:
    """Evaluate the network on one input (in,) or a batch (B, in); returns
    the value vector for all actions, one row per batch row."""
    return _activations(params, np.asarray(x, dtype=float))[-1]


def backward(params: list[np.ndarray], x, action_index,
             target) -> list[np.ndarray]:
    """Exact gradients of (target - q[action_index])^2 w.r.t. every
    parameter; the loss is masked to the taken action's output unit.

    ``x`` is one input (in,) or a batch (B, in) with an action index and a
    target per row.  A batch returns the per-row gradients summed in row
    order, bit-identical to a running sum of single-row calls.
    """
    acts = _activations(params, np.atleast_2d(np.asarray(x, dtype=float)))
    q = acts[-1]
    rows = np.arange(len(q))
    delta = np.zeros_like(q)
    delta[rows, action_index] = 2.0 * (q[rows, action_index] - target)

    # The bias is the weight of a constant-one input.  With it stacked in,
    # a row's gradient has two or more elements, so numpy sums the rows over
    # the leading axis one after another (a one-element row would be summed
    # pairwise); starting from -0.0, the exact additive identity, keeps the
    # sign of a zero as a running sum of single rows gives it.
    ones = np.ones((len(q), 1))
    grads: list[np.ndarray] = [np.empty(0)] * len(params)
    for i in reversed(range(len(params) // 2)):
        inputs = np.concatenate((acts[i], ones), axis=1)
        g = (inputs[:, :, None] * delta[:, None, :]).sum(axis=0, initial=-0.0)
        grads[2 * i], grads[2 * i + 1] = g[:-1], g[-1]
        if i > 0:
            delta = (params[2 * i] @ delta[:, :, None])[:, :, 0] * (acts[i] > 0)
    return grads


@dataclass
class AdamState:
    """First/second moment estimates plus the step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step_count: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_params(cls, params: list[np.ndarray],
                   learning_rate: float = 1e-3) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params],
                   learning_rate=learning_rate)


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected adaptive-moments update.

    Returns fresh parameter arrays (inputs are never mutated), so a held
    reference to the old list remains a valid pre-update snapshot.
    """
    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    new_params: list[np.ndarray] = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / (1.0 - b1 ** t)
        v_hat = state.v[i] / (1.0 - b2 ** t)
        new_params.append(p - state.learning_rate * m_hat
                          / (np.sqrt(v_hat) + state.epsilon))
    state.step_count = t
    return new_params, state


def save_params(params: list[np.ndarray], path) -> None:
    """Write parameters as flat text: one value per line, row-major, with a
    header recording the layer sizes."""
    sizes = layer_sizes_of(params)
    flat = np.concatenate([p.ravel() for p in params])
    np.savetxt(path, flat, header="layers " + " ".join(str(s) for s in sizes))


def load_params(path) -> list[np.ndarray]:
    """Inverse of :func:`save_params`."""
    with open(path) as fh:
        header = fh.readline().strip()
    tokens = header.lstrip("#").split()
    if not tokens or tokens[0] != "layers":
        raise ValueError(f"{path}: missing layer-size header")
    sizes = tuple(int(t) for t in tokens[1:])
    flat = np.loadtxt(path)
    params: list[np.ndarray] = []
    pos = 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        n = fan_in * fan_out
        params.append(flat[pos:pos + n].reshape(fan_in, fan_out))
        pos += n
        params.append(flat[pos:pos + fan_out].copy())
        pos += fan_out
    if pos != flat.size:
        raise ValueError(f"{path}: parameter count does not match header")
    return params
