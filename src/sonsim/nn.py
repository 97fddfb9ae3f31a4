"""Dense value network in plain numpy: forward pass, masked-MSE
backpropagation (both on one input or a batch) and the adaptive-moments
optimizer.

The network is a stack of affine layers with ReLU between them and a linear
output head, so negative value targets stay representable.  Parameters are
a list [W0, b0, W1, b1, ...] with W of shape (fan_in, fan_out); a learner
keeps them as views into one contiguous vector (``flatten`` and
``layer_views``), so that the optimizer updates them all in one pass.

A stack of A networks keeps its vectors as the rows of an (A, P) array,
and ``layer_views`` gives each parameter a leading axis of A and one of 1
to broadcast over a network's batch rows: W of shape (A, 1, fan_in,
fan_out), b of (A, 1, fan_out).  ``forward`` and ``backward`` then take a
batch per network (A, B, in), or one batch for all (B, in), and each
network's rows get the bits they get alone.  The backward pass forms
every row's outer products in one ``einsum`` per layer and sums them row
by row, so a batch's gradient is a running sum of its rows' gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # Kingma & Ba defaults


def init_params(layer_sizes, rng: np.random.Generator) -> list[np.ndarray]:
    """Glorot-uniform weights, zero biases."""
    params: list[np.ndarray] = []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        params.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        params.append(np.zeros(fan_out))
    return params


def layer_sizes_of(params: list[np.ndarray]) -> tuple[int, ...]:
    return (params[0].shape[0],) + tuple(w.shape[1] for w in params[0::2])


def flatten(arrays) -> np.ndarray:
    """The arrays' values, each row-major, in one contiguous vector."""
    return np.concatenate([np.ravel(a) for a in arrays])


def layer_views(flat: np.ndarray, layer_sizes) -> list[np.ndarray]:
    """[W0, b0, W1, b1, ...] as views into ``flat``, laid out as
    :func:`flatten` lays out the list; a stack of vectors (A, P) gives a
    stack of networks, each parameter (A, 1, ...)."""
    views: list[np.ndarray] = []
    lead, pos = (len(flat), 1) if flat.ndim == 2 else (), 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        views.append(flat[..., pos:pos + fan_in * fan_out].reshape(*lead, fan_in, fan_out))
        pos += fan_in * fan_out
        bias = flat[..., pos:pos + fan_out]
        views.append(bias.reshape(*lead, fan_out) if lead else bias)
        pos += fan_out
    if pos != flat.shape[-1]:
        raise ValueError(f"{flat.shape[-1]} values do not fill layers {tuple(layer_sizes)}")
    return views


def forward(params: list[np.ndarray], x, all_layers: bool = False):
    """Evaluate the network on one input (in,) or a batch (B, in), or for a
    stack of networks a batch (A, B, in) or (B, in); returns the value
    vector for all actions, one row per batch row.  With ``all_layers`` it
    returns every layer's output, the input first, which :func:`backward`
    can take as ``acts``.  Each row goes through its own vector-matrix
    product, so a batch row is bit-identical to the same input alone."""
    acts = [np.asarray(x, dtype=float)]
    num_layers = len(params) // 2
    for i in range(num_layers):
        z = (acts[-1][..., None, :] @ params[2 * i])[..., 0, :] + params[2 * i + 1]
        acts.append(np.maximum(z, 0.0) if i < num_layers - 1 else z)
    return acts if all_layers else acts[-1]


def backward(params: list[np.ndarray], x, action_index, target,
             acts: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Exact gradients of (target - q[action_index])^2 w.r.t. every
    parameter; the loss is masked to the taken action's output unit.

    ``x`` is one input (in,) or a batch (B, in) with an action index and a
    target per row, or for a stack of networks a batch per network
    (A, B, in) with (A, B) indices and targets.  A batch returns the
    per-row gradients summed in row order, bit-identical to a running sum
    of single-row calls.  ``acts``, the batch's layer outputs as
    ``forward(params, x, all_layers=True)`` gives them, saves the forward
    pass.
    """
    if acts is None:
        acts = forward(params, np.atleast_2d(x), all_layers=True)
    q = acts[-1]
    taken = np.arange(q.shape[-1]) == np.asarray(action_index)[..., None]
    delta = np.where(taken, 2.0 * (q - np.asarray(target)[..., None]), 0.0)

    # The bias is the weight of a constant-one input.  With it stacked in,
    # a row's gradient has two or more elements, so numpy sums the rows of
    # a batch one after another (a one-element row would be summed
    # pairwise); starting from -0.0, the exact additive identity, keeps the
    # sign of a zero as a running sum of single rows gives it.  einsum
    # forms each row's outer product with one rounded multiply an element,
    # but writes +0.0 where a multiply gives -0.0; that sign can reach a
    # zero gradient, never a parameter (``adam_step``).
    ones = np.ones(q.shape[:-1] + (1,))
    grads: list[np.ndarray] = [np.empty(0)] * len(params)
    for i in reversed(range(len(params) // 2)):
        inputs = np.concatenate((acts[i], ones), axis=-1)
        g = np.einsum("...j,...k->...jk", inputs, delta).sum(axis=-3, initial=-0.0)
        grads[2 * i], grads[2 * i + 1] = g[..., :-1, :], g[..., -1, :]
        if i > 0:
            delta = (params[2 * i] @ delta[..., None])[..., 0] * (acts[i] > 0)
    return grads


@dataclass
class AdamState:
    """First/second moment estimates, one value per parameter, plus the
    step counter."""

    m: np.ndarray
    v: np.ndarray
    step_count: int
    learning_rate: float

    @classmethod
    def for_params(cls, params: np.ndarray, learning_rate: float) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params), 0, learning_rate)


def adam_step(params: np.ndarray, grads: np.ndarray,
              state: AdamState) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected adaptive-moments update of a flat parameter
    vector, elementwise, so each value gets the same bits as it would alone.

    The moments are updated in place: two fresh vectors a step fragmented
    the heap enough to raise a run's peak memory.  Returns a fresh parameter
    vector (the input is never mutated), so a held reference to the old one
    remains a valid pre-update snapshot.

    The sign of a zero gradient moves no parameter: it can only flip the
    sign of a zero step, and p - (+0.0) and p - (-0.0) differ only for
    p = -0.0, which no parameter is (``init_params`` draws none, and a
    difference is -0.0 only when its left side is).
    """
    t = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    state.m *= b1
    state.m += (1.0 - b1) * grads
    state.v *= b2
    state.v += (1.0 - b2) * grads * grads
    m_hat = state.m / (1.0 - b1 ** t)
    v_hat = state.v / (1.0 - b2 ** t)
    state.step_count = t
    return params - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON), state


def save_params(params: np.ndarray, layer_sizes, path) -> None:
    """Write a flat parameter vector as text, one value per line, with a
    header recording the layer sizes: the bytes of ``np.savetxt`` with
    that header, in one write."""
    with open(path, "w") as fh:
        fh.write("# layers " + " ".join(str(s) for s in layer_sizes) + "\n"
                 + ("%.18e\n" * len(params)) % tuple(params.tolist()))


def load_params(path) -> list[np.ndarray]:
    """Inverse of :func:`save_params`, as per-layer views of the vector."""
    with open(path) as fh:
        header = fh.readline().strip()
    tokens = header.lstrip("#").split()
    if not tokens or tokens[0] != "layers":
        raise ValueError(f"{path}: missing layer-size header")
    sizes = tuple(int(t) for t in tokens[1:])
    try:
        return layer_views(np.loadtxt(path), sizes)
    except ValueError as exc:
        raise ValueError(f"{path}: parameter count does not match header") from exc
