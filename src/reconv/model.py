"""The recursive convolutional network.

Architecture: an 8x8 stem convolution with per-map bias and ReLU, 4x4
non-overlapping max pooling, then L same-size 3x3 convolution + ReLU
layers that either share one kernel/bias pair ("tied") or carry
independent copies ("untied"). The final hidden layer is pixel-wise L2
normalized and fed to a linear softmax classifier.

The forward pass records everything the backward pass needs in a Tape;
``loss_and_grads`` walks the tape in reverse, chaining the adjoints from
:mod:`reconv.ops`. For tied models the shared kernel's gradient is the
sum over all of its applications.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from . import ops
from .errors import ShapeError
from .pool import fork_pool, shared, worker_count


@dataclass(frozen=True)
class ArchConfig:
    """Architecture hyperparameters.

    ``feature_maps`` is the per-layer channel count, ``layers`` the number
    of hidden convolution stages after the pooled stem, ``tied`` whether
    those stages share parameters. sigma_v is the stem-kernel init
    standard deviation (0.1 suits [0,1]-scaled color images).
    """

    feature_maps: int
    layers: int
    tied: bool = False
    input_h: int = 32
    input_w: int = 32
    input_channels: int = 3
    first_kernel: int = 8
    pool: int = 4
    hidden_kernel: int = 3
    classes: int = 10
    sigma_v: float = 0.1

    def __post_init__(self):
        if self.feature_maps < 1:
            raise ValueError(f"feature_maps must be positive, got {self.feature_maps}")
        if self.layers < 1:
            raise ValueError(f"layers must be positive, got {self.layers}")
        if self.input_h % self.pool or self.input_w % self.pool:
            raise ValueError(
                f"input {self.input_h}x{self.input_w} not divisible by pool {self.pool}")
        if self.sigma_v <= 0:
            raise ValueError(f"sigma_v must be positive, got {self.sigma_v}")

    @property
    def pooled_h(self) -> int:
        return self.input_h // self.pool

    @property
    def pooled_w(self) -> int:
        return self.input_w // self.pool

    @property
    def hidden_copies(self) -> int:
        """Number of independent hidden kernel/bias pairs stored."""
        return 1 if self.tied else self.layers


@dataclass
class Params:
    """Model weights; also reused as the container for gradients and
    momentum buffers (identical shapes throughout)."""

    config: ArchConfig
    first_kernels: np.ndarray         # first_kernel^2 x Cin x M
    first_bias: np.ndarray            # M
    hidden_kernels: list[np.ndarray]  # hidden_kernel^2 x M x M, one entry when tied
    hidden_biases: list[np.ndarray]   # M each
    classifier: np.ndarray            # pooled_h x pooled_w x M x K
    classifier_bias: np.ndarray       # K

    def kernel_index(self, layer: int) -> int:
        return 0 if self.config.tied else layer

    def tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        """(name, array) pairs in a fixed canonical order."""
        yield "first_kernels", self.first_kernels
        yield "first_bias", self.first_bias
        for i, (k, b) in enumerate(zip(self.hidden_kernels, self.hidden_biases)):
            yield f"hidden_kernels[{i}]", k
            yield f"hidden_biases[{i}]", b
        yield "classifier", self.classifier
        yield "classifier_bias", self.classifier_bias

    def scalar_count(self) -> int:
        return sum(arr.size for _, arr in self.tensors())

    def copy(self) -> "Params":
        return Params(
            config=self.config,
            first_kernels=self.first_kernels.copy(),
            first_bias=self.first_bias.copy(),
            hidden_kernels=[k.copy() for k in self.hidden_kernels],
            hidden_biases=[b.copy() for b in self.hidden_biases],
            classifier=self.classifier.copy(),
            classifier_bias=self.classifier_bias.copy(),
        )


# Gradients are shape-congruent with Params, so the same container serves.
Grads = Params


def zeros_like_params(params: Params) -> Params:
    return Params(
        config=params.config,
        first_kernels=np.zeros_like(params.first_kernels),
        first_bias=np.zeros_like(params.first_bias),
        hidden_kernels=[np.zeros_like(k) for k in params.hidden_kernels],
        hidden_biases=[np.zeros_like(b) for b in params.hidden_biases],
        classifier=np.zeros_like(params.classifier),
        classifier_bias=np.zeros_like(params.classifier_bias),
    )


def init_params(config: ArchConfig, seed: int) -> Params:
    """Deterministic initialization.

    Stem kernels are i.i.d. N(0, sigma_v^2) from a seeded generator;
    hidden kernels are the Kronecker identity (1 at the spatial center on
    the channel diagonal), so a fresh model copies its pooled activations
    unchanged through every hidden layer; all biases and the classifier
    start at zero.
    """
    rng = np.random.default_rng(seed)
    m, k = config.feature_maps, config.classes
    fk, hk = config.first_kernel, config.hidden_kernel
    first = rng.normal(0.0, config.sigma_v, size=(fk, fk, config.input_channels, m))
    identity = np.zeros((hk, hk, m, m))
    center = ((hk - 1) // 2, (hk - 1) // 2)
    identity[center[0], center[1]] = np.eye(m)
    return Params(
        config=config,
        first_kernels=first,
        first_bias=np.zeros(m),
        hidden_kernels=[identity.copy() for _ in range(config.hidden_copies)],
        hidden_biases=[np.zeros(m) for _ in range(config.hidden_copies)],
        classifier=np.zeros((config.pooled_h, config.pooled_w, m, k)),
        classifier_bias=np.zeros(k),
    )


def untie(params: Params) -> Params:
    """Expand a tied model into the untied model with identical per-layer
    weights (the oracle for tied/untied equivalence checks)."""
    if not params.config.tied:
        return params.copy()
    cfg = replace(params.config, tied=False)
    return Params(
        config=cfg,
        first_kernels=params.first_kernels.copy(),
        first_bias=params.first_bias.copy(),
        hidden_kernels=[params.hidden_kernels[0].copy() for _ in range(cfg.layers)],
        hidden_biases=[params.hidden_biases[0].copy() for _ in range(cfg.layers)],
        classifier=params.classifier.copy(),
        classifier_bias=params.classifier_bias.copy(),
    )


@dataclass
class Tape:
    """Everything the backward pass needs from one forward evaluation."""

    image: np.ndarray            # input, H x W x Cin
    pre_pool: np.ndarray         # stem maps after ReLU, before pooling
    pool_argmax: np.ndarray      # winner index per pooling block
    hidden: list[np.ndarray]     # hidden[0] = pooled stem, hidden[l] = after layer l
    normalized: np.ndarray       # pixel-normalized final hidden layer
    logits: np.ndarray           # K
    probs: np.ndarray            # K, sums to 1


def forward(params: Params, image: np.ndarray) -> Tape:
    """Run the network on one image and record the full activation tape."""
    cfg = params.config
    image = np.asarray(image, dtype=np.float64)
    expected = (cfg.input_h, cfg.input_w, cfg.input_channels)
    if image.shape != expected:
        raise ShapeError(f"expected image shape {expected}, got {image.shape}")

    pre_pool = ops.relu(ops.conv2d_same(image, params.first_kernels) + params.first_bias)
    pooled, argmax = ops.maxpool(pre_pool, cfg.pool)
    hidden = [pooled]
    for layer in range(cfg.layers):
        i = params.kernel_index(layer)
        z = ops.relu(
            ops.conv2d_same(hidden[-1], params.hidden_kernels[i])
            + params.hidden_biases[i])
        hidden.append(z)
    normalized = ops.l2norm_pixel(hidden[-1])
    logits = params.classifier_bias + np.tensordot(normalized, params.classifier, axes=3)
    probs = ops.softmax(logits)
    return Tape(image=image, pre_pool=pre_pool, pool_argmax=argmax,
                hidden=hidden, normalized=normalized, logits=logits, probs=probs)


def nll(params: Params, image: np.ndarray, label: int) -> float:
    """Negative log-likelihood of the true class for one example."""
    _check_label(params.config, label)
    return _nll(forward(params, image).logits, label)


def _nll(logits: np.ndarray, label: int) -> float:
    """-log softmax(logits)[label] as logsumexp(logits) - logits[label],
    which stays finite when the softmax underflows to 0 at a large logit
    gap."""
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[label])


def _check_label(cfg: ArchConfig, label: int) -> None:
    if not 0 <= label < cfg.classes:
        raise ShapeError(f"label {label} outside [0, {cfg.classes})")


# Slots of the tensors in Params.tensors() order: stem kernel and bias,
# then a (kernel, bias) pair per stored hidden copy, then the classifier.
_FIRST_KERNELS, _FIRST_BIAS, _CLASSIFIER, _CLASSIFIER_BIAS = 0, 1, -2, -1


def _hidden_slots(copy: int) -> tuple[int, int]:
    """Slots of one hidden copy's kernel and bias."""
    return 2 + 2 * copy, 3 + 2 * copy


def _gradient_terms(params: Params, tape: Tape,
                    label: int) -> Iterator[tuple[int, np.ndarray]]:
    """One example's gradient terms as (slot, term) pairs, slot indexing
    ``Params.tensors()``, in the order ``_backward_into`` adds them. A
    tied kernel and bias get one term per application."""
    cfg = params.config

    # Softmax + NLL fuse to probs - onehot(label).
    dlogits = tape.probs.copy()
    dlogits[label] -= 1.0

    yield _CLASSIFIER_BIAS, dlogits
    yield _CLASSIFIER, tape.normalized[:, :, :, None] * dlogits
    dnorm = np.tensordot(params.classifier, dlogits, axes=([3], [0]))
    dz = ops.l2norm_pixel_grad(dnorm, tape.hidden[-1])

    for layer in reversed(range(cfg.layers)):
        i = params.kernel_index(layer)
        kernel_slot, bias_slot = _hidden_slots(i)
        da = ops.relu_grad(dz, tape.hidden[layer + 1])
        yield bias_slot, da.sum(axis=(0, 1))
        yield kernel_slot, ops.conv2d_same_kernel_grad(
            tape.hidden[layer], da, (cfg.hidden_kernel, cfg.hidden_kernel))
        dz = ops.conv2d_same_input_grad(da, params.hidden_kernels[i])

    dpre = ops.maxpool_grad(dz, tape.pool_argmax, cfg.pool)
    da0 = ops.relu_grad(dpre, tape.pre_pool)
    yield _FIRST_BIAS, da0.sum(axis=(0, 1))
    yield _FIRST_KERNELS, ops.conv2d_same_kernel_grad(
        tape.image, da0, (cfg.first_kernel, cfg.first_kernel))
    # The gradient w.r.t. the image itself is never needed.


def _add_terms(grads: Params, terms) -> None:
    slots = [g for _, g in grads.tensors()]
    for slot, term in terms:
        slots[slot] += term


def _backward_into(params: Params, tape: Tape, label: int, grads: Params) -> float:
    """Accumulate one example's gradients into ``grads``; returns its loss."""
    _add_terms(grads, _gradient_terms(params, tape, label))
    return _nll(tape.logits, label)


def _as_batch(params: Params, images, labels) -> tuple[np.ndarray, np.ndarray]:
    """(N, H, W, C) images and N labels from one example or a stack."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        images = images[None]
        labels = np.asarray([labels], dtype=np.int64)
    else:
        labels = np.asarray(labels, dtype=np.int64)
    if images.shape[0] != labels.shape[0]:
        raise ShapeError(
            f"{images.shape[0]} images but {labels.shape[0]} labels")
    for label in labels:
        _check_label(params.config, int(label))
    return images, labels


def loss_and_grads(params: Params, images: np.ndarray,
                   labels) -> tuple[float, Params]:
    """Summed NLL loss and gradients for one example or a minibatch.

    ``images`` may be a single (H, W, C) image with an integer label or an
    (N, H, W, C) stack with N labels. Losses and gradients are summed over
    examples in index order, matching the summed-gradient update rule.
    """
    images, labels = _as_batch(params, images, labels)
    grads = zeros_like_params(params)
    total = 0.0
    for i in range(images.shape[0]):
        tape = forward(params, images[i])
        total += _backward_into(params, tape, int(labels[i]), grads)
    return total, grads


ExampleTerms = tuple[float, list[tuple[int, np.ndarray]]]


def loss_terms(params: Params, images: np.ndarray, labels) -> list[ExampleTerms]:
    """Each example's loss and gradient terms, unsummed, in index order,
    for the arguments of ``loss_and_grads``.

    ``add_loss_terms`` adds them onto ``loss_and_grads`` of the examples
    just before these with the very floating-point additions that one
    ``loss_and_grads`` call over all of them makes, so a minibatch split
    into contiguous chunks sums bit for bit as one.
    """
    images, labels = _as_batch(params, images, labels)
    examples = []
    for i in range(images.shape[0]):
        tape = forward(params, images[i])
        label = int(labels[i])
        examples.append((_nll(tape.logits, label),
                         list(_gradient_terms(params, tape, label))))
    return examples


def add_loss_terms(total: float, grads: Params, examples: list[ExampleTerms]) -> float:
    """Add ``loss_terms`` output onto a running loss total, returned, and
    onto ``grads`` in place, example by example."""
    for loss, terms in examples:
        _add_terms(grads, terms)
        total += loss
    return total


def predict_class(params: Params, image: np.ndarray) -> int:
    """Most probable class; argmax ties break to the lowest index."""
    return int(np.argmax(forward(params, image).probs))


def count_errors(params: Params, images: np.ndarray, labels: np.ndarray) -> int:
    """Number of examples whose predicted class differs from the label."""
    return sum(predict_class(params, image) != int(label)
               for image, label in zip(images, labels))


def _helper_errors(params: Params, which: int, start: int, stop: int) -> int:
    """``count_errors`` of examples ``start:stop`` of ``shared()[which]``,
    in a ``fork_pool`` worker."""
    data = shared()[which]
    return count_errors(params, data.images[start:stop], data.labels[start:stop])


def split_errors(params: Params, data, processes: int, helpers,
                 which: int = 0) -> int:
    """``count_errors`` over every example of ``data``, cut into one
    contiguous chunk per process, or fewer if there are fewer examples.

    This process classifies the first chunk while ``helpers``, a
    ``fork_pool`` of ``processes - 1`` workers that inherited ``data`` as
    ``shared()[which]``, classify the others. Without helpers, this
    process classifies them all. The counts are integers, so the total is
    the same on any number of processes.
    """
    if helpers is None:
        return count_errors(params, data.images, data.labels)
    n = len(data.images)
    parts = min(processes, n)
    # slices, not index arrays, so that no chunk's images are copied
    edges = [n * part // parts for part in range(parts + 1)]
    futures = [helpers.submit(_helper_errors, params, which, start, stop)
               for start, stop in zip(edges[1:-1], edges[2:])]
    wrong = count_errors(params, data.images[:edges[1]], data.labels[:edges[1]])
    return wrong + sum(future.result() for future in futures)


def error_rate(params: Params, data) -> float:
    """Fraction of examples whose predicted class differs from the label.

    The examples are split (``split_errors``) over
    ``pool.worker_count(len(data))`` processes: this one and helpers
    forked for the length of the call. Forking and joining them takes
    about 30 ms in a 250 MB process, as long as some 30 forward passes at
    32x32, so on a few dozen images or fewer a call is slower than on one
    core. With one core, where the platform cannot fork, or in a pool
    worker, everything runs in this process. The result is the same
    either way. An exception in a helper is raised here with its own
    type, and a helper that dies raises ``BrokenProcessPool``.
    """
    n = len(data.images)
    if n == 0:
        raise ShapeError("error_rate needs a nonempty dataset")
    processes = worker_count(n)
    helpers = fork_pool(processes - 1, data) if processes > 1 else nullcontext()
    with helpers as pool:
        return split_errors(params, data, processes, pool) / n
