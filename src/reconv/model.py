"""The recursive convolutional network.

Architecture: an 8x8 stem convolution with per-map bias and ReLU, 4x4
non-overlapping max pooling, then L same-size 3x3 convolution + ReLU
layers that either share one kernel/bias pair ("tied") or carry
independent copies ("untied"). The final hidden layer is pixel-wise L2
normalized and fed to a linear softmax classifier.

The forward pass records everything the backward pass needs in a Tape;
``loss_and_grads`` walks the tape in reverse, chaining the adjoints from
:mod:`reconv.ops`. For tied models the shared kernel's gradient is the
sum over all of its applications. ``Params.kernel_index`` is the one
statement of which stored pair a layer applies, and ``kink_signature``
the one statement of a tape's discrete state (its ReLU masks and pooling
winners).

Classification (``predict_class``, and through it ``count_errors`` and
``error_rate``) records no tape. It takes the 4x4 block maximum of the
raw stem convolution and adds the stem bias and ReLU on the pooled map
alone, without a pooling argmax or a full-resolution ReLU map. Rounding
and ReLU are monotone, so that pooled map is the tape's bit for bit, and
the later stages run the same operations, so the class is the one
``forward``'s probabilities give.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from . import ops
from .errors import ShapeError
from .pool import helpers, shared


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
        for name in ("feature_maps", "layers", "input_h", "input_w", "input_channels",
                     "first_kernel", "pool", "hidden_kernel", "classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.input_h % self.pool or self.input_w % self.pool:
            raise ValueError(
                f"input {self.input_h}x{self.input_w} not divisible by pool {self.pool}")
        if not 0 < self.sigma_v < np.inf:
            raise ValueError(f"sigma_v must be finite and positive, got {self.sigma_v}")

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
        """Index of the hidden kernel/bias pair that layer ``layer`` applies."""
        return layer % self.config.hidden_copies

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

    def _map(self, fn) -> "Params":
        """A Params of ``fn`` applied to every tensor."""
        return Params(
            config=self.config,
            first_kernels=fn(self.first_kernels),
            first_bias=fn(self.first_bias),
            hidden_kernels=[fn(k) for k in self.hidden_kernels],
            hidden_biases=[fn(b) for b in self.hidden_biases],
            classifier=fn(self.classifier),
            classifier_bias=fn(self.classifier_bias),
        )

    def copy(self) -> "Params":
        return self._map(np.ndarray.copy)


# Gradients are shape-congruent with Params, so the same container serves.
Grads = Params


def zeros_like_params(params: Params) -> Params:
    return params._map(np.zeros_like)


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
    pairs = [params.kernel_index(layer) for layer in range(params.config.layers)]
    # one reference per layer to the pair it applies, each then copied
    return replace(params, config=replace(params.config, tied=False),
                   hidden_kernels=[params.hidden_kernels[i] for i in pairs],
                   hidden_biases=[params.hidden_biases[i] for i in pairs]).copy()


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
    nll: np.ndarray              # K, -log probs, finite where probs underflows to 0


def _checked_image(cfg: ArchConfig, image) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    expected = (cfg.input_h, cfg.input_w, cfg.input_channels)
    if image.shape != expected:
        raise ShapeError(f"expected image shape {expected}, got {image.shape}")
    return image


def _hidden_layer(params: Params, layer: int, z: np.ndarray) -> np.ndarray:
    """Hidden layer ``layer`` applied to its input ``z``."""
    i = params.kernel_index(layer)
    return ops.relu(ops.conv2d_same(z, params.hidden_kernels[i]) + params.hidden_biases[i])


def _logits(params: Params, normalized: np.ndarray) -> np.ndarray:
    # np.tensordot(normalized, classifier, axes=3) without its wrapper:
    # the same dot of the same (1, N) and (N, K) matrices, so the same bits.
    return params.classifier_bias + normalized.reshape(1, -1).dot(
        params.classifier.reshape(-1, params.config.classes))[0]


def forward(params: Params, image: np.ndarray, tape: Tape | None = None,
            start: int = 0) -> Tape:
    """Run the network on one image and record the full activation tape.

    The pass is a chain of stages: stage 0 is the stem convolution, ReLU
    and pooling, stage 1 + l is hidden layer l (the last one also
    normalizes its output), and stage ``layers + 1`` is the classifier's
    logits and softmax. Given a ``tape`` of the same image and a ``start``
    stage, every stage before ``start`` is taken unchanged from that tape
    and only the rest is computed, by the same operations as a full pass.
    ``image`` is then not read. The result equals a full pass wherever the
    parameters those earlier stages read (``first_stages``) are those the
    tape was recorded with.
    """
    cfg = params.config
    if not 0 <= start <= cfg.layers + 1:
        raise ValueError(f"start stage must be in [0, {cfg.layers + 1}], got {start}")
    if start == 0:
        image = _checked_image(cfg, image)
        pre_pool = ops.relu(ops.conv2d_same(image, params.first_kernels) + params.first_bias)
        pooled, argmax = ops.maxpool(pre_pool, cfg.pool)
        hidden = [pooled]
    elif tape is None:
        raise ValueError(f"resuming at stage {start} needs a tape")
    else:
        image, pre_pool, argmax = tape.image, tape.pre_pool, tape.pool_argmax
        hidden = tape.hidden[:start]
    for layer in range(len(hidden) - 1, cfg.layers):
        hidden.append(_hidden_layer(params, layer, hidden[-1]))
    if start <= cfg.layers:
        normalized = ops.l2norm_pixel(hidden[-1])
    else:
        normalized = tape.normalized
    logits = _logits(params, normalized)
    probs, nll = ops.softmax(logits)
    return Tape(image=image, pre_pool=pre_pool, pool_argmax=argmax, hidden=hidden,
                normalized=normalized, logits=logits, probs=probs, nll=nll)


def first_stages(config: ArchConfig) -> list[int]:
    """The first ``forward`` stage that reads each tensor, in the order of
    ``Params.tensors()``: 0 for the stem, 1 for a tied hidden pair, 1 + i
    for untied pair i, and ``layers + 1`` for the classifier."""
    stages = [0, 0]
    for i in range(config.hidden_copies):
        stages += [1 + i, 1 + i]
    return stages + [config.layers + 1] * 2


def kink_signature(tape: Tape, start: int) -> bytes:
    """The ReLU sign masks and pooling winners that ``tape`` records from
    stage ``start`` on. If they differ between two tapes, the path between
    their parameters crosses a kink. Earlier stages are left out, as tapes
    resumed at ``start`` share them. The architecture fixes the parts'
    shapes, so equal bytes mean equal parts."""
    parts = [tape.pre_pool > 0, tape.pool_argmax] if start == 0 else []
    parts.extend(h > 0 for h in tape.hidden[max(start, 1):])
    return b"".join(part.tobytes() for part in parts)


def nll(params: Params, image: np.ndarray, label: int) -> float:
    """Negative log-likelihood of the true class for one example."""
    _check_label(params.config, label)
    return float(forward(params, image).nll[label])


def _check_label(cfg: ArchConfig, label: int) -> None:
    if not 0 <= label < cfg.classes:
        raise ShapeError(f"label {label} outside [0, {cfg.classes})")


def check_dataset(cfg: ArchConfig, data, name: str) -> None:
    """Raise a ShapeError naming the dataset ``name`` unless ``data`` is
    nonempty and fits the model: images of its input shape and labels
    below its classes. A dataset's images share one shape and its labels
    are never negative, so the first image and the top label tell."""
    if len(data) == 0:
        raise ShapeError(f"{name}: dataset must be nonempty")
    try:
        _checked_image(cfg, data.floats(0))
        _check_label(cfg, int(data.labels.max()))
    except ShapeError as exc:
        raise ShapeError(f"{name}: {exc}") from None


def _backward_into(params: Params, tape: Tape, label: int, grads: Params) -> float:
    """Accumulate one example's gradients into ``grads``; returns its loss.
    A tied kernel and bias get one addition per application."""
    cfg = params.config

    # Softmax + NLL fuse to probs - onehot(label).
    dlogits = tape.probs.copy()
    dlogits[label] -= 1.0

    grads.classifier_bias += dlogits
    grads.classifier += tape.normalized[:, :, :, None] * dlogits
    # np.tensordot(classifier, dlogits, axes=([3], [0])) without its
    # wrapper: the same dot of the same (N, K) and (K, 1) matrices.
    dnorm = params.classifier.reshape(-1, cfg.classes).dot(
        dlogits.reshape(-1, 1)).reshape(tape.normalized.shape)
    dz = ops.l2norm_pixel_grad(dnorm, tape.hidden[-1])

    for layer in reversed(range(cfg.layers)):
        i = params.kernel_index(layer)
        da = ops.relu_grad(dz, tape.hidden[layer + 1])
        grads.hidden_biases[i] += da.sum(axis=(0, 1))
        grads.hidden_kernels[i] += ops.conv2d_same_kernel_grad(
            tape.hidden[layer], da, (cfg.hidden_kernel, cfg.hidden_kernel))
        dz = ops.conv2d_same_input_grad(da, params.hidden_kernels[i])

    dpre = ops.maxpool_grad(dz, tape.pool_argmax, cfg.pool)
    da0 = ops.relu_grad(dpre, tape.pre_pool)
    grads.first_bias += da0.sum(axis=(0, 1))
    grads.first_kernels += ops.conv2d_same_kernel_grad(
        tape.image, da0, (cfg.first_kernel, cfg.first_kernel))
    # The gradient w.r.t. the image itself is never needed.
    return float(tape.nll[label])


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


# Examples per block of loss_and_grads's gradient sum; fixed, so that
# the sum does not depend on how many processes compute the blocks.
BLOCK = 16


def block_slices(start: int, stop: int) -> list[slice]:
    """Examples ``start:stop`` cut ``BLOCK`` at a time from ``start``."""
    return [slice(lo, min(lo + BLOCK, stop)) for lo in range(start, stop, BLOCK)]


def add_block_sums(total: float, grads: Params, blocks) -> float:
    """Add (loss, gradients) block sums onto a running loss total,
    returned, and onto ``grads`` in place, block by block."""
    for loss, block in blocks:
        total += loss
        for (_, g), (_, b) in zip(grads.tensors(), block.tensors()):
            g += b
    return total


def loss_and_grads(params: Params, images: np.ndarray,
                   labels) -> tuple[float, Params]:
    """Summed NLL loss and gradients for one example or a minibatch.

    ``images`` may be a single (H, W, C) image with an integer label or an
    (N, H, W, C) stack with N labels. Each block (``block_slices``) is
    summed in example order from zero, and the block sums are added in
    block order from zero. A block sum from zero never holds
    -0.0, so adding it to zeros is exact: a batch cut on block edges sums
    bit for bit as one when ``add_block_sums`` adds, in order,
    ``loss_and_grads`` of its pieces, whatever computed them.
    """
    images, labels = _as_batch(params, images, labels)
    grads = zeros_like_params(params)
    total = 0.0
    for s in block_slices(0, images.shape[0]):
        block = zeros_like_params(params)
        loss = 0.0
        for image, label in zip(images[s], labels[s]):
            loss += _backward_into(params, forward(params, image), int(label), block)
        total = add_block_sums(total, grads, [(loss, block)])
    return total, grads


def _pooled_stem(params: Params, image: np.ndarray) -> np.ndarray:
    """``forward(params, image).hidden[0]`` without the tape: the block
    maximum of the raw stem convolution, then the bias and ReLU on the
    pooled map alone.

    This is the same array bit for bit. Adding one number b rounds
    monotonically, so max_i fl(y_i + b) = fl(max_i y_i + b), and ReLU is
    monotone too. A NaN in a block makes both NaN. If a block's raw
    maximum is a zero of either sign, -0.0 + b is b, or +0.0 when b is
    zero, and ReLU (np.maximum(x, 0.0)) turns -0.0 into +0.0, so both
    give +0.0 where ``forward`` does. The one exception is a bias of +inf
    over a block that holds -inf and a larger value: -inf + inf is NaN,
    so ``forward`` pools NaN there and this pass +inf.
    """
    cfg = params.config
    y = ops.conv2d_same(_checked_image(cfg, image), params.first_kernels)
    p = cfg.pool
    blocks = y.reshape(cfg.pooled_h, p, cfg.pooled_w, p, cfg.feature_maps)
    return ops.relu(blocks.max(axis=(1, 3)) + params.first_bias)


def predict_class(params: Params, image: np.ndarray) -> int:
    """Most probable class; argmax ties break to the lowest index.

    A pass without a tape whose pooled map is ``forward``'s
    (``_pooled_stem``). Every later stage runs ``forward``'s operations
    on the same arrays, so the probabilities, and the class, are its.
    """
    z = _pooled_stem(params, image)
    for layer in range(params.config.layers):
        z = _hidden_layer(params, layer, z)
    probs, _ = ops.softmax(_logits(params, ops.l2norm_pixel(z)))
    return int(np.argmax(probs))


def count_errors(params: Params, data, start: int, stop: int) -> int:
    """Number of examples ``start:stop`` of ``data`` whose predicted class
    differs from the label, classified one at a time."""
    return sum(predict_class(params, data.floats(i)) != int(data.labels[i])
               for i in range(start, stop))


def split_error_rate(params: Params, data, end: int, futures) -> float:
    """The error rate of ``params`` on ``data`` split by ``pool.helpers``
    at ``end``: this process counts examples ``0:end``, and ``futures``
    hold the helpers' counts of the rest. Error counts are integers, so
    the result is the same on any number of processes."""
    wrong = count_errors(params, data, 0, end)
    return (wrong + sum(future.result() for future in futures)) / len(data)


def _helper_errors(start: int, stop: int) -> int:
    """``count_errors`` of examples ``start:stop``, in a helper of
    ``error_rate``, which inherited (data, params)."""
    data, params = shared()
    return count_errors(params, data, start, stop)


def error_rate(params: Params, data) -> float:
    """Fraction of examples whose predicted class differs from the label.

    The examples are split over this process and its helpers
    (``pool.helpers``), and ``split_error_rate`` adds their counts.
    Forking and joining the helpers takes about 30 ms in a 250 MB
    process, so on a few dozen images or fewer a call is slower than on
    one core. An exception in a helper is raised here with
    its own type, and a helper that dies raises ``BrokenProcessPool``.
    Data that does not fit the model (``check_dataset``) raises a
    ShapeError before any work.
    """
    check_dataset(params.config, data, "data")
    # The helpers inherit params with the data, so no task pickles them:
    # the pool's feeder thread would do that in a malloc arena of its own,
    # which keeps the freed memory (2 MB of the depth-sweep benchmark's
    # peak resident set).
    with helpers(len(data), data, params) as split:
        return split_error_rate(params, data, *split(len(data), _helper_errors))
