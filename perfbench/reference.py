"""A plain reference forward pass, written apart from ``reconv``.

It follows the architecture as the repository README documents it and
shares no code with the package: the convolution is a direct sum over
kernel taps (no patch matrix), "same" padding puts (extent - 1) // 2
zeros before and the rest after, pooling is a 4x4 block max, the final
hidden layer is divided pixel-wise by max(norm, 1e-12), and the loss is
log-sum-exp minus the true-class logit. The benchmark checks the
program's logits, predicted classes and gradients against it.
"""

from __future__ import annotations

import numpy as np

L2_EPS = 1e-12


def conv_same(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """out(i, j) = sum over taps (u, v) of x(i + u - oh, j + v - ow) @ k(u, v)."""
    h, w, _ = x.shape
    kh, kw, _, cout = kernels.shape
    oh, ow = (kh - 1) // 2, (kw - 1) // 2
    out = np.zeros((h, w, cout))
    for u in range(kh):
        di = u - oh
        i0, i1 = max(0, -di), min(h, h - di)
        for v in range(kw):
            dj = v - ow
            j0, j1 = max(0, -dj), min(w, w - dj)
            if i0 < i1 and j0 < j1:
                out[i0:i1, j0:j1] += x[i0 + di:i1 + di, j0 + dj:j1 + dj] @ kernels[u, v]
    return out


def block_max(x: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Max over non-overlapping size x size blocks, and the flat in-block
    position of each winner (used only to detect pooling switches)."""
    h, w, m = x.shape
    blocks = x.reshape(h // size, size, w // size, size, m).swapaxes(1, 2)
    flat = blocks.reshape(h // size, w // size, size * size, m)
    return flat.max(axis=2), flat.argmax(axis=2)


def forward(params, image: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits of one image, plus the discrete state (ReLU signs, pooling
    winners) that a finite difference must not cross."""
    cfg = params.config
    stem = conv_same(image, params.first_kernels) + params.first_bias
    pooled, winners = block_max(np.maximum(stem, 0.0), cfg.pool)
    state = [stem > 0, winners]
    z = pooled
    for layer in range(cfg.layers):
        i = 0 if cfg.tied else layer
        pre = conv_same(z, params.hidden_kernels[i]) + params.hidden_biases[i]
        state.append(pre > 0)
        z = np.maximum(pre, 0.0)
    norms = np.sqrt((z * z).sum(axis=2, keepdims=True))
    normalized = z / np.maximum(norms, L2_EPS)
    logits = np.einsum("hwm,hwmk->k", normalized, params.classifier) + params.classifier_bias
    return logits, state


def nll(logits: np.ndarray, label: int) -> float:
    top = logits.max()
    return float(top + np.log(np.exp(logits - top).sum()) - logits[label])


def batch_loss(params, images, labels) -> tuple[float, list[np.ndarray]]:
    total, states = 0.0, []
    for image, label in zip(images, labels):
        logits, state = forward(params, image)
        total += nll(logits, int(label))
        states.extend(state)
    return total, states


def tensor_sizes(cfg) -> list[tuple[str, int]]:
    """(name, size) of every parameter tensor, in the program's canonical
    order: the README's closed form, generalised to any input extent,
    k^2*Cin*M + h^2*M^2*L_eff + M*(L_eff + 1) + (H/p)(W/p)*M*K + K."""
    l_eff = 1 if cfg.tied else cfg.layers
    m = cfg.feature_maps
    sizes = [("first_kernels", cfg.first_kernel ** 2 * cfg.input_channels * m),
             ("first_bias", m)]
    for i in range(l_eff):
        sizes += [(f"hidden_kernels[{i}]", cfg.hidden_kernel ** 2 * m * m),
                  (f"hidden_biases[{i}]", m)]
    sizes += [("classifier", (cfg.input_h // cfg.pool) * (cfg.input_w // cfg.pool)
               * m * cfg.classes),
              ("classifier_bias", cfg.classes)]
    return sizes


def param_count(cfg) -> int:
    return sum(size for _, size in tensor_sizes(cfg))
