"""Array primitives of the network and their exact adjoints.

Five operations are enough to build the whole model: stride-one "same"
convolution, non-overlapping max pooling, ReLU, pixel-wise L2
normalization, and softmax. Every forward function but softmax is paired
with the adjoint (vector-Jacobian product) the hand-written backward
pass uses, so the gradient of any composition can be assembled by
chaining them in reverse. Softmax needs none: the model fuses it with
the NLL loss, whose gradient with respect to the logits is
probs - onehot(label).

Conventions:
    * activations are float64 arrays of shape (H, W, C),
    * convolution kernels are (KH, KW, Cin, Cout),
    * all functions are pure; nothing is mutated.

"Same" convolution centers the kernel with the top-left-biased rule
offset = (extent - 1) // 2, applied uniformly to odd and even extents,
and reads out-of-bounds input as zero. With an 8x8 kernel this pads 3
rows/columns before and 4 after, keeping a 32x32 input 32x32.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

# Guard against division by zero on all-zero pixels; small enough not to
# perturb any realistically scaled activation.
L2NORM_EPS = 1e-12


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Zero-pad ``x`` for a same-size convolution and unfold it into a
    (H*W, kh*kw*Cin) patch matrix.

    The windows are a strided view of the padded input with shape
    (H, W, kh, kw*Cin): window (i, j) row u is the one contiguous run of
    kw*Cin floats that starts at padded[i + u, j], so column
    (u*kw + v)*Cin + c of patch row i*W + j holds padded[i + u, j + v, c].
    The final reshape is the one copy of the windows; with a 1x1 kernel,
    whose windows do not overlap, it copies nothing.
    """
    h, w, cin = x.shape
    oh, ow = (kh - 1) // 2, (kw - 1) // 2
    padded = np.zeros((h + kh - 1, w + kw - 1, cin), dtype=np.float64)
    padded[oh:oh + h, ow:ow + w] = x
    row, col, item = padded.strides
    windows = np.ndarray((h, w, kh, kw * cin), np.float64, buffer=padded,
                         strides=(row, col, row, item))
    return windows.reshape(h * w, kh * kw * cin)


def conv2d_same(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Stride-one convolution with zero padding and same-size output.

    out(i, j, co) = sum over (u, v, ci) of
        kernels(u, v, ci, co) * x(i + u - oh, j + v - ow, ci)
    with (oh, ow) = ((kh-1)//2, (kw-1)//2) and zeros outside the input.
    """
    x = np.asarray(x, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    if x.ndim != 3 or kernels.ndim != 4:
        raise ShapeError(
            f"conv2d_same expects (H,W,Cin) input and (KH,KW,Cin,Cout) kernels, "
            f"got {x.shape} and {kernels.shape}")
    kh, kw, kcin, cout = kernels.shape
    h, w, cin = x.shape
    if kcin != cin:
        raise ShapeError(
            f"kernel expects {kcin} input channels, input has {cin}")
    cols = _im2col(x, kh, kw)
    out = cols @ kernels.reshape(kh * kw * cin, cout)
    return out.reshape(h, w, cout)


def conv2d_same_input_grad(grad_out: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Adjoint of conv2d_same with respect to its input.

    Scatters each output cotangent back through the kernel taps; equal to
    correlating ``grad_out`` with the spatially flipped, channel-transposed
    kernel under the same zero padding.
    """
    h, w, cout = grad_out.shape
    kh, kw, cin, kcout = kernels.shape
    if kcout != cout:
        raise ShapeError(
            f"kernel produces {kcout} output channels, cotangent has {cout}")
    kmat = kernels.reshape(kh * kw * cin, cout)
    dcols = (grad_out.reshape(h * w, cout) @ kmat.T).reshape(h, w, kh, kw, cin)
    padded = np.zeros((h + kh - 1, w + kw - 1, cin), dtype=np.float64)
    for u in range(kh):
        for v in range(kw):
            padded[u:u + h, v:v + w] += dcols[:, :, u, v, :]
    oh, ow = (kh - 1) // 2, (kw - 1) // 2
    return np.ascontiguousarray(padded[oh:oh + h, ow:ow + w])


def conv2d_same_kernel_grad(
    x: np.ndarray, grad_out: np.ndarray, kernel_extent: tuple[int, int]
) -> np.ndarray:
    """Adjoint of conv2d_same with respect to the kernels: correlation of
    the (identically zero-padded) input with the output cotangent over all
    positions."""
    kh, kw = kernel_extent
    h, w, cin = x.shape
    gh, gw, cout = grad_out.shape
    if (gh, gw) != (h, w):
        raise ShapeError(
            f"cotangent spatial extent {(gh, gw)} does not match input {(h, w)}")
    cols = _im2col(np.asarray(x, dtype=np.float64), kh, kw)
    dk = cols.T @ grad_out.reshape(h * w, cout)
    return dk.reshape(kh, kw, cin, cout)


def maxpool(x: np.ndarray, size: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Max over non-overlapping size x size windows, per feature map.

    Returns (pooled, argmax) where argmax holds the flat row-major
    in-block index of each winner. Ties go to the first index in
    row-major scan, which np.argmax guarantees. pooled is the block
    maximum, bit for bit the value at argmax, with one exception: a
    block whose maximum is a zero of both signs may pool to either sign.
    The model pools ReLU outputs, which hold no -0.0 (np.maximum(-0.0,
    0.0) is +0.0), so it never meets that case.
    """
    h, w, m = x.shape
    if h % size or w % size:
        raise ShapeError(
            f"spatial extent {(h, w)} not divisible by pool size {size}")
    hb, wb = h // size, w // size
    blocks = (x.reshape(hb, size, wb, size, m)
               .transpose(0, 2, 1, 3, 4)
               .reshape(hb, wb, size * size, m))
    return blocks.max(axis=2), blocks.argmax(axis=2)


def maxpool_grad(grad_out: np.ndarray, argmax: np.ndarray, size: int = 4) -> np.ndarray:
    """Adjoint of maxpool: each cotangent routes entirely to the recorded
    argmax position; every other input position receives zero."""
    hb, wb, m = grad_out.shape
    blocks = np.zeros((hb, wb, size * size, m), dtype=np.float64)
    blocks[np.arange(hb)[:, None, None], np.arange(wb)[:, None], argmax,
           np.arange(m)] = grad_out
    return (blocks.reshape(hb, wb, size, size, m)
                  .transpose(0, 2, 1, 3, 4)
                  .reshape(hb * size, wb * size, m))


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(x, 0.0)


def relu_grad(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Adjoint of relu: passes where x > 0, zero where x <= 0.

    The derivative at exactly 0 is defined as 0, so the mask is identical
    whether ``x`` is the ReLU input or its output.
    """
    return grad_out * (x > 0)


def l2norm_pixel(z: np.ndarray) -> np.ndarray:
    """Rescale each spatial position's channel vector to unit L2 norm,
    dividing by max(norm, L2NORM_EPS) so all-zero pixels stay zero."""
    norms = np.sqrt((z * z).sum(axis=2, keepdims=True))
    return z / np.maximum(norms, L2NORM_EPS)


def l2norm_pixel_grad(grad_out: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Adjoint of l2norm_pixel.

    Per pixel: (I - zhat zhat^T) / ||z|| applied to the cotangent when
    ||z|| > L2NORM_EPS, and plain 1/L2NORM_EPS scaling otherwise (the
    forward map is linear there).
    """
    norms = np.sqrt((z * z).sum(axis=2, keepdims=True))
    safe = np.maximum(norms, L2NORM_EPS)
    zhat = z / safe
    projected = grad_out - zhat * (zhat * grad_out).sum(axis=2, keepdims=True)
    return np.where(norms > L2NORM_EPS, projected / safe, grad_out / L2NORM_EPS)


def softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, nll): the probability vector p = exp(s) / sum exp(s) of the
    shifted logits s = y - max y, and nll = log(sum exp(s)) - s, which is
    -log p but stays finite where p underflows to 0."""
    shifted = logits - logits.max()
    e = np.exp(shifted)
    total = e.sum()
    return e / total, np.log(total) - shifted

