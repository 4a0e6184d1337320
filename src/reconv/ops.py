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

Every convolution op is one patch matrix (``_im2col``) and one GEMM: the
input adjoint is the forward correlation of the cotangent with the
flipped, channel-swapped kernel and extent // 2 zeros before.

The forward op and the kernel adjoint pair output columns where that was
measured to pay (``_step``): on maps of at least 1024 positions and an
even width, with kernels at least 8 wide and at most 128 output
channels, each patch row serves two adjacent output columns. The row is
the kh x (kw + 1) window that covers both outputs, so a 32x32 map with
an 8x8 kernel and 3 input channels unfolds to (512, 216) instead of
(1024, 192). The kernel matrix is then two-tap block Toeplitz: (kh,
kw + 1, Cin, 2, Cout) holding the kernel at column offsets 0 and 1 and
zeros elsewhere, so the (H*W/2, 2*Cout) product is the (H, W, Cout) map
by a plain reshape. The kernel gradient folds its (kh, kw + 1, Cin, 2,
Cout) product back as d[:, :kw, :, 0] + d[:, 1:, :, 1]. This does
1 + 1/kw times the arithmetic of one output per row (12.5% more at
kw = 8, all of it products with the Toeplitz zeros) but copies
(kw + 1) / (2 kw) of the patch data into a GEMM twice as wide. On one
thread that made the forward op plus the kernel gradient at 32x32 1.02x
to 1.48x faster with 8-, 12- and 16-wide kernels up to 128 output
channels, and 0.87x at 256 channels; narrower kernels lose from fewer
channels on (0.97x at kw = 5 with 128, 0.91x at kw = 3 with 64, 0.59x
to 0.73x at kw = 1), as does the 3x3 input adjoint (0.87x with 64). So
in the model only the stem of a 32x32 or larger input pairs columns;
every other op, the input adjoint always, runs one output per row, bit
for bit the arithmetic of a plain im2col. Finite inputs give the same values either way up to rounding;
an infinite input value, times a Toeplitz zero, makes NaN in the
neighbouring output column of a paired map.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

# Guard against division by zero on all-zero pixels; small enough not to
# perturb any realistically scaled activation.
L2NORM_EPS = 1e-12


def _step(h: int, w: int, kw: int, channels: int) -> int:
    """Output columns per patch row of the forward op and the kernel
    adjoint for an (h, w, channels) output map and a kernel ``kw`` wide:
    2 on maps of at least 1024 positions and an even width, with kw >= 8
    and at most 128 channels, else 1 (see the module docstring)."""
    return 2 if h * w >= 1024 and w % 2 == 0 and kw >= 8 and channels <= 128 else 1


def _im2col(x: np.ndarray, kh: int, kw: int, top: int, left: int,
            step: int = 1) -> np.ndarray:
    """Zero-pad ``x`` to (H + kh - 1, W + kw - 1), ``top`` rows and ``left``
    columns before, and unfold it into a (H*W/step, kh*(kw+step-1)*Cin)
    patch matrix, one row per ``step`` adjacent output columns.

    The windows are a strided view of the padded input with shape
    (H, W/step, kh, (kw+step-1)*Cin): window (i, j) row u is the one
    contiguous run of (kw+step-1)*Cin floats that starts at
    padded[i + u, step*j], so column (u*(kw+step-1) + v)*Cin + c of patch
    row i*W/step + j holds padded[i + u, step*j + v, c]. The last window
    ends at padded column W + kw - 2, inside the padding. The final
    reshape is the one copy of the windows; with a 1x1 kernel and step 1,
    whose windows do not overlap, it copies nothing.
    """
    h, w, cin = x.shape
    padded = np.zeros((h + kh - 1, w + kw - 1, cin), dtype=np.float64)
    padded[top:top + h, left:left + w] = x
    row, col, item = padded.strides
    span = kw + step - 1
    windows = np.ndarray((h, w // step, kh, span * cin), np.float64, buffer=padded,
                         strides=(row, step * col, row, item))
    return windows.reshape(h * w // step, kh * span * cin)


def _rank_error(op: str, layouts: str, *arrays: np.ndarray) -> ShapeError:
    """The ShapeError of ``op`` given arrays whose shapes do not fit ``layouts``."""
    return ShapeError(
        f"{op} expects {layouts} arrays, got {' and '.join(str(a.shape) for a in arrays)}")


def conv2d_same(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Stride-one convolution with zero padding and same-size output.

    out(i, j, co) = sum over (u, v, ci) of
        kernels(u, v, ci, co) * x(i + u - oh, j + v - ow, ci)
    with (oh, ow) = ((kh-1)//2, (kw-1)//2) and zeros outside the input.
    """
    x = np.asarray(x, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    if x.ndim != 3 or kernels.ndim != 4:
        raise _rank_error("conv2d_same", "(H,W,Cin) and (KH,KW,Cin,Cout)", x, kernels)
    kh, kw, kcin, cout = kernels.shape
    h, w, cin = x.shape
    if kcin != cin:
        raise ShapeError(
            f"kernel expects {kcin} input channels, input has {cin}")
    step = _step(h, w, kw, cout)
    cols = _im2col(x, kh, kw, (kh - 1) // 2, (kw - 1) // 2, step)
    if step == 1:
        out = cols @ kernels.reshape(kh * kw * cin, cout)
        return out.reshape(h, w, cout)
    toeplitz = np.zeros((kh, kw + 1, cin, 2, cout), dtype=np.float64)
    toeplitz[:, :kw, :, 0] = kernels
    toeplitz[:, 1:, :, 1] = kernels
    out = cols @ toeplitz.reshape(kh * (kw + 1) * cin, 2 * cout)
    return out.reshape(h, w, cout)


def conv2d_same_input_grad(grad_out: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Adjoint of conv2d_same with respect to its input.

    dx(p, q, ci) = sum over (u, v, co) of
        kernels(kh-1-u, kw-1-v, ci, co) * grad_out(p + u - kh//2, q + v - kw//2, co),
    the forward correlation with the flipped, channel-swapped kernel and
    (kh//2, kw//2) zeros before instead of ((kh-1)//2, (kw-1)//2).
    """
    if grad_out.ndim != 3 or kernels.ndim != 4:
        raise _rank_error("conv2d_same_input_grad", "(H,W,Cout) and (KH,KW,Cin,Cout)",
                          grad_out, kernels)
    h, w, cout = grad_out.shape
    kh, kw, cin, kcout = kernels.shape
    if kcout != cout:
        raise ShapeError(
            f"kernel produces {kcout} output channels, cotangent has {cout}")
    cols = _im2col(grad_out, kh, kw, kh // 2, kw // 2)
    flipped = kernels[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kh * kw * cout, cin)
    return (cols @ flipped).reshape(h, w, cin)


def conv2d_same_kernel_grad(
    x: np.ndarray, grad_out: np.ndarray, kernel_extent: tuple[int, int]
) -> np.ndarray:
    """Adjoint of conv2d_same with respect to the kernels: correlation of
    the (identically zero-padded) input with the output cotangent over all
    positions. With two output columns per patch row, tap (u, v) of output
    column offset t sits at patch column v + t, so the two offsets' halves
    of the product are added back onto the kernel."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or grad_out.ndim != 3:
        raise _rank_error("conv2d_same_kernel_grad", "(H,W,Cin) and (H,W,Cout)", x, grad_out)
    kh, kw = kernel_extent
    h, w, cin = x.shape
    gh, gw, cout = grad_out.shape
    if (gh, gw) != (h, w):
        raise ShapeError(
            f"cotangent spatial extent {(gh, gw)} does not match input {(h, w)}")
    step = _step(h, w, kw, cout)
    cols = _im2col(x, kh, kw, (kh - 1) // 2, (kw - 1) // 2, step)
    dk = cols.T @ grad_out.reshape(h * w // step, step * cout)
    if step == 1:
        return dk.reshape(kh, kw, cin, cout)
    dk = dk.reshape(kh, kw + 1, cin, 2, cout)
    return dk[:, :kw, :, 0] + dk[:, 1:, :, 1]


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
    if x.ndim != 3:
        raise _rank_error("maxpool", "(H,W,M)", x)
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
    if grad_out.ndim != 3 or argmax.shape != grad_out.shape:
        raise _rank_error("maxpool_grad", "(H,W,M) and (H,W,M)", grad_out, argmax)
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

