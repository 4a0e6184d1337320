"""A tour of the five array primitives and their hand-written adjoints.

The whole network is built from stride-one "same" convolution, 4x4 max
pooling, ReLU, pixel-wise L2 normalization, and softmax. Each primitive
but softmax, which the model fuses with its loss, ships with the exact
vector-Jacobian product the backward pass chains together, and every one
of them can be cross-checked against central finite differences.

Run:  python3 demos/01_primitives_and_adjoints.py
"""

import numpy as np

from reconv import finite_diff, ops

rng = np.random.default_rng(0)

# --- "same" convolution keeps the spatial extent ---------------------------
# An 8x8 kernel on a 32x32 image pads 3 rows/columns before and 4 after
# (top-left-biased centering), so the output is again 32x32.
image = rng.uniform(0, 1, (32, 32, 3))
kernels = rng.normal(0, 0.1, (8, 8, 3, 16))
maps = ops.conv2d_same(image, kernels)
print(f"conv2d_same: {image.shape} * {kernels.shape} -> {maps.shape}")

# A Kronecker-delta kernel (1 at the spatial center on the channel
# diagonal) makes the convolution an exact identity; this is how deep
# models are initialized so activations copy upward unchanged.
identity = np.zeros((3, 3, 3, 3))
identity[1, 1] = np.eye(3)
print("identity kernel is exact:", np.array_equal(ops.conv2d_same(image, identity), image))

# --- max pooling remembers its winners --------------------------------------
pooled, argmax = ops.maxpool(maps)
print(f"maxpool: {maps.shape} -> {pooled.shape}; each cell recorded the "
      f"winning in-block index, e.g. argmax[0,0,0] = {argmax[0, 0, 0]}")

# The adjoint routes each cotangent entirely to the recorded winner.
routed = ops.maxpool_grad(np.ones_like(pooled), argmax)
print(f"pool adjoint puts {int(routed.sum())} ones among {routed.size} inputs")

# --- pixel-wise L2 normalization --------------------------------------------
z = np.array([3.0, 4.0]).reshape(1, 1, 2)
print("l2norm_pixel([3, 4]) =", ops.l2norm_pixel(z).ravel(), "(norm 5)")

# --- every adjoint agrees with finite differences ----------------------------
# Pair each primitive with a random cotangent g and compare d<f(x), g>/dx
# against central differences.
x = rng.standard_normal((6, 6, 2))
k = rng.standard_normal((3, 3, 2, 4))
g = rng.standard_normal((6, 6, 4))

fd = finite_diff(lambda t: np.vdot(ops.conv2d_same(t, k), g), x.copy())
analytic = ops.conv2d_same_input_grad(g, k)
print(f"conv input adjoint vs finite differences: "
      f"max abs diff {np.abs(analytic - fd).max():.2e}")

fd = finite_diff(lambda t: np.vdot(ops.conv2d_same(x, t), g), k.copy())
analytic = ops.conv2d_same_kernel_grad(x, g, (3, 3))
print(f"conv kernel adjoint vs finite differences: "
      f"max abs diff {np.abs(analytic - fd).max():.2e}")

probs, nll = ops.softmax(rng.standard_normal(10))
print(f"softmax sums to one: {probs.sum():.15f}; "
      f"nll = -log p: {np.allclose(nll, -np.log(probs))}")
