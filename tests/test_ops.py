import numpy as np
import numpy.testing as npt
import pytest

from reconv import ShapeError
from reconv import ops
from reconv.gradcheck import finite_diff


def conv2d_same_reference(x, kernels):
    """Brute-force oracle: direct evaluation of the defining sum with
    explicit zero padding, independent of the im2col path."""
    h, w, cin = x.shape
    kh, kw, _, cout = kernels.shape
    oh, ow = (kh - 1) // 2, (kw - 1) // 2
    out = np.zeros((h, w, cout))
    for i in range(h):
        for j in range(w):
            for u in range(kh):
                for v in range(kw):
                    ii, jj = i + u - oh, j + v - ow
                    if 0 <= ii < h and 0 <= jj < w:
                        for ci in range(cin):
                            out[i, j, :] += kernels[u, v, ci, :] * x[ii, jj, ci]
    return out


def conv2d_same_input_grad_scatter(grad_out, kernels):
    """The input adjoint as a tap scatter: each output cotangent is sent
    back through every kernel tap into a padded buffer, which is cropped
    to the input."""
    h, w, cout = grad_out.shape
    kh, kw, cin, _ = kernels.shape
    kmat = kernels.reshape(kh * kw * cin, cout)
    dcols = (grad_out.reshape(h * w, cout) @ kmat.T).reshape(h, w, kh, kw, cin)
    padded = np.zeros((h + kh - 1, w + kw - 1, cin))
    for u in range(kh):
        for v in range(kw):
            padded[u:u + h, v:v + w] += dcols[:, :, u, v, :]
    oh, ow = (kh - 1) // 2, (kw - 1) // 2
    return padded[oh:oh + h, ow:ow + w]


def identity_kernel(extent, channels):
    k = np.zeros((extent, extent, channels, channels))
    k[(extent - 1) // 2, (extent - 1) // 2] = np.eye(channels)
    return k


# ---------------------------------------------------------------------------
# conv2d_same


def test_conv_scalar_product():
    out = ops.conv2d_same(np.array([[[5.0]]]), np.array([[[[2.0]]]]))
    npt.assert_array_equal(out, [[[10.0]]])


def test_conv_identity_kernel_is_identity():
    x = np.ones((3, 3, 1))
    out = ops.conv2d_same(x, identity_kernel(3, 1))
    npt.assert_array_equal(out, x)


def test_conv_identity_kernel_random_inputs():
    rng = np.random.default_rng(7)
    for extent, h, w, c in [(3, 8, 8, 4), (3, 5, 9, 2), (8, 12, 8, 3)]:
        x = rng.standard_normal((h, w, c))
        npt.assert_array_equal(ops.conv2d_same(x, identity_kernel(extent, c)), x)


def test_conv_zero_padding_hand_case():
    # every 3x3 window of a 2x2 input covers all four in-bounds entries
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
    k = np.ones((3, 3, 1, 1))
    npt.assert_array_equal(ops.conv2d_same(x, k)[:, :, 0], [[10.0, 10.0], [10.0, 10.0]])


@pytest.mark.parametrize("h,w,cin,cout,kh,kw", [
    (5, 5, 1, 1, 3, 3),
    (6, 4, 3, 2, 3, 3),
    (8, 8, 3, 4, 8, 8),   # even extent, first-layer shape
    (7, 5, 2, 3, 1, 3),
    (4, 4, 2, 2, 4, 2),   # even extents, mixed
])
def test_conv_matches_reference(h, w, cin, cout, kh, kw):
    rng = np.random.default_rng(hash((h, w, cin, cout, kh, kw)) % 2**32)
    x = rng.standard_normal((h, w, cin))
    k = rng.standard_normal((kh, kw, cin, cout))
    npt.assert_allclose(ops.conv2d_same(x, k), conv2d_same_reference(x, k),
                        rtol=1e-12, atol=1e-12)


def test_conv_channel_mismatch_raises():
    with pytest.raises(ShapeError):
        ops.conv2d_same(np.zeros((4, 4, 3)), np.zeros((3, 3, 2, 5)))


@pytest.mark.parametrize("op,args,message", [
    (ops.conv2d_same, (np.zeros((4, 4)), np.zeros((3, 3, 1, 2))), "expects"),
    (ops.conv2d_same_input_grad, (np.zeros((4, 4, 3)), np.zeros((3, 3, 2, 5))),
     "5 output channels, cotangent has 3"),
    (ops.conv2d_same_kernel_grad, (np.zeros((4, 4, 2)), np.zeros((4, 5, 3)), (3, 3)),
     "extent")], ids=["ndim", "channels", "extent"])
def test_conv_ops_reject_mismatched_shapes(op, args, message):
    with pytest.raises(ShapeError, match=message):
        op(*args)


def test_conv_adjoints_are_exact_transposes():
    # <conv(x), g> == <x, input_grad(g)> == <k, kernel_grad(x, g)>
    rng = np.random.default_rng(11)
    for kh, kw in [(3, 3), (8, 8), (2, 4)]:
        x = rng.standard_normal((8, 8, 3))
        k = rng.standard_normal((kh, kw, 3, 5))
        g = rng.standard_normal((8, 8, 5))
        lhs = np.vdot(ops.conv2d_same(x, k), g)
        npt.assert_allclose(lhs, np.vdot(x, ops.conv2d_same_input_grad(g, k)),
                            rtol=1e-12)
        npt.assert_allclose(lhs, np.vdot(k, ops.conv2d_same_kernel_grad(x, g, (kh, kw))),
                            rtol=1e-12)


@pytest.mark.parametrize("kh,kw", [(1, 1), (1, 3), (2, 4), (3, 3), (4, 4), (5, 2), (8, 8)])
@pytest.mark.parametrize("channels", [1, 3, 16])
@pytest.mark.parametrize("h,w", [(2, 2), (6, 4), (8, 8)])
def test_conv_input_grad_matches_tap_scatter(kh, kw, channels, h, w):
    rng = np.random.default_rng([kh, kw, channels, h, w])
    k = rng.standard_normal((kh, kw, channels, channels + 1))
    g = rng.standard_normal((h, w, channels + 1))
    grad = ops.conv2d_same_input_grad(g, k)
    assert grad.shape == (h, w, channels) and grad.flags.c_contiguous
    # relative to the largest entry: an entry summed with cancellation
    # carries the rounding of its largest terms, not of its own size
    ref = conv2d_same_input_grad_scatter(g, k)
    assert np.abs(grad - ref).max() <= 1e-14 * np.abs(ref).max()
    if kh == kw == 1:
        assert np.array_equal(grad, ref)


def test_conv_adjoints_match_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 6, 2))
    k = rng.standard_normal((3, 3, 2, 2))
    g = rng.standard_normal((6, 6, 2))

    fd_x = finite_diff(lambda t: np.vdot(ops.conv2d_same(t, k), g), x.copy())
    npt.assert_allclose(ops.conv2d_same_input_grad(g, k), fd_x, rtol=1e-6, atol=1e-8)

    fd_k = finite_diff(lambda t: np.vdot(ops.conv2d_same(x, t), g), k.copy())
    npt.assert_allclose(ops.conv2d_same_kernel_grad(x, g, (3, 3)), fd_k,
                        rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# maxpool


def test_maxpool_single_block():
    x = np.arange(16, dtype=np.float64).reshape(4, 4, 1)
    out, argmax = ops.maxpool(x)
    npt.assert_array_equal(out, [[[15.0]]])
    assert argmax[0, 0, 0] == 15  # bottom-right of the block in row-major scan


def test_maxpool_constant_ties_to_first_index():
    out, argmax = ops.maxpool(np.full((8, 8, 1), 3.5))
    npt.assert_array_equal(out, np.full((2, 2, 1), 3.5))
    npt.assert_array_equal(argmax, np.zeros((2, 2, 1), dtype=np.int64))


def test_maxpool_backward_routes_to_argmax():
    x = np.zeros((4, 4, 1))
    x[2, 3, 0] = 9.0
    out, argmax = ops.maxpool(x)
    grad = ops.maxpool_grad(np.array([[[1.0]]]), argmax)
    expected = np.zeros((4, 4, 1))
    expected[2, 3, 0] = 1.0
    npt.assert_array_equal(grad, expected)


def test_maxpool_shape_error():
    with pytest.raises(ShapeError):
        ops.maxpool(np.zeros((5, 8, 1)))
    with pytest.raises(ShapeError):
        ops.maxpool(np.zeros((8, 6, 1)))


def test_maxpool_blockwise_reconstruction():
    # adjoint applied to the pooled output puts each block's max back at
    # its argmax position, so per-block sums equal the block max
    rng = np.random.default_rng(5)
    x = rng.standard_normal((8, 12, 3))
    out, argmax = ops.maxpool(x)
    back = ops.maxpool_grad(out, argmax)
    sums = back.reshape(2, 4, 3, 4, 3).sum(axis=(1, 3))
    npt.assert_allclose(sums, out, rtol=0, atol=0)


def test_maxpool_matches_naive():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 8, 2))
    out, _ = ops.maxpool(x)
    for i in range(2):
        for j in range(2):
            for m in range(2):
                assert out[i, j, m] == x[4 * i:4 * i + 4, 4 * j:4 * j + 4, m].max()


# ---------------------------------------------------------------------------
# relu


def test_relu_values_and_adjoint():
    x = np.array([-1.0, 0.0, 2.0])
    npt.assert_array_equal(ops.relu(x), [0.0, 0.0, 2.0])
    npt.assert_array_equal(ops.relu_grad(np.ones(3), x), [0.0, 0.0, 1.0])


def test_relu_idempotent_on_nonnegative():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 5, 2))
    once = ops.relu(x)
    npt.assert_array_equal(ops.relu(once), once)


def test_relu_adjoint_matches_finite_differences_away_from_kinks():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((4, 4, 2))
    x[np.abs(x) < 1e-3] = 0.5  # keep every input clear of the kink
    g = rng.standard_normal((4, 4, 2))
    fd = finite_diff(lambda t: np.vdot(ops.relu(t), g), x.copy())
    npt.assert_allclose(ops.relu_grad(g, x), fd, rtol=1e-4, atol=1e-8)


def test_maxpool_adjoint_matches_finite_differences_with_unique_maxima():
    rng = np.random.default_rng(22)
    x = rng.permutation(64).astype(np.float64).reshape(8, 8, 1)  # all distinct
    g = rng.standard_normal((2, 2, 1))

    def pooled_dot(t):
        out, _ = ops.maxpool(t)
        return np.vdot(out, g)

    _, argmax = ops.maxpool(x)
    fd = finite_diff(pooled_dot, x.copy())
    npt.assert_allclose(ops.maxpool_grad(g, argmax), fd, rtol=1e-4, atol=1e-8)


# ---------------------------------------------------------------------------
# l2norm_pixel


def test_l2norm_analytic_pixel():
    z = np.array([3.0, 4.0]).reshape(1, 1, 2)
    npt.assert_allclose(ops.l2norm_pixel(z), [[[0.6, 0.8]]], rtol=1e-15)


def test_l2norm_zero_pixel_stays_zero():
    npt.assert_array_equal(ops.l2norm_pixel(np.zeros((2, 2, 3))), np.zeros((2, 2, 3)))


def test_l2norm_adjoint_hand_value():
    # (I - zhat zhat^T) / 5 applied to [1, 0] at z = [3, 4]
    z = np.array([3.0, 4.0]).reshape(1, 1, 2)
    g = np.array([1.0, 0.0]).reshape(1, 1, 2)
    npt.assert_allclose(ops.l2norm_pixel_grad(g, z), [[[0.128, -0.096]]], rtol=1e-14)


def test_l2norm_output_has_unit_pixels():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((6, 6, 4)) + 0.5
    norms = np.linalg.norm(ops.l2norm_pixel(z), axis=2)
    in_norms = np.linalg.norm(z, axis=2)
    npt.assert_allclose(norms[in_norms > 1e-6], 1.0, atol=1e-9)


def test_l2norm_adjoint_matches_finite_differences():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((3, 3, 4)) + 0.2
    g = rng.standard_normal((3, 3, 4))
    fd = finite_diff(lambda t: np.vdot(ops.l2norm_pixel(t), g), z.copy())
    npt.assert_allclose(ops.l2norm_pixel_grad(g, z), fd, rtol=1e-5, atol=1e-8)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    probs, nll = ops.softmax(np.zeros(2))
    npt.assert_allclose(probs, [0.5, 0.5], rtol=1e-15)
    npt.assert_allclose(nll, [np.log(2.0)] * 2, rtol=1e-15)


def test_softmax_hand_value():
    probs, nll = ops.softmax(np.array([np.log(2.0), 0.0]))
    npt.assert_allclose(probs, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)
    npt.assert_allclose(nll, [np.log(1.5), np.log(3.0)], rtol=1e-14)


def test_softmax_shift_invariance_and_simplex():
    rng = np.random.default_rng(12)
    for _ in range(20):
        y = rng.standard_normal(10) * 5
        p, nll = ops.softmax(y)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-12
        npt.assert_allclose(nll, -np.log(p), rtol=1e-12)
        npt.assert_allclose(ops.softmax(y + 37.5)[0], p, rtol=1e-12)


# ---------------------------------------------------------------------------
# cross-cutting


def test_all_primitives_finite_on_finite_inputs():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((8, 8, 3)) * 100
    k = rng.standard_normal((3, 3, 3, 4)) * 100
    assert np.all(np.isfinite(ops.conv2d_same(x, k)))
    out, argmax = ops.maxpool(x)
    assert np.all(np.isfinite(out))
    assert np.all(np.isfinite(ops.relu(x)))
    assert np.all(np.isfinite(ops.l2norm_pixel(x)))
    assert np.all(np.isfinite(ops.softmax(x[0, 0])))
    assert np.all(np.isfinite(ops.l2norm_pixel(np.zeros((4, 4, 2)))))


# ---------------------------------------------------------------------------
# bit identity with numpy's generic constructions
#
# The ops build their windows, pool winners and reductions directly; these
# reference copies use numpy's generic helpers for the same arithmetic,
# and every result must match them bit for bit.


def im2col_reference(x, kh, kw, top, left):
    h, w, cin = x.shape
    padded = np.zeros((h + kh - 1, w + kw - 1, cin), dtype=np.float64)
    padded[top:top + h, left:left + w] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw, cin))
    return windows.reshape(h * w, kh * kw * cin)


def maxpool_reference(x, size=4):
    h, w, m = x.shape
    if h % size or w % size:
        raise ShapeError(f"spatial extent {(h, w)} not divisible by pool size {size}")
    hb, wb = h // size, w // size
    blocks = (x.reshape(hb, size, wb, size, m)
               .transpose(0, 2, 1, 3, 4)
               .reshape(hb, wb, size * size, m))
    argmax = blocks.argmax(axis=2)
    pooled = np.take_along_axis(blocks, argmax[:, :, None, :], axis=2)[:, :, 0, :]
    return pooled, argmax


def maxpool_grad_reference(grad_out, argmax, size=4):
    hb, wb, m = grad_out.shape
    blocks = np.zeros((hb, wb, size * size, m), dtype=np.float64)
    np.put_along_axis(blocks, argmax[:, :, None, :], grad_out[:, :, None, :], axis=2)
    return (blocks.reshape(hb, wb, size, size, m)
                  .transpose(0, 2, 1, 3, 4)
                  .reshape(hb * size, wb * size, m))


def l2norm_pixel_reference(z, eps=ops.L2NORM_EPS):
    norms = np.sqrt(np.sum(z * z, axis=2, keepdims=True))
    return z / np.maximum(norms, eps)


def l2norm_pixel_grad_reference(grad_out, z, eps=ops.L2NORM_EPS):
    norms = np.sqrt(np.sum(z * z, axis=2, keepdims=True))
    safe = np.maximum(norms, eps)
    zhat = z / safe
    projected = grad_out - zhat * np.sum(zhat * grad_out, axis=2, keepdims=True)
    return np.where(norms > eps, projected / safe, grad_out / eps)


def softmax_reference(logits):
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    total = np.sum(e)
    return e / total, np.log(total) - shifted


# ops attribute -> reference copy, for putting the generic forms back
REFERENCE_OPS = {
    "_im2col": im2col_reference,
    "maxpool": maxpool_reference,
    "maxpool_grad": maxpool_grad_reference,
    "l2norm_pixel": l2norm_pixel_reference,
    "l2norm_pixel_grad": l2norm_pixel_grad_reference,
    "softmax": softmax_reference,
}


@pytest.mark.parametrize("kh,kw", [(1, 3), (2, 4), (3, 3), (4, 4), (8, 8)])
@pytest.mark.parametrize("cin", [1, 3, 16])
@pytest.mark.parametrize("h,w", [(2, 2), (6, 4), (32, 32)])
def test_im2col_bit_identical_to_sliding_window_view(kh, kw, cin, h, w):
    x = np.random.default_rng([kh, kw, cin, h, w]).standard_normal((h, w, cin))
    # the forward's zeros before, then the input adjoint's
    for top, left in [((kh - 1) // 2, (kw - 1) // 2), (kh // 2, kw // 2)]:
        cols = ops._im2col(x, kh, kw, top, left)
        assert cols.shape == (h * w, kh * kw * cin)
        assert cols.flags.c_contiguous
        assert np.array_equal(cols, im2col_reference(x, kh, kw, top, left))


@pytest.mark.parametrize("h,w,m,size", [(8, 8, 16, 4), (32, 32, 3, 4), (4, 6, 2, 2)])
def test_maxpool_bit_identical_to_take_along_axis(h, w, m, size):
    x = np.random.default_rng([h, w, m]).standard_normal((h, w, m))
    x[:size, :size, 0] = 1.25                       # a constant block: all tied
    x[:size, -size:, -1] = 0.0                      # a zero block, the ReLU case
    for pooled_input in (x, ops.relu(x)):
        pooled, argmax = ops.maxpool(pooled_input, size)
        ref_pooled, ref_argmax = maxpool_reference(pooled_input, size)
        assert np.array_equal(pooled, ref_pooled)
        assert np.array_equal(argmax, ref_argmax)
        assert pooled.flags.c_contiguous


def test_maxpool_with_a_nan_matches_take_along_axis():
    x = np.random.default_rng(9).standard_normal((8, 8, 3))
    x[1, 2, 1] = np.nan
    pooled, argmax = ops.maxpool(x)
    ref_pooled, ref_argmax = maxpool_reference(x)
    assert np.isnan(pooled[0, 0, 1])
    assert np.array_equal(pooled, ref_pooled, equal_nan=True)
    assert np.array_equal(argmax, ref_argmax)


def test_relu_outputs_no_negative_zero():
    # maxpool's block maximum equals the value at argmax unless a block
    # holds zeros of both signs; the model only pools ReLU outputs
    out = ops.relu(np.array([-0.0, 0.0, -1.0] * 7))
    assert not np.signbit(out).any()


@pytest.mark.parametrize("h,w,m,size", [(8, 8, 16, 4), (32, 32, 3, 4), (4, 6, 2, 2)])
def test_maxpool_grad_bit_identical_to_put_along_axis(h, w, m, size):
    rng = np.random.default_rng([h, w, m, size])
    _, argmax = ops.maxpool(rng.standard_normal((h, w, m)), size)
    g = rng.standard_normal((h // size, w // size, m))
    g[0, 0, 0] = -0.0
    grad = ops.maxpool_grad(g, argmax, size)
    ref = maxpool_grad_reference(g, argmax, size)
    assert np.array_equal(grad, ref)
    assert np.array_equal(np.signbit(grad), np.signbit(ref))


def test_l2norm_softmax_and_adjoint_bit_identical_to_np_sum_and_max():
    rng = np.random.default_rng(12)
    for shape in [(2, 2, 1), (8, 8, 16), (2, 2, 64)]:
        z = rng.standard_normal(shape)
        z[0, 0] = 0.0                               # the eps branch
        g = rng.standard_normal(shape)
        assert np.array_equal(ops.l2norm_pixel(z), l2norm_pixel_reference(z))
        assert np.array_equal(ops.l2norm_pixel_grad(g, z),
                              l2norm_pixel_grad_reference(g, z))
    for logits in [rng.standard_normal(10) * 30, np.array([800.0, 0.0, -3.0])]:
        for got, ref in zip(ops.softmax(logits), softmax_reference(logits)):
            assert np.array_equal(got, ref)
