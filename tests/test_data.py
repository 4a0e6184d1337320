import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from reconv import (Dataset, FormatError, ShapeError, load_cifar10, load_raw,
                    make_synthetic, minibatches, save_raw)
from reconv.data import PIXELS_PER_IMAGE, RECORD_BYTES


def cifar_record(label, pixels=None, fill=0):
    """One 3073-byte record: label byte + R, G, B planes."""
    body = bytes([fill]) * PIXELS_PER_IMAGE if pixels is None else bytes(pixels)
    assert len(body) == PIXELS_PER_IMAGE
    return bytes([label]) + body


# ---------------------------------------------------------------------------
# CIFAR-10 binary format


def test_load_cifar10_two_records(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(cifar_record(3, fill=0) + cifar_record(7, fill=255))
    data = load_cifar10([path])
    assert len(data) == 2
    npt.assert_array_equal(data.labels, [3, 7])
    assert data.images.shape == (2, 32, 32, 3)
    npt.assert_array_equal(data.images[0], np.zeros((32, 32, 3)))
    npt.assert_array_equal(data.images[1], np.ones((32, 32, 3)))


def test_load_cifar10_channel_plane_order(tmp_path):
    # R plane set to 255, G and B zero -> red channel only
    pixels = bytes([255]) * 1024 + bytes([0]) * 2048
    path = tmp_path / "red.bin"
    path.write_bytes(cifar_record(0, pixels))
    img = load_cifar10([path]).images[0]
    npt.assert_array_equal(img[:, :, 0], np.ones((32, 32)))
    npt.assert_array_equal(img[:, :, 1:], np.zeros((32, 32, 2)))


def test_load_cifar10_row_major_planes(tmp_path):
    # first byte of the G plane is pixel (0, 0)
    pixels = bytearray(PIXELS_PER_IMAGE)
    pixels[1024] = 51  # G plane offset 0
    path = tmp_path / "g.bin"
    path.write_bytes(cifar_record(0, bytes(pixels)))
    img = load_cifar10([path]).images[0]
    assert img[0, 0, 1] == pytest.approx(51 / 255)
    assert img.sum() == pytest.approx(51 / 255)


def test_load_cifar10_scaling_endpoints(tmp_path):
    pixels = bytearray(PIXELS_PER_IMAGE)
    pixels[0] = 255
    path = tmp_path / "endpoints.bin"
    path.write_bytes(cifar_record(0, bytes(pixels)))
    img = load_cifar10([path]).images[0]
    assert img[0, 0, 0] == 1.0
    assert img[0, 1, 0] == 0.0


def test_load_cifar10_truncated_file_positions_error(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(cifar_record(0) + b"\x00")  # 3074 bytes
    with pytest.raises(FormatError) as err:
        load_cifar10([path])
    assert err.value.offset == RECORD_BYTES
    assert "3073" in str(err.value)


def test_load_cifar10_bad_label_positions_error(tmp_path):
    path = tmp_path / "badlabel.bin"
    path.write_bytes(cifar_record(1) + cifar_record(10))
    with pytest.raises(FormatError) as err:
        load_cifar10([path])
    assert err.value.record == 1


def test_load_cifar10_concatenates_batches(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    a.write_bytes(cifar_record(1))
    b.write_bytes(cifar_record(2) + cifar_record(3))
    data = load_cifar10([a, b])
    npt.assert_array_equal(data.labels, [1, 2, 3])


def test_load_cifar10_holds_the_dataset_once(tmp_path):
    rng = np.random.default_rng(0)
    paths, blobs = [], []
    for k in range(4):
        records = rng.integers(0, 256, size=(256, RECORD_BYTES), dtype=np.uint8)
        records[:, 0] %= 10
        paths.append(tmp_path / f"batch{k}.bin")
        paths[-1].write_bytes(records.tobytes())
        blobs.append(records)
    tracemalloc.start()
    try:
        data = load_cifar10(paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the bytes are held at most about twice while parsing, and no float
    # copy, 8 bytes per value, is ever made
    assert peak <= 2.5 * data._pixels.nbytes
    records = np.concatenate(blobs)
    planes = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
    npt.assert_array_equal(data.images, planes / 255)
    npt.assert_array_equal(data.labels, records[:, 0])


def test_load_cifar10_of_no_files_names_the_empty_list():
    with pytest.raises(ValueError, match="empty list"):
        load_cifar10([])


# ---------------------------------------------------------------------------
# raw interchange format


def test_load_raw_single_black_image(tmp_path):
    img, lab = tmp_path / "img.bin", tmp_path / "lab.bin"
    img.write_bytes(bytes(PIXELS_PER_IMAGE))
    lab.write_bytes(bytes(1))
    data = load_raw(img, lab, n=1)
    assert len(data) == 1
    assert data.labels[0] == 0
    npt.assert_array_equal(data.images[0], np.zeros((32, 32, 3)))


def test_load_raw_size_mismatches(tmp_path):
    img, lab = tmp_path / "img.bin", tmp_path / "lab.bin"
    img.write_bytes(bytes(PIXELS_PER_IMAGE))
    lab.write_bytes(bytes(2))
    with pytest.raises(FormatError, match="6144"):
        load_raw(img, lab, n=2)  # expects 2 * 3072 image bytes
    with pytest.raises(FormatError, match="label"):
        img.write_bytes(bytes(2 * PIXELS_PER_IMAGE))
        lab.write_bytes(bytes(3))
        load_raw(img, lab, n=2)


def test_load_raw_negative_count_is_a_value_error_not_a_format_error(tmp_path):
    img, lab = tmp_path / "img.bin", tmp_path / "lab.bin"
    img.write_bytes(b"")
    lab.write_bytes(b"")
    with pytest.raises(ValueError, match="n must be >= 0") as err:
        load_raw(img, lab, n=-1)
    assert not isinstance(err.value, FormatError)


def test_load_raw_label_range(tmp_path):
    img, lab = tmp_path / "img.bin", tmp_path / "lab.bin"
    img.write_bytes(bytes(PIXELS_PER_IMAGE))
    lab.write_bytes(bytes([10]))
    with pytest.raises(FormatError) as err:
        load_raw(img, lab, n=1, num_classes=10)
    assert err.value.record == 0
    for classes in (0, -3):
        with pytest.raises(ValueError, match="num_classes") as err:
            load_raw(img, lab, n=1, num_classes=classes)
        assert not isinstance(err.value, FormatError)


def test_raw_round_trip_is_byte_lossless(tmp_path):
    data = make_synthetic(12, seed=5)
    img1, lab1 = tmp_path / "i1.bin", tmp_path / "l1.bin"
    img2, lab2 = tmp_path / "i2.bin", tmp_path / "l2.bin"
    save_raw(data, img1, lab1)
    loaded = load_raw(img1, lab1, n=12)
    save_raw(loaded, img2, lab2)
    assert img1.read_bytes() == img2.read_bytes()
    assert lab1.read_bytes() == lab2.read_bytes()
    # loaded pixels are exactly the quantized originals
    npt.assert_array_equal(loaded.images, np.round(data.images * 255) / 255)
    npt.assert_array_equal(loaded.labels, data.labels)


def test_raw_round_trip_from_byte_backed_data_is_byte_identical(tmp_path):
    img0, lab0 = tmp_path / "i0.bin", tmp_path / "l0.bin"
    save_raw(make_synthetic(9, seed=6), img0, lab0)
    loaded = load_raw(img0, lab0, n=9)
    files = []
    for k in (1, 2):
        files.append((tmp_path / f"i{k}.bin", tmp_path / f"l{k}.bin"))
        save_raw(loaded, *files[-1])
        loaded = load_raw(*files[-1], n=9)
    assert files[0][0].read_bytes() == files[1][0].read_bytes() == img0.read_bytes()
    assert files[0][1].read_bytes() == files[1][1].read_bytes() == lab0.read_bytes()


# ---------------------------------------------------------------------------
# Dataset and minibatches


def test_loaded_pixels_are_stored_as_bytes_and_subsets_keep_them(tmp_path):
    path = tmp_path / "batch.bin"
    codes = np.random.default_rng(3).integers(0, 256, size=(5, RECORD_BYTES), dtype=np.uint8)
    codes[:, 0] %= 10
    path.write_bytes(codes.tobytes())
    data = load_cifar10(path)
    assert data._pixels.dtype == np.uint8 and data._pixels.shape == (5, 32, 32, 3)
    part = data.subset(np.array([4, 1]))
    assert part._pixels.dtype == np.uint8
    npt.assert_array_equal(part.images, data.images[[4, 1]])
    npt.assert_array_equal(part.labels, data.labels[[4, 1]])
    # floats scales only the examples asked for, to the bits of images
    for index in (2, slice(1, 4), np.array([3, 0, 3])):
        assert data.floats(index).dtype == np.float64
        assert np.array_equal(data.floats(index), data.images[index])
    # the constructor keeps storing float64 values, whatever it is given
    copy = Dataset(data.images, data.labels)
    assert copy._pixels.dtype == np.float64
    assert copy.subset([0])._pixels.dtype == np.float64
    assert Dataset(np.ones((1, 2, 2, 3), dtype=np.uint8), [0]).images.max() == 1.0


def test_dataset_validation():
    with pytest.raises(ShapeError):
        Dataset(np.zeros((2, 32, 32, 3)), np.zeros(3, dtype=int))
    with pytest.raises(ShapeError):
        Dataset(np.full((1, 32, 32, 3), 1.5), np.zeros(1, dtype=int))
    with pytest.raises(ShapeError):
        Dataset(np.full((1, 4, 4, 3), np.nan), [0])
    with pytest.raises(ShapeError):
        Dataset(np.zeros((1, 32, 32, 3)), np.array([10]))
    for shape in ((2, 4, 4), (2, 4, 4, 1)):
        with pytest.raises(ShapeError, match=r"\(N, H, W, 3\)"):
            Dataset(np.zeros(shape), [0, 0])


def test_minibatch_sizes_and_partition():
    data = make_synthetic(5, seed=0)
    batches = minibatches(data, 2, seed=0, epoch=0)
    assert [len(b) for b in batches] == [2, 2, 1]
    merged = np.sort(np.concatenate(batches))
    npt.assert_array_equal(merged, np.arange(5))


def test_minibatches_deterministic_per_epoch_key():
    data = make_synthetic(32, seed=0)
    a = minibatches(data, 8, seed=3, epoch=2)
    b = minibatches(data, 8, seed=3, epoch=2)
    for x, y in zip(a, b):
        npt.assert_array_equal(x, y)


def test_minibatches_differ_across_epochs():
    data = make_synthetic(32, seed=0)
    e0 = np.concatenate(minibatches(data, 32, seed=1, epoch=0))
    e1 = np.concatenate(minibatches(data, 32, seed=1, epoch=1))
    assert not np.array_equal(e0, e1)


def test_minibatches_partition_every_epoch():
    data = make_synthetic(23, seed=0)
    for epoch in range(4):
        merged = np.sort(np.concatenate(minibatches(data, 7, seed=9, epoch=epoch)))
        npt.assert_array_equal(merged, np.arange(23))


def test_minibatches_rejects_bad_batch_size():
    with pytest.raises(ValueError):
        minibatches(make_synthetic(4, seed=0), 0, seed=0, epoch=0)


# ---------------------------------------------------------------------------
# synthetic dataset


def test_make_synthetic_deterministic_and_bounded():
    a = make_synthetic(20, seed=11)
    b = make_synthetic(20, seed=11)
    npt.assert_array_equal(a.images, b.images)
    npt.assert_array_equal(a.labels, b.labels)
    assert a.images.min() >= 0.0 and a.images.max() <= 1.0
    assert a.images.shape == (20, 32, 32, 3)


def test_make_synthetic_rejects_a_negative_count():
    with pytest.raises(ValueError, match=r"\bn must be >= 0"):
        make_synthetic(-1, seed=0)
    assert len(make_synthetic(0, seed=0)) == 0


@pytest.mark.parametrize("name,value", [("num_classes", 0), ("num_classes", -2),
                                        ("size", 0), ("size", -1)])
def test_make_synthetic_rejects_a_class_count_or_size_below_one(name, value):
    with pytest.raises(ValueError, match=rf"\b{name} must be >= 1, got {value}"):
        make_synthetic(5, seed=0, **{name: value})


def test_make_synthetic_balanced_labels():
    data = make_synthetic(30, seed=0)
    counts = np.bincount(data.labels, minlength=10)
    npt.assert_array_equal(counts, np.full(10, 3))


def test_make_synthetic_classes_are_separated():
    # same class, different seeds -> closer in mean color than different classes
    data = make_synthetic(100, seed=1)
    means = np.stack([data.images[data.labels == k].mean(axis=(0, 1, 2))
                      for k in range(10)])
    gaps = np.linalg.norm(means[:, None] - means[None, :], axis=2)
    off_diagonal = gaps[~np.eye(10, dtype=bool)]
    assert off_diagonal.min() > 0.05
