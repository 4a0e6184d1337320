"""Dataset ingestion and deterministic minibatch iteration.

Two on-disk layouts are supported, both byte-exact:

CIFAR-10 binary batches
    Consecutive 3073-byte records: 1 label byte (0..9) followed by 3072
    pixel bytes stored as three 1024-byte channel planes (R, G, B), each
    plane a row-major 32x32 grid.

Raw interchange format
    An image file of exactly n*3072 bytes (channel-planar, as above) plus
    a label file of exactly n bytes. This is the documented drop point
    for externally converted data (e.g. house-number crops exported from
    their original container format by a one-line script).

Pixels always map to value/255 in [0, 1]; no mean subtraction or
whitening is applied anywhere.
"""

from __future__ import annotations

import colorsys
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError

RECORD_BYTES = 3073          # 1 label byte + 32*32*3 pixel bytes
PIXELS_PER_IMAGE = 3072


class Dataset:
    """Labeled images: N images of (H, W, 3) pixels in [0, 1] and N class
    indices in [0, num_classes).

    ``Dataset(images, labels, num_classes)`` stores float64 pixels. The
    loaders store the files' byte codes instead, 1 byte per value against
    8, and scale only the examples a caller asks ``floats`` for, by
    ``/ 255.0``: the bits of scaling the whole set at once. ``images`` is
    the whole set as float64; for byte-backed data it is a new copy on
    each access, so code that walks the examples uses ``floats``.
    """

    def __init__(self, images, labels, num_classes: int = 10):
        self._store(np.asarray(images, dtype=np.float64), labels, num_classes)

    @classmethod
    def _stored(cls, pixels: np.ndarray, labels, num_classes: int) -> "Dataset":
        """A dataset holding ``pixels`` as given: float64 values, or uint8
        codes of value * 255."""
        data = cls.__new__(cls)
        data._store(pixels, labels, num_classes)
        return data

    def _store(self, pixels: np.ndarray, labels, num_classes: int) -> None:
        self._pixels = pixels
        self.labels = np.asarray(labels, dtype=np.int64)
        self.num_classes = num_classes
        if pixels.ndim != 4 or pixels.shape[3] != 3:
            raise ShapeError(f"images must be (N, H, W, 3), got {pixels.shape}")
        if self.labels.shape != (pixels.shape[0],):
            raise ShapeError(
                f"{pixels.shape[0]} images but labels shaped {self.labels.shape}")
        # byte codes lie in [0, 255] by their type
        if (pixels.dtype == np.float64 and pixels.size
                and not (pixels.min() >= 0.0 and pixels.max() <= 1.0)):
            raise ShapeError("pixel values must lie in [0, 1]")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= num_classes):
            raise ShapeError(f"labels must lie in [0, {num_classes})")

    def floats(self, index) -> np.ndarray:
        """The float64 pixels of examples ``index`` (an integer, slice or
        index array, as for ``labels[index]``); a view of float-backed
        data where numpy indexing gives one."""
        pixels = self._pixels[index]
        return pixels / 255.0 if pixels.dtype == np.uint8 else pixels

    @property
    def images(self) -> np.ndarray:
        """All pixels, (N, H, W, 3) float64; see the class docstring."""
        return self.floats(slice(None))

    def __len__(self) -> int:
        return self.labels.shape[0]

    def subset(self, indices) -> "Dataset":
        """The examples ``indices``, stored as this dataset stores them."""
        return Dataset._stored(self._pixels[indices], self.labels[indices],
                               self.num_classes)


def _planes_to_codes(pixel_bytes: np.ndarray) -> np.ndarray:
    """uint8 channel-planar bytes, 3072 per image -> (n, 32, 32, 3) uint8
    codes, copied into their own contiguous array."""
    planes = pixel_bytes.reshape(-1, 3, 32, 32)
    return np.ascontiguousarray(planes.transpose(0, 2, 3, 1))


def _check_labels(path, labels: np.ndarray, num_classes: int) -> None:
    """Raise a FormatError naming the first record of ``path`` whose
    label is ``num_classes`` or more."""
    bad = np.nonzero(labels >= num_classes)[0]
    if bad.size:
        raise FormatError(
            f"{path}: label {labels[bad[0]]} >= {num_classes} in record {bad[0]}",
            record=int(bad[0]))


def load_cifar10(paths) -> Dataset:
    """Parse one or more CIFAR-10 binary batch files into a single
    dataset, preserving record order across files."""
    if isinstance(paths, (str, Path)):
        paths = [paths]
    paths = list(paths)
    if not paths:
        raise ValueError("load_cifar10 needs at least one batch file, got an empty list")
    batches = []
    for path in paths:
        raw = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8)
        remainder = raw.size % RECORD_BYTES
        if remainder:
            offset = raw.size - remainder
            raise FormatError(
                f"{path}: length {raw.size} is not a multiple of {RECORD_BYTES}; "
                f"incomplete record starts at byte offset {offset}",
                offset=offset)
        records = raw.reshape(-1, RECORD_BYTES)
        _check_labels(path, records[:, 0], 10)
        batches.append(records)
    records = np.concatenate(batches)
    del batches             # free the per-file buffers before the codes are copied
    return Dataset._stored(_planes_to_codes(records[:, 1:]),
                           records[:, 0].astype(np.int64), num_classes=10)


def load_raw(image_path, label_path, n: int, num_classes: int = 10) -> Dataset:
    """Load the raw interchange format: n*3072 image bytes plus n label
    bytes, validated against the expected sizes."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    image_bytes = Path(image_path).read_bytes()
    expected = n * PIXELS_PER_IMAGE
    if len(image_bytes) != expected:
        raise FormatError(
            f"{image_path}: expected {expected} image bytes for n={n}, "
            f"found {len(image_bytes)}")
    label_bytes = Path(label_path).read_bytes()
    if len(label_bytes) != n:
        raise FormatError(
            f"{label_path}: expected {n} label bytes, found {len(label_bytes)}")
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    _check_labels(label_path, labels, num_classes)
    codes = _planes_to_codes(np.frombuffer(image_bytes, dtype=np.uint8))
    return Dataset._stored(codes, labels, num_classes=num_classes)


def save_raw(data: Dataset, image_path, label_path) -> None:
    """Write a dataset in the raw interchange format.

    Pixels are quantized to round(value*255), which load_raw inverts
    exactly, so save -> load -> save round-trips byte-identically. Loaded
    data is written from its stored bytes.
    """
    codes = data._pixels
    if codes.dtype != np.uint8:
        codes = np.round(codes * 255.0).astype(np.uint8)
    planes = codes.transpose(0, 3, 1, 2)
    Path(image_path).write_bytes(planes.tobytes())
    Path(label_path).write_bytes(data.labels.astype(np.uint8).tobytes())


def minibatches(data: Dataset, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Index batches for one epoch: a permutation of 0..N-1 drawn from a
    generator keyed by (seed, epoch), chunked into consecutive batches.
    The final batch may be short; it is never dropped."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(data)
    perm = np.random.default_rng([seed, epoch]).permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]


# Evenly spaced hues, full saturation; distinct anchor colors per class.
def _class_palette(num_classes: int) -> np.ndarray:
    return np.array([colorsys.hsv_to_rgb(k / num_classes, 1.0, 1.0)
                     for k in range(num_classes)])


def make_synthetic(n: int, seed: int, num_classes: int = 10,
                   noise: float = 0.25, size: int = 32) -> Dataset:
    """The synthetic color dataset used for desk-scale training runs.

    Each class k has a fixed anchor color (hue k/num_classes at full
    saturation). An image is its class color washed toward gray, plus
    uniform pixel noise, clipped to [0, 1]:

        image = clip(0.5 * color + 0.25 + noise * (u - 0.5), 0, 1)

    with u drawn i.i.d. uniform per pixel and channel. Labels cycle
    0, 1, ..., num_classes-1, so classes are balanced up to remainder.
    Deterministic in (n, seed, num_classes, noise, size); ``n`` must be
    at least 0, ``num_classes`` and ``size`` at least 1, and ``noise``
    finite.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    for name, value in (("num_classes", num_classes), ("size", size)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not np.isfinite(noise):
        raise ValueError(f"noise must be finite, got {noise}")
    rng = np.random.default_rng(seed)
    palette = _class_palette(num_classes)
    labels = np.arange(n, dtype=np.int64) % num_classes
    base = 0.5 * palette[labels][:, None, None, :] + 0.25
    jitter = noise * (rng.uniform(size=(n, size, size, 3)) - 0.5)
    images = np.clip(base + jitter, 0.0, 1.0)
    return Dataset(images, labels, num_classes=num_classes)
