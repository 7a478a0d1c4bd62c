"""Datasets: the standard CIFAR binary layouts, a synthetic token-sequence
generator for desk-scale experiments, and the two basic augmentations.

Feature-based datasets carry (n, F, T) arrays of token columns; image
datasets hold raw (n, 32, 32, 3) arrays and patchify on demand so that
augmentations can be drawn per batch.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import COUNT, FINITE, FLAG, INT, NONNEGATIVE, TEXT, check_fields, one_of, optional, rule
from .errors import ConfigError, FormatError, NumericError
from .layers import patchify
from .linalg import orthonormal_basis, rng_for

__all__ = [
    "DatasetSpec",
    "Dataset",
    "ImageDataset",
    "parse_cifar_bytes",
    "load_cifar",
    "synth_dataset",
    "random_flip",
    "random_resize_crop",
    "build_dataset",
]

CROP_MIN_AREA = 0.6  # smallest share of the image a random crop covers


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for a dataset: either a CIFAR path or synthetic parameters."""

    source: str = rule("synthetic", one_of("synthetic", "cifar10", "cifar100"))
    path: str | None = rule(None, optional(TEXT))
    classes: int = rule(2, COUNT)
    tokens: int = rule(8, COUNT)
    feat_dim: int = rule(16, COUNT)
    subspace_dim: int = rule(4, COUNT)
    separation: float = rule(3.0, FINITE)
    noise: float = rule(0.1, NONNEGATIVE)
    n_train: int = rule(256, COUNT)
    n_val: int = rule(128, COUNT)
    seed: int = rule(0, INT)
    patch: int = rule(4, COUNT)
    augment_flip: bool = rule(False, FLAG)
    augment_crop: bool = rule(False, FLAG)

    def __post_init__(self):
        check_fields(self)
        n = self.n_train + self.n_val
        if self.source == "synthetic" and not 2 <= self.classes <= n:
            raise ConfigError(f"synthetic classes must lie in [2, n_train + n_val = {n}], got {self.classes}")
        if self.source == "synthetic" and self.subspace_dim > self.feat_dim:
            raise ConfigError(f"subspace_dim {self.subspace_dim} cannot exceed feat_dim {self.feat_dim}")


@dataclass
class Dataset:
    """Token-sequence dataset: features are (n, F, T) column matrices."""

    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    num_classes: int

    @property
    def n_train(self) -> int:
        return len(self.train_y)

    def train_batch(self, idx, rng=None):
        return self.train_x[idx], self.train_y[idx]


class ImageDataset:
    """Image dataset with on-the-fly augmentation and patchification."""

    def __init__(self, train_images, train_y, val_images, val_y, num_classes: int, patch: int = 4, augment_flip: bool = False, augment_crop: bool = False):
        self.train_images = train_images
        self.train_y = np.asarray(train_y)
        self.val_images = val_images
        self.val_y = np.asarray(val_y)
        self.num_classes = num_classes
        self.patch = patch
        self.augment_flip = augment_flip
        self.augment_crop = augment_crop

    @property
    def n_train(self) -> int:
        return len(self.train_y)

    @cached_property
    def train_x(self) -> np.ndarray:
        return patchify(self.train_images, self.patch)

    @cached_property
    def val_x(self) -> np.ndarray:
        return patchify(self.val_images, self.patch)

    def train_batch(self, idx, rng=None):
        imgs = self.train_images[idx]
        if rng is not None and (self.augment_flip or self.augment_crop):
            if self.augment_crop:
                imgs = random_resize_crop(imgs, rng)
            if self.augment_flip:
                imgs = random_flip(imgs, rng)
        return patchify(imgs, self.patch), self.train_y[idx]


# ----------------------------------------------------------------------
# CIFAR binary layouts

def parse_cifar_bytes(data: bytes, variant: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode raw CIFAR bytes: 1 (or 2) label bytes then 3072 planar pixels
    per record.  Pixels come back as (n, 32, 32, 3) in [0, 1]; for the
    100-class layout the fine label (byte 2 of the record) is returned and
    the coarse byte skipped."""
    if variant not in (10, 100):
        raise ConfigError("variant must be 10 or 100")
    label_bytes = 1 if variant == 10 else 2
    rec = label_bytes + 3072
    n_full, leftover = divmod(len(data), rec)
    if leftover:
        raise FormatError(
            f"file truncated: record {n_full} has {leftover} of {rec} bytes "
            f"(byte offset {n_full * rec})"
        )
    if n_full == 0:
        return np.zeros((0, 32, 32, 3)), np.zeros((0,), dtype=np.int64)
    raw = np.frombuffer(data, dtype=np.uint8).reshape(n_full, rec)
    labels = raw[:, label_bytes - 1].astype(np.int64)  # fine label for the 100-class layout
    if labels.max(initial=0) >= variant:
        bad = int(np.argmax(labels >= variant))
        raise FormatError(f"label {labels[bad]} out of range at record {bad}")
    pixels = raw[:, label_bytes:].reshape(n_full, 3, 32, 32)
    images = pixels.transpose(0, 2, 3, 1).astype(np.float64) / 255.0
    return images, labels


def _read_records(paths: list[str], variant: int) -> tuple[np.ndarray, np.ndarray]:
    images, labels = [], []
    for p in paths:
        with open(p, "rb") as fh:
            try:
                im, lb = parse_cifar_bytes(fh.read(), variant)
            except FormatError as exc:
                raise FormatError(f"{p}: {exc}") from exc
        images.append(im)
        labels.append(lb)
    return np.concatenate(images), np.concatenate(labels)


def load_cifar(path: str, variant: int = 10, patch: int = 4, augment_flip: bool = False, augment_crop: bool = False) -> ImageDataset:
    """Load the standard binary distribution from a directory (train files
    as the training split, test file as validation) or a single .bin file
    (used as both splits — fixtures and smoke tests)."""
    if os.path.isdir(path):
        if variant == 10:
            train_files = [os.path.join(path, f"data_batch_{i}.bin") for i in range(1, 6)]
            val_files = [os.path.join(path, "test_batch.bin")]
        else:
            train_files = [os.path.join(path, "train.bin")]
            val_files = [os.path.join(path, "test.bin")]
        missing = [p for p in train_files + val_files if not os.path.exists(p)]
        if missing:
            raise FormatError(f"missing CIFAR files: {missing}")
        tr_im, tr_lb = _read_records(train_files, variant)
        va_im, va_lb = _read_records(val_files, variant)
    else:
        tr_im, tr_lb = _read_records([path], variant)
        va_im, va_lb = tr_im, tr_lb
    return ImageDataset(
        tr_im, tr_lb, va_im, va_lb,
        num_classes=variant, patch=patch,
        augment_flip=augment_flip, augment_crop=augment_crop,
    )


# ----------------------------------------------------------------------
# synthetic token sequences

def synth_dataset(spec: DatasetSpec) -> Dataset:
    """Class-conditioned Gaussian token columns on a shared low-dimensional
    subspace.  Class identity enters only through the mean direction scaled
    by ``separation`` — at separation 0 the classes are indistinguishable
    by construction."""
    rng = rng_for(spec.seed, "synth")
    F, r, C = spec.feat_dim, spec.subspace_dim, spec.classes
    basis = orthonormal_basis(F, int(rng.integers(2**31)), cols=r)
    directions = orthonormal_basis(F, int(rng.integers(2**31)), cols=min(C, F))
    means = spec.separation * directions[:, np.arange(C) % F].T

    n = spec.n_train + spec.n_val
    labels = np.arange(n) % C
    rng.shuffle(labels)
    coeffs = rng.standard_normal((n, r, spec.tokens))
    noise = rng.standard_normal((n, F, spec.tokens))
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.einsum("fr,nrt->nft", basis, coeffs) + spec.noise * noise
        x += means[labels][:, :, None]
    if not np.isfinite(x).all():
        raise NumericError(f"synthetic features overflow at noise {spec.noise!r}, separation {spec.separation!r}")
    return Dataset(
        train_x=x[: spec.n_train],
        train_y=labels[: spec.n_train],
        val_x=x[spec.n_train :],
        val_y=labels[spec.n_train :],
        num_classes=C,
    )


def build_dataset(spec: DatasetSpec):
    if spec.source == "synthetic":
        return synth_dataset(spec)
    variant = 10 if spec.source == "cifar10" else 100
    if not spec.path:
        raise ConfigError(f"{spec.source} needs a path")
    return load_cifar(spec.path, variant, patch=spec.patch, augment_flip=spec.augment_flip, augment_crop=spec.augment_crop)


# ----------------------------------------------------------------------
# augmentations

def random_flip(images: np.ndarray, rng) -> np.ndarray:
    """Mirror each image left-right with probability 1/2."""
    images = np.asarray(images)
    out = images.copy()
    flips = rng.random(len(images)) < 0.5
    out[flips] = out[flips, :, ::-1]
    return out


def _bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = img.shape[:2]
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    top = img[y0][:, x0] * (1 - wx) + img[y0][:, x1] * wx
    bot = img[y1][:, x0] * (1 - wx) + img[y1][:, x1] * wx
    return top * (1 - wy) + bot * wy


def random_resize_crop(images: np.ndarray, rng) -> np.ndarray:
    """Crop a random square patch covering [CROP_MIN_AREA, 1] of the image
    and resize it back to the original size."""
    images = np.asarray(images)
    out = np.empty_like(images)
    h, w = images.shape[1:3]
    for i, img in enumerate(images):
        area = rng.uniform(CROP_MIN_AREA, 1.0)
        side = max(1, int(round(np.sqrt(area) * h)))
        top = int(rng.integers(0, h - side + 1))
        left = int(rng.integers(0, w - side + 1))
        crop = img[top : top + side, left : left + side]
        out[i] = crop if side == h else _bilinear_resize(crop, h, w)
    return out
