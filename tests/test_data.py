import dataclasses
import re

import numpy as np
import pytest

import srr.data
from srr.data import (
    Dataset,
    DatasetSpec,
    ImageDataset,
    build_dataset,
    load_cifar,
    parse_cifar_bytes,
    random_flip,
    random_resize_crop,
    synth_dataset,
)
from srr.errors import ConfigError, FormatError, NumericError
from srr.layers import patchify
from srr.linalg import rng_for


def cifar10_record(label, r=None, g=None, b=None):
    planes = []
    for plane in (r, g, b):
        arr = np.zeros(1024, np.uint8) if plane is None else np.asarray(plane, np.uint8)
        planes.append(arr.tobytes())
    return bytes([label]) + b"".join(planes)


def cifar100_record(coarse, fine):
    return bytes([coarse, fine]) + bytes(3072)


class TestSpec:
    def test_unknown_source(self):
        with pytest.raises(ConfigError):
            DatasetSpec(source="imagenet")

    def test_synthetic_needs_two_classes(self):
        with pytest.raises(ConfigError):
            DatasetSpec(classes=1)

    @pytest.mark.parametrize("split", ["n_train", "n_val"])
    def test_empty_split_rejected(self, split):
        with pytest.raises(ConfigError):
            DatasetSpec(**{split: 0})


    @pytest.mark.parametrize(
        "field, value",
        [("separation", np.nan), ("separation", np.inf), ("noise", -1.0), ("noise", np.nan), ("tokens", 0),
         ("subspace_dim", 0), ("feat_dim", 0), ("patch", 0), ("n_train", 2.5), ("seed", None), ("path", 3),
         ("augment_flip", 1)],
    )
    def test_every_field_is_held_to_its_rule(self, field, value):
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be ") + ".*" + re.escape(f", got {value!r}")):
            DatasetSpec(**{field: value})

    def test_synthetic_only_checks(self):
        with pytest.raises(ConfigError, match=re.escape("classes must lie in [2, n_train + n_val = 6], got 7")):
            DatasetSpec(n_train=4, n_val=2, classes=7)
        with pytest.raises(ConfigError, match="subspace_dim 8 cannot exceed feat_dim 4"):
            DatasetSpec(feat_dim=4, subspace_dim=8)
        # an image source reads none of the synthetic fields
        DatasetSpec(source="cifar10", path="x", classes=7, n_train=4, n_val=2, feat_dim=4, subspace_dim=8)


class TestSynthetic:
    SPEC = DatasetSpec(classes=3, tokens=8, feat_dim=16, subspace_dim=4,
                       separation=3.0, noise=0.1, n_train=256, n_val=128, seed=0)

    def test_shapes_and_split(self):
        ds = synth_dataset(self.SPEC)
        assert isinstance(ds, Dataset)
        assert ds.train_x.shape == (256, 16, 8)
        assert ds.val_x.shape == (128, 16, 8)
        assert ds.train_y.shape == (256,)
        assert ds.num_classes == 3
        assert ds.n_train == 256

    def test_label_balance(self):
        ds = synth_dataset(self.SPEC)
        counts = np.bincount(np.concatenate([ds.train_y, ds.val_y]), minlength=3)
        assert counts.tolist() == [128, 128, 128]

    def test_determinism_and_seed_override(self):
        a = synth_dataset(self.SPEC)
        b = synth_dataset(self.SPEC)
        c = synth_dataset(dataclasses.replace(self.SPEC, seed=99))
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.train_y, b.train_y)
        assert not np.array_equal(a.train_x, c.train_x)

    def test_separation_enters_only_as_class_mean_shift(self):
        base = synth_dataset(DatasetSpec(classes=3, separation=0.0, seed=5))
        moved = synth_dataset(DatasetSpec(classes=3, separation=5.0, seed=5))
        assert np.array_equal(base.train_y, moved.train_y)
        delta = moved.train_x - base.train_x
        # the shift is constant across tokens of a sample ...
        assert np.abs(delta - delta[:, :, :1]).max() < 1e-12
        shift = delta[:, :, 0]
        # ... has length equal to the separation ...
        np.testing.assert_allclose(np.linalg.norm(shift, axis=1), 5.0, atol=1e-10)
        # ... is shared within a class and orthogonal across classes
        mean_shift = np.stack([shift[base.train_y == c].mean(0) for c in range(3)])
        np.testing.assert_allclose(shift, mean_shift[base.train_y], atol=1e-10)
        gram = mean_shift @ mean_shift.T
        np.testing.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-9)

    def test_noise_free_columns_live_on_the_subspace(self):
        spec = DatasetSpec(classes=2, tokens=8, feat_dim=16, subspace_dim=4,
                           separation=0.0, noise=0.0, n_train=64, n_val=16, seed=2)
        ds = synth_dataset(spec)
        cols = ds.train_x.transpose(1, 0, 2).reshape(16, -1)
        assert np.linalg.matrix_rank(cols) == 4

    def test_separated_classes_are_easy(self):
        spec = DatasetSpec(classes=3, tokens=8, feat_dim=16, subspace_dim=4,
                           separation=6.0, noise=0.1, n_train=256, n_val=128, seed=0)
        ds = synth_dataset(spec)
        tr = ds.train_x.mean(axis=2)
        centroids = np.stack([tr[ds.train_y == c].mean(0) for c in range(3)])
        va = ds.val_x.mean(axis=2)
        pred = np.argmin(((va[:, None, :] - centroids[None]) ** 2).sum(-1), axis=1)
        assert (pred == ds.val_y).mean() >= 0.95

    def test_subspace_wider_than_features(self):
        with pytest.raises(ConfigError):
            synth_dataset(DatasetSpec(feat_dim=4, subspace_dim=8))

    def test_features_beyond_float64_are_an_error(self):
        with pytest.raises(NumericError, match="overflow at noise 1e\\+308"):
            synth_dataset(dataclasses.replace(self.SPEC, noise=1e308))

    def test_train_batch_is_plain_indexing(self):
        ds = synth_dataset(self.SPEC)
        x, y = ds.train_batch(np.array([3, 1, 7]))
        assert np.array_equal(x, ds.train_x[[3, 1, 7]])
        assert np.array_equal(y, ds.train_y[[3, 1, 7]])


class TestCifarParsing:
    def test_variant_validation(self):
        with pytest.raises(ConfigError):
            parse_cifar_bytes(b"", 20)

    def test_empty(self):
        images, labels = parse_cifar_bytes(b"", 10)
        assert images.shape == (0, 32, 32, 3)
        assert labels.shape == (0,) and labels.dtype == np.int64

    def test_single_record_layout(self):
        rec = cifar10_record(
            7,
            r=np.arange(1024) % 256,
            g=np.full(1024, 7),
            b=np.full(1024, 255),
        )
        images, labels = parse_cifar_bytes(rec, 10)
        assert labels.tolist() == [7]
        assert images.shape == (1, 32, 32, 3)
        # red plane is row-major: plane index p -> pixel (p // 32, p % 32)
        assert images[0, 0, 0, 0] == 0.0
        assert images[0, 0, 1, 0] == 1 / 255
        assert images[0, 1, 0, 0] == 32 / 255
        assert images[0, 31, 31, 0] == 1.0  # 1023 % 256 = 255
        assert (images[0, :, :, 1] == 7 / 255).all()
        assert (images[0, :, :, 2] == 1.0).all()
        assert images.min() >= 0.0 and images.max() <= 1.0

    def test_multiple_records(self):
        data = cifar10_record(3) + cifar10_record(9, r=np.full(1024, 128))
        images, labels = parse_cifar_bytes(data, 10)
        assert labels.tolist() == [3, 9]
        assert (images[0] == 0).all()
        assert (images[1, :, :, 0] == 128 / 255).all()

    def test_fine_label_of_100_class_layout(self):
        images, labels = parse_cifar_bytes(cifar100_record(11, 42), 100)
        assert labels.tolist() == [42]
        assert images.shape == (1, 32, 32, 3)

    def test_truncation_is_located(self):
        data = cifar10_record(1) + cifar10_record(2) + b"\x00" * 5
        with pytest.raises(FormatError) as exc:
            parse_cifar_bytes(data, 10)
        msg = str(exc.value)
        assert "record 2 has 5 of 3073 bytes" in msg
        assert "byte offset 6146" in msg

    def test_label_out_of_range_names_the_record(self):
        with pytest.raises(FormatError, match="label 10 out of range at record 0"):
            parse_cifar_bytes(cifar10_record(10), 10)
        data = cifar10_record(3) + cifar10_record(12)
        with pytest.raises(FormatError, match="label 12 out of range at record 1"):
            parse_cifar_bytes(data, 10)


class TestLoadCifar:
    def test_single_file_serves_both_splits(self, tmp_path):
        p = tmp_path / "smoke.bin"
        p.write_bytes(cifar10_record(4) + cifar10_record(1))
        ds = load_cifar(str(p), 10, patch=8)
        assert isinstance(ds, ImageDataset)
        assert ds.num_classes == 10
        assert ds.train_y.tolist() == [4, 1]
        assert np.array_equal(ds.train_images, ds.val_images)
        assert ds.train_x.shape == (2, 8 * 8 * 3, 16)

    def test_directory_layout_10(self, tmp_path):
        for i in range(1, 6):
            (tmp_path / f"data_batch_{i}.bin").write_bytes(cifar10_record(i - 1))
        (tmp_path / "test_batch.bin").write_bytes(cifar10_record(9))
        ds = load_cifar(str(tmp_path), 10)
        assert ds.train_y.tolist() == [0, 1, 2, 3, 4]
        assert ds.val_y.tolist() == [9]

    def test_directory_layout_100(self, tmp_path):
        (tmp_path / "train.bin").write_bytes(cifar100_record(0, 17) + cifar100_record(3, 80))
        (tmp_path / "test.bin").write_bytes(cifar100_record(1, 5))
        ds = load_cifar(str(tmp_path), 100)
        assert ds.train_y.tolist() == [17, 80]
        assert ds.val_y.tolist() == [5]
        assert ds.num_classes == 100

    def test_missing_files_reported(self, tmp_path):
        (tmp_path / "data_batch_1.bin").write_bytes(cifar10_record(0))
        with pytest.raises(FormatError, match="missing CIFAR files"):
            load_cifar(str(tmp_path), 10)

    def test_parse_errors_name_the_file(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * 10)
        with pytest.raises(FormatError, match="bad.bin"):
            load_cifar(str(p), 10)


class TestImageDataset:
    def make(self, n=4, **kw):
        rng = rng_for(0)
        images = rng.random((n, 32, 32, 3))
        return ImageDataset(images, np.arange(n) % 2, images[:2], [0, 1],
                            num_classes=2, patch=4, **kw)

    def test_lazy_patchification(self):
        ds = self.make()
        assert "train_x" not in vars(ds)
        assert ds.train_x.shape == (4, 48, 64)
        assert "train_x" in vars(ds)
        assert ds.val_x.shape == (2, 48, 64)
        assert ds.n_train == 4

    def test_batch_without_augmentation_matches_patchify(self):
        ds = self.make()
        idx = np.array([2, 0])
        x, y = ds.train_batch(idx, rng=rng_for(1))
        assert np.array_equal(x, patchify(ds.train_images[idx], 4))
        assert y.tolist() == [0, 0]

    def test_flip_augmentation_replays_the_rng(self):
        ds = self.make(augment_flip=True)
        idx = np.arange(4)
        x, _ = ds.train_batch(idx, rng=rng_for(3))
        want = patchify(random_flip(ds.train_images, rng_for(3)), 4)
        assert np.array_equal(x, want)

    def test_crop_then_flip_order(self):
        ds = self.make(augment_flip=True, augment_crop=True)
        idx = np.arange(4)
        x, _ = ds.train_batch(idx, rng=rng_for(5))
        rng = rng_for(5)
        imgs = random_resize_crop(ds.train_images, rng)
        imgs = random_flip(imgs, rng)
        assert np.array_equal(x, patchify(imgs, 4))

    def test_no_rng_disables_augmentation(self):
        ds = self.make(augment_flip=True, augment_crop=True)
        x, _ = ds.train_batch(np.arange(4), rng=None)
        assert np.array_equal(x, ds.train_x)


class TestAugmentations:
    def test_flip_mirrors_selected_images(self):
        images = rng_for(7).random((8, 32, 32, 3))
        rng = rng_for(8)
        out = random_flip(images, rng)
        flips = rng_for(8).random(8) < 0.5
        assert flips.any() and not flips.all()
        for i in range(8):
            want = images[i, :, ::-1] if flips[i] else images[i]
            assert np.array_equal(out[i], want)
        # input untouched
        assert np.array_equal(images, rng_for(7).random((8, 32, 32, 3)))

    def test_full_area_crop_is_identity(self, monkeypatch):
        monkeypatch.setattr(srr.data, "CROP_MIN_AREA", 1.0)
        images = rng_for(9).random((3, 32, 32, 3))
        out = random_resize_crop(images, rng_for(10))
        assert np.array_equal(out, images)

    def test_crop_preserves_shape_and_range(self):
        images = rng_for(11).random((5, 32, 32, 3))
        out = random_resize_crop(images, rng_for(12))
        assert out.shape == images.shape
        assert not np.array_equal(out, images)
        assert out.min() >= images.min() - 1e-12
        assert out.max() <= images.max() + 1e-12

    def test_crop_of_constant_image_is_constant(self):
        images = np.full((2, 32, 32, 3), 0.25)
        out = random_resize_crop(images, rng_for(13))
        np.testing.assert_allclose(out, 0.25, atol=1e-12)


class TestBuildDataset:
    def test_synthetic(self):
        ds = build_dataset(DatasetSpec(classes=2, n_train=32, n_val=8))
        assert isinstance(ds, Dataset)
        assert ds.n_train == 32

    def test_cifar_needs_path(self):
        with pytest.raises(ConfigError, match="path"):
            build_dataset(DatasetSpec(source="cifar10"))

    def test_cifar_from_file(self, tmp_path):
        p = tmp_path / "one.bin"
        p.write_bytes(cifar10_record(6))
        ds = build_dataset(DatasetSpec(source="cifar10", path=str(p), patch=16))
        assert isinstance(ds, ImageDataset)
        assert ds.patch == 16
        assert ds.train_y.tolist() == [6]
