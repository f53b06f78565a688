"""Unit tests for the synthetic dataset substrate."""

import numpy as np
import pytest

from repro.config import DATASET_NAMES, TABLE1_COUNTS
from repro.data import (DataLoader, ImageDataset, center_crop, load_pair,
                        make_dataset, random_horizontal_flip, resize_bilinear,
                        resize_nearest, table1_counts, to_unit_range,
                        train_test_split)
from repro.data import painting


class TestPainting:
    def test_gaussian_blob_peak_at_center(self):
        blob = painting.gaussian_blob(16, 8, 8, 2, 2)
        assert blob[8, 8] == pytest.approx(blob.max())
        assert blob.max() == pytest.approx(1.0)

    def test_ellipse_mask_inside_outside(self):
        mask = painting.ellipse_mask(32, 16, 16, 8, 8)
        assert mask[16, 16] > 0.9
        assert mask[0, 0] == 0.0

    def test_stroke_on_segment(self):
        line = painting.stroke(16, 8, 2, 8, 13, thickness=1.0)
        assert line[8, 7] > 0.5
        assert line[0, 0] == 0.0

    def test_smooth_noise_bounded(self, rng):
        field = painting.smooth_noise(32, rng, scale=4)
        assert np.abs(field).max() <= 1.0 + 1e-9

    def test_box_blur_preserves_constant(self):
        img = np.full((8, 8), 2.5)
        assert np.allclose(painting.box_blur(img, 2), 2.5)

    @pytest.mark.parametrize("shape", [(16, 16), (9, 23), (31, 5)])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_box_blur_matches_convolution(self, rng, radius, shape):
        """Bit for bit a per-row, then per-column ``np.convolve``."""
        img = rng.standard_normal(shape)
        kernel = np.ones(2 * radius + 1) / (2 * radius + 1)
        expected = np.pad(img, radius, mode="edge")
        for axis in (1, 0):
            expected = np.apply_along_axis(
                lambda line: np.convolve(line, kernel, mode="valid"),
                axis, expected)
        assert np.array_equal(painting.box_blur(img, radius), expected)

    def test_box_blur_zero_radius_identity(self, rng):
        img = rng.standard_normal((8, 8))
        assert painting.box_blur(img, 0) is img

    def test_wavy_line_amplitude(self):
        line = painting.wavy_line(64, 32.0, 5.0, 1.0, 0.0)
        assert line.max() <= 37.0 + 1e-9
        assert line.min() >= 27.0 - 1e-9

    def test_vignette_darkens_corners(self):
        v = painting.vignette(32, 0.3)
        assert v[16, 16] > v[0, 0]

    def test_normalize01(self):
        out = painting.normalize01(np.array([-1.0, 0.5, 2.0]))
        assert np.allclose(out, [0.0, 0.5, 1.0])


class TestImageDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ImageDataset(np.zeros((4, 8, 8)), np.zeros(4))

    def test_label_length_validation(self):
        with pytest.raises(ValueError):
            ImageDataset(np.zeros((4, 1, 8, 8)), np.zeros(3))

    def test_getitem_returns_sample(self):
        ds = ImageDataset(np.zeros((2, 1, 4, 4)), np.array([0, 1]),
                          masks=np.zeros((2, 4, 4)))
        sample = ds[1]
        assert sample.label == 1
        assert sample.mask.shape == (4, 4)

    def test_subset_preserves_masks(self):
        ds = ImageDataset(np.zeros((4, 1, 4, 4)), np.array([0, 1, 0, 1]),
                          masks=np.ones((4, 4, 4)))
        sub = ds.subset([0, 2])
        assert len(sub) == 2
        assert sub.masks is not None
        assert np.all(sub.labels == 0)

    def test_class_counts(self):
        ds = ImageDataset(np.zeros((5, 1, 2, 2)),
                          np.array([0, 0, 1, 1, 1]))
        assert list(ds.class_counts()) == [2, 3]

    def test_indices_of_class(self):
        ds = ImageDataset(np.zeros((3, 1, 2, 2)), np.array([0, 1, 0]))
        assert list(ds.indices_of_class(0)) == [0, 2]


class TestDataLoader:
    def _dataset(self, n=10):
        return ImageDataset(np.arange(n * 4, dtype=float).reshape(n, 1, 2, 2),
                            np.arange(n) % 2)

    def test_batches_cover_dataset(self):
        loader = DataLoader(self._dataset(), batch_size=3, shuffle=False)
        total = sum(len(labels) for _, labels in loader)
        assert total == 10

    def test_drop_last(self):
        loader = DataLoader(self._dataset(), batch_size=3, shuffle=False,
                            drop_last=True)
        assert len(loader) == 3
        sizes = [len(labels) for _, labels in loader]
        assert all(s == 3 for s in sizes)

    def test_shuffle_changes_order(self):
        ds = self._dataset(32)
        loader = DataLoader(ds, batch_size=32, shuffle=True,
                            rng=np.random.default_rng(0))
        images, _ = next(iter(loader))
        assert not np.allclose(images, ds.images)

    def test_augment_hook_applied(self):
        calls = []

        def augment(images, rng):
            calls.append(len(images))
            return images
        loader = DataLoader(self._dataset(), batch_size=5, augment=augment)
        list(loader)
        assert sum(calls) == 10


class TestGenerators:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_images_in_unit_range(self, name):
        ds = make_dataset(name, "train", image_size=16, seed=0,
                          counts={0: 3, 1: 3})
        assert ds.images.min() >= 0.0
        assert ds.images.max() <= 1.0

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_abnormal_images_have_masks(self, name):
        ds = make_dataset(name, "train", image_size=16, seed=0,
                          counts={0: 3, 1: 3})
        abnormal_masks = ds.masks[ds.labels == 1]
        assert all(m.max() > 0 for m in abnormal_masks)

    @pytest.mark.parametrize("name", ("oct", "brain_tumor1", "chest_xray"))
    def test_normal_images_have_empty_masks(self, name):
        ds = make_dataset(name, "train", image_size=16, seed=0,
                          counts={0: 3, 1: 3})
        normal_masks = ds.masks[ds.labels == 0]
        assert all(m.max() == 0 for m in normal_masks)

    def test_deterministic_generation(self):
        a = make_dataset("oct", "train", image_size=16, seed=7,
                         counts={0: 4, 1: 4})
        b = make_dataset("oct", "train", image_size=16, seed=7,
                         counts={0: 4, 1: 4})
        assert np.allclose(a.images, b.images)
        assert np.all(a.labels == b.labels)

    def test_seed_changes_content(self):
        a = make_dataset("oct", "train", image_size=16, seed=1,
                         counts={0: 4, 1: 4})
        b = make_dataset("oct", "train", image_size=16, seed=2,
                         counts={0: 4, 1: 4})
        assert not np.allclose(a.images, b.images)

    def test_splits_differ(self):
        tr = make_dataset("face", "train", image_size=16, seed=0,
                          counts={0: 4, 1: 4})
        te = make_dataset("face", "test", image_size=16, seed=0,
                          counts={0: 4, 1: 4})
        assert not np.allclose(tr.images, te.images)

    def test_oct_has_four_classes(self):
        ds = make_dataset("oct", "train", image_size=16, seed=0,
                          counts={0: 2, 1: 2, 2: 2, 3: 2})
        assert ds.num_classes == 4
        assert set(ds.class_names) == {"NORMAL", "CNV", "DME", "DRUSEN"}

    def test_lesions_change_pixels_under_mask(self):
        """Class-associated features must live where the mask says."""
        ds = make_dataset("brain_tumor1", "train", image_size=32, seed=0,
                          counts={0: 1, 1: 8})
        for img, label, mask in zip(ds.images, ds.labels, ds.masks):
            if label == 1:
                inside = img[0][mask > 0.5]
                assert inside.size > 0
                # Tumor core is bright relative to the mean brain tissue.
                assert inside.mean() > img[0].mean()

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            make_dataset("nope")

    def test_bad_split_raises(self):
        with pytest.raises(ValueError):
            make_dataset("oct", split="validation")


class TestRegistry:
    def test_table1_counts_scaled(self):
        counts = table1_counts("oct", "train", divisor=100)
        row = TABLE1_COUNTS["oct"]
        assert counts[0] == row["train_normal"] // 100
        # abnormal split across three sub-classes
        assert set(counts) == {0, 1, 2, 3}

    def test_table1_counts_floor(self):
        counts = table1_counts("brain_tumor1", "test", divisor=10 ** 9)
        assert all(v >= 2 for v in counts.values())

    def test_table1_unknown_raises(self):
        with pytest.raises(KeyError):
            table1_counts("bogus", "train")

    def test_load_pair(self):
        tr, te = load_pair("brain_tumor1", image_size=16, divisor=400)
        assert tr.name.endswith("train")
        assert te.name.endswith("test")


class TestTransforms:
    def test_center_crop(self, rng):
        x = rng.standard_normal((2, 1, 10, 10))
        out = center_crop(x, 6)
        assert out.shape == (2, 1, 6, 6)
        assert np.allclose(out, x[:, :, 2:8, 2:8])

    def test_center_crop_too_small_raises(self, rng):
        with pytest.raises(ValueError):
            center_crop(rng.standard_normal((1, 1, 4, 4)), 8)

    def test_resize_nearest_shape(self, rng):
        out = resize_nearest(rng.standard_normal((1, 1, 8, 8)), 16)
        assert out.shape == (1, 1, 16, 16)

    def test_resize_bilinear_constant_preserved(self):
        x = np.full((1, 1, 8, 8), 0.7)
        out = resize_bilinear(x, 16)
        assert np.allclose(out, 0.7)

    def test_resize_bilinear_downscale(self, rng):
        out = resize_bilinear(rng.standard_normal((1, 2, 16, 16)), 8)
        assert out.shape == (1, 2, 8, 8)

    def test_random_flip_probability_extremes(self, rng):
        x = np.arange(8, dtype=float).reshape(1, 1, 1, 8)
        assert np.allclose(random_horizontal_flip(x, rng, p=0.0), x)
        flipped = random_horizontal_flip(x, rng, p=1.0)
        assert np.allclose(flipped[0, 0, 0], x[0, 0, 0, ::-1])

    def test_flip_does_not_mutate_input(self, rng):
        x = np.arange(8, dtype=float).reshape(1, 1, 1, 8)
        original = x.copy()
        random_horizontal_flip(x, rng, p=1.0)
        assert np.allclose(x, original)

    def test_to_unit_range(self):
        assert np.allclose(to_unit_range(np.array([-1.0, 0.5, 3.0])),
                           [0.0, 0.5, 1.0])


class TestTrainTestSplit:
    def test_stratified_proportions(self, rng):
        ds = ImageDataset(np.zeros((100, 1, 2, 2)),
                          np.repeat([0, 1], [80, 20]))
        train, test = train_test_split(ds, test_fraction=0.25, rng=rng)
        assert len(train) + len(test) == 100
        # Both classes present in both splits.
        assert set(np.unique(train.labels)) == {0, 1}
        assert set(np.unique(test.labels)) == {0, 1}
