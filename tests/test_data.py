import numpy as np
import pytest

from prunelab.data import (
    CIFAR_RECORD_BYTES,
    gen_synthetic_dataset,
    load_cifar10_binary,
)


class TestSyntheticDataset:
    def test_same_seed_bit_identical(self):
        a = gen_synthetic_dataset(seed=4, n_train=40, n_eval=20, classes=10, image_size=8)
        b = gen_synthetic_dataset(seed=4, n_train=40, n_eval=20, classes=10, image_size=8)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.train_y, b.train_y)
        assert np.array_equal(a.eval_x, b.eval_x)

    def test_different_seeds_differ(self):
        a = gen_synthetic_dataset(seed=1, n_train=10, n_eval=5, classes=5, image_size=8)
        b = gen_synthetic_dataset(seed=2, n_train=10, n_eval=5, classes=5, image_size=8)
        assert not np.array_equal(a.train_x, b.train_x)

    def test_balanced_histogram(self):
        ds = gen_synthetic_dataset(seed=0, n_train=50, n_eval=30, classes=10, image_size=8)
        counts = np.bincount(ds.train_y, minlength=10)
        assert np.all(counts == 5)
        assert np.all(np.bincount(ds.eval_y, minlength=10) == 3)

    def test_labels_in_range(self):
        ds = gen_synthetic_dataset(seed=0, n_train=33, n_eval=17, classes=7, image_size=8)
        for y in (ds.train_y, ds.eval_y):
            assert y.min() >= 0 and y.max() < 7

    def test_shapes(self):
        ds = gen_synthetic_dataset(seed=0, n_train=12, n_eval=6, classes=6, image_size=9)
        assert ds.train_x.shape == (12, 1, 9, 9)
        assert ds.eval_x.shape == (6, 1, 9, 9)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            gen_synthetic_dataset(seed=0, n_train=5, n_eval=5, classes=1, image_size=8)

    def test_structure_is_learnable(self):
        # trained on the stripes, a small net should clear 0.9 eval accuracy
        from conftest import momentum_buffers
        from prunelab.model import Architecture, ConvSpec, build_model, evaluate, train_epoch

        ds = gen_synthetic_dataset(seed=5, n_train=200, n_eval=100, classes=6, image_size=12)
        arch = Architecture(
            (1, 12, 12),
            (ConvSpec(1, 8, 3, 1, 1), ConvSpec(8, 12, 3, 2, 1)),
            num_classes=6,
        )
        m = build_model(arch, seed=0)
        rng = np.random.default_rng(0)
        velocity = momentum_buffers(m)
        for _ in range(25):
            train_epoch(m, velocity, ds.train_x, ds.train_y, lr=0.05, momentum=0.9,
                        weight_decay=1e-4, batch_size=32, rng=rng)
        assert evaluate(m, ds.eval_x, ds.eval_y)["top1"] > 0.9


def write_cifar_file(path, n_records, seed=0):
    rng = np.random.default_rng(seed)
    records = np.empty((n_records, CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = rng.integers(0, 10, size=n_records)
    records[:, 1:] = rng.integers(0, 256, size=(n_records, CIFAR_RECORD_BYTES - 1))
    path.write_bytes(records.tobytes())
    return records


class TestCifarLoader:
    def test_single_file_roundtrip(self, tmp_path):
        f = tmp_path / "data_batch_1.bin"
        records = write_cifar_file(f, 20)
        ds = load_cifar10_binary(f)
        assert ds.train_x.shape == (20, 3, 32, 32)
        assert np.array_equal(ds.train_y, records[:, 0])
        assert ds.train_y.max() <= 9

    def test_directory_layout(self, tmp_path):
        write_cifar_file(tmp_path / "data_batch_1.bin", 10, seed=1)
        write_cifar_file(tmp_path / "data_batch_2.bin", 10, seed=2)
        write_cifar_file(tmp_path / "test_batch.bin", 4, seed=3)
        ds = load_cifar10_binary(tmp_path)
        assert ds.train_x.shape[0] == 20
        assert ds.eval_x.shape[0] == 4
        assert "normalize_mean" in ds.metadata
        assert len(ds.metadata["normalize_mean"]) == 3

    def test_normalization_constants_recorded_and_applied(self, tmp_path):
        write_cifar_file(tmp_path / "data_batch_1.bin", 30, seed=4)
        ds = load_cifar10_binary(tmp_path)
        # per-channel standardization: zero mean, unit variance
        assert np.allclose(ds.train_x.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(ds.train_x.std(axis=(0, 2, 3)), 1.0, atol=1e-10)

    def test_truncated_file_rejected_with_byte_counts(self, tmp_path):
        f = tmp_path / "data_batch_1.bin"
        write_cifar_file(f, 3)
        f.write_bytes(f.read_bytes()[:-10])
        with pytest.raises(ValueError, match="3073"):
            load_cifar10_binary(f)

    def test_bad_label_rejected(self, tmp_path):
        f = tmp_path / "data_batch_1.bin"
        records = write_cifar_file(f, 2)
        records[1, 0] = 77
        f.write_bytes(records.tobytes())
        with pytest.raises(ValueError, match=r"\[0, 9\]"):
            load_cifar10_binary(f)

    def test_missing_directory_batches(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_cifar10_binary(tmp_path)
