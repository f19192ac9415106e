import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prunelab import data as datamod
from prunelab.data import (
    CIFAR_CLASSES,
    CIFAR_IMAGE_SHAPE,
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


def cifar_records(n_records, seed=0):
    rng = np.random.default_rng(seed)
    records = np.empty((n_records, CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = rng.integers(0, 10, size=n_records)
    records[:, 1:] = rng.integers(0, 256, size=(n_records, CIFAR_RECORD_BYTES - 1))
    return records


def write_cifar_file(path, n_records, seed=0):
    records = cifar_records(n_records, seed)
    path.write_bytes(records.tobytes())
    return records


def write_cifar_dir(path, n_train=20, n_test=5):
    """A one-batch CIFAR-10 directory; returns (train, test) records."""
    return (write_cifar_file(path / "data_batch_1.bin", n_train, seed=1),
            write_cifar_file(path / "test_batch.bin", n_test, seed=2))


class TestCifarLoader:
    def test_batches_roundtrip(self, tmp_path):
        train, test = write_cifar_dir(tmp_path)
        ds = load_cifar10_binary(tmp_path)
        assert ds.train_x.shape == (20, 3, 32, 32)
        assert ds.eval_x.shape == (5, 3, 32, 32)
        assert np.array_equal(ds.train_y, train[:, 0])
        assert np.array_equal(ds.eval_y, test[:, 0])
        assert ds.train_y.max() <= 9

    def test_directory_layout(self, tmp_path):
        write_cifar_file(tmp_path / "data_batch_1.bin", 10, seed=1)
        write_cifar_file(tmp_path / "data_batch_2.bin", 10, seed=2)
        write_cifar_file(tmp_path / "test_batch.bin", 4, seed=3)
        ds = load_cifar10_binary(tmp_path)
        assert ds.train_x.shape[0] == 20
        assert ds.eval_x.shape[0] == 4

    def test_normalization_constants_applied(self, tmp_path):
        train, test = write_cifar_dir(tmp_path, n_train=30)
        ds = load_cifar10_binary(tmp_path)
        # per-channel standardization: zero mean, unit variance
        assert np.allclose(ds.train_x.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(ds.train_x.std(axis=(0, 2, 3)), 1.0, atol=1e-10)
        # the evaluation split takes the training split's constants
        pixels = train[:, 1:].reshape(-1, *CIFAR_IMAGE_SHAPE) / 255.0
        mean = pixels.mean(axis=(0, 2, 3))[None, :, None, None]
        std = pixels.std(axis=(0, 2, 3))[None, :, None, None]
        eval_pixels = test[:, 1:].reshape(-1, *CIFAR_IMAGE_SHAPE) / 255.0
        assert ds.eval_x.tobytes() == ((eval_pixels - mean) / std).tobytes()

    def test_truncated_file_rejected_with_byte_counts(self, tmp_path):
        for name in ("data_batch_1.bin", "test_batch.bin"):
            write_cifar_dir(tmp_path, n_train=3, n_test=3)
            f = tmp_path / name
            f.write_bytes(f.read_bytes()[:-10])
            with pytest.raises(ValueError, match=f"{name}: size 9209 bytes .*3073"):
                load_cifar10_binary(tmp_path)

    def test_bad_label_rejected(self, tmp_path):
        for name in ("data_batch_1.bin", "test_batch.bin"):
            write_cifar_dir(tmp_path, n_train=2, n_test=2)
            records = write_cifar_file(tmp_path / name, 2)
            records[1, 0] = 77
            (tmp_path / name).write_bytes(records.tobytes())
            with pytest.raises(ValueError, match=rf"{name}: label byte 77 outside \[0, 9\]"):
                load_cifar10_binary(tmp_path)

    def test_missing_directory_batches(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_cifar10_binary(tmp_path)

    def test_single_file_rejected(self, tmp_path):
        # a single batch file has no evaluation split
        write_cifar_dir(tmp_path)
        with pytest.raises(FileNotFoundError, match=r"data_batch_\*\.bin and test_batch\.bin"):
            load_cifar10_binary(tmp_path / "data_batch_1.bin")

    @pytest.mark.parametrize("missing", ["data_batch_1.bin", "test_batch.bin"])
    def test_missing_batch_fails_before_reading(self, tmp_path, monkeypatch, missing):
        write_cifar_dir(tmp_path)
        (tmp_path / missing).unlink()
        reads = []
        monkeypatch.setattr(datamod, "_read_cifar_file", lambda f: reads.append(f))
        with pytest.raises(FileNotFoundError, match=r"data_batch_\*\.bin and test_batch\.bin"):
            load_cifar10_binary(tmp_path)
        assert reads == []


# a small two-file CIFAR directory: two training records, one eval record
SMALL_CIFAR = {
    "data_batch_1.bin": cifar_records(2, seed=5).tobytes(),
    "test_batch.bin": cifar_records(1, seed=6).tobytes(),
}
CIFAR_SIZE = CIFAR_RECORD_BYTES * 2  # the larger file; edits past a file's end wrap


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(SMALL_CIFAR)),
    st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, CIFAR_SIZE - 1)),
        st.tuples(st.just("replace"), st.integers(0, CIFAR_SIZE - 1), st.integers(0, 255)),
    ),
)
@example("data_batch_1.bin", ("replace", CIFAR_RECORD_BYTES, 0x0A))  # second label byte
@example("test_batch.bin", ("truncate", 0))
@example("data_batch_1.bin", ("truncate", CIFAR_RECORD_BYTES))  # one whole record left
def test_corrupted_cifar_directory_loads_or_is_rejected(name, edit):
    """Any one-byte replacement or truncation of one file either loads a
    well-formed dataset or raises ValueError."""
    raw = bytearray(SMALL_CIFAR[name])
    if edit[0] == "truncate":
        raw = raw[: edit[1] % len(raw)]
    else:
        raw[edit[1] % len(raw)] = edit[2]
    with tempfile.TemporaryDirectory() as d:
        for f, content in SMALL_CIFAR.items():
            (Path(d) / f).write_bytes(bytes(raw) if f == name else content)
        try:
            ds = load_cifar10_binary(d)
        except ValueError:
            return
    for x, y in ((ds.train_x, ds.train_y), (ds.eval_x, ds.eval_y)):
        assert len(y) >= 1 and x.shape == (len(y), *CIFAR_IMAGE_SHAPE)
        assert np.all(np.isfinite(x))
        assert y.min() >= 0 and y.max() < CIFAR_CLASSES
