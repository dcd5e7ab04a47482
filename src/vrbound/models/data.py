"""Dataset container, CSV ingestion, and seeded synthetic generators."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    """Feature matrix with optional targets and a seeded train/test split."""

    features: np.ndarray
    targets: np.ndarray | None
    train_idx: np.ndarray
    test_idx: np.ndarray
    split_seed: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a matrix")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must not contain NaN or inf")
        if self.targets is not None:
            self.targets = np.asarray(self.targets, dtype=float)
            if self.targets.shape != (self.features.shape[0],):
                raise ValueError("targets must align with feature rows")
            if not np.all(np.isfinite(self.targets)):
                raise ValueError("targets must not contain NaN or inf")

    @property
    def n_train(self) -> int:
        return self.train_idx.shape[0]

    @property
    def n_test(self) -> int:
        return self.test_idx.shape[0]

    @property
    def train_features(self) -> np.ndarray:
        return self.features[self.train_idx]

    @property
    def test_features(self) -> np.ndarray:
        return self.features[self.test_idx]

    @property
    def train_targets(self) -> np.ndarray:
        return self._targets()[self.train_idx]

    @property
    def test_targets(self) -> np.ndarray:
        return self._targets()[self.test_idx]

    def _targets(self) -> np.ndarray:
        if self.targets is None:
            raise ValueError("this dataset has no targets")
        return self.targets

    @classmethod
    def from_arrays(
        cls,
        features: np.ndarray,
        targets: np.ndarray | None,
        split_seed: int = 0,
        test_fraction: float = 0.25,
    ) -> "Dataset":
        n = np.asarray(features).shape[0]
        if not 0.0 <= test_fraction < 1.0:
            raise ValueError("test_fraction must lie in [0, 1)")
        rng = np.random.default_rng([int(split_seed), 17])
        order = rng.permutation(n)
        n_test = int(round(test_fraction * n))
        return cls(
            features=np.asarray(features, dtype=float),
            targets=None if targets is None else np.asarray(targets, dtype=float),
            train_idx=np.sort(order[n_test:]),
            test_idx=np.sort(order[:n_test]),
            split_seed=int(split_seed),
        )

    def standardized(self) -> tuple["Dataset", dict]:
        """Z-score features (and targets when present) using train statistics."""
        mu = self.train_features.mean(axis=0)
        sd = self.train_features.std(axis=0)
        sd = np.where(sd > 0, sd, 1.0)
        features = (self.features - mu) / sd
        stats = {"x_mean": mu, "x_std": sd}
        targets = self.targets
        if targets is not None:
            ty_mu = float(self.train_targets.mean())
            ty_sd = float(self.train_targets.std()) or 1.0
            targets = (targets - ty_mu) / ty_sd
            stats.update({"y_mean": ty_mu, "y_std": ty_sd})
        out = Dataset(
            features=features,
            targets=targets,
            train_idx=self.train_idx,
            test_idx=self.test_idx,
            split_seed=self.split_seed,
        )
        return out, stats


def load_csv(
    path,
    feature_columns: list[str],
    target_column: str | None = None,
    split_seed: int = 0,
    test_fraction: float = 0.25,
) -> Dataset:
    """Read a headered CSV and split it by seed."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: missing header row")
        missing = [c for c in feature_columns if c not in reader.fieldnames]
        if target_column is not None and target_column not in reader.fieldnames:
            missing.append(target_column)
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        feats, targs = [], []
        for row in reader:
            feats.append([float(row[c]) for c in feature_columns])
            if target_column is not None:
                targs.append(float(row[target_column]))
    features = np.asarray(feats, dtype=float)
    targets = np.asarray(targs, dtype=float) if target_column is not None else None
    return Dataset.from_arrays(features, targets, split_seed, test_fraction)


# ----------------------------------------------------------------------
# synthetic generators


def synthetic_regression(seed: int = 0, n: int = 120) -> Dataset:
    """1-D regression on a smooth bumpy curve, targets observed with noise."""
    rng = np.random.default_rng([int(seed), 23])
    x = rng.uniform(-4.0, 4.0, size=n)
    y = np.sin(x) + 0.08 * x**2 + 0.1 * rng.standard_normal(n)
    return Dataset.from_arrays(x[:, None], y, split_seed=seed)


def synthetic_binary_images(seed: int = 0, n: int = 900, side: int = 8) -> Dataset:
    """Binary images of randomly placed bars and blocks with pixel noise.

    Each image is the union of two patterns drawn from three families
    (horizontal bar, vertical bar, square block) with varying position and
    size. Superposing independent shapes gives the set enough
    factors of variation that small recognition networks cannot represent
    the latent posterior exactly, while strictly binary pixels keep
    per-image likelihoods sharply peaked. The test split holds 200 images,
    so ``n`` must exceed 200.
    """
    if n <= 200:
        raise ValueError(f"n must exceed the 200 images held out for testing, got {n}")
    rng = np.random.default_rng([int(seed), 29])
    images = np.zeros((n, side * side))
    for i in range(n):
        canvas = np.zeros((side, side))
        for _ in range(2):
            family = rng.integers(3)
            if family == 0:
                row = rng.integers(side - 1)
                thickness = rng.integers(1, 3)
                canvas[row : row + thickness, :] = 1.0
            elif family == 1:
                col = rng.integers(side - 1)
                thickness = rng.integers(1, 3)
                canvas[:, col : col + thickness] = 1.0
            else:
                size = rng.integers(2, 5)
                r = rng.integers(side - size + 1)
                c = rng.integers(side - size + 1)
                canvas[r : r + size, c : c + size] = 1.0
        flips = rng.random((side, side)) < 0.02
        canvas = np.where(flips, 1.0 - canvas, canvas)
        images[i] = canvas.ravel()
    return Dataset.from_arrays(images, None, split_seed=seed, test_fraction=200.0 / n)


def dataset_content_hash(features: np.ndarray, targets: np.ndarray | None = None) -> str:
    """Stable content hash of the data arrays (hex digest)."""
    import hashlib

    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(features, dtype=float).tobytes())
    if targets is not None:
        digest.update(np.ascontiguousarray(targets, dtype=float).tobytes())
    return digest.hexdigest()
