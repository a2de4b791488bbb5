"""Dataset ingestion, the synthetic generator, and slice/batch planning."""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AlreadyRevoked,
    CsvParseError,
    EmptyDatasetError,
    InvalidArgument,
    LabelDomainError,
    NotFound,
)

F32 = np.float32


@dataclass
class Dataset:
    """Binary-labeled numeric dataset with dense ids 0..n-1 in row order."""

    features: np.ndarray
    labels: np.ndarray
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.features = np.ascontiguousarray(self.features, dtype=F32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64).ravel()
        if self.features.ndim != 2:
            raise InvalidArgument("features must be a 2-D matrix")
        if self.features.shape[0] != self.labels.size:
            raise InvalidArgument("features and labels must have equal row counts")
        if self.labels.size == 0:
            raise EmptyDatasetError(f"{self.name}: dataset has no rows")
        bad = ~np.isin(self.labels, (0, 1))
        if bad.any():
            raise LabelDomainError(
                f"{self.name}: labels must be 0 or 1, found {self.labels[bad][0]}"
            )

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def subset(self, ids, name: str | None = None) -> "Dataset":
        """New dataset from the given rows, re-indexed to dense ids."""
        idx = np.asarray(ids, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], name or f"{self.name}-subset")

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.features))  # hashed in place, not copied
        h.update(np.ascontiguousarray(self.labels))
        return h.hexdigest()


def load_csv(path, label_column: str = "label") -> Dataset:
    """Load a numeric, header-bearing CSV whose label column holds 0/1.

    Error naming counts data rows from 1 (the header is row 0).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvParseError(f"{path}: empty file, expected a header row")
        header = [h.strip() for h in header]
        if label_column not in header:
            raise CsvParseError(f"{path}: no column named {label_column!r} in header")
        label_idx = header.index(label_column)

        feat_rows: list[list[float]] = []
        labels: list[int] = []
        for rownum, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvParseError(
                    f"{path}: row {rownum} has {len(row)} cells, header has {len(header)}"
                )
            feats = []
            for col, cell in enumerate(row):
                if col == label_idx:
                    continue
                try:
                    feats.append(float(cell))
                except ValueError:
                    raise CsvParseError(
                        f"{path}: row {rownum}, column {header[col]!r}: "
                        f"cell {cell.strip()!r} is not numeric"
                    ) from None
            raw = row[label_idx].strip()
            if raw not in ("0", "1"):
                raise LabelDomainError(
                    f"{path}: row {rownum}: label must be 0 or 1, got {raw!r}"
                )
            feat_rows.append(feats)
            labels.append(int(raw))

    if not labels:
        raise EmptyDatasetError(f"{path}: no data rows")
    return Dataset(
        np.asarray(feat_rows, dtype=F32),
        np.asarray(labels, dtype=np.int64),
        name=os.path.basename(str(path)),
    )


def save_csv(dataset: Dataset, path, label_column: str = "label") -> None:
    """Write a dataset in the same CSV format load_csv accepts."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dataset.feature_dim)] + [label_column])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(x)) for x in row] + [int(label)])


NOISE_SCALE = 0.15  # label noise relative to the unit-variance teacher margin


def gen_synthetic(n: int, dim: int, seed: int) -> Dataset:
    """Noisy-linear synthetic dataset: label = (w.x / sqrt(dim) + noise > 0).

    Deterministic in (n, dim, seed); class balance concentrates near 50/50.
    """
    if n < 2:
        raise InvalidArgument(f"n must be >= 2, got {n}")
    if dim < 1:
        raise InvalidArgument(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    teacher = rng.standard_normal(dim)
    feats = rng.standard_normal((n, dim))
    margin = feats @ teacher / np.sqrt(dim) + NOISE_SCALE * rng.standard_normal(n)
    labels = (margin > 0).astype(np.int64)
    return Dataset(feats.astype(F32), labels, name=f"synthetic-n{n}-d{dim}-s{seed}")


def split_ids(n: int, eval_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (train_ids, eval_ids) partition of range(n), both sorted."""
    if not 0.0 < eval_fraction < 1.0:
        raise InvalidArgument("eval_fraction must be in (0, 1)")
    perm = np.random.default_rng(seed).permutation(n)
    n_eval = max(1, int(round(n * eval_fraction)))
    if n_eval >= n:
        raise InvalidArgument("eval_fraction leaves no training rows")
    return np.sort(perm[n_eval:]), np.sort(perm[:n_eval])


def split_dataset(dataset: Dataset, eval_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic train/eval split; both halves get fresh dense ids."""
    train_ids, eval_ids = split_ids(dataset.n, eval_fraction, seed)
    return (
        dataset.subset(train_ids, f"{dataset.name}-train"),
        dataset.subset(eval_ids, f"{dataset.name}-eval"),
    )


@dataclass(frozen=True, eq=False)
class SlicePlan:
    """Immutable partition of sample ids into ordered slices of batches.

    ``slices[i-1]`` holds slice i's live ids in training order as a read-only
    int64 array; batch j is the j-th run of ``batch_size`` ids in it.
    ``slice_of`` gives every planned id's slice and is shared by all versions
    of a plan. Ids only ever leave the slice ``slice_of`` names, so a planned
    id is revoked exactly when that slice no longer holds it; the plan keeps
    no other record of its revocations. ``tombstone`` and ``tombstone_all``
    return a new plan sharing every untouched slice, so concurrent readers of
    older snapshots stay valid.
    """

    num_slices: int
    batch_size: int
    shuffle_seed: int
    slices: tuple[np.ndarray, ...]
    slice_of: np.ndarray
    # (id, slice, index) of the last id ``_position`` found in this plan, so
    # that ``tombstone`` after ``locate`` of the same id scans its slice once.
    # Not a field: set with object.__setattr__, never copied to a new plan.
    _found = (-1, 0, 0)

    @property
    def tombstones(self) -> frozenset[int]:
        """The revoked ids, derived from the slices in O(n); for inspection
        and tests, not for the request path."""
        live = np.zeros(self.slice_of.size, dtype=bool)
        for ids in self.slices:
            live[ids] = True
        return frozenset(np.flatnonzero(~live).tolist())

    def locate(self, sample_id: int) -> tuple[int, int]:
        """1-based (slice, batch) position of a live sample id."""
        i, k = self._position(int(sample_id))
        return i, k // self.batch_size + 1

    def tombstone(self, sample_id: int) -> "SlicePlan":
        """Revoke an id: drop it from its slice; the survivors keep their
        order. An id that is already revoked leaves the plan as it is."""
        try:
            i, k = self._position(int(sample_id))
        except AlreadyRevoked:
            return self
        ids = self.slices[i - 1]
        kept = np.concatenate((ids[:k], ids[k + 1 :]))
        kept.flags.writeable = False
        slices = self.slices[: i - 1] + (kept,) + self.slices[i:]
        return SlicePlan(self.num_slices, self.batch_size, self.shuffle_seed, slices, self.slice_of)

    def tombstone_all(self, sample_ids) -> "SlicePlan":
        """Revoke many ids in one pass: each touched slice is filtered once,
        and the plan equals the one ``tombstone`` gives called on each id."""
        dead_ids = np.fromiter(sample_ids, dtype=np.int64)
        unplanned = dead_ids[(dead_ids < 0) | (dead_ids >= self.slice_of.size)]
        if unplanned.size:
            raise NotFound(f"sample {unplanned[0]} is not in the plan")
        dead = np.zeros(self.slice_of.size, dtype=bool)
        dead[dead_ids] = True
        slices = list(self.slices)
        for i in np.unique(self.slice_of[dead_ids]):
            ids = slices[i - 1]
            kept = ids[~dead[ids]]
            if kept.size < ids.size:  # ids already revoked are in no slice
                kept.flags.writeable = False
                slices[i - 1] = kept
        if all(a is b for a, b in zip(slices, self.slices)):
            return self
        return replace(self, slices=tuple(slices))

    def live_ids(self) -> np.ndarray:
        return np.sort(np.concatenate(self.slices))

    def slice_ids(self, i: int) -> np.ndarray:
        if not 1 <= i <= self.num_slices:
            raise NotFound(f"no slice {i} in a {self.num_slices}-slice plan")
        return self.slices[i - 1]

    def num_batches(self, i: int) -> int:
        return (self.slice_ids(i).size + self.batch_size - 1) // self.batch_size

    def batch_ids(self, i: int, j: int) -> np.ndarray:
        if not 1 <= j <= self.num_batches(i):
            raise NotFound(f"slice {i} has no batch {j}")
        return self.slices[i - 1][(j - 1) * self.batch_size : j * self.batch_size]

    def slice_sizes(self) -> tuple[int, ...]:
        return tuple(ids.size for ids in self.slices)

    def _position(self, sample_id: int) -> tuple[int, int]:
        """Slice and 0-based index in it of a live id, found by one scan of
        the slice ``slice_of`` names, or taken from the scan that found the
        same id last in this plan. A planned id that scan misses is revoked."""
        if not 0 <= sample_id < self.slice_of.size:
            raise NotFound(f"sample {sample_id} is not in the plan")
        found, i, k = self._found
        if found == sample_id and self.slices[i - 1][k] == sample_id:
            return i, k
        i = int(self.slice_of[sample_id])
        ids = self.slices[i - 1]
        k = int((ids == sample_id).argmax()) if ids.size else 0  # argmax of nothing raises
        if k >= ids.size or ids[k] != sample_id:
            raise AlreadyRevoked(f"sample {sample_id} was already revoked")
        object.__setattr__(self, "_found", (sample_id, i, k))
        return i, k


def make_slice_plan(dataset: Dataset, num_slices: int, batch_size: int, seed: int) -> SlicePlan:
    """Shuffle ids by seed and split them into near-equal contiguous slices."""
    n = dataset.n
    if not 1 <= num_slices <= n:
        raise InvalidArgument(f"num_slices must be in [1, {n}], got {num_slices}")
    if batch_size < 1:
        raise InvalidArgument("batch_size must be >= 1")
    order = np.random.default_rng(seed).permutation(n).astype(np.int64)
    order.flags.writeable = False
    slices = tuple(np.array_split(order, num_slices))
    slice_of = np.empty(n, dtype=np.int64)
    for i, ids in enumerate(slices, start=1):
        slice_of[ids] = i
    slice_of.flags.writeable = False
    return SlicePlan(
        num_slices=num_slices,
        batch_size=batch_size,
        shuffle_seed=seed,
        slices=slices,
        slice_of=slice_of,
    )
