"""Dataset ingestion, the synthetic generator, and slice/batch planning.

A ``Dataset`` holds read-only arrays, so it hashes them once. A ``SlicePlan``
fixes each slice's order when it is made and records revocations as one live
mask per slice, which it owns and clears in place: locating an id is two array
reads and one mask bit, revoking one clears that bit, and a slice's live ids
are read from its order and mask each time something asks for them.
"""

from __future__ import annotations

import csv
import functools
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
F32_MAX = float(np.finfo(F32).max)


def _read_only(values, dtype) -> np.ndarray:
    """``values`` as a read-only C-contiguous array of ``dtype``. An array
    that conversion leaves shared with a writable ``values`` is copied first,
    so the caller's own array keeps its flag."""
    out = np.ascontiguousarray(values, dtype=dtype)
    if out.flags.writeable and isinstance(values, np.ndarray) and np.may_share_memory(out, values):
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """Binary-labeled numeric dataset with dense ids 0..n-1 in row order.

    ``features`` and ``labels`` are read-only, so ``fingerprint`` hashes them
    once per instance."""

    features: np.ndarray
    labels: np.ndarray
    name: str = "dataset"

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", _read_only(self.features, F32))
        object.__setattr__(self, "labels", _read_only(self.labels, np.int64).ravel())
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
        """New dataset from the rows ``ids``, integers in [0, n), re-indexed to dense ids."""
        idx = np.asarray(ids)
        if idx.dtype.kind not in "iu":
            raise InvalidArgument(f"row ids must be 64-bit integers, got {idx.dtype} ids")
        outside = idx[(idx < 0) | (idx >= self.n)]
        if outside.size:
            raise NotFound(f"{self.name}: row {outside[0]} is not in [0, {self.n})")
        features, labels = self.features[idx], self.labels[idx]  # fresh arrays, handed over
        features.flags.writeable = labels.flags.writeable = False
        return Dataset(features, labels, name or f"{self.name}-subset")

    def fingerprint(self) -> str:
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.features)  # hashed in place, not copied
        h.update(self.labels)
        return h.hexdigest()


def load_csv(path, label_column: str = "label") -> Dataset:
    """Load a numeric, header-bearing CSV whose label column holds 0/1.

    Error naming counts data rows from 1 (the header is row 0).
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:  # a BOM is not header text
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
                    value = float(cell)
                except ValueError:
                    value = np.nan
                if not abs(value) <= F32_MAX:  # nan too: features are float32
                    raise CsvParseError(
                        f"{path}: row {rownum}, column {header[col]!r}: "
                        f"cell {cell.strip()!r} is not a finite float32 number"
                    )
                feats.append(value)
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
    n = as_int(n, "n", 2)
    dim = as_int(dim, "dim", 1)
    seed = as_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    teacher = rng.standard_normal(dim)
    feats = rng.standard_normal((n, dim))
    margin = feats @ teacher / np.sqrt(dim) + NOISE_SCALE * rng.standard_normal(n)
    features, labels = feats.astype(F32), (margin > 0).astype(np.int64)
    features.flags.writeable = labels.flags.writeable = False  # handed over, not copied
    return Dataset(features, labels, name=f"synthetic-n{n}-d{dim}-s{seed}")


def split_ids(n: int, eval_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (train_ids, eval_ids) partition of range(n), both sorted."""
    if not 0.0 < eval_fraction < 1.0:
        raise InvalidArgument("eval_fraction must be in (0, 1)")
    perm = np.random.default_rng(as_int(seed, "seed", 0)).permutation(n)
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


def as_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` (a count, size, index or seed, called ``name``) as a Python
    int; InvalidArgument unless a Python or numpy int (not a bool) in
    [low, high], either bound left open when None. Hot callers test
    ``type(value) is int`` before calling."""
    if type(value) is not int and not isinstance(value, np.integer):
        raise InvalidArgument(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise InvalidArgument(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise InvalidArgument(f"{name} must be <= {high}, got {value}")
    return value


@dataclass(eq=False)
class SlicePlan:
    """Partition of sample ids into ordered slices of batches, owned by one
    store and revoked from in place.

    Slice i holds the ids of its as-planned order ``order[i-1]`` whose bit in
    the live mask ``masks[i-1]`` is set, in that order; batch j is the j-th
    run of ``batch_size`` of those live ids. ``order``, ``slice_of`` (every
    planned id's slice) and ``pos_of`` (its index in ``order`` of that slice)
    never change, so a lookup is two array reads and one mask bit, and a clear
    bit means revoked.

    ``tombstone`` and ``tombstone_all`` clear bits in this plan's own masks
    and return the plan itself; the masks are the only record of a
    revocation. Every read of a slice's live ids (``slices``, ``slice_ids``,
    ``batch_ids``, ``live_ids``) gathers them from its order and mask into a
    new read-only array, which no later revocation changes. ``copy`` gives a
    plan that revokes independently of this one.
    """

    num_slices: int
    batch_size: int
    order: tuple[np.ndarray, ...]
    slice_of: np.ndarray
    pos_of: np.ndarray
    masks: tuple[np.ndarray, ...]

    @property
    def slices(self) -> tuple[np.ndarray, ...]:
        """Each slice's live ids in training order, as read-only int64 arrays."""
        return tuple(self.slice_ids(i) for i in range(1, self.num_slices + 1))

    @property
    def tombstones(self) -> frozenset[int]:
        """The revoked ids, derived from the masks in O(n); for persistence,
        inspection and tests, not for the request path."""
        dead = [ids[~live] for ids, live in zip(self.order, self.masks)]
        return frozenset(np.concatenate(dead).tolist())

    def position(self, sample_id: int) -> tuple[int, int]:
        """1-based slice and 0-based as-planned index of a live id; an id
        that ``as_int`` refuses is InvalidArgument."""
        if type(sample_id) is not int:
            sample_id = as_int(sample_id, "sample id")
        if not 0 <= sample_id < self.slice_of.size:
            raise NotFound(f"sample {sample_id} is not in the plan")
        i, k = self.slice_of.item(sample_id), self.pos_of.item(sample_id)
        if not self.masks[i - 1].item(k):
            raise AlreadyRevoked(f"sample {sample_id} was already revoked")
        return i, k

    def batch_at(self, i: int, k: int) -> int:
        """1-based batch of the live id at as-planned index k of slice i: the
        live ids before it, counted in the mask, in runs of ``batch_size``;
        NotFound for a k outside the slice's as-planned order."""
        if type(k) is not int:
            k = as_int(k, "as-planned index")
        live = self.masks[self._slice(i) - 1]
        if not 0 <= k < live.size:
            raise NotFound(f"slice {i} has no as-planned index {k}")
        return int(np.count_nonzero(live[:k])) // self.batch_size + 1

    def locate(self, sample_id: int) -> tuple[int, int]:
        """1-based (slice, batch) position of a live sample id."""
        i, k = self.position(sample_id)
        return i, self.batch_at(i, k)

    def tombstone(self, sample_id: int, at: tuple[int, int] | None = None) -> "SlicePlan":
        """Revoke an id in place: clear its bit; the survivors keep their
        order. An id that is already revoked leaves the plan as it is. ``at``
        is ``position(sample_id)`` when the caller has it, which saves the
        lookup. Returns the plan."""
        if at is None:
            try:
                at = self.position(sample_id)
            except AlreadyRevoked:
                return self
        i, k = at
        self.masks[i - 1][k] = False
        return self

    def tombstone_all(self, sample_ids) -> "SlicePlan":
        """Revoke many ids in one pass, in place, leaving the plan that
        ``tombstone`` leaves called on each id; an id that is not an integer
        raises InvalidArgument, and one outside the plan NotFound, before any
        is revoked. Returns the plan."""
        ids = [x if type(x) is int else as_int(x, "sample id") for x in sample_ids]
        try:
            dead = np.array(ids, np.int64)
        except OverflowError:  # an id beyond int64 is outside the plan too
            huge = next(x for x in ids if not -(2**63) <= x < 2**63)
            raise NotFound(f"sample {huge} is not in the plan") from None
        unplanned = dead[(dead < 0) | (dead >= self.slice_of.size)]
        if unplanned.size:
            raise NotFound(f"sample {unplanned[0]} is not in the plan")
        slices, pos = self.slice_of[dead] - 1, self.pos_of[dead]
        for k in np.unique(slices).tolist():
            self.masks[k][pos[slices == k]] = False
        return self

    def copy(self) -> "SlicePlan":
        """A plan that revokes independently of this one: it copies the
        masks (n bytes) and shares ``order``, ``slice_of`` and ``pos_of``."""
        return replace(self, masks=tuple(live.copy() for live in self.masks))

    def live_ids(self) -> np.ndarray:
        return np.sort(np.concatenate(self.slices))

    def _slice(self, i: int) -> int:
        """``i`` as a slice by ``as_int``'s rule; NotFound outside 1..S."""
        if type(i) is not int:
            i = as_int(i, "slice index")
        if not 1 <= i <= self.num_slices:
            raise NotFound(f"no slice {i} in a {self.num_slices}-slice plan")
        return i

    def slice_ids(self, i: int) -> np.ndarray:
        i = self._slice(i)
        ids = self.order[i - 1][self.masks[i - 1]]
        ids.flags.writeable = False
        return ids

    def num_batches(self, i: int) -> int:
        return (self.slice_ids(i).size + self.batch_size - 1) // self.batch_size

    def batch_ids(self, i: int, j: int) -> np.ndarray:
        if type(j) is not int:
            j = as_int(j, "batch index")
        ids = self.slice_ids(i)[(j - 1) * self.batch_size : j * self.batch_size]
        if j < 1 or not ids.size:
            raise NotFound(f"slice {i} has no batch {j}")
        return ids

    def slice_sizes(self) -> tuple[int, ...]:
        return tuple(int(np.count_nonzero(live)) for live in self.masks)


def make_slice_plan(n: int, num_slices: int, batch_size: int, seed: int) -> SlicePlan:
    """Shuffle the ids 0..n-1 by seed and split them into near-equal
    contiguous slices."""
    n = as_int(n, "n", 1)
    num_slices = as_int(num_slices, "num_slices", 1, n)
    batch_size = as_int(batch_size, "batch_size", 1)
    seed = as_int(seed, "seed", 0)
    perm = np.random.default_rng(seed).permutation(n).astype(np.int64, copy=False)
    perm.flags.writeable = False
    order = tuple(np.array_split(perm, num_slices))
    # int32 (n < 2**31), half the memory of int64: each engine holds one pair.
    slice_of, pos_of = np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int32)
    for i, ids in enumerate(order, start=1):
        slice_of[ids] = i
        pos_of[ids] = np.arange(ids.size)
    slice_of.flags.writeable = pos_of.flags.writeable = False
    return SlicePlan(
        num_slices=num_slices,
        batch_size=batch_size,
        order=order,
        slice_of=slice_of,
        pos_of=pos_of,
        masks=tuple(np.ones(ids.size, dtype=bool) for ids in order),
    )
