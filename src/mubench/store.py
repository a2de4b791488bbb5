"""Persistence of per-slice checkpoints and the per-batch increment ledger.

On-disk layout: ``manifest.json`` plus one binary file per checkpoint or
increment. Binary framing: magic ``MUCK``, u32 format version, u32 slice
index, u32 batch index (0xFFFFFFFF for checkpoints), u64 vector length, raw
little-endian float32 payload, u32 CRC32 trailer over all preceding bytes.
Checkpoint payloads concatenate (params, adam_m, adam_v); the step counter
lives in the manifest. Writes go to a temp file then ``os.replace``.
"""

from __future__ import annotations

import copy
import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InvalidArgument,
    NotFound,
    PolicyViolation,
    StoreCorruption,
    StoreVersionError,
)
from .nn import AdamHyper, ModelLayout, OptimizerState, ParameterVector

MAGIC = b"MUCK"
FORMAT_VERSION = 2
CHECKPOINT_SENTINEL = 0xFFFFFFFF
_HEADER = struct.Struct("<IIIQ")  # version, slice, batch, length


@dataclass
class Checkpoint:
    slice_index: int
    params: ParameterVector
    opt_state: OptimizerState
    plan_version: int

    def copy(self) -> "Checkpoint":
        return Checkpoint(
            self.slice_index, self.params.copy(), self.opt_state.copy(), self.plan_version
        )


@dataclass
class IncrementRecord:
    slice_index: int
    batch_index: int
    delta: ParameterVector
    consumed: bool = False

    def copy(self) -> "IncrementRecord":
        return IncrementRecord(
            self.slice_index, self.batch_index, self.delta.copy(), self.consumed
        )


def write_vector_file(path: Path, slice_index: int, batch_index: int, values: np.ndarray) -> int:
    payload = np.ascontiguousarray(values, dtype="<f4").tobytes()
    header = MAGIC + _HEADER.pack(FORMAT_VERSION, slice_index, batch_index, values.size)
    crc = zlib.crc32(header + payload) & 0xFFFFFFFF
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(struct.pack("<I", crc))
    os.replace(tmp, path)
    return crc


def read_vector_file(path: Path) -> tuple[int, int, np.ndarray, int]:
    data = Path(path).read_bytes()
    if len(data) < 4 + _HEADER.size + 4 or data[:4] != MAGIC:
        raise StoreCorruption(f"{path.name}: missing or damaged MUCK header")
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != stored_crc:
        raise StoreCorruption(f"{path.name}: CRC32 mismatch")
    version, slice_index, batch_index, length = _HEADER.unpack(data[4 : 4 + _HEADER.size])
    if version != FORMAT_VERSION:
        raise StoreVersionError(f"{path.name}: format version {version} is not supported")
    if len(data) != 4 + _HEADER.size + 4 * length + 4:
        raise StoreCorruption(f"{path.name}: payload length disagrees with header")
    vec = np.frombuffer(data[4 + _HEADER.size : -4], dtype="<f4").astype(np.float32)
    return slice_index, batch_index, vec, stored_crc


class StateStore:
    """Single-writer store of checkpoints, increments and plan bookkeeping."""

    def __init__(
        self,
        *,
        layout: ModelLayout,
        num_slices: int,
        threshold: int,
        n: int,
        batch_size: int,
        seeds: dict,
        hyper: AdamHyper,
        epochs_per_slice: int,
        phi: float,
        plan_version: int = 0,
        dataset_fingerprint: str = "",
    ) -> None:
        self.layout = layout
        self.num_slices = int(num_slices)
        self.threshold = int(threshold)
        self.n = int(n)
        self.batch_size = int(batch_size)
        self.seeds = dict(seeds)
        self.hyper = hyper
        self.epochs_per_slice = int(epochs_per_slice)
        self.phi = float(phi)
        self.plan_version = int(plan_version)
        self.dataset_fingerprint = dataset_fingerprint
        self.checkpoints: dict[int, Checkpoint] = {}
        self.increments: dict[tuple[int, int], IncrementRecord] = {}
        self.recorded_batches: dict[int, np.ndarray] = {}
        self.tombstones: list[int] = []

    # ---- checkpoints -------------------------------------------------
    def put_checkpoint(self, checkpoint: Checkpoint) -> None:
        i = checkpoint.slice_index
        if not 0 <= i <= self.num_slices:
            raise InvalidArgument(f"checkpoint index must be in [0, {self.num_slices}], got {i}")
        self.checkpoints[i] = checkpoint

    def get_checkpoint(self, i: int) -> Checkpoint:
        cp = self.checkpoints.get(int(i))
        if cp is None:
            raise NotFound(f"no checkpoint for slice {i}")
        return cp

    # ---- increments --------------------------------------------------
    def record_increment(self, i: int, j: int, delta: ParameterVector) -> None:
        if i < 1 or j < 1:
            raise InvalidArgument("slice and batch indices are 1-based")
        if i >= self.threshold:
            raise PolicyViolation(
                f"increments are recorded only for slices below {self.threshold}, got {i}"
            )
        self.increments[(i, j)] = IncrementRecord(i, j, delta, consumed=False)

    def get_increment(self, i: int, j: int) -> IncrementRecord:
        rec = self.increments.get((int(i), int(j)))
        if rec is None:
            raise NotFound(f"no increment record for slice {i}, batch {j}")
        return rec

    def mark_consumed(self, i: int, j: int) -> bool:
        """Flip the consume flag; False reports an already-consumed record."""
        rec = self.get_increment(i, j)
        if rec.consumed:
            return False
        rec.consumed = True
        return True

    def drop_increments(self, i: int) -> None:
        for key in [k for k in self.increments if k[0] == i]:
            del self.increments[key]
        self.recorded_batches.pop(i, None)

    def set_recorded_batches(self, i: int, ids) -> None:
        """Keep slice i's ids in recording-time order, read-only so clones share them."""
        ids = np.array(ids, dtype=np.int64)
        ids.flags.writeable = False
        self.recorded_batches[i] = ids

    def recorded_batch_index(self, i: int, sample_id: int) -> int:
        """Recording-time 1-based batch index of a sample within slice i."""
        ids = self.recorded_batches.get(int(i))
        if ids is None:
            raise NotFound(f"slice {i} has no recorded increments")
        hits = np.flatnonzero(ids == int(sample_id))
        if hits.size == 0:
            raise NotFound(f"sample {sample_id} is not in slice {i}'s recorded batches")
        return int(hits[0]) // self.batch_size + 1

    def set_tombstones(self, ids) -> None:
        self.tombstones = sorted(int(x) for x in ids)

    def clone(self) -> "StateStore":
        dup = copy.copy(self)
        dup.seeds = dict(self.seeds)
        dup.checkpoints = {i: cp.copy() for i, cp in self.checkpoints.items()}
        dup.increments = {k: rec.copy() for k, rec in self.increments.items()}
        dup.recorded_batches = dict(self.recorded_batches)
        dup.tombstones = list(self.tombstones)
        return dup

    # ---- persistence -------------------------------------------------
    def persist(self, directory) -> None:
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        cp_entries = []
        for i in sorted(self.checkpoints):
            cp = self.checkpoints[i]
            fname = f"checkpoint_{i:04d}.muck"
            payload = np.concatenate([cp.params.values, cp.opt_state.m, cp.opt_state.v])
            crc = write_vector_file(root / fname, i, CHECKPOINT_SENTINEL, payload)
            cp_entries.append(
                {
                    "slice": i,
                    "file": fname,
                    "step_count": cp.opt_state.step_count,
                    "plan_version": cp.plan_version,
                    "crc32": crc,
                }
            )
        inc_entries = []
        for (i, j) in sorted(self.increments):
            rec = self.increments[(i, j)]
            fname = f"increment_{i:04d}_{j:04d}.muck"
            crc = write_vector_file(root / fname, i, j, rec.delta.values)
            inc_entries.append(
                {"slice": i, "batch": j, "file": fname, "consumed": rec.consumed, "crc32": crc}
            )
        manifest = {
            "format_version": FORMAT_VERSION,
            "layout": {
                "input_dim": self.layout.input_dim,
                "hidden_dims": list(self.layout.hidden_dims),
                "output_dim": self.layout.output_dim,
            },
            "S": self.num_slices,
            "l": self.threshold,
            "n": self.n,
            "batch_size": self.batch_size,
            "seeds": self.seeds,
            "phi": self.phi,
            "hyper": {
                "learning_rate": self.hyper.learning_rate,
                "beta1": self.hyper.beta1,
                "beta2": self.hyper.beta2,
                "epsilon": self.hyper.epsilon,
            },
            "epochs_per_slice": self.epochs_per_slice,
            "plan_version": self.plan_version,
            "dataset_fingerprint": self.dataset_fingerprint,
            "tombstones": self.tombstones,
            "recorded_batches": {
                str(i): ids.tolist() for i, ids in sorted(self.recorded_batches.items())
            },
            "checkpoints": cp_entries,
            "increments": inc_entries,
        }
        tmp = root / "manifest.json.tmp"
        tmp.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
        os.replace(tmp, root / "manifest.json")

    @classmethod
    def load(cls, directory) -> "StateStore":
        root = Path(directory)
        manifest_path = root / "manifest.json"
        if not manifest_path.exists():
            raise NotFound(f"{manifest_path}: manifest not found")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise StoreVersionError(f"manifest format version {version} is not supported")
        layout = ModelLayout(
            manifest["layout"]["input_dim"],
            tuple(manifest["layout"]["hidden_dims"]),
            manifest["layout"]["output_dim"],
        )
        store = cls(
            layout=layout,
            num_slices=manifest["S"],
            threshold=manifest["l"],
            n=manifest["n"],
            batch_size=manifest["batch_size"],
            seeds=manifest["seeds"],
            hyper=AdamHyper(**manifest["hyper"]),
            epochs_per_slice=manifest["epochs_per_slice"],
            phi=manifest["phi"],
            plan_version=manifest["plan_version"],
            dataset_fingerprint=manifest.get("dataset_fingerprint", ""),
        )
        store.tombstones = [int(x) for x in manifest.get("tombstones", [])]
        for i, ids in manifest.get("recorded_batches", {}).items():
            store.set_recorded_batches(int(i), ids)
        count = layout.param_count
        for entry in manifest["checkpoints"]:
            si, bi, payload, crc = read_vector_file(root / entry["file"])
            if crc != entry["crc32"]:
                raise StoreCorruption(f"{entry['file']}: manifest checksum disagrees")
            if si != entry["slice"] or bi != CHECKPOINT_SENTINEL or payload.size != 3 * count:
                raise StoreCorruption(f"{entry['file']}: checkpoint framing mismatch")
            params = ParameterVector(payload[:count], layout)
            state = OptimizerState(
                payload[count : 2 * count],
                payload[2 * count :],
                entry["step_count"],
                store.hyper,
            )
            store.checkpoints[si] = Checkpoint(si, params, state, entry["plan_version"])
        for entry in manifest["increments"]:
            si, bi, payload, crc = read_vector_file(root / entry["file"])
            if crc != entry["crc32"]:
                raise StoreCorruption(f"{entry['file']}: manifest checksum disagrees")
            if si != entry["slice"] or bi != entry["batch"] or payload.size != count:
                raise StoreCorruption(f"{entry['file']}: increment framing mismatch")
            store.increments[(si, bi)] = IncrementRecord(
                si, bi, ParameterVector(payload, layout), bool(entry["consumed"])
            )
        return store
