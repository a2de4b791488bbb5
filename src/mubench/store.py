"""Persistence of per-slice checkpoints and the per-slice increment ledger.

On-disk layout: ``manifest.json`` plus one binary file per checkpoint or
recorded slice. Binary framing: magic ``MUCK``, u32 format version, u32 slice
index, u32 batch field (0xFFFFFFFF for checkpoints, the row count for a
ledger), u64 vector length, raw little-endian float32 payload, u32 CRC32
trailer over all preceding bytes. Checkpoint payloads concatenate (params,
adam_m, adam_v); a ledger's payload is its delta rows in batch order. Step
counters, recorded ids and consumed flags live in the manifest. Writes go to
a temp file then ``os.replace``; once the new manifest is in place, the store
files it does not name are removed.
"""

from __future__ import annotations

import copy
import json
import os
import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

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
FORMAT_VERSION = 3
CHECKPOINT_SENTINEL = 0xFFFFFFFF
_HEADER = struct.Struct("<IIIQ")  # version, slice, batch, length


@dataclass
class Checkpoint:
    """Parameters and Adam state after a slice. Construction makes the
    params, ``m`` and ``v`` arrays read-only; they are never written again,
    which is what lets clones and served models share them."""

    slice_index: int
    params: ParameterVector
    opt_state: OptimizerState
    plan_version: int

    def __post_init__(self) -> None:
        for values in (self.params.values, self.opt_state.m, self.opt_state.v):
            values.flags.writeable = False


class Ledger(NamedTuple):
    """A recorded slice: its ids in recording-time order (batch j is their j-th
    run of ``batch_size``) and one float32 delta row per batch, both read-only
    and shared by clones, and one consumed flag per batch."""

    ids: np.ndarray
    deltas: np.ndarray
    consumed: np.ndarray


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
    """Check and unframe one file; the vector is a read-only view of its bytes."""
    data = Path(path).read_bytes()
    if len(data) < 4 + _HEADER.size + 4 or data[:4] != MAGIC:
        raise StoreCorruption(f"{path.name}: missing or damaged MUCK header")
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(memoryview(data)[:-4]) & 0xFFFFFFFF != stored_crc:
        raise StoreCorruption(f"{path.name}: CRC32 mismatch")
    version, slice_index, batch_index, length = _HEADER.unpack(data[4 : 4 + _HEADER.size])
    if version != FORMAT_VERSION:
        raise StoreVersionError(f"{path.name}: format version {version} is not supported")
    if len(data) != 4 + _HEADER.size + 4 * length + 4:
        raise StoreCorruption(f"{path.name}: payload length disagrees with header")
    vec = np.frombuffer(data, dtype="<f4", count=length, offset=4 + _HEADER.size)
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
        self.ledgers: dict[int, Ledger] = {}
        self.tombstones: frozenset[int] = frozenset()

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
    def record_increment(self, i: int, ids, deltas) -> None:
        """Replace slice i's ledger with ``ids`` and ``deltas``, none consumed.
        Arrays that already have the stored dtype are kept, not copied, and
        made read-only."""
        if i < 1:
            raise InvalidArgument("slice indices are 1-based")
        if i >= self.threshold:
            raise PolicyViolation(
                f"increments are recorded only for slices below {self.threshold}, got {i}"
            )
        ids, deltas = np.asarray(ids, dtype=np.int64), np.asarray(deltas, dtype=np.float32)
        ids.flags.writeable = deltas.flags.writeable = False
        self.ledgers[i] = Ledger(ids, deltas, np.zeros(len(deltas), dtype=bool))

    def _ledger(self, i: int, j: int) -> Ledger:
        ledger = self.ledgers.get(int(i))
        if ledger is None or not 1 <= j <= ledger.consumed.size:
            raise NotFound(f"no increment record for slice {i}, batch {j}")
        return ledger

    def get_increment(self, i: int, j: int) -> ParameterVector:
        """Batch j's recorded delta in slice i, widened to a float64 vector."""
        return ParameterVector(self._ledger(i, j).deltas[j - 1], self.layout)

    def mark_consumed(self, i: int, j: int) -> bool:
        """Flip the consume flag; False reports an already-consumed record."""
        consumed = self._ledger(i, j).consumed
        if consumed[j - 1]:
            return False
        consumed[j - 1] = True
        return True

    def recorded_batch_index(self, i: int, sample_id: int) -> int:
        """Recording-time 1-based batch index of a sample within slice i."""
        ledger = self.ledgers.get(int(i))
        if ledger is None:
            raise NotFound(f"slice {i} has no recorded increments")
        hits = np.flatnonzero(ledger.ids == int(sample_id))
        if hits.size == 0:
            raise NotFound(f"sample {sample_id} is not in slice {i}'s recorded batches")
        return int(hits[0]) // self.batch_size + 1

    def set_tombstones(self, ids) -> None:
        """Keep the revoked ids; a frozenset is kept as given, not copied."""
        self.tombstones = frozenset(ids)

    def clone(self) -> "StateStore":
        """An independent store sharing the read-only checkpoints, ids and
        deltas; only the consumed flags are copied."""
        dup = copy.copy(self)
        dup.seeds = dict(self.seeds)
        dup.checkpoints = dict(self.checkpoints)
        dup.ledgers = {i: x._replace(consumed=x.consumed.copy()) for i, x in self.ledgers.items()}
        return dup

    # ---- persistence -------------------------------------------------
    def persist(self, directory) -> None:
        """Write the store into ``directory``, then remove the checkpoint,
        ledger, increment and temp files there that the new manifest does not
        name (left by an earlier store persisted into the same directory)."""
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
        ledger_entries = []
        for i, ledger in sorted(self.ledgers.items()):
            fname = f"ledger_{i:04d}.muck"
            crc = write_vector_file(root / fname, i, ledger.consumed.size, ledger.deltas)
            ids, consumed = ledger.ids.tolist(), ledger.consumed.tolist()
            ledger_entries.append(
                {"slice": i, "file": fname, "ids": ids, "consumed": consumed, "crc32": crc}
            )
        manifest = {
            "format_version": FORMAT_VERSION,
            "layout": asdict(self.layout),
            "S": self.num_slices,
            "l": self.threshold,
            "n": self.n,
            "batch_size": self.batch_size,
            "seeds": self.seeds,
            "phi": self.phi,
            "hyper": asdict(self.hyper),
            "epochs_per_slice": self.epochs_per_slice,
            "plan_version": self.plan_version,
            "dataset_fingerprint": self.dataset_fingerprint,
            "tombstones": sorted(map(int, self.tombstones)),
            "checkpoints": cp_entries,
            "ledgers": ledger_entries,
        }
        tmp = root / "manifest.json.tmp"
        tmp.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
        os.replace(tmp, root / "manifest.json")
        named = {entry["file"] for entry in cp_entries + ledger_entries}
        for pattern in ("checkpoint_*.muck", "ledger_*.muck", "increment_*.muck", "*.tmp"):
            for path in root.glob(pattern):
                if path.name not in named:
                    path.unlink()

    @classmethod
    def load(cls, directory) -> "StateStore":
        """Load a persisted store; a damaged manifest raises StoreCorruption."""
        root = Path(directory)
        manifest_path = root / "manifest.json"
        if not manifest_path.exists():
            raise NotFound(f"{manifest_path}: manifest not found")
        try:
            return cls._from_manifest(root, json.loads(manifest_path.read_text(encoding="utf-8")))
        except KeyError as exc:
            raise StoreCorruption(f"manifest.json: missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError, InvalidArgument, PolicyViolation) as exc:
            raise StoreCorruption(f"manifest.json: malformed ({exc})") from exc

    @classmethod
    def _from_manifest(cls, root: Path, manifest: dict) -> "StateStore":
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise StoreVersionError(f"manifest format version {version} is not supported")
        layout = ModelLayout(**manifest["layout"])
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
            dataset_fingerprint=str(manifest["dataset_fingerprint"]),
        )
        if store.batch_size < 1 or not isinstance(store.seeds["train"], int):
            raise StoreCorruption("manifest.json: batch_size must be positive, seeds.train an int")
        store.tombstones = frozenset(int(x) for x in manifest["tombstones"])
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
        for entry in manifest["ledgers"]:
            ids = np.array(entry["ids"], dtype=np.int64)
            consumed = np.array(entry["consumed"], dtype=bool)
            si, rows, payload, crc = read_vector_file(root / entry["file"])
            if crc != entry["crc32"]:
                raise StoreCorruption(f"{entry['file']}: manifest checksum disagrees")
            if si != entry["slice"] or payload.size != rows * count:
                raise StoreCorruption(f"{entry['file']}: ledger framing mismatch")
            if rows != -(-ids.size // store.batch_size) or rows != consumed.size:
                raise StoreCorruption(
                    f"{entry['file']}: {rows} delta rows for {ids.size} ids "
                    f"and {consumed.size} consumed flags"
                )
            store.record_increment(si, ids, payload.reshape(rows, count))
            store.ledgers[si].consumed[:] = consumed
        return store
