"""Persistence of per-slice checkpoints, the per-slice increment ledger and
the slice plan, whose live masks are the record of the revoked ids.

On-disk layout (format 9): ``manifest.json`` plus one binary file per
checkpoint 1..S or recorded slice. The manifest holds the training config as
one ``config`` section (the engine's ``TrainConfig``), the input width, n,
the tombstones and one entry per file: a checkpoint's holds its slice, file
(``checkpoint_0001.muck`` for slice 1), Adam step count (checkpoints 1..S-1
only) and CRC, a ledger's its slice, file (``ledger_0001.muck``) and CRC; a
load reads no other file name. Binary framing: magic ``MUCK``, u32 framing
version, u32 slice index, u32 batch field (0xFFFFFFFF for checkpoints, the
row count for a ledger), u64 payload length in 4-byte words, the
little-endian payload, u32 CRC32 trailer over all preceding bytes.
Checkpoint payloads are float32 (params, adam_m, adam_v; checkpoint S, which
no retrain resumes, holds its params only); a ledger's payload is its
slice's live mask at recording time, one bit per as-planned position, least
significant bit first and zero-padded to whole 4-byte words, then its
float32 delta rows in batch order. Nothing derivable is stored: checkpoint 0
is ``init_params`` under the config's seed with fresh Adam state, the
dispatch threshold comes from the config and n, each ledger's ids from its
slice's as-planned order and its mask (so the row count is the mask's
popcount in runs of ``batch_size``), its row index from the mask's running
count and its batch ends, and whether a batch is consumed from its slice's
live mask when a request asks. Loading keeps
the deltas as read-only views of the file's bytes, rebuilds checkpoint 0 and
the plan from the config and n, revokes the tombstones in the plan and
refuses a ledger that leaves out an id still live in its slice, or a
checkpoint or ledger listed twice. A version-8 or older manifest is refused.
Writes go to a temp file then ``os.replace``; once the new manifest is in
place, the store files it does not name are removed.
"""

from __future__ import annotations

import copy
import json
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .costs import CostConfig, check_finite_real, threshold
from .data import SlicePlan, as_int, make_slice_plan
from .errors import (
    InvalidArgument,
    NotFound,
    PolicyViolation,
    StoreCorruption,
    StoreVersionError,
)
from .nn import ModelLayout, OptimizerState, ParameterVector, init_params

MAGIC = b"MUCK"
FORMAT_VERSION = 9  # of the manifest; it also fixes what a ledger payload holds
FRAME_VERSION = 3  # of the binary files; the header has not changed since version 3
CHECKPOINT_SENTINEL = 0xFFFFFFFF
_HEADER = struct.Struct("<IIIQ")  # version, slice, batch, length


@dataclass(frozen=True)
class TrainConfig:
    """Sliced-training hyperparameters; defaults follow the benchmark setup
    (batch size 128, learning rate 0.005, Adam), checked when built. Frozen: a
    store's ledgers were recorded under it. A list ``hidden_dims`` is a tuple."""

    num_slices: int = 4
    batch_size: int = 128
    learning_rate: float = 0.005
    epochs_per_slice: int = 1
    seed: int = 0
    phi: float = 0.0
    hidden_dims: tuple[int, ...] = (128, 128)

    def __post_init__(self) -> None:
        ints = (("num_slices", 1), ("batch_size", 1), ("epochs_per_slice", 1), ("seed", 0))
        for name, low in ints:  # numpy ints are kept as Python ints, so asdict writes JSON
            object.__setattr__(self, name, as_int(getattr(self, name), name, low))
        check_finite_real("learning_rate", self.learning_rate)
        check_finite_real("phi", self.phi)
        if self.learning_rate <= 0:
            raise InvalidArgument("learning_rate must be positive")
        if self.phi < 0:
            raise InvalidArgument("phi must be non-negative")
        dims = self.hidden_dims
        if not isinstance(dims, (tuple, list)):
            raise InvalidArgument(f"hidden_dims must hold positive integers, got {dims!r}")
        dims = tuple(as_int(d, f"hidden_dims[{k}]", 1) for k, d in enumerate(dims))
        object.__setattr__(self, "hidden_dims", dims)


@dataclass
class Checkpoint:
    """Parameters and Adam state after a slice. A retrain resumes checkpoints
    0..S-1 only, so checkpoint S holds no Adam state (``opt_state`` None).
    Construction makes the params, ``m`` and ``v`` arrays read-only; they are
    never written again, which is what lets clones and served models share
    them.

    ``trained_from`` is the start this checkpoint was trained from: Adam's step
    count, then references to the params, ``m``, ``v`` and slice ids, whose
    arrays construction makes read-only too. It lives in memory only (not
    persisted, compared or printed), so a loaded checkpoint has none."""

    slice_index: int
    params: ParameterVector
    opt_state: OptimizerState | None
    trained_from: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        state = () if self.opt_state is None else (self.opt_state.m, self.opt_state.v)
        start = self.trained_from[1:] if self.trained_from else ()
        for values in (self.params.values, *state, *start):
            values.flags.writeable = False

    def was_trained_from(self, start: tuple) -> bool:
        """Whether ``trained_from`` holds the same step count and arrays of
        the same bits as ``start`` (a -0.0 differs from a 0.0)."""
        return self.trained_from is not None and self.trained_from[0] == start[0] and all(
            np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))
            for a, b in zip(self.trained_from[1:], start[1:])
        )


class Ledger(NamedTuple):
    """A recorded slice, read-only and shared by clones: one float32 delta row
    per batch; ``index``, each as-planned position's row among the slice's
    live ids at recording time as int32 (-1: not recorded); and ``ends``, from
    0: batch j spans as-planned ``[ends[j-1], ends[j])``, to its last recorded
    id. The recorded ids are the positions with ``index >= 0``, in plan order;
    batch j is their j-th run of ``batch_size``."""

    deltas: np.ndarray
    index: np.ndarray
    ends: np.ndarray


def write_vector_file(path: Path, slice_index: int, batch_index: int, values, mask=()) -> int:
    """Frame one file whose payload is ``mask`` packed one bit per entry,
    least significant bit first and zero-padded to whole 4-byte words, then
    ``values`` as little-endian float32; return its CRC32."""
    bits = np.packbits(np.asarray(mask, dtype=bool), bitorder="little")
    bits = np.append(bits, np.zeros(-bits.size % 4, np.uint8))
    parts = (bits, np.ascontiguousarray(values, dtype="<f4"))
    words = sum(part.nbytes for part in parts) // 4
    header = MAGIC + _HEADER.pack(FRAME_VERSION, slice_index, batch_index, words)
    crc = zlib.crc32(header)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(header)
        for part in parts:
            crc = zlib.crc32(part, crc)
            fh.write(part)
        fh.write(struct.pack("<I", crc))
    os.replace(tmp, path)
    return crc


def read_vector_file(path: Path) -> tuple[int, int, np.ndarray, int]:
    """Check and unframe one file; the payload is a read-only float32 view of
    its bytes. A file that cannot be read (missing, a directory) is StoreCorruption."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise StoreCorruption(f"{path.name}: cannot be read ({exc.strerror or exc})") from exc
    if len(data) < 4 + _HEADER.size + 4 or data[:4] != MAGIC:
        raise StoreCorruption(f"{path.name}: missing or damaged MUCK header")
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(memoryview(data)[:-4]) & 0xFFFFFFFF != stored_crc:
        raise StoreCorruption(f"{path.name}: CRC32 mismatch")
    version, slice_index, batch_index, length = _HEADER.unpack(data[4 : 4 + _HEADER.size])
    if version != FRAME_VERSION:
        raise StoreVersionError(f"{path.name}: format version {version} is not supported")
    if len(data) != 4 + _HEADER.size + 4 * length + 4:
        raise StoreCorruption(f"{path.name}: payload length disagrees with header")
    vec = np.frombuffer(data, dtype="<f4", count=length, offset=4 + _HEADER.size)
    return slice_index, batch_index, vec, stored_crc


class StateStore:
    """Single-writer store of checkpoints, increments and the slice plan.

    ``config`` is the training recipe that wrote the checkpoints and ledgers,
    kept as the one record the engine trains from; retraining resumes a stored
    checkpoint only under it. ``plan`` is the slice plan of the n ids under
    ``config``; its live masks are the one record of the revoked ids. The
    store owns it: requests revoke in it in place, and only ``clone`` copies
    it. ``threshold`` is the dispatch threshold t of ``config`` and n.
    Checkpoint 0, the start every training run takes, is built here from
    ``config`` and never put, persisted or loaded."""

    def __init__(self, config: TrainConfig, layout: ModelLayout, plan: SlicePlan):
        self.config = config
        self.layout = layout
        self.plan = plan
        self.n = int(plan.slice_of.size)
        self.threshold = threshold(CostConfig(self.n, config.num_slices, config.phi)).t
        self.dataset_fingerprint = ""
        start = init_params(layout, config.seed), OptimizerState.fresh(layout)
        self.checkpoints: dict[int, Checkpoint] = {0: Checkpoint(0, *start)}
        self.ledgers: dict[int, Ledger] = {}

    # ---- checkpoints -------------------------------------------------
    def put_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Store checkpoint 1..S; checkpoint S without Adam state, the others
        with it."""
        i, last = as_int(checkpoint.slice_index, "slice index"), self.config.num_slices
        if not 1 <= i <= last:
            raise InvalidArgument(
                f"checkpoint index must be in [1, {last}] (checkpoint 0 is derived), got {i}"
            )
        if (checkpoint.opt_state is None) != (i == last):
            raise InvalidArgument(
                f"checkpoints 1..{last - 1} hold Adam state and checkpoint {last} none"
            )
        self.checkpoints[i] = checkpoint

    def get_checkpoint(self, i: int) -> Checkpoint:
        cp = self.checkpoints.get(as_int(i, "slice index"))
        if cp is None:
            raise NotFound(f"no checkpoint for slice {i}")
        return cp

    # ---- increments --------------------------------------------------
    def record_increment(self, i: int, deltas) -> None:
        """Replace slice i's ledger with ``deltas`` over the slice's live ids
        as of this call: the ids the engine just trained, since nothing
        revokes between its read of them and this record."""
        i = as_int(i, "slice index")
        if not 1 <= i < self.threshold:  # slice 0 would read masks[-1], slice S's
            raise PolicyViolation(
                f"increments are recorded only for slices below {self.threshold}, got {i}"
            )
        self._put_ledger(i, self.plan.masks[i - 1], deltas)

    def _put_ledger(self, i: int, mask: np.ndarray, deltas) -> None:
        """Store slice i's ledger over ``mask``, its live mask at recording time:
        one delta row per batch of the ids it sets, its running count as the row
        index and the batch ends. Float32 deltas are kept, not copied, read-only."""
        deltas, count = np.asarray(deltas, dtype=np.float32), int(np.count_nonzero(mask))
        rows = -(-count // self.config.batch_size)
        if deltas.shape != (rows, self.layout.param_count):
            raise InvalidArgument(
                f"{count} ids take {rows} delta rows of {self.layout.param_count}, "
                f"got shape {deltas.shape}"
            )
        index = np.cumsum(mask, dtype=np.int32) - 1
        index[~mask] = -1
        after = np.concatenate(([0], np.flatnonzero(mask) + 1))  # 1 + the c-th id's position
        ends = after[np.minimum(np.arange(rows + 1) * self.config.batch_size, count)]
        deltas.flags.writeable = index.flags.writeable = ends.flags.writeable = False
        self.ledgers[i] = Ledger(deltas, index, ends)

    def _ledger(self, i: int, j: int) -> Ledger:
        if type(i) is not int or type(j) is not int:
            i, j = as_int(i, "slice index"), as_int(j, "batch index")
        ledger = self.ledgers.get(i)
        if ledger is None or not 1 <= j <= len(ledger.deltas):
            raise NotFound(f"no increment record for slice {i}, batch {j}")
        return ledger

    def get_increment(self, i: int, j: int) -> ParameterVector:
        """Batch j's recorded delta in slice i, widened into a fresh float64
        vector that the caller owns."""
        return ParameterVector(self._ledger(i, j).deltas[j - 1], self.layout)

    def mark_consumed(self, i: int, j: int) -> bool:
        """Whether a request into recorded batch j of slice i consumes it: True
        while all the ids the batch recorded are live, counted as the live bits
        in its span (an unrecorded position there was revoked before recording).
        The request's own tombstone is the mark; the bench tracer wraps this name."""
        ledger = self._ledger(i, j)
        lo, hi = ledger.ends.item(j - 1), ledger.ends.item(j)
        recorded = ledger.index.item(hi - 1) - (j - 1) * self.config.batch_size + 1
        return bool(np.count_nonzero(self.plan.masks[i - 1][lo:hi]) == recorded)

    def recorded_batch_index(self, i: int, k: int) -> int:
        """Recording-time 1-based batch of the id at as-planned index k of
        slice i (``SlicePlan.position``'s k): its ledger row in runs of
        ``batch_size``; NotFound for a k outside the slice or not recorded."""
        if type(i) is not int or type(k) is not int:
            i, k = as_int(i, "slice index"), as_int(k, "as-planned index")
        ledger = self.ledgers.get(i)
        row = ledger.index.item(k) if ledger is not None and 0 <= k < ledger.index.size else -1
        if row < 0:
            raise NotFound(f"slice {i} recorded no id at as-planned index {k}")
        return row // self.config.batch_size + 1

    @property
    def tombstones(self) -> frozenset[int]:
        """The revoked ids, derived from the plan's live masks."""
        return self.plan.tombstones

    def set_tombstones(self, ids) -> None:
        """Revoke ``ids`` in the plan; ids it already revoked stay revoked."""
        self.plan.tombstone_all(ids)

    def clone(self) -> "StateStore":
        """An independent store sharing the read-only checkpoints and
        ledgers; the plan's masks are copied."""
        dup = copy.copy(self)
        dup.plan = self.plan.copy()
        dup.checkpoints = dict(self.checkpoints)
        dup.ledgers = dict(self.ledgers)
        return dup

    # ---- persistence -------------------------------------------------
    def persist(self, directory) -> None:
        """Write the store into ``directory``, then remove the checkpoint,
        ledger, increment and temp files there that the new manifest does not
        name (left by an earlier store persisted into the same directory)."""
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        cp_entries = []
        for i in sorted(self.checkpoints)[1:]:  # checkpoint 0 is derived
            cp = self.checkpoints[i]
            entry = {"slice": i, "file": f"checkpoint_{i:04d}.muck"}
            payload = cp.params.values
            if cp.opt_state is not None:
                payload = np.concatenate([payload, cp.opt_state.m, cp.opt_state.v])
                entry["step_count"] = cp.opt_state.step_count
            crc = write_vector_file(root / entry["file"], i, CHECKPOINT_SENTINEL, payload)
            cp_entries.append({**entry, "crc32": crc})
        ledger_entries = []
        for i, ledger in sorted(self.ledgers.items()):
            fname = f"ledger_{i:04d}.muck"
            mask = ledger.index >= 0
            crc = write_vector_file(root / fname, i, len(ledger.deltas), ledger.deltas, mask)
            ledger_entries.append({"slice": i, "file": fname, "crc32": crc})
        manifest = {
            "format_version": FORMAT_VERSION,
            "config": asdict(self.config),
            "input_dim": self.layout.input_dim,
            "n": self.n,
            "dataset_fingerprint": self.dataset_fingerprint,
            "tombstones": sorted(self.tombstones),
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
        """Load a persisted store; a damaged manifest, a tombstone outside the
        plan or a file name other than ``persist`` gives among them, and a
        named file that cannot be read raise StoreCorruption."""
        root = Path(directory)
        manifest_path = root / "manifest.json"
        if not manifest_path.exists():
            raise NotFound(f"{manifest_path}: manifest not found")
        try:
            return cls._from_manifest(root, json.loads(manifest_path.read_text(encoding="utf-8")))
        except KeyError as exc:
            raise StoreCorruption(f"manifest.json: missing field {exc}") from exc
        except (
            AttributeError, TypeError, ValueError, InvalidArgument, NotFound, PolicyViolation
        ) as exc:
            raise StoreCorruption(f"manifest.json: malformed ({exc})") from exc

    @classmethod
    def _from_manifest(cls, root: Path, manifest: dict) -> "StateStore":
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise StoreVersionError(f"manifest format version {version} is not supported")
        raw = manifest["config"]
        config = TrainConfig(**{f.name: raw[f.name] for f in fields(TrainConfig)})
        unknown = sorted(set(raw) - set(asdict(config)))
        if unknown:
            raise ValueError(f"config field {unknown[0]!r} is not a TrainConfig field")
        layout = ModelLayout(manifest["input_dim"], config.hidden_dims)
        plan = make_slice_plan(manifest["n"], config.num_slices, config.batch_size, config.seed)
        store = cls(config, layout, plan)
        store.dataset_fingerprint = str(manifest["dataset_fingerprint"])
        count, last = layout.param_count, config.num_slices
        for entry in manifest["checkpoints"]:
            path, i = _named_file(root, entry, "checkpoint")
            if i not in range(1, last + 1):
                raise StoreCorruption(f"manifest.json: stored checkpoints are 1..{last}, got {i}")
            if i in store.checkpoints:
                raise StoreCorruption(f"manifest.json: lists checkpoint {i} twice")
            if i == last and "step_count" in entry:
                raise StoreCorruption(f"{entry['file']}: checkpoint {last} has no step count")
            si, bi, payload, crc = read_vector_file(path)
            if crc != entry["crc32"]:
                raise StoreCorruption(f"{entry['file']}: manifest checksum disagrees")
            width = count if si == last else 3 * count
            if si != i or bi != CHECKPOINT_SENTINEL or payload.size != width:
                raise StoreCorruption(f"{entry['file']}: checkpoint framing mismatch")
            params, state = ParameterVector(payload[:count], layout), None
            if si < last:
                m, v = payload[count:].reshape(2, count)
                steps = as_int(entry["step_count"], "step_count", 0)
                state = OptimizerState(m, v, steps)
            store.checkpoints[si] = Checkpoint(si, params, state)
        for entry in manifest["ledgers"]:
            path, i = _named_file(root, entry, "ledger")
            if not 1 <= i < store.threshold:  # slice 0 would read order[-1], slice S's
                raise StoreCorruption(
                    f"{entry['file']}: increments are recorded only for slices below "
                    f"{store.threshold}, got {i}"
                )
            if i in store.ledgers:
                raise StoreCorruption(f"manifest.json: lists ledger {i} twice")
            si, rows, payload, crc = read_vector_file(path)
            if crc != entry["crc32"]:
                raise StoreCorruption(f"{entry['file']}: manifest checksum disagrees")
            order = plan.order[i - 1]
            words = -(-order.size // 32)
            if si != i or payload.size != words + rows * count:
                raise StoreCorruption(f"{entry['file']}: ledger framing mismatch")
            bits = np.unpackbits(payload[:words].view(np.uint8), bitorder="little")
            if bits[order.size :].any():
                raise StoreCorruption(f"{entry['file']}: mask sets a bit past slice {i}'s ids")
            mask = bits[: order.size].view(bool)
            held = int(np.count_nonzero(mask))
            if rows != -(-held // config.batch_size):
                raise StoreCorruption(f"{entry['file']}: {rows} delta rows for {held} ids")
            store._put_ledger(i, mask, payload[words:].reshape(rows, count))
        store.set_tombstones(manifest["tombstones"])
        for i, ledger in store.ledgers.items():
            if (ledger.index[plan.masks[i - 1]] < 0).any():
                raise StoreCorruption(f"ledger_{i:04d}.muck: leaves out a live id of slice {i}")
        return store


def _named_file(root: Path, entry: dict, kind: str) -> tuple[Path, int]:
    """A ``kind`` entry's file in ``root``, by the name ``persist`` gives it, and its slice."""
    i = as_int(entry["slice"], "slice", 0)
    name = f"{kind}_{i:04d}.muck"
    if entry["file"] != name:
        raise StoreCorruption(f"manifest.json: {kind} file {entry['file']!r} is not {name}")
    return root / name, i
