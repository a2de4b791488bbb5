"""Sliced training with increment recording, and the four revocation strategies.

Training walks the slices in order from the store's checkpoint 0,
checkpointing parameters plus optimizer state after each one (after the last,
which no retrain resumes, parameters only); for each slice below the dispatch
threshold it also records the slice's ledger in one call: one row per batch
holding that batch's summed parameter increment (the store takes the ids from
the plan). Every revocation takes one of two paths:

* partial retraining (``prs``, and ``hs``/``ohs`` at or above the threshold)
  - roll back to the checkpoint before the sample's slice, drop the sample,
  retrain the suffix (the always-retrain flavor doubles as the SISA baseline,
  shards fixed at one);
* amend at depth r - subtract the sample's recorded batch increment from the
  final parameters (r = 0: ``dpus``, and ``hs`` below the threshold) or from
  checkpoint S-r, then retrain the trailing r slices from that amended start
  (``ohs`` below the threshold).

Retraining reuses checkpoint k instead of training slice k when the start
params, Adam state and live slice ids are bit-for-bit those checkpoint k was
trained from (``Checkpoint.trained_from``, kept in memory only); training is
deterministic in them, so the outputs are those of a retrain. Each outcome
reports ``rows_read``, the rows it actually sent through training.

All mutation (training, unlearning, store writes) is serialized on the engine
instance. Stored and served parameter vectors are read-only: requests and
retraining build new ones, so checkpoints, the served model and each
``UnlearnOutcome.params_after`` are shared, not copied, and safe to read.
"""

from __future__ import annotations

import copy
import functools
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .costs import CostConfig, threshold as compute_threshold
from .data import Dataset, SlicePlan, as_int, make_slice_plan
from .errors import (
    DispatchError,
    InvalidArgument,
    MuError,
    NumericError,
    StoreCorruption,
    TrainingDiverged,
)
from .nn import (
    F32,
    F64,
    Batch,
    ModelLayout,
    OptimizerState,
    ParameterVector,
    adam_step,
    combine,
    evaluate,
    loss_grad,
)
from .report import MetricsReport, RequestRow
from .store import Checkpoint, StateStore, TrainConfig

STRATEGIES = ("prs", "dpus", "hs", "ohs")


@dataclass(frozen=True)
class Model:
    params: ParameterVector


@dataclass(frozen=True)
class UnlearnRequest:
    """One revocation: a sample id, one of ``STRATEGIES`` and, for ``ohs``
    only, a depth r in place of the engine's ``default_ohs_depth``.

    ``prs`` always retrains from the sample's slice (SISA, one shard);
    ``dpus`` always subtracts its recorded batch delta from the served
    params; ``hs`` takes ``dpus`` below the threshold, ``prs`` at or above;
    ``ohs`` is ``hs`` that subtracts at checkpoint S-r and retrains the last
    r slices. ``dispatch`` checks the depth's type and range."""

    sample_id: int
    requested_strategy: str = "hs"
    depth: int | None = None

    def __post_init__(self) -> None:
        if self.requested_strategy not in STRATEGIES:
            raise InvalidArgument(
                f"requested_strategy must be one of {STRATEGIES}, "
                f"got {self.requested_strategy!r}"
            )
        if self.depth is not None and self.requested_strategy != "ohs":
            raise InvalidArgument(
                f"only ohs takes a depth, got {self.depth!r} with {self.requested_strategy!r}"
            )


@dataclass
class UnlearnOutcome:
    strategy_executed: str  # prs | dpus | ohs | noop-consumed
    located_at: tuple[int, int]
    wall_time: float
    params_after: ParameterVector
    checkpoints_rewritten: list[int] = field(default_factory=list)
    rows_read: int = 0  # rows sent through training, summed over the slices trained


def sample_request_ids(plan: SlicePlan, count: int, seed: int) -> list[int]:
    """Draw distinct live ids uniformly without replacement; ``count`` and
    ``seed`` are InvalidArgument unless Python or numpy ints (not bools)."""
    count, seed = as_int(count, "count"), as_int(seed, "seed", 0)
    live = plan.live_ids()
    if not 0 <= count <= live.size:
        raise InvalidArgument(f"cannot draw {count} requests from {live.size} live ids")
    picked = np.random.default_rng(seed).choice(live, size=count, replace=False)
    return [int(x) for x in picked]


def train_batches(
    params: ParameterVector,
    state: OptimizerState,
    batches: Iterable[tuple[int, int, Batch]],
    learning_rate: float,
    where: str,
    deltas: np.ndarray | None = None,
) -> tuple[ParameterVector, OptimizerState]:
    """Take one Adam step at ``learning_rate`` per ``(epoch, j, batch)`` of
    ``batches``, in order.

    The steps carry float32 from start to end. The start params are rounded to
    float32 once, and the steps run in four float32 buffers allocated once per
    call (the current and next params, which swap roles each step, the
    gradient and Adam's scratch) on one copy of the Adam moments, since the
    given ones may be a checkpoint's read-only arrays. ``loss_grad`` and
    ``adam_step`` round to float32 where this loop keeps it, so each step is
    bit for bit the one they take on float64 vectors. The result is widened to
    a new float64 vector once at the end; a call that takes no step returns
    ``params`` and ``state`` themselves.

    A non-finite loss or gradient raises TrainingDiverged naming ``where``
    and the epoch. With ``deltas`` given, each step's parameter change is
    added to row ``deltas[j]`` as an exact float64 difference; the first
    step's is taken against the unrounded start, so the rounding of a start
    that ``combine`` moved off the float32 grid is part of that batch's delta.
    """
    layout = params.layout
    start, spare, grad_out, scratch = np.empty((4, layout.param_count), dtype=F32)
    start[:] = params.values
    current = ParameterVector.float32(start, layout)
    work = OptimizerState(state.m.copy(), state.v.copy(), state.step_count)
    before = params.values
    for epoch, j, batch in batches:
        loss, grad = loss_grad(current, batch, grad_out)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss in {where}, epoch {epoch}")
        try:
            stepped, work = adam_step(current, work, grad, learning_rate, (spare, scratch))
        except NumericError as exc:
            raise TrainingDiverged(f"non-finite gradient in {where}, epoch {epoch}") from exc
        if deltas is not None:
            deltas[j] += np.subtract(stepped.values, before, dtype=F64)
        spare, current = current.values, stepped
        before = current.values
    if work.step_count == state.step_count:
        return params, state
    return ParameterVector(current.values, layout), work


@functools.lru_cache(maxsize=64)
def _epoch_orders(
    seed: int, slice_index: int, epochs: int, nb: int
) -> tuple[tuple[int, ...], ...]:
    """The batch visit order of each epoch 1..epochs of a slice with nb
    batches: ``default_rng((seed, slice_index, epoch)).permutation(nb)``.

    Pure in its arguments, so it is memoized, for at most 64 keys; the orders
    are tuples, so no caller can change one that another is handed. ``nb``
    is part of the key: a tombstone that changes a slice's batch count gives
    its retrain a new order."""
    return tuple(
        tuple(int(j) for j in np.random.default_rng((seed, slice_index, epoch)).permutation(nb))
        for epoch in range(1, epochs + 1)
    )


def _train_slice(
    dataset: Dataset,
    config: TrainConfig,
    params: ParameterVector,
    state: OptimizerState,
    k: int,
    ids: np.ndarray,
    record: bool,
) -> tuple[ParameterVector, OptimizerState, np.ndarray | None]:
    """Run epochs_per_slice passes over slice k of ``dataset``, whose ids are
    ``ids``; return the params, the Adam state and, with ``record``, the
    per-batch delta rows, summed in float64 and rounded to float32 once,
    else None.

    Batch j is the j-th run of ``batch_size`` of ``ids``, gathered once per
    call; each (slice, epoch) pass only shuffles the visit order, and a
    batch's summed delta stays attributable across epochs. The orders come
    from ``_epoch_orders``, a function of (seed, slice, epochs, batch count)
    and never of request history, which keeps suffix retraining
    bit-reproducible regardless of which revocation triggered it; a retrain
    of an unchanged batch count reuses the orders already drawn.
    """
    features, labels = dataset.features, dataset.labels
    runs = (ids[at : at + config.batch_size] for at in range(0, ids.size, config.batch_size))
    gathered = [Batch(features[run], labels[run]) for run in runs]
    nb = len(gathered)
    orders = _epoch_orders(config.seed, k, config.epochs_per_slice, nb)
    batches = ((epoch, j, gathered[j]) for epoch, order in enumerate(orders, 1) for j in order)
    deltas = np.zeros((nb, params.layout.param_count)) if record else None
    params, state = train_batches(
        params, state, batches, config.learning_rate, f"slice {k}", deltas
    )
    return params, state, None if deltas is None else deltas.astype(np.float32)


class UnlearnEngine:
    """Owns the dataset view and the state store with its slice plan, which
    holds the served params."""

    def __init__(self, dataset: Dataset, config: TrainConfig, ohs_depth: int | None = None):
        self._configure(dataset, config, ohs_depth)
        plan = make_slice_plan(dataset.n, config.num_slices, config.batch_size, config.seed)
        self.store = StateStore(config, self.layout, plan)

    def _configure(self, dataset: Dataset, config: TrainConfig, ohs_depth: int | None) -> None:
        """Set everything but the store (CostConfig checks n)."""
        self.dataset = dataset
        self.config = config
        self.layout = ModelLayout(dataset.feature_dim, config.hidden_dims, 2)
        decision = compute_threshold(
            CostConfig(n=dataset.n, num_slices=config.num_slices, phi=config.phi)
        )
        depth = decision.r if ohs_depth is None else ohs_depth
        self.default_ohs_depth = as_int(depth, "ohs depth", 0, config.num_slices)

    @property
    def threshold(self) -> int:
        """The dispatch threshold t, derived by the store from its config and n."""
        return self.store.threshold

    @property
    def plan(self) -> SlicePlan:
        """The store's slice plan, which requests revoke from in place."""
        return self.store.plan

    @property
    def model(self) -> Model | None:
        """The served model, None before ``fit``: a view of the store's served
        params, their one record."""
        served = self.store.served
        return None if served is None else Model(served)

    # ---- construction helpers -----------------------------------------
    @classmethod
    def train(cls, dataset: Dataset, config: TrainConfig, ohs_depth: int | None = None):
        engine = cls(dataset, config, ohs_depth=ohs_depth)
        engine.fit()
        return engine

    @classmethod
    def from_store(cls, dataset: Dataset, store: StateStore, ohs_depth: int | None = None):
        """Rebuild a live engine around a loaded store, whose plan already
        holds its tombstones; the engine serves the store's served params. A
        store that lacks a checkpoint 1..S or a ledger 1..t-1, which requests
        would resume or amend from, is StoreCorruption. A ledger persisted as
        its mask only gets its rows from ``_derive_ledger`` the first time a
        direct update reads it."""
        last = store.config.num_slices
        for kind, held, upto in (
            ("checkpoint", store.checkpoints, last),
            ("ledger", store.ledgers, store.threshold - 1),
        ):
            missing = next((i for i in range(1, upto + 1) if i not in held), None)
            if missing is not None:
                raise StoreCorruption(f"store has no {kind} for slice {missing}")
        if store.n != dataset.n:
            raise InvalidArgument(
                f"store was trained on n={store.n}, dataset has n={dataset.n}"
            )
        if store.dataset_fingerprint != dataset.fingerprint():
            raise InvalidArgument("dataset fingerprint does not match the store")
        engine = cls.__new__(cls)
        engine._configure(dataset, store.config, ohs_depth)
        engine.store = store
        return engine

    def clone(self) -> "UnlearnEngine":
        dup = copy.copy(self)
        dup.store = self.store.clone()
        return dup

    # ---- training -------------------------------------------------------
    def fit(self) -> Model:
        if self.store.served is not None:
            raise InvalidArgument("engine is already trained")
        start = self.store.checkpoints[0]
        params, _, _ = self._train_slices(1, start.params, start.opt_state)
        self.store.dataset_fingerprint = self.dataset.fingerprint()
        self.store.served = params
        return self.model

    def _train_slices(
        self, start_slice: int, params: ParameterVector, state: OptimizerState
    ) -> tuple[ParameterVector, list[int], int]:
        """Train slices start_slice..S from (params, state), checkpointing each
        one; return the final params, the slices rewritten and the rows read.
        Checkpoint S keeps no Adam state: no retrain resumes it.

        Checkpoint k is reused instead of retraining slice k when it was
        trained from bit-identical start params, Adam state and live slice
        ids: training is deterministic in those, so it would write the same
        bits. A reused checkpoint is re-put and reads no rows; a reused
        recorded slice keeps its ledger, whose ids are the same and all
        still live, so none of its batches is consumed.

        A recorded slice is derivable when its start is the stored checkpoint
        k-1 itself (every slice but the first of an OHS retrain that
        subtracted a delta), so ``persist`` writes its ledger's mask only."""
        last, rows_read, store = self.config.num_slices, 0, self.store
        trained = list(range(start_slice, last + 1))
        for k in trained:
            ids, record = self.plan.slice_ids(k), k < self.threshold
            start = (state.step_count, params.values, state.m, state.v, ids)
            cp = store.checkpoints.get(k)
            if cp is not None and cp.was_trained_from(start):
                params, state = cp.params, cp.opt_state
            else:
                before = store.checkpoints[k - 1]
                derivable = params is before.params and state is before.opt_state
                params, state, deltas = _train_slice(
                    self.dataset, self.config, params, state, k, ids, record
                )
                if record:
                    store.record_increment(k, deltas, derivable)
                rows_read += ids.size * self.config.epochs_per_slice
            store.put_checkpoint(Checkpoint(k, params, state if k < last else None, start))
        return params, trained, rows_read

    def _derive_ledger(self, i: int) -> None:
        """Derive the rows of ledger i, loaded as its mask only: re-run slice i
        from the stored checkpoint i-1 over its recording-time ids and keep
        the rows read-only, as ``record_increment`` does. A run that does not
        end on the stored checkpoint i gives other rows than the recorded
        ones: StoreCorruption. Reading the checkpoints now, not at
        ``from_store``, gives the same rows: only a retrain from a slice at or
        below i rewrites checkpoint i-1 or i, and it records ledger i anew,
        since a loaded checkpoint has no ``trained_from`` to reuse."""
        store = self.store
        ledger, start = store.ledgers[i], store.checkpoints[i - 1]
        ids = self.plan.order[i - 1][ledger.index >= 0]
        params, _, rows = _train_slice(
            self.dataset, self.config, start.params, start.opt_state, i, ids, True
        )
        if not params.bits_equal(store.checkpoints[i].params):
            raise StoreCorruption(
                f"ledger {i}: re-running slice {i} from checkpoint {i - 1} does not give "
                f"checkpoint {i}, so its rows cannot be derived"
            )
        rows.flags.writeable = False
        store.ledgers[i] = ledger._replace(deltas=rows)

    def _served(self) -> ParameterVector:
        served = self.store.served
        if served is None:
            raise InvalidArgument("engine is not trained yet")
        return served

    # ---- revocation -------------------------------------------------------
    def dispatch(self, request: UnlearnRequest) -> UnlearnOutcome:
        """Serve one revocation; the engine's only request entry point.

        PRS, and HS or OHS at or above the threshold, tombstone the sample and
        retrain from its slice i, starting at checkpoint i-1. Otherwise the
        request amends at depth r (0 for DPUS and HS, the OHS depth for OHS):
        the sample's recorded batch delta is subtracted from the served
        parameters when r = 0, else from checkpoint S-r, which itself stays
        pristine, before slices S-r+1..S are retrained. DPUS at or above the
        threshold raises DispatchError: no delta is recorded there. An OHS
        depth with S-r < i would subtract a delta checkpoint S-r never saw, so
        that request retrains from slice i instead and reports ``prs``.

        The ledger is addressed by recording-time batch membership, since
        tombstoning re-chunks the live plan. A batch's delta is subtracted at
        most once; at r = 0 a later request hitting a consumed batch only
        tombstones. The plan is asked for the sample's position (i, k) once, and
        the ledger lookup and the tombstone take it; only the retraining path
        counts its live batch, while an amend reports the recording-time one.
        """
        served = self._served()
        t0 = time.perf_counter()
        num_slices = self.config.num_slices
        sample_id, strategy, depth = request.sample_id, request.requested_strategy, request.depth
        r = self.default_ohs_depth if strategy == "ohs" else 0
        if depth is not None:  # only an ohs request has one
            r = as_int(depth, "ohs depth", 0, num_slices)
        i, k = self.plan.position(sample_id)
        if strategy == "dpus" and i >= self.threshold:
            raise DispatchError(
                f"sample {sample_id} sits in slice {i} >= threshold {self.threshold}, "
                "where no increment is recorded for a direct update"
            )
        amend = i <= num_slices - r and (
            strategy == "dpus" or (strategy != "prs" and i < self.threshold)
        )
        start = num_slices - r + 1 if amend else i
        base = self.store.get_checkpoint(start - 1) if start <= num_slices else None
        params = served if base is None else base.params
        if amend:
            j = self.store.recorded_batch_index(i, k)
            fresh = self.store.mark_consumed(i, j)
            executed = "ohs" if r else ("dpus" if fresh else "noop-consumed")
            if fresh:  # the widened increment, which this request owns, takes the result
                if self.store.ledgers[i].deltas is None:  # loaded as its mask only
                    self._derive_ledger(i)
                increment = self.store.get_increment(i, j)
                params = combine(params, increment, "-", out=increment)
        else:
            j, executed = self.plan.batch_at(i, k), "prs"
        self.plan.tombstone(sample_id, at=(i, k))
        rewritten, rows_read = [], 0
        if base is not None:
            params, rewritten, rows_read = self._train_slices(start, params, base.opt_state)
        params.values.flags.writeable = False
        self.store.served = params
        wall_time = time.perf_counter() - t0
        return UnlearnOutcome(executed, (i, j), wall_time, params, rewritten, rows_read)

    # ---- replay ---------------------------------------------------------
    def process_stream(
        self, requests: Sequence[UnlearnRequest], eval_dataset: Dataset | None = None
    ) -> MetricsReport:
        """Serve requests in arrival order; abort on error with a partial report."""
        self._served()
        report = MetricsReport(
            strategy=requests[0].requested_strategy if requests else "hs",
            num_slices=self.config.num_slices,
            phi=self.config.phi,
            t=self.threshold,
            r=self.default_ohs_depth,
        )
        if eval_dataset is not None:
            report.pre_accuracy = evaluate(self.store.served, eval_dataset)
        for idx, request in enumerate(requests):
            try:
                outcome = self.dispatch(request)
            except MuError as exc:
                report.partial = True
                report.error = f"request {idx} (sample {request.sample_id}): {exc}"
                break
            report.rows.append(
                RequestRow(
                    idx,
                    outcome.strategy_executed,
                    outcome.located_at[0],
                    outcome.located_at[1],
                    outcome.wall_time,
                    outcome.rows_read,
                )
            )
        if eval_dataset is not None:
            report.final_accuracy = evaluate(self.store.served, eval_dataset)
        return report
