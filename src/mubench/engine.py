"""Sliced training with increment recording, and the four revocation strategies.

Training walks the slices in order, checkpointing parameters plus optimizer
state after each one; for each slice below the dispatch threshold it also
records the slice's ledger in one call: its ids and one row per batch holding
that batch's summed parameter increment. Every revocation takes one of two
paths:

* partial retraining (``prs``, and ``hs``/``ohs`` at or above the threshold)
  - roll back to the checkpoint before the sample's slice, drop the sample,
  retrain the suffix (the always-retrain flavor doubles as the SISA baseline,
  shards fixed at one);
* amend at depth r - subtract the sample's recorded batch increment from the
  final parameters (r = 0: ``dpus``, and ``hs`` below the threshold) or from
  checkpoint S-r, then retrain the trailing r slices from that amended start
  (``ohs`` below the threshold).

All mutation (training, unlearning, store writes) is serialized on the engine
instance. Stored and served parameter vectors are read-only: requests and
retraining build new ones, so checkpoints, the served model and each
``UnlearnOutcome.params_after`` are shared, not copied, and safe to read.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .costs import CostConfig, threshold as compute_threshold
from .data import Dataset, SlicePlan, make_slice_plan
from .errors import (
    DispatchError,
    InvalidArgument,
    MuError,
    NumericError,
    TrainingDiverged,
)
from .nn import (
    AdamHyper,
    Batch,
    ModelLayout,
    OptimizerState,
    ParameterVector,
    adam_step,
    combine,
    evaluate,
    init_params,
    loss_grad,
)
from .report import MetricsReport, RequestRow
from .store import Checkpoint, StateStore

STRATEGIES = ("prs", "dpus", "hs", "ohs")


@dataclass
class TrainConfig:
    """Sliced-training hyperparameters; defaults follow the benchmark setup
    (batch size 128, learning rate 0.005, Adam)."""

    num_slices: int = 4
    batch_size: int = 128
    learning_rate: float = 0.005
    epochs_per_slice: int = 1
    seed: int = 0
    phi: float = 0.0
    hidden_dims: tuple[int, ...] = (128, 128)

    def validate(self) -> None:
        if self.num_slices < 1:
            raise InvalidArgument("num_slices must be >= 1")
        if self.batch_size < 1:
            raise InvalidArgument("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise InvalidArgument("learning_rate must be positive")
        if self.epochs_per_slice < 1:
            raise InvalidArgument("epochs_per_slice must be >= 1")
        if self.seed < 0:
            raise InvalidArgument("seed must be non-negative")
        if self.phi < 0:
            raise InvalidArgument("phi must be non-negative")

    def hyper(self) -> AdamHyper:
        return AdamHyper(learning_rate=self.learning_rate)


@dataclass
class Model:
    params: ParameterVector


@dataclass(frozen=True)
class UnlearnRequest:
    sample_id: int
    requested_strategy: str = "hs"

    def __post_init__(self) -> None:
        if self.requested_strategy not in STRATEGIES:
            raise InvalidArgument(
                f"requested_strategy must be one of {STRATEGIES}, "
                f"got {self.requested_strategy!r}"
            )


@dataclass
class UnlearnOutcome:
    strategy_executed: str  # prs | dpus | ohs | noop-consumed
    located_at: tuple[int, int]
    wall_time: float
    params_after: ParameterVector
    checkpoints_rewritten: list[int] = field(default_factory=list)


def sample_request_ids(plan: SlicePlan, count: int, seed: int) -> list[int]:
    """Draw distinct live ids uniformly without replacement."""
    live = plan.live_ids()
    if not 0 <= count <= live.size:
        raise InvalidArgument(f"cannot draw {count} requests from {live.size} live ids")
    if seed < 0:
        raise InvalidArgument(f"seed must be non-negative, got {seed}")
    picked = np.random.default_rng(seed).choice(live, size=count, replace=False)
    return [int(x) for x in picked]


def train_batches(
    params: ParameterVector,
    state: OptimizerState,
    batches: Iterable[tuple[int, int, Batch]],
    where: str,
    deltas: np.ndarray | None = None,
) -> tuple[ParameterVector, OptimizerState]:
    """Take one Adam step per ``(epoch, j, batch)`` of ``batches``, in order.

    A non-finite loss or gradient raises TrainingDiverged naming ``where``
    and the epoch. With ``deltas`` given, each step's parameter change is
    added to row ``deltas[j]``; Adam returns fresh vectors, so the step
    before stays available for the difference without a copy.
    """
    for epoch, j, batch in batches:
        loss, grad = loss_grad(params, batch)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss in {where}, epoch {epoch}")
        try:
            stepped, state = adam_step(params, state, grad)
        except NumericError as exc:
            raise TrainingDiverged(f"non-finite gradient in {where}, epoch {epoch}") from exc
        if deltas is not None:
            deltas[j] += stepped.values - params.values
        params = stepped
    return params, state


class UnlearnEngine:
    """Owns the dataset view, slice plan, state store and current model."""

    def __init__(self, dataset: Dataset, config: TrainConfig, ohs_depth: int | None = None):
        config.validate()
        if config.num_slices > dataset.n:
            raise InvalidArgument("num_slices cannot exceed the dataset size")
        self.dataset = dataset
        self.config = config
        self.layout = ModelLayout(dataset.feature_dim, config.hidden_dims, 2)
        decision = compute_threshold(
            CostConfig(n=dataset.n, num_slices=config.num_slices, phi=config.phi)
        )
        self.threshold = decision.t
        self.default_ohs_depth = decision.r if ohs_depth is None else int(ohs_depth)
        if not 0 <= self.default_ohs_depth <= config.num_slices:
            raise InvalidArgument("ohs_depth must be in [0, num_slices]")
        self.plan = make_slice_plan(dataset, config.num_slices, config.batch_size, config.seed)
        self.store = StateStore(
            layout=self.layout,
            num_slices=config.num_slices,
            threshold=self.threshold,
            n=dataset.n,
            batch_size=config.batch_size,
            seeds={"train": config.seed},
            hyper=config.hyper(),
            epochs_per_slice=config.epochs_per_slice,
            phi=config.phi,
        )
        self.model: Model | None = None

    # ---- construction helpers -----------------------------------------
    @classmethod
    def train(cls, dataset: Dataset, config: TrainConfig, ohs_depth: int | None = None):
        engine = cls(dataset, config, ohs_depth=ohs_depth)
        engine.fit()
        return engine

    @classmethod
    def from_store(cls, dataset: Dataset, store: StateStore, ohs_depth: int | None = None):
        """Rebuild a live engine around a loaded store."""
        if store.n != dataset.n:
            raise InvalidArgument(
                f"store was trained on n={store.n}, dataset has n={dataset.n}"
            )
        if store.dataset_fingerprint and store.dataset_fingerprint != dataset.fingerprint():
            raise InvalidArgument("dataset fingerprint does not match the store")
        config = TrainConfig(
            num_slices=store.num_slices,
            batch_size=store.batch_size,
            learning_rate=store.hyper.learning_rate,
            epochs_per_slice=store.epochs_per_slice,
            seed=int(store.seeds["train"]),
            phi=store.phi,
            hidden_dims=tuple(store.layout.hidden_dims),
        )
        engine = cls(dataset, config, ohs_depth=ohs_depth)
        engine.store = store
        engine.threshold = store.threshold
        for sid in store.tombstones:
            engine.plan = engine.plan.tombstone(sid)
        engine.model = Model(store.get_checkpoint(store.num_slices).params)
        return engine

    def clone(self) -> "UnlearnEngine":
        dup = copy.copy(self)
        dup.store = self.store.clone()
        if self.model is not None:
            dup.model = Model(self.model.params)
        return dup

    # ---- training -------------------------------------------------------
    def fit(self) -> Model:
        if self.model is not None:
            raise InvalidArgument("engine is already trained")
        params = init_params(self.layout, self.config.seed)
        state = OptimizerState.fresh(self.layout, self.config.hyper())
        self.store.set_tombstones(self.plan.tombstones)
        self.store.put_checkpoint(Checkpoint(0, params, state, self.store.plan_version))
        params, _ = self._train_slices(1, params, state)
        self.store.dataset_fingerprint = self.dataset.fingerprint()
        self.model = Model(params)
        return self.model

    def _train_slices(
        self, start_slice: int, params: ParameterVector, state: OptimizerState
    ) -> tuple[ParameterVector, list[int]]:
        """Train slices start_slice..S from (params, state), checkpointing each
        one; return the final params and the slices trained."""
        trained = list(range(start_slice, self.config.num_slices + 1))
        for k in trained:
            params, state = self._train_slice(params, state, k, record=k < self.threshold)
            self.store.put_checkpoint(Checkpoint(k, params, state, self.store.plan_version))
        return params, trained

    def _train_slice(
        self, params: ParameterVector, state: OptimizerState, slice_index: int, record: bool
    ) -> tuple[ParameterVector, OptimizerState]:
        """Run epochs_per_slice passes over one slice; optionally ledger deltas.

        Batch membership is fixed by the plan, so each batch is gathered once
        per call; each (slice, epoch) pass only shuffles the visit order, and a
        batch's summed delta stays attributable across epochs. The shuffle
        stream is derived from (seed, slice, epoch) and never from request
        history, which keeps suffix retraining bit-reproducible regardless of
        which revocation triggered it.
        """
        cfg = self.config
        nb = self.plan.num_batches(slice_index)
        gathered = []
        for j in range(1, nb + 1):
            ids = self.plan.batch_ids(slice_index, j)
            gathered.append(Batch(self.dataset.features[ids], self.dataset.labels[ids], ids))

        def batches():
            for epoch in range(1, cfg.epochs_per_slice + 1):
                order = np.random.default_rng((cfg.seed, slice_index, epoch)).permutation(nb)
                for j0 in (int(j) for j in order):
                    yield epoch, j0, gathered[j0]

        deltas = np.zeros((nb, self.layout.param_count)) if record else None
        params, state = train_batches(params, state, batches(), f"slice {slice_index}", deltas)
        if record:
            self.store.record_increment(slice_index, self.plan.slice_ids(slice_index), deltas)
        return params, state

    def _tombstone(self, sample_id: int) -> None:
        self.plan = self.plan.tombstone(sample_id)
        self.store.set_tombstones(self.plan.tombstones)

    def _require_model(self) -> Model:
        if self.model is None:
            raise InvalidArgument("engine is not trained yet")
        return self.model

    # ---- revocation -------------------------------------------------------
    def _unlearn(
        self, sample_id: int, strategy: str, depth: int | None = None, force: bool = False
    ) -> UnlearnOutcome:
        """Serve one revocation; every strategy entry point lands here.

        PRS, and HS or OHS at or above the threshold, tombstone the sample and
        retrain from its slice i, starting at checkpoint i-1. Otherwise the
        request amends at depth r (0 for DPUS and HS, the OHS depth for OHS):
        the sample's recorded batch delta is subtracted from the served
        parameters when r = 0, else from checkpoint S-r, which itself stays
        pristine, before slices S-r+1..S are retrained. DPUS at or above the
        threshold needs ``force``. An OHS depth with S-r < i would subtract a
        delta checkpoint S-r never saw, so that request retrains from slice i
        instead and reports ``prs``.

        The ledger is addressed by recording-time batch membership, since
        tombstoning re-chunks the live plan. A batch's delta is subtracted at
        most once; at r = 0 a later request hitting a consumed batch only
        tombstones.
        """
        model = self._require_model()
        t0 = time.perf_counter()
        num_slices = self.config.num_slices
        r = 0
        if strategy == "ohs":
            r = self.default_ohs_depth if depth is None else int(depth)
            if not 0 <= r <= num_slices:
                raise InvalidArgument("ohs depth must be in [0, num_slices]")
        i, j = self.plan.locate(sample_id)
        if strategy == "dpus" and i >= self.threshold and not force:
            raise DispatchError(
                f"sample {sample_id} sits in slice {i} >= threshold {self.threshold}; "
                "direct update requires force=True there"
            )
        amend = i <= num_slices - r and (
            strategy == "dpus" or (strategy != "prs" and i < self.threshold)
        )
        start = num_slices - r + 1 if amend else i
        base = self.store.get_checkpoint(start - 1) if start <= num_slices else None
        params = model.params if base is None else base.params
        executed = "prs"
        if amend:
            j = self.store.recorded_batch_index(i, sample_id)
            fresh = self.store.mark_consumed(i, j)
            executed = "ohs" if r else ("dpus" if fresh else "noop-consumed")
            if fresh:
                params = combine(params, self.store.get_increment(i, j), "-")
        self._tombstone(sample_id)
        rewritten = []
        if base is not None:
            self.store.plan_version += 1
            params, rewritten = self._train_slices(start, params, base.opt_state)
        params.values.flags.writeable = False
        model.params = params
        return UnlearnOutcome(executed, (i, j), time.perf_counter() - t0, params, rewritten)

    def unlearn_prs(self, sample_id: int) -> UnlearnOutcome:
        """Partial retraining: tombstone, roll back, retrain the suffix."""
        return self._unlearn(sample_id, "prs")

    def unlearn_dpus(self, sample_id: int, force: bool = False) -> UnlearnOutcome:
        """Direct parameter update: final params minus the sample's batch delta;
        at or above the threshold only with ``force``."""
        return self._unlearn(sample_id, "dpus", force=force)

    def unlearn_hs(self, sample_id: int) -> UnlearnOutcome:
        """Hybrid: direct update strictly below the threshold, else retraining."""
        return self._unlearn(sample_id, "hs")

    def unlearn_ohs(self, sample_id: int, depth: int | None = None) -> UnlearnOutcome:
        """Optimized hybrid: subtract at checkpoint S-r, retrain the last r
        slices; depth r = 0 is the direct update, samples at or above the
        threshold take plain retraining."""
        return self._unlearn(sample_id, "ohs", depth=depth)

    # ---- replay ---------------------------------------------------------
    def dispatch(self, request: UnlearnRequest) -> UnlearnOutcome:
        return self._unlearn(request.sample_id, request.requested_strategy, force=True)

    def process_stream(
        self,
        requests: Sequence[UnlearnRequest],
        eval_dataset: Dataset | None = None,
        strategy_label: str | None = None,
        config_hash: str | None = None,
    ) -> MetricsReport:
        """Serve requests in arrival order; abort on error with a partial report."""
        model = self._require_model()
        label = strategy_label or (requests[0].requested_strategy if requests else "hs")
        report = MetricsReport(
            strategy=label,
            num_slices=self.config.num_slices,
            phi=self.config.phi,
            t=self.threshold,
            r=self.default_ohs_depth,
            config_hash=config_hash,
        )
        if eval_dataset is not None:
            report.pre_accuracy = evaluate(model.params, eval_dataset)
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
                )
            )
        if eval_dataset is not None:
            report.final_accuracy = evaluate(model.params, eval_dataset)
        return report
