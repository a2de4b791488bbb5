"""The benchmark's workloads: set-up, the closed-loop request stream, the
restart and the correctness checks.

One closed-loop caller serves each stream: it sends the next request only
after the previous one returned, because ``UnlearnEngine`` serialises all
mutation and a replay drains pending revocations in arrival order. An
*episode* serves one stream of distinct live ids, drawn uniformly by
``sample_request_ids``, against a fresh clone of the trained engine. A run
repeats episodes, each with the next stream of the seed's sequence, until its
measuring time is used up. Averaging over several streams keeps the
seed-to-seed spread of the path mix and of the accuracy small; the expected
value of every metric does not depend on how many episodes fit.

The library sees only the generated inputs. All calls go through the public
``mubench`` API, looked up at call time so the tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mubench
from mubench import CostConfig, StateStore, TrainConfig, UnlearnEngine, UnlearnRequest, retrain_cost
from mubench.errors import AlreadyRevoked, MuError

from tracer import LayerTotals, Tracer, accounting, self_times

SLICES = 8
BATCH = 128
FEATURES = 20
EVAL_FRACTION = 0.2
SETUP_REPEATS = 5
RESTART_SHARE = 1 / 5  # of the run's stream time, spent restarting
ACCOUNTING_TOLERANCE = 0.005  # share of stream wall time

# mia-audit: criterion 9's overfit regime (S=4, batch 64, 25 epochs per slice).
# Its stream is OHS at t=4, r=1, so every request retrains exactly slice 4
# and the latency has one mode; HS or t=3 would put the median between modes.
MIA_FEATURES = 24
MIA_SLICES = 4
MIA_BATCH = 64


@dataclass(frozen=True)
class Spec:
    name: str
    strategy: str
    # phi = (n/S) * sum(phi_slices): () gives phi=0, so no retraining is
    # affordable (t=S+1) and every slice records increments; (6, 7, 8) gives
    # t=6 and r=3 at S=8; (4,) gives t=4 and r=1 at S=4.
    phi_slices: tuple[int, ...]
    durable: bool = False  # persist after every request before acknowledging it
    audited: bool = False  # train a shadow-model auditor and audit the stream


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec("dpus-direct", "dpus", ()),
        Spec("ohs-retrain", "ohs", (6, 7, 8)),
        Spec("hs-durable", "hs", (6, 7, 8), durable=True),
        Spec("mia-audit", "ohs", (4,), audited=True),
    )
}


@dataclass(frozen=True)
class Sizes:
    rows: int  # generated rows; 1 - EVAL_FRACTION of them train the engine
    pool: int  # mia-audit pool; the target trains on its first half
    shadows: int
    mia_epochs: int
    requests: dict


FULL = Sizes(
    rows=62_500,
    pool=1_000,
    shadows=8,
    mia_epochs=25,
    requests={"dpus-direct": 400, "ohs-retrain": 100, "hs-durable": 100, "mia-audit": 100},
)
TINY = Sizes(
    rows=1_250,
    pool=200,
    shadows=2,
    mia_epochs=3,
    requests={"dpus-direct": 20, "ohs-retrain": 10, "hs-durable": 10, "mia-audit": 10},
)


@dataclass(frozen=True)
class Seeds:
    """Independent streams derived from the workload seed."""

    data: int
    split: int
    train: int
    requests: int
    audit: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        return cls(*(int(x) for x in np.random.SeedSequence(seed).generate_state(5)))

    def stream(self, k: int) -> int:
        """Seed of the k-th request stream."""
        return int(np.random.SeedSequence([self.requests, k]).generate_state(1)[0])


@dataclass
class Service:
    engine: UnlearnEngine  # as trained; each episode serves a clone
    train: mubench.Dataset
    held_out: mubench.Dataset
    requests: int  # per stream
    attack: mubench.AttackModel | None = None  # mia-audit's auditor
    pool: mubench.Dataset | None = None  # mia-audit's pool; target ids are pool ids


@dataclass
class Episode:
    ids: list[int]
    # per request: (strategy_executed, located_at), None where it failed
    outcomes: list[tuple[str, tuple[int, int]] | None] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # per served request
    errors: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    attempted: int = 0
    started: float = 0.0
    wall_s: float = 0.0
    span_range: tuple[int, int] = (0, 0)
    accuracy: float = 0.0
    audit: dict = field(default_factory=dict)  # mia-audit's rates and audit time
    restart_times: list[float] = field(default_factory=list)
    restarted_accuracy: float = 0.0
    restart_param_diff: float = 0.0
    persisted: tuple[int, int, int] = (0, 0, 0)  # bytes, files, manifest bytes


def _phase(tracer: Tracer | None, name: str):
    return tracer.phase(name) if tracer is not None else contextlib.nullcontext()


def set_up(spec: Spec, sizes: Sizes, seeds: Seeds) -> Service:
    """Everything before the first request: data, split, training and, for
    mia-audit, the shadow-model auditor."""
    requests = sizes.requests[spec.name]
    if not spec.audited:
        source = mubench.gen_synthetic(sizes.rows, FEATURES, seeds.data)
        train, held_out = mubench.split_dataset(source, EVAL_FRACTION, seeds.split)
        phi = train.n / SLICES * sum(spec.phi_slices)
        config = TrainConfig(num_slices=SLICES, batch_size=BATCH, seed=seeds.train, phi=phi)
        return Service(UnlearnEngine.train(train, config), train, held_out, requests)
    pool = mubench.gen_synthetic(sizes.pool, MIA_FEATURES, seeds.data)
    half = pool.n // 2
    # Target ids 0..half-1 are pool ids 0..half-1; the rest never train it.
    target = pool.subset(np.arange(half), f"{pool.name}-target")
    held_out = pool.subset(np.arange(half, pool.n), f"{pool.name}-nonmembers")
    config = TrainConfig(
        num_slices=MIA_SLICES,
        batch_size=MIA_BATCH,
        epochs_per_slice=sizes.mia_epochs,
        seed=seeds.train,
        phi=half / MIA_SLICES * sum(spec.phi_slices),
    )
    engine = UnlearnEngine.train(target, config)
    shadows = mubench.train_shadows(pool, sizes.shadows, config, split_seed=seeds.audit)
    attack = mubench.train_attack(mubench.build_attack_dataset(shadows, pool), seed=seeds.audit)
    return Service(engine, target, held_out, requests, attack, pool)


def run_episode(spec: Spec, service: Service, seeds: Seeds, k: int, store_dir: Path,
                tracer: Tracer | None = None, restart_owed_s: float | None = 0.0) -> Episode:
    """Serve the k-th stream, in order, against a clone of the trained engine;
    evaluate (and audit) the served model; persist, restart from the store;
    check the outcome.

    Restarts keep the run's restart time at RESTART_SHARE of its stream time:
    ``restart_owed_s`` is what earlier episodes left unspent (negative when
    they overspent). An episode with nothing to spend skips the restart; the
    first episode always has something. A traced episode restarts once.
    ``None`` ends the episode after its stream.
    """
    ids = mubench.sample_request_ids(service.engine.plan, service.requests, seeds.stream(k))
    episode = Episode(ids)
    engine = service.engine.clone()
    if spec.durable:  # the service starts from a durable store
        engine.store.persist(store_dir)
    spans = tracer.spans if tracer is not None else []
    with _phase(tracer, "stream"):
        lo = len(spans)
        episode.started = time.perf_counter()
        for i, sid in enumerate(ids):
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter()
            try:
                episode.attempted += 1
                outcome = engine.dispatch(UnlearnRequest(sid, spec.strategy))
                if spec.durable:  # acknowledged only once durable
                    episode.attempted += 1
                    engine.store.persist(store_dir)
            except MuError as exc:
                episode.errors.append(f"stream {k}, request {i} (sample {sid}): {exc}")
                episode.outcomes.append(None)
                continue
            episode.latencies.append(time.perf_counter() - t0)
            episode.outcomes.append((outcome.strategy_executed, outcome.located_at))
        episode.wall_s = time.perf_counter() - episode.started
        episode.span_range = (lo, len(spans))
    if restart_owed_s is None:
        return episode

    with _phase(tracer, "after"):
        episode.accuracy = mubench.evaluate(engine.model.params, service.held_out)
        if service.attack is not None:
            episode.audit = _audit(service, seeds, k, ids, engine)
    revoked = [sid for sid, outcome in zip(ids, episode.outcomes) if outcome is not None]
    episode.violations = dispatch_violations(spec, service, episode) + state_violations(
        f"stream {k} in memory", engine, revoked
    )
    budget_s = restart_owed_s + RESTART_SHARE * episode.wall_s
    if budget_s <= 0 and tracer is None:
        return episode
    with _phase(tracer, "restart"):
        try:
            if not spec.durable:
                episode.attempted += 1
                engine.store.persist(store_dir)
            while not episode.restart_times or (
                tracer is None and sum(episode.restart_times) < budget_s
            ):
                episode.attempted += 1
                t0 = time.perf_counter()
                restarted = UnlearnEngine.from_store(service.train, StateStore.load(store_dir))
                episode.restart_times.append(time.perf_counter() - t0)
        except MuError as exc:  # a store that does not load fails the run's checks
            episode.errors.append(f"stream {k}, persist or restart: {exc}")
            shutil.rmtree(store_dir, ignore_errors=True)
            return episode
        episode.restarted_accuracy = mubench.evaluate(restarted.model.params, service.held_out)

    episode.violations += state_violations(f"stream {k} after restart", restarted, revoked)
    # Not gated: from_store serves checkpoint S, which never saw the
    # direct-update subtractions, so a restart undoes them.
    episode.restart_param_diff = float(
        np.max(np.abs(restarted.model.params.values - engine.model.params.values))
    )
    episode.persisted = store_bytes(store_dir)
    shutil.rmtree(store_dir)
    return episode


def _audit(service: Service, seeds: Seeds, k: int, ids: list[int], served: UnlearnEngine) -> dict:
    """Member rates of the revoked ids before and after the stream, and of as
    many pool ids the target never trained on."""
    pool, attack = service.pool, service.attack
    revoked = np.asarray(ids, dtype=np.int64)
    controls = np.random.default_rng(seeds.stream(k)).choice(
        np.arange(service.train.n, pool.n), len(ids), replace=False
    )
    t0 = time.perf_counter()
    before = mubench.audit(attack, service.engine.model.params, revoked, pool).member_rate
    after = mubench.audit(attack, served.model.params, revoked, pool).member_rate
    nonmember = mubench.audit(attack, served.model.params, controls, pool).member_rate
    return {
        "audit_calls_s": time.perf_counter() - t0,
        "member_rate_before": before,
        "revoked_member_rate": after,
        "nonmember_rate": nonmember,
    }


def dispatch_violations(spec: Spec, service: Service, episode: Episode) -> list[str]:
    """The executed path must follow the dispatch rule for the sample's slice.

    Tombstoning re-chunks batches but never moves an id to another slice, so
    each id's slice is read from the plan as trained.
    """
    engine = service.engine
    t, r = engine.threshold, engine.default_ohs_depth
    direct = {"dpus", "noop-consumed"}
    out = []
    for sid, outcome in zip(episode.ids, episode.outcomes):
        if outcome is None:
            continue
        i = engine.plan.locate(sid)[0]
        if spec.strategy == "dpus":
            allowed = direct
        elif i >= t:
            allowed = {"prs"}
        elif spec.strategy == "hs" or r == 0:
            allowed = direct
        else:
            allowed = {"ohs"}
        executed, located_at = outcome
        if executed not in allowed or located_at[0] != i:
            out.append(
                f"sample {sid} in slice {i} (t={t}, r={r}) took {executed} "
                f"at {located_at}, expected one of {sorted(allowed)}"
            )
    return out


def state_violations(label: str, engine: UnlearnEngine, revoked: list[int]) -> list[str]:
    """Revoked ids stay revoked, slice sizes add up, parameters are finite."""
    out = []
    for sid in revoked:
        try:
            engine.plan.locate(sid)
        except AlreadyRevoked:
            continue
        except MuError as exc:
            out.append(f"{label}: locate({sid}) raised {type(exc).__name__}, not AlreadyRevoked")
            continue
        out.append(f"{label}: revoked sample {sid} is still located in the plan")
    sizes = sum(engine.plan.slice_sizes())
    if sizes != engine.dataset.n - len(revoked):
        out.append(f"{label}: slice sizes sum to {sizes}, not n - {len(revoked)} revoked")
    if sorted(engine.store.tombstones) != sorted(revoked):
        out.append(f"{label}: the store's tombstones differ from the revoked ids")
    if not engine.model.params.is_finite():
        out.append(f"{label}: parameters are not finite")
    return out


def store_bytes(store_dir: Path) -> tuple[int, int, int]:
    """(total bytes, file count, manifest bytes) of a persisted store."""
    files = [p for p in store_dir.iterdir() if p.is_file()]
    total = sum(p.stat().st_size for p in files)
    return total, len(files), (store_dir / "manifest.json").stat().st_size


def path_counts(episodes: list[Episode]) -> dict[str, float]:
    """Executed paths per episode, averaged over the episodes."""
    counts = dict.fromkeys(("dpus", "prs", "ohs", "noop-consumed"), 0)
    for episode in episodes:
        for outcome in episode.outcomes:
            if outcome is not None:
                counts[outcome[0]] += 1
    return {path: count / len(episodes) for path, count in counts.items()}


def predicted_rows(engine: UnlearnEngine, episodes: list[Episode]) -> float:
    """retrain_cost(i) summed over the requests that retrain, per episode:
    PRS restarts at the sample's slice, OHS at slice S - r + 1."""
    s = engine.config.num_slices
    cfg = CostConfig(n=engine.dataset.n, num_slices=s, phi=engine.config.phi)
    total = 0.0
    for episode in episodes:
        for outcome in episode.outcomes:
            if outcome is not None and outcome[0] in ("prs", "ohs"):
                i = outcome[1][0] if outcome[0] == "prs" else s - engine.default_ohs_depth + 1
                total += retrain_cost(i, cfg)
    return total / len(episodes)


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


@dataclass
class Result:
    metrics: dict  # name -> (value, unit)
    attempted: int
    failed: int
    violations: list[str]
    notes: dict  # workload-specific figures printed with the report


def run(spec: Spec, sizes: Sizes, seed: int, seconds: float, work_dir: Path,
        tracer: Tracer | None = None) -> Result:
    """One benchmark run. Untraced runs give the end-to-end metrics; a traced
    run (``tracer`` given) gives the per-layer metrics instead."""
    seeds = Seeds.derive(seed)
    store_dir = work_dir / "store"

    setup_times = []
    for _ in range(1 if tracer is not None else SETUP_REPEATS):
        service = None  # let the previous engine go before building the next
        t0 = time.perf_counter()
        with _phase(tracer, "setup"):
            service = set_up(spec, sizes, seeds)
        setup_times.append(time.perf_counter() - t0)

    episodes, untraced = [], []
    owed_s = 0.0
    began = time.perf_counter()
    while not episodes or time.perf_counter() - began < seconds:
        k = len(episodes)
        if tracer is not None:  # pair each traced stream with an untraced one
            untraced.append(run_episode(spec, service, seeds, k, store_dir, restart_owed_s=None))
        episode = run_episode(spec, service, seeds, k, store_dir, tracer, owed_s)
        owed_s += RESTART_SHARE * episode.wall_s - sum(episode.restart_times)
        episodes.append(episode)
    restarted = [e for e in episodes if e.persisted[1]] or [Episode([], restart_times=[0.0])]

    attempted = sum(e.attempted for e in episodes)
    errors = [err for e in episodes for err in e.errors]
    violations = errors + [v for e in episodes for v in e.violations]
    restart_times = [t for e in restarted for t in e.restart_times]
    notes = {
        "episodes": len(episodes),
        "requests_per_stream": service.requests,
        "latency_samples": sum(len(e.latencies) for e in episodes),
        "restarts": len(restart_times),
        "t": service.engine.threshold,
        "r": service.engine.default_ohs_depth,
        "paths_per_stream": path_counts(episodes),
        "restarted_accuracy": _mean(e.restarted_accuracy for e in restarted),
        "restart_param_diff": max(e.restart_param_diff for e in restarted),
    }
    if service.attack is not None:
        notes["attack_holdout_accuracy"] = service.attack.holdout_accuracy
        for key in episodes[0].audit:
            notes[key] = _mean(e.audit[key] for e in episodes)

    if tracer is not None:
        selfs = self_times(tracer.spans)
        for k, episode in enumerate(episodes):
            lo, hi = episode.span_range
            end = episode.started + episode.wall_s
            span_s, harness_s = accounting(tracer.spans, selfs, lo, hi, episode.started, end)
            notes.setdefault("accounting", []).append(
                {"wall_s": episode.wall_s, "span_self_s": span_s, "harness_s": harness_s}
            )
            if harness_s < 0 or abs(span_s + harness_s - episode.wall_s) > (
                ACCOUNTING_TOLERANCE * episode.wall_s
            ):
                violations.append(
                    f"traced stream {k}: span self time {span_s:.6f} s + harness "
                    f"{harness_s:.6f} s misses the stream wall time {episode.wall_s:.6f} s"
                )
        overhead = statistics.median(e.wall_s for e in episodes) - statistics.median(
            e.wall_s for e in untraced
        )
        totals = LayerTotals(tracer.spans, selfs, len(episodes))
        metrics = layer_metrics(totals, service, episodes, notes, overhead, restarted[0].persisted)
        return Result(metrics, attempted, len(errors), violations, notes)

    # The host's CPUs switch between two speeds every fraction of a second, and
    # the share of time spent slow drifts from minute to minute. A median lands
    # in whichever state held more of the run, and a 10th percentile leaves
    # the fast state when a run has little of it; a 90th percentile stays in
    # the slow state, and throughput weighs both states by their time.
    latencies = [x for e in episodes for x in e.latencies]
    for q in (10, 50):
        notes[f"request_p{q}_ms"] = float(np.percentile(latencies, q)) * 1e3
    notes["restart_p50_s"] = float(np.percentile(restart_times, 50))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "request_p90_ms": (float(np.percentile(latencies, 90)) * 1e3, "ms"),
        "requests_per_s": (len(latencies) / sum(e.wall_s for e in episodes), "1/s"),
        "final_accuracy": (_mean(e.accuracy for e in episodes), "fraction"),
        "success_rate": ((attempted - len(errors)) / attempted, "fraction"),
        "restart_s": (float(np.percentile(restart_times, 90)), "s"),
        "store_mb": (restarted[0].persisted[0] / 1e6, "MB"),
        "peak_rss_mb": (peak_rss_bytes() / 1e6, "MB"),
    }
    return Result(metrics, attempted, len(errors), violations, notes)


# Layer metrics taken straight from the span totals.
_CALLS_AND_SELF = (
    "nn.loss_grad", "nn.adam_step", "nn.combine", "data.tombstone", "data.locate",
    "data.batch_ids", "store.persist", "store.recorded_batch_index", "store.set_tombstones",
    "engine.dispatch", "mia.fit_dense", "mia.audit",
)
_SELF_ONLY = (
    "nn.evaluate", "data.gen_synthetic", "data.make_slice_plan", "costs.threshold", "store.load",
    "engine.fit", "engine.from_store", "mia.train_shadows", "mia.build_attack_dataset",
    "mia.train_attack",
)
_CALLS_ONLY = (
    "store.get_increment", "store.get_checkpoint", "store.put_checkpoint",
    "store.record_increment", "store.mark_consumed",
)
_AUDITOR_SPANS = ("mia.train_shadows", "mia.build_attack_dataset", "mia.train_attack", "mia.audit")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: LayerTotals, service: Service, episodes: list[Episode], notes: dict,
                  overhead_s: float, persisted: tuple[int, int, int]) -> dict:
    """Per-layer metrics of one traced run: the set-up once, each episode's
    phases averaged per episode. Ratios with a zero base read 0."""
    get = totals.get
    m = {}
    for name in _CALLS_AND_SELF + _CALLS_ONLY:
        m[f"{name}.calls"] = (get(name, "calls"), "count")
    for name in _CALLS_AND_SELF + _SELF_ONLY:
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    rows = get("nn.loss_grad", "rows")
    m["nn.loss_grad.rows"] = (rows, "rows")
    m["nn.loss_grad.gflop"] = (get("nn.loss_grad", "flops") / 1e9, "GFLOP")
    train_s = get("nn.loss_grad", "self_s") + get("nn.adam_step", "self_s")
    m["nn.train_rows_per_s"] = (_ratio(rows, train_s), "rows/s")

    predicted = predicted_rows(service.engine, episodes)
    rows_read = get("nn.loss_grad", "request_rows")
    m["costs.predicted_rows"] = (predicted, "rows")
    # every persist rewrites every file, so one call writes the whole store
    m["store.persist.bytes"] = (persisted[0], "B")
    m["store.persist.files"] = (persisted[1], "count")
    m["store.manifest_bytes"] = (persisted[2], "B")
    m["store.restart_param_diff"] = (notes["restart_param_diff"], "abs")

    paths = notes["paths_per_stream"]
    for path, count in paths.items():
        m[f"engine.path.{path}"] = (count, "count")
    m["engine.direct.useful_ratio"] = (
        _ratio(paths["dpus"], paths["dpus"] + paths["noop-consumed"]), "ratio"
    )
    m["engine.retrain.rows_read"] = (rows_read, "rows")
    m["engine.retrain.read_over_predicted"] = (_ratio(rows_read, predicted), "ratio")

    m["mia.audit_s"] = (sum(get(name, "wall_s") for name in _AUDITOR_SPANS), "s")
    for key in ("attack_holdout_accuracy", "member_rate_before", "nonmember_rate",
                "revoked_member_rate"):
        m[f"mia.{key}"] = (notes.get(key, 0.0), "fraction")
    m["trace.overhead_s"] = (overhead_s, "s")
    return {name: (float(value), unit) for name, (value, unit) in m.items()}
