"""Command-line orchestration: mu train | replay | compare | audit | cost.

Configs are JSON files whose fields can be overridden by flags. Exit codes:
0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .costs import CostConfig, threshold as compute_threshold
from .data import Dataset, gen_synthetic, load_csv, split_dataset, split_ids
from .engine import STRATEGIES, TrainConfig, UnlearnEngine, UnlearnRequest, sample_request_ids
from .errors import ConfigError, InvalidArgument, MuError
from .mia import audit, build_attack_dataset, shuffle_member_labels, train_attack, train_shadows
from .store import StateStore

STRATEGY_ALIASES = {"sisa": "prs"}

# The JSON types each config field's annotation accepts; true/false are never numbers.
_JSON_TYPES = {
    "int": int,
    "int | None": (int, type(None)),
    "float": (int, float),
    "str": str,
    "dict": dict,
}
_DATASET_KEYS = {"synthetic": {"kind", "n", "dim", "seed"}, "csv": {"kind", "path", "label_column"}}


def engine_strategy(name: str) -> str:
    """The engine strategy behind a CLI strategy name or alias."""
    return STRATEGY_ALIASES.get(name, name)


@dataclass
class ExperimentConfig:
    dataset: dict = field(default_factory=lambda: {"kind": "synthetic", "n": 2000, "dim": 20, "seed": 3})
    num_slices: int = TrainConfig.num_slices
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    epochs_per_slice: int = TrainConfig.epochs_per_slice
    phi: float = TrainConfig.phi
    seed: int = TrainConfig.seed
    strategy: str = "hs"
    request_count: int = 100
    request_seed: int = 7
    eval_fraction: float = 0.2
    output_dir: str = "mu-out"
    ohs_depth: int | None = None
    shadow_count: int = 4
    shadow_split_seed: int = 5
    attack_seed: int = 11

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**raw)

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[f.type]):
                raise ConfigError(f"config field {f.name!r} must have type {f.type}")
        self.train_config()  # TrainConfig checks its fields when built
        checks = [
            ("request_count", self.request_count >= 0, "must be non-negative"),
            ("request_seed", self.request_seed >= 0, "must be non-negative"),
            ("eval_fraction", 0 < self.eval_fraction < 1, "must be in (0, 1)"),
            ("shadow_count", self.shadow_count >= 1, "must be >= 1"),
            ("shadow_split_seed", self.shadow_split_seed >= 0, "must be non-negative"),
            ("attack_seed", self.attack_seed >= 0, "must be non-negative"),
        ]
        for name, ok, rule in checks:
            if not ok:
                raise ConfigError(f"config field {name!r} {rule}")
        if engine_strategy(self.strategy) not in STRATEGIES:
            raise ConfigError(
                f"config field 'strategy' must be one of {STRATEGIES + ('sisa',)}"
            )
        kind = self.dataset.get("kind")
        if kind not in ("synthetic", "csv"):
            raise ConfigError("config field 'dataset.kind' must be 'synthetic' or 'csv'")
        unknown = sorted(set(self.dataset) - _DATASET_KEYS[kind])
        if unknown:
            raise ConfigError(f"config field 'dataset.{unknown[0]}' is not a {kind} dataset field")
        if kind == "synthetic":
            for name, low in (("n", 2), ("dim", 1), ("seed", 0)):
                value = self.dataset.get(name, 0)
                if isinstance(value, bool) or not isinstance(value, int) or value < low:
                    raise ConfigError(f"config field 'dataset.{name}' must be an integer >= {low}")
        else:
            path = self.dataset.get("path")
            if not path or not isinstance(path, str):
                raise ConfigError("config field 'dataset.path' must name the csv file")
            if not isinstance(self.dataset.get("label_column", "label"), str):
                raise ConfigError("config field 'dataset.label_column' must be a column name")

    def config_hash(self) -> str:
        canon = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def resolved_output_dir(self) -> Path:
        root = os.environ.get("MU_OUTPUT_DIR", ".")
        path = Path(self.output_dir)
        return path if path.is_absolute() else Path(root) / path

    def train_config(self) -> TrainConfig:
        shared = [f.name for f in fields(TrainConfig) if f.name in self.__dataclass_fields__]
        return TrainConfig(**{name: getattr(self, name) for name in shared})

    def build_source(self) -> Dataset:
        kind = self.dataset["kind"]
        if kind == "synthetic":
            return gen_synthetic(
                self.dataset["n"], self.dataset["dim"], self.dataset.get("seed", 0)
            )
        return load_csv(self.dataset["path"], self.dataset.get("label_column", "label"))

    def build_datasets(self) -> tuple[Dataset, Dataset]:
        """Materialize the source and split off the held-out evaluation part."""
        return split_dataset(self.build_source(), self.eval_fraction, seed=self.seed)


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    for f in fields(ExperimentConfig):  # a field with no flag reads None
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
    if getattr(args, "synthetic", None):
        n, dim, seed = args.synthetic
        config.dataset = {"kind": "synthetic", "n": n, "dim": dim, "seed": seed}
    if getattr(args, "csv", None):
        config.dataset = {"kind": "csv", "path": args.csv, "label_column": args.label_column}
    return config


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    config = _apply_overrides(config, args)
    config.validate()
    return config


def cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = config.resolved_output_dir()
    store_dir = out / "store"
    if (store_dir / "manifest.json").exists() and not args.force:
        raise ConfigError(
            f"{store_dir} already holds a trained store; pass --force to overwrite"
        )
    train_ds, _ = config.build_datasets()
    engine = UnlearnEngine.train(train_ds, config.train_config(), ohs_depth=config.ohs_depth)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(asdict(config), indent=1), encoding="utf-8")
    engine.store.persist(store_dir)
    summary = {
        "t": engine.threshold,
        "r": engine.default_ohs_depth,
        "checkpoints": len(engine.store.checkpoints),
        "increments": sum(len(ledger.deltas) for ledger in engine.store.ledgers.values()),
        "config_hash": config.config_hash(),
    }
    (out / "model.json").write_text(
        json.dumps(
            {**summary, "dataset": train_ds.name, "n": train_ds.n,
             "feature_dim": train_ds.feature_dim},
            indent=1,
        ),
        encoding="utf-8",
    )
    print(json.dumps(summary))
    return 0


def _load_engine(config: ExperimentConfig) -> tuple[UnlearnEngine, Dataset, Dataset]:
    out = config.resolved_output_dir()
    store = StateStore.load(out / "store")
    train_ds, eval_ds = config.build_datasets()
    engine = UnlearnEngine.from_store(train_ds, store, ohs_depth=config.ohs_depth)
    return engine, train_ds, eval_ds


def _serve_stream(engine: UnlearnEngine, config: ExperimentConfig, strategy: str, eval_ds=None):
    """Serve the config's request stream under ``strategy``: its ids and a
    report labeled with ``strategy`` and the config's hash."""
    ids = sample_request_ids(engine.plan, config.request_count, config.request_seed)
    requests = [UnlearnRequest(i, engine_strategy(strategy)) for i in ids]
    report = engine.process_stream(requests, eval_ds)
    report.strategy, report.config_hash = strategy, config.config_hash()
    return ids, report


def cmd_replay(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = config.resolved_output_dir()
    engine, _, eval_ds = _load_engine(config)
    _, report = _serve_stream(engine, config, config.strategy, eval_ds)
    report.notes = "request stream is shared across strategies for paired comparison"
    report.write_json(out / "report.json")
    report.write_csv(out / "report.csv")
    print(
        json.dumps(
            {
                "requests": len(report.rows),
                "avg_unlearn_time_s": report.avg_unlearn_time_s,
                "pre_accuracy": report.pre_accuracy,
                "final_accuracy": report.final_accuracy,
                "partial": report.partial,
            }
        )
    )
    return 0 if not report.partial else 1


def cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = config.resolved_output_dir()
    out.mkdir(parents=True, exist_ok=True)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        raise ConfigError("--strategies must name at least one strategy")
    for s in strategies:
        if engine_strategy(s) not in STRATEGIES:
            raise ConfigError(f"unknown strategy {s!r} in --strategies")
    try:
        slice_counts = [int(s) for s in args.slice_counts.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--slice-counts must list integers, got {args.slice_counts!r}") from None
    if not slice_counts:
        raise ConfigError("--slice-counts must name at least one S")

    train_ds, eval_ds = config.build_datasets()
    least = max(1, config.ohs_depth or 0)  # every S trained takes the OHS depth
    for s_count in slice_counts:
        if not least <= s_count <= train_ds.n:
            raise ConfigError(
                f"--slice-counts value {s_count} must be in [{least}, {train_ds.n}]: "
                "at least 1 and the OHS depth, at most the training rows"
            )
    rows = []
    for s_count in slice_counts:
        trained: dict[float, UnlearnEngine] = {}
        for strategy in strategies:
            phi = 0.0 if engine_strategy(strategy) == "dpus" else config.phi
            if phi not in trained:
                cfg = replace(config.train_config(), num_slices=s_count, phi=phi)
                trained[phi] = UnlearnEngine.train(train_ds, cfg, ohs_depth=config.ohs_depth)
            engine = trained[phi].clone()
            _, report = _serve_stream(engine, config, strategy, eval_ds)
            rows.append(
                {
                    "strategy": strategy,
                    "S": s_count,
                    "phi": engine.config.phi,
                    "t": engine.threshold,
                    "r": engine.default_ohs_depth,
                    "avg_unlearn_time_s": report.avg_unlearn_time_s,
                    "pre_accuracy": report.pre_accuracy,
                    "final_accuracy": report.final_accuracy,
                }
            )
    with open(out / "comparison.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    payload = {
        "notes": "request stream is shared across strategies for paired comparison",
        "config": asdict(config),
        "config_hash": config.config_hash(),
        "rows": rows,
    }
    (out / "comparison.json").write_text(json.dumps(payload, indent=1), encoding="utf-8")
    print(json.dumps({"rows": len(rows), "output": str(out / "comparison.csv")}))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = config.resolved_output_dir()
    engine, _, _ = _load_engine(config)
    before_params = engine.model.params
    revoked, report = _serve_stream(engine, config, config.strategy)
    if report.partial:
        raise MuError(report.error)

    # Shadows split the full source half/half; the target's training rows are
    # a subset of it, so revoked ids are mapped into source-id space.
    source = config.build_source()
    revoked_in_source = split_ids(source.n, config.eval_fraction, config.seed)[0][revoked]
    shadows = train_shadows(
        source, config.shadow_count, engine.config, split_seed=config.shadow_split_seed
    )
    attack_set = build_attack_dataset(shadows, source)
    attack = train_attack(attack_set, seed=config.attack_seed)
    before = audit(attack, before_params, revoked_in_source, source)
    after = audit(attack, engine.model.params, revoked_in_source, source)
    result = {
        "attack_holdout_accuracy": attack.holdout_accuracy,
        "member_rate_before": before.member_rate,
        "member_rate_after": after.member_rate,
        "revoked_count": len(revoked),
        "verdicts_before": [int(v) for v in before.verdicts],
        "verdicts_after": [int(v) for v in after.verdicts],
        "config_hash": config.config_hash(),
    }
    if args.null_calibration:
        null_attack = train_attack(
            shuffle_member_labels(attack_set, seed=config.attack_seed + 1),
            seed=config.attack_seed,
        )
        result["null_calibration_accuracy"] = null_attack.holdout_accuracy
    (out / "audit.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(
        json.dumps(
            {
                "member_rate_before": result["member_rate_before"],
                "member_rate_after": result["member_rate_after"],
                "attack_holdout_accuracy": result["attack_holdout_accuracy"],
            }
        )
    )
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    result = compute_threshold(CostConfig(n=args.n, num_slices=args.slices, phi=args.phi))
    print(json.dumps({"costs": list(result.costs), "t": result.t, "r": result.r}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mu", description="Sliced-training machine-unlearning benchmark"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--num-slices", dest="num_slices", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--learning-rate", dest="learning_rate", type=float)
        p.add_argument("--epochs-per-slice", dest="epochs_per_slice", type=int)
        p.add_argument("--phi", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--strategy", choices=STRATEGIES + ("sisa",))
        p.add_argument("--request-count", dest="request_count", type=int)
        p.add_argument("--request-seed", dest="request_seed", type=int)
        p.add_argument("--eval-fraction", dest="eval_fraction", type=float)
        p.add_argument("--output-dir", dest="output_dir")
        p.add_argument("--ohs-depth", dest="ohs_depth", type=int)
        p.add_argument("--shadow-count", dest="shadow_count", type=int)
        p.add_argument("--attack-seed", dest="attack_seed", type=int)
        source = p.add_mutually_exclusive_group()
        source.add_argument(
            "--synthetic", nargs=3, type=int, metavar=("N", "DIM", "SEED"),
            help="use a synthetic dataset",
        )
        source.add_argument("--csv", help="use a CSV dataset at this path")
        p.add_argument("--label-column", dest="label_column", default="label")

    p_train = sub.add_parser("train", help="train and persist the sliced store")
    add_config_flags(p_train)
    p_train.add_argument("--force", action="store_true", help="overwrite an existing store")
    p_train.set_defaults(func=cmd_train)

    p_replay = sub.add_parser("replay", help="replay an unlearning request stream")
    add_config_flags(p_replay)
    p_replay.set_defaults(func=cmd_replay)

    p_compare = sub.add_parser("compare", help="compare strategies over slice counts")
    add_config_flags(p_compare)
    p_compare.add_argument("--strategies", default="dpus,sisa,hs,ohs")
    p_compare.add_argument("--slice-counts", dest="slice_counts", default="4")
    p_compare.set_defaults(func=cmd_compare)

    p_audit = sub.add_parser("audit", help="membership-inference audit of the configured stream")
    add_config_flags(p_audit)
    p_audit.add_argument("--null-calibration", action="store_true")
    p_audit.set_defaults(func=cmd_audit)

    p_cost = sub.add_parser("cost", help="print retraining costs and the threshold")
    p_cost.add_argument("--n", type=int, required=True)
    p_cost.add_argument("--slices", type=int, required=True)
    p_cost.add_argument("--phi", type=float, required=True)
    p_cost.set_defaults(func=cmd_cost)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidArgument) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (MuError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
