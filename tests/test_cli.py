import csv
import hashlib
import json

import numpy as np
import pytest

from mubench import (
    StateStore, TrainConfig, UnlearnEngine, UnlearnRequest, audit, cli, sample_request_ids,
)
from mubench.cli import ExperimentConfig, main
from mubench.errors import NotFound


@pytest.fixture()
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("MU_OUTPUT_DIR", str(tmp_path))
    return tmp_path


def write_config(tmp_path, **overrides):
    config = {
        "dataset": {"kind": "synthetic", "n": 500, "dim": 12, "seed": 9},
        "num_slices": 4,
        "batch_size": 64,
        "epochs_per_slice": 1,
        "phi": 400.0,
        "seed": 2,
        "strategy": "hs",
        "request_count": 20,
        "request_seed": 21,
        "eval_fraction": 0.2,
        "output_dir": "run",
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


# ----------------------------------------------------------------------- cost
def test_cost_worked_example(capsys):
    assert main(["cost", "--n", "1000", "--slices", "4", "--phi", "2000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["t"] == 3 and out["r"] == 2
    assert out["costs"] == [2500.0, 2250.0, 1750.0, 1000.0]


@pytest.mark.parametrize("phi,t,r", [("10000", 1, 4), ("500", 5, 0)])
def test_cost_boundaries(capsys, phi, t, r):
    assert main(["cost", "--n", "1000", "--slices", "4", "--phi", phi]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["t"], out["r"]) == (t, r)


def test_cost_rejects_s_above_n():
    assert main(["cost", "--n", "10", "--slices", "11", "--phi", "5"]) == 2


@pytest.mark.parametrize("phi", ["nan", "inf"])
def test_cost_rejects_a_non_finite_phi(capsys, phi):
    assert main(["cost", "--n", "100", "--slices", "4", "--phi", phi]) == 2
    assert "configuration error: phi must be a finite real number" in capsys.readouterr().err


# ---------------------------------------------------------------------- train
def test_train_writes_store_and_model(out_root, capsys):
    cfg = write_config(out_root)
    assert main(["train", "--config", str(cfg)]) == 0
    printed = json.loads(capsys.readouterr().out)
    run = out_root / "run"
    checkpoints = sorted(p.name for p in (run / "store").glob("checkpoint_*.muck"))
    assert checkpoints == [f"checkpoint_{i:04d}.muck" for i in range(1, 5)]  # 0 is derived
    assert (run / "store" / "manifest.json").exists()
    assert (run / "model.json").exists()
    assert (run / "config.json").exists()
    assert printed["checkpoints"] == 5


def test_train_refuses_overwrite_without_force(out_root):
    cfg = write_config(out_root)
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 2
    assert main(["train", "--config", str(cfg), "--force"]) == 0


@pytest.mark.parametrize(
    "overrides,flags,field",
    [
        ({"num_slices": 0}, [], "num_slices"),
        ({"shadow_split_seed": -1}, [], "shadow_split_seed"),
        ({"dataset": {"kind": "synthetic", "n": 500, "dim": 12, "seed": -3}}, [], "dataset.seed"),
        ({}, ["--request-seed", "-1"], "request_seed"),
        ({}, ["--attack-seed", "-1"], "attack_seed"),
        ({}, ["--synthetic", "400", "8", "-3"], "dataset.seed"),
        ({}, ["--synthetic", "400", "8.5", "3"], "--synthetic"),
        ({"num_slices": "4"}, [], "num_slices"),
        ({"phi": None}, [], "phi"),
        ({"dataset": {"kind": "synthetic", "n": "many", "dim": 12, "seed": 9}}, [], "dataset.n"),
        ({"seed": True}, [], "seed"),
        ({"dataset": {"kind": "csv", "path": 5}}, [], "dataset.path"),
        ({"dataset": {"kind": "synthetic", "n": 300, "dim": 4, "seeed": 9}}, [], "dataset.seeed"),
        ({"dataset": {"kind": "csv", "path": "d.csv", "n": 300}}, [], "dataset.n"),
        ({"dataset": {"kind": "csv", "path": "d.csv", "label_column": 5}}, [],
         "dataset.label_column"),
    ],
    ids=["num_slices", "shadow_split_seed", "dataset_seed", "request_seed", "attack_seed",
         "synthetic_seed", "synthetic_not_int", "num_slices_string", "phi_null",
         "dataset_n_string", "seed_bool", "csv_path_not_string", "synthetic_unknown_key",
         "csv_unknown_key", "csv_label_column_not_string"],
)
def test_train_invalid_slices_names_field(out_root, capsys, overrides, flags, field):
    cfg = write_config(out_root, **overrides)
    try:
        code = main(["train", "--config", str(cfg), *flags])
    except SystemExit as exc:  # argparse rejects a malformed flag value itself
        code = exc.code
    assert code == 2
    assert field in capsys.readouterr().err


def test_default_config_trains_under_the_default_recipe():
    assert ExperimentConfig().train_config() == TrainConfig()


def test_unknown_config_field_rejected(out_root):
    path = out_root / "bad.json"
    for raw in ({"no_such_field": 1}, 5, None):  # the last two are not JSON objects
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 2


@pytest.mark.parametrize("command", ["train", "replay", "compare", "audit"])
def test_synthetic_and_csv_are_exclusive(out_root, capsys, command):
    """Naming both dataset sources is argparse's usage error, before anything
    is read or written."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--synthetic", "400", "6", "1", "--csv", str(out_root / "d.csv")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert list(out_root.iterdir()) == []


# --------------------------------------------------------------------- replay
def test_replay_report_files(out_root, capsys):
    cfg = write_config(out_root)
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["replay", "--config", str(cfg)]) == 0
    run = out_root / "run"
    report = json.loads((run / "report.json").read_text())
    assert report["summary"]["request_count"] == 20
    assert report["summary"]["final_accuracy"] is not None
    assert len(report["rows"]) == 20
    assert report["config_hash"]
    assert set(report["environment"]) == {"python", "numpy", "platform"}
    with open(run / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "strategy_executed", "slice", "batch", "wall_time_s", "rows_read"]
    assert len(rows) == 1 + 20 + 2  # header + rows + footer
    assert rows[-2][0] == "average_time_s"
    assert rows[-1][0] == "final_accuracy"
    assert not (run / "revoked_ids.json").exists()
    assert not (run / "params_after.muck").exists()


def test_replay_missing_store_fails(out_root):
    cfg = write_config(out_root, output_dir="never-trained")
    assert main(["replay", "--config", str(cfg)]) == 1


def test_replay_damaged_manifest_fails(out_root, capsys):
    cfg = write_config(out_root)
    assert main(["train", "--config", str(cfg)]) == 0
    manifest_path = out_root / "run" / "store" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["ledgers"][0].update(slice=0, file="ledger_0000.muck")
    manifest_path.write_text(json.dumps(manifest))
    assert main(["replay", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "error: ledger_0000.muck: increments are recorded only for slices below" in err


def test_replay_store_missing_a_checkpoint_fails(out_root, capsys):
    cfg = write_config(out_root)
    assert main(["train", "--config", str(cfg)]) == 0
    manifest_path = out_root / "run" / "store" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["checkpoints"] = [e for e in manifest["checkpoints"] if e["slice"] != 2]
    manifest_path.write_text(json.dumps(manifest))
    assert main(["replay", "--config", str(cfg)]) == 1
    assert "error: store has no checkpoint for slice 2" in capsys.readouterr().err


def test_replay_zero_requests(out_root):
    cfg = write_config(out_root, request_count=0)
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["replay", "--config", str(cfg)]) == 0
    report = json.loads((out_root / "run" / "report.json").read_text())
    assert report["rows"] == []
    assert report["summary"]["pre_accuracy"] == report["summary"]["final_accuracy"]


def test_replay_deterministic_apart_from_timing(out_root):
    cfg = write_config(out_root)
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["replay", "--config", str(cfg)]) == 0
    first = json.loads((out_root / "run" / "report.json").read_text())
    assert main(["replay", "--config", str(cfg)]) == 0
    second = json.loads((out_root / "run" / "report.json").read_text())
    assert first["summary"]["final_accuracy"] == second["summary"]["final_accuracy"]
    strip = lambda rows: [(r["index"], r["strategy_executed"], r["slice"], r["batch"]) for r in rows]
    assert strip(first["rows"]) == strip(second["rows"])
    assert first["config_hash"] == second["config_hash"]


# -------------------------------------------------------------------- compare
def test_compare_table(out_root):
    cfg = write_config(out_root, request_count=8, output_dir="cmp")
    rc = main(
        ["compare", "--config", str(cfg), "--strategies", "dpus,sisa,hs,ohs",
         "--slice-counts", "2,4"]
    )
    assert rc == 0
    payload = json.loads((out_root / "cmp" / "comparison.json").read_text())
    assert payload["notes"]
    rows = payload["rows"]
    assert len(rows) == 8
    assert {(r["strategy"], r["S"]) for r in rows} == {
        (s, n) for s in ("dpus", "sisa", "hs", "ohs") for n in (2, 4)
    }
    dpus_rows = [r for r in rows if r["strategy"] == "dpus"]
    assert all(r["t"] == r["S"] + 1 for r in dpus_rows)
    with open(out_root / "cmp" / "comparison.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert len(table) == 9


def test_compare_serves_at_the_configured_ohs_depth(out_root, capsys):
    """``ohs_depth`` reaches every engine that compare trains, as it does in
    train and replay; a depth past some S is a configuration error, raised
    before any training."""
    cfg = write_config(out_root, request_count=5, output_dir="cmp", ohs_depth=1, phi=300.0)
    args = ["compare", "--config", str(cfg), "--strategies", "ohs,hs"]
    assert main(args + ["--slice-counts", "2,4"]) == 0
    rows = json.loads((out_root / "cmp" / "comparison.json").read_text())["rows"]
    assert [(r["S"], r["r"]) for r in rows] == [(2, 1), (2, 1), (4, 1), (4, 1)]
    with open(out_root / "cmp" / "comparison.csv", newline="") as fh:
        assert [row["r"] for row in csv.DictReader(fh)] == ["1"] * 4
    capsys.readouterr()
    (out_root / "cmp" / "comparison.csv").unlink()
    cfg = write_config(out_root, request_count=5, output_dir="cmp", ohs_depth=3)
    assert main(["compare", "--config", str(cfg), "--slice-counts", "4,2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --slice-counts value 2 must be in [3, 400]")
    assert not (out_root / "cmp" / "comparison.csv").exists()


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()


def test_replay_report_names_the_cli_strategy_and_config_hash(out_root):
    """The report names the strategy as the command line gave it, alias
    included, and carries the hash of the config it was served under."""
    flags = ["--config", str(write_config(out_root, request_count=3)), "--strategy", "sisa"]
    assert main(["train", *flags]) == 0
    assert main(["replay", *flags]) == 0
    run = out_root / "run"
    report = json.loads((run / "report.json").read_text())
    assert report["summary"]["strategy"] == "sisa"
    assert {row["strategy_executed"] for row in report["rows"]} == {"prs"}
    want = _config_hash(json.loads((run / "config.json").read_text()))
    assert report["config_hash"] == want
    assert json.loads((run / "model.json").read_text())["config_hash"] == want


def test_compare_leaves_the_trained_config_alone(out_root):
    """compare into a train's directory under other flags keeps the train's
    config.json, which still hashes to model.json's config_hash; compare's
    own config goes into comparison.json."""
    cfg = write_config(out_root, request_count=5, output_dir="run")
    assert main(["train", "--config", str(cfg), "--strategy", "ohs", "--ohs-depth", "1"]) == 0
    run = out_root / "run"
    trained = (run / "config.json").read_bytes()
    assert main(["compare", "--config", str(cfg), "--strategies", "dpus,ohs",
                 "--slice-counts", "3", "--ohs-depth", "1"]) == 0
    assert (run / "config.json").read_bytes() == trained
    model = json.loads((run / "model.json").read_text())
    assert _config_hash(json.loads(trained)) == model["config_hash"]
    payload = json.loads((run / "comparison.json").read_text())
    assert payload["config"]["strategy"] == "hs" and payload["config"]["ohs_depth"] == 1
    assert _config_hash(payload["config"]) == payload["config_hash"] != model["config_hash"]


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--strategies", "warp"),
        ("--strategies", ","),
        ("--slice-counts", "4,x"),
        ("--slice-counts", "0"),
        ("--slice-counts", "4,100000"),
    ],
    ids=[
        "unknown_strategy", "no_strategy", "slice_count_not_int", "slice_count_zero",
        "slice_count_past_rows",
    ],
)
def test_compare_rejects_unknown_strategy(out_root, capsys, flag, value):
    cfg = write_config(out_root)
    assert main(["compare", "--config", str(cfg), flag, value]) == 2
    err = capsys.readouterr().err
    assert flag in err
    if flag == "--slice-counts":
        assert value.split(",")[-1] in err


# ---------------------------------------------------------------------- audit
def test_audit_flow(out_root, capsys):
    cfg = write_config(
        out_root,
        output_dir="auditrun",
        dataset={"kind": "synthetic", "n": 400, "dim": 24, "seed": 9},
        epochs_per_slice=20,
        eval_fraction=0.5,
        phi=250.0,
        request_count=30,
        shadow_count=4,
    )
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["replay", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["audit", "--config", str(cfg), "--null-calibration"]) == 0
    result = json.loads((out_root / "auditrun" / "audit.json").read_text())
    assert result["member_rate_before"] > result["member_rate_after"]
    assert 0.45 <= result["null_calibration_accuracy"] <= 0.55
    assert result["revoked_count"] == 30


def test_audit_needs_no_replay(out_root):
    """audit re-serves the configured stream on the stored model, so it runs
    on a freshly trained store and writes the same audit.json with or
    without a replay's outputs beside it."""
    cfg = write_config(out_root, output_dir="noreplay", request_count=5)
    run = out_root / "noreplay"
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["audit", "--config", str(cfg)]) == 0
    fresh = (run / "audit.json").read_bytes()
    assert main(["replay", "--config", str(cfg)]) == 0
    assert main(["audit", "--config", str(cfg)]) == 0
    assert (run / "audit.json").read_bytes() == fresh


def test_audit_judges_the_served_params(out_root, monkeypatch):
    """The params audit judges are bit for bit the ones the engine serves:
    checkpoint S as loaded, then the float64 params after the stream."""
    cfg = write_config(out_root, output_dir="exact", strategy="dpus", phi=0.0, request_count=6)
    assert main(["train", "--config", str(cfg)]) == 0
    judged = []

    def spy(attack_model, target_params, ids, dataset):
        judged.append(target_params.values.copy())
        return audit(attack_model, target_params, ids, dataset)

    monkeypatch.setattr(cli, "audit", spy)
    assert main(["audit", "--config", str(cfg)]) == 0
    config = ExperimentConfig.from_file(cfg)
    train_ds, _ = config.build_datasets()
    engine = UnlearnEngine.from_store(train_ds, StateStore.load(out_root / "exact" / "store"))
    before = engine.model.params.values
    ids = sample_request_ids(engine.plan, config.request_count, config.request_seed)
    report = engine.process_stream([UnlearnRequest(i, "dpus") for i in ids])
    assert not report.partial
    after = engine.model.params.values
    assert after.dtype == np.float64 and not np.array_equal(before, after)
    assert [v.tobytes() for v in judged] == [before.tobytes(), after.tobytes()]


def test_audit_of_a_partial_stream_fails(out_root, capsys, monkeypatch):
    """A request the engine cannot serve stops audit with the stream's error
    (exit 1) before any audit.json is written."""
    cfg = write_config(out_root, output_dir="partial", request_count=5)
    assert main(["train", "--config", str(cfg)]) == 0
    served, seen = UnlearnEngine.dispatch, []

    def dispatch(self, request):
        seen.append(request)
        if len(seen) > 3:
            raise NotFound("cannot serve")
        return served(self, request)

    monkeypatch.setattr(UnlearnEngine, "dispatch", dispatch)
    capsys.readouterr()
    assert main(["audit", "--config", str(cfg)]) == 1
    assert "error: request 3 (sample " in capsys.readouterr().err
    assert not (out_root / "partial" / "audit.json").exists()


# ---------------------------------------------------------------- csv dataset
def test_train_on_csv_dataset(out_root, tmp_path):
    from mubench import gen_synthetic, save_csv

    csv_path = out_root / "data.csv"
    save_csv(gen_synthetic(300, 6, seed=4), csv_path)
    cfg = write_config(
        out_root,
        dataset={"kind": "csv", "path": str(csv_path), "label_column": "label"},
        output_dir="csvrun",
        num_slices=3,
        phi=200.0,
    )
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["replay", "--config", str(cfg)]) == 0
