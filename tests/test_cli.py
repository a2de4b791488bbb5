import csv
import json

import pytest

from mubench.cli import main


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


# ---------------------------------------------------------------------- train
def test_train_writes_store_and_model(out_root, capsys):
    cfg = write_config(out_root)
    assert main(["train", "--config", str(cfg)]) == 0
    printed = json.loads(capsys.readouterr().out)
    run = out_root / "run"
    checkpoints = sorted(p.name for p in (run / "store").glob("checkpoint_*.muck"))
    assert len(checkpoints) == 5  # indices 0..4
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
    ],
    ids=["num_slices", "shadow_split_seed", "dataset_seed", "request_seed", "attack_seed",
         "synthetic_seed", "synthetic_not_int", "num_slices_string", "phi_null",
         "dataset_n_string", "seed_bool", "csv_path_not_string"],
)
def test_train_invalid_slices_names_field(out_root, capsys, overrides, flags, field):
    cfg = write_config(out_root, **overrides)
    try:
        code = main(["train", "--config", str(cfg), *flags])
    except SystemExit as exc:  # argparse rejects a malformed flag value itself
        code = exc.code
    assert code == 2
    assert field in capsys.readouterr().err


def test_unknown_config_field_rejected(out_root):
    path = out_root / "bad.json"
    for raw in ({"no_such_field": 1}, 5, None):  # the last two are not JSON objects
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 2


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
    assert rows[0] == ["index", "strategy_executed", "slice", "batch", "wall_time_s"]
    assert len(rows) == 1 + 20 + 2  # header + rows + footer
    assert rows[-2][0] == "average_time_s"
    assert rows[-1][0] == "final_accuracy"
    assert (run / "revoked_ids.json").exists()
    assert (run / "params_after.muck").exists()


def test_replay_missing_store_fails(out_root):
    cfg = write_config(out_root, output_dir="never-trained")
    assert main(["replay", "--config", str(cfg)]) == 1


def test_replay_damaged_manifest_fails(out_root, capsys):
    cfg = write_config(out_root)
    assert main(["train", "--config", str(cfg)]) == 0
    manifest_path = out_root / "run" / "store" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["ledgers"][0]["consumed"]
    manifest_path.write_text(json.dumps(manifest))
    assert main(["replay", "--config", str(cfg)]) == 1
    assert "error: manifest.json: missing field 'consumed'" in capsys.readouterr().err


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


def test_compare_rejects_unknown_strategy(out_root):
    cfg = write_config(out_root)
    assert main(["compare", "--config", str(cfg), "--strategies", "warp"]) == 2


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


def test_audit_requires_replay(out_root):
    cfg = write_config(out_root, output_dir="noreplay")
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["audit", "--config", str(cfg)]) == 2


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
