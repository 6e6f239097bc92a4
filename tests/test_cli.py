"""End-to-end tests of the command-line interface.

Every test drives ``cli.main`` in process so exit codes and stdout/stderr
can be asserted without spawning subprocesses.  Slow artifacts (a solved
policy pair, a trained network, one full micro pipeline run) are built once
per module and shared.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from adaptive_force_control import cli
from adaptive_force_control.contact import (
    ContactModel,
    FitReport,
    generate_zone_data,
    save_zone_csv,
)
from adaptive_force_control.cli import _parse_references
from adaptive_force_control.pipeline import STAGE_TRAIN
from adaptive_force_control.policy import load_policy
from adaptive_force_control.sim import derive_seed
from adaptive_force_control.zones import get_zone


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def tree_digest(root: Path) -> dict:
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            rel = str(path.relative_to(root))
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def zone1_model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "zone1.json"
    get_zone("zone1").to_json(path)
    return path


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory, zone1_model_path):
    out = tmp_path_factory.mktemp("policies")
    rc = cli.main(
        ["solve", "--model", str(zone1_model_path), "--r", "5,6", "--out", str(out)]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, zone1_model_path, solved_dir):
    out = tmp_path_factory.mktemp("trained")
    rc = cli.main(
        [
            "train",
            "--policies", str(solved_dir),
            "--model", str(zone1_model_path),
            "--epochs", "1",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


# Small enough that the whole pipeline finishes in seconds while still
# exercising every stage: 3 zones x 2 references on a 41x21 grid.
MICRO_CONFIG = {
    "seed": 7,
    "grid": {"x_steps": 41, "u_steps": 21},
    "data": {"step": 2e-4, "repetitions": 2, "noise_sigma": 0.02},
    "solve": {"references": [5.0, 10.0]},
    "train": {"epochs": 2, "batch_size": 8},
    "eval": {"references": [5.0], "seeds": [1], "episode_duration": 1.5},
}


@pytest.fixture(scope="module")
def micro_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "micro.json"
    path.write_text(json.dumps(MICRO_CONFIG, indent=2) + "\n")
    return path


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory, micro_config_path):
    out = tmp_path_factory.mktemp("rep") / "out1"
    rc = cli.main(["reproduce", "--config", str(micro_config_path), "--out", str(out)])
    assert rc == 0
    return out


class TestParseReferences:
    def test_single(self):
        assert _parse_references("5") == [5.0]

    def test_comma_list(self):
        assert _parse_references("5,10.5,15") == [5.0, 10.5, 15.0]

    def test_trailing_comma_tolerated(self):
        assert _parse_references("5,10,") == [5.0, 10.0]

    def test_inclusive_range(self):
        assert _parse_references("4:6:1") == pytest.approx([4.0, 5.0, 6.0])

    def test_fractional_step(self):
        assert _parse_references("4:6:0.5") == pytest.approx([4.0, 4.5, 5.0, 5.5, 6.0])

    def test_non_dividing_step_stays_below_stop(self):
        refs = _parse_references("5:6:0.4")
        assert refs == pytest.approx([5.0, 5.4, 5.8])

    @pytest.mark.parametrize("spec", ["4:6", "1:2:3:4", "6:4:1", "4:6:0", "4:6:-1", "abc"])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            _parse_references(spec)


class TestFit:
    def test_synthetic_noiseless_recovers_zone(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys,
            ["fit", "--synthetic", "zone1", "--noise", "0", "--out", str(tmp_path)],
        )
        assert rc == 0
        assert (tmp_path / "zone1.csv").exists()
        model_path = tmp_path / "zone1_model.json"
        assert model_path.exists()
        fitted = ContactModel.from_json(model_path)
        truth = get_zone("zone1")
        assert abs(fitted.a - truth.a) < 1e-6
        assert abs(fitted.b - truth.b) < 1e-6
        assert abs(fitted.c - truth.c) < 1e-6
        assert "zone1.csv:" in out
        assert "converged" in out

    def test_malformed_csv_names_row(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("depth_m,force_n\nabc,1.0\n")
        rc, _, err = run_cli(capsys, ["fit", "--csv", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in err
        assert "row 2" in err

    def test_wrong_header_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0.001,1.0\n")
        rc, _, err = run_cli(capsys, ["fit", "--csv", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "depth_m,force_n" in err

    def test_multiple_csvs_fan_out(self, capsys, tmp_path):
        for name in ("zone1", "zone2", "zone3"):
            depths, forces = generate_zone_data(
                get_zone(name), noise_sigma=0.0, repetitions=1, seed=0
            )
            save_zone_csv(tmp_path / f"{name}.csv", depths, forces)
        rc, out, _ = run_cli(
            capsys,
            [
                "fit",
                "--csv",
                str(tmp_path / "zone1.csv"),
                str(tmp_path / "zone2.csv"),
                str(tmp_path / "zone3.csv"),
                "--out", str(tmp_path / "fits"),
            ],
        )
        assert rc == 0
        written = sorted(p.name for p in (tmp_path / "fits").glob("*_model.json"))
        assert written == ["zone1_model.json", "zone2_model.json", "zone3_model.json"]
        assert out.count("converged") == 3

    def test_unconverged_fit_exits_3(self, capsys, tmp_path, monkeypatch):
        def stubborn_fit(depths, forces):
            return FitReport(
                model=get_zone("zone1"), rms_residual=0.5, iterations=200, converged=False
            )

        monkeypatch.setattr(cli, "fit_exponential", stubborn_fit)
        rc, out, _ = run_cli(
            capsys,
            ["fit", "--synthetic", "zone1", "--noise", "0", "--out", str(tmp_path)],
        )
        assert rc == 3
        assert "NOT CONVERGED" in out

    def test_unknown_zone_rejected(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, ["fit", "--synthetic", "zone99", "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "error:" in err


class TestSolve:
    def test_writes_policy_pairs(self, solved_dir):
        for stem in ("policy_r5", "policy_r6"):
            assert (solved_dir / f"{stem}.csv").exists()
            assert (solved_dir / f"{stem}.json").exists()
        table, meta = load_policy(solved_dir / "policy_r5.csv")
        assert meta["reference_n"] == 5.0
        assert meta["converged"] is True
        assert len(table.x_grid) == 1001

    def test_stdout_and_rerun_byte_identical(self, capsys, tmp_path, zone1_model_path, solved_dir):
        rc, out, _ = run_cli(
            capsys,
            ["solve", "--model", str(zone1_model_path), "--r", "5", "--out", str(tmp_path)],
        )
        assert rc == 0
        assert "r=5: sweeps=" in out
        assert "converged=true" in out
        assert f"1 policies written to {tmp_path}" in out
        for suffix in (".csv", ".json"):
            fresh = (tmp_path / f"policy_r5{suffix}").read_bytes()
            earlier = (solved_dir / f"policy_r5{suffix}").read_bytes()
            assert fresh == earlier

    def test_sweep_cap_exits_3(self, capsys, tmp_path, zone1_model_path):
        rc, _, err = run_cli(
            capsys,
            [
                "solve",
                "--model", str(zone1_model_path),
                "--r", "5",
                "--max-sweeps", "1",
                "--out", str(tmp_path),
            ],
        )
        assert rc == 3
        assert "unconverged references: 5" in err
        meta = json.loads((tmp_path / "policy_r5.json").read_text())
        assert meta["converged"] is False

    def test_allow_unconverged_downgrades_to_0(self, capsys, tmp_path, zone1_model_path):
        rc, out, err = run_cli(
            capsys,
            [
                "solve",
                "--model", str(zone1_model_path),
                "--r", "5",
                "--max-sweeps", "1",
                "--allow-unconverged",
                "--out", str(tmp_path),
            ],
        )
        assert rc == 0
        assert "converged=false" in out
        assert err == ""

    def test_bad_reference_spec(self, capsys, tmp_path, zone1_model_path):
        rc, _, err = run_cli(
            capsys,
            ["solve", "--model", str(zone1_model_path), "--r", "5:1", "--out", str(tmp_path)],
        )
        assert rc == 2
        assert "error:" in err

    def test_missing_model_file(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys,
            ["solve", "--model", str(tmp_path / "nope.json"), "--r", "5", "--out", str(tmp_path)],
        )
        assert rc == 2
        assert "error:" in err

    def test_empty_reference_list_exits_2(self, capsys, tmp_path, zone1_model_path):
        out = tmp_path / "never_created"
        rc, _, err = run_cli(
            capsys, ["solve", "--model", str(zone1_model_path), "--r", ",", "--out", str(out)]
        )
        assert rc == 2
        assert "references must not be empty" in err
        assert not out.exists()


class TestTrain:
    def test_artifacts(self, trained_dir):
        dataset_lines = (trained_dir / "dataset.csv").read_text().splitlines()
        # 2 policies x 1001 grid nodes pooled, plus the header.
        assert len(dataset_lines) == 2003
        assert dataset_lines[0] == "r_n,f_n,dfdx_n_per_m,kp"
        assert (trained_dir / "adaptation.json").exists()
        loss_lines = (trained_dir / "loss_history.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,mse"
        assert len(loss_lines) == 2
        assert loss_lines[1].startswith("1,")
        assert np.isfinite(float(loss_lines[1].split(",")[1]))

    def test_stdout_reports_sample_count(
        self, capsys, tmp_path, zone1_model_path, solved_dir, trained_dir
    ):
        rc, out, _ = run_cli(
            capsys,
            [
                "train",
                "--policies", str(solved_dir),
                "--model", str(zone1_model_path),
                "--epochs", "1",
                "--seed", "3",
                "--out", str(tmp_path),
            ],
        )
        assert rc == 0
        assert "trained on 2002 samples" in out
        # Same seed and inputs as the shared fixture: artifacts must match bit
        # for bit.
        assert (tmp_path / "adaptation.json").read_bytes() == (
            Path(trained_dir) / "adaptation.json"
        ).read_bytes()
        assert (tmp_path / "dataset.csv").read_bytes() == (
            Path(trained_dir) / "dataset.csv"
        ).read_bytes()

    def test_count_mismatch_exits_2(self, capsys, tmp_path, zone1_model_path, solved_dir):
        rc, _, err = run_cli(
            capsys,
            [
                "train",
                "--policies", str(solved_dir),
                "--model", str(zone1_model_path), str(zone1_model_path),
                "--out", str(tmp_path),
            ],
        )
        assert rc == 2
        assert "one --model per" in err

    def test_empty_policy_dir_exits_2(self, capsys, tmp_path, zone1_model_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc, _, err = run_cli(
            capsys,
            [
                "train",
                "--policies", str(empty),
                "--model", str(zone1_model_path),
                "--out", str(tmp_path),
            ],
        )
        assert rc == 2
        assert "no policy files" in err

    def test_stray_policy_file_named(self, capsys, tmp_path, zone1_model_path, solved_dir):
        policies = tmp_path / "policies"
        shutil.copytree(solved_dir, policies)
        shutil.copy(policies / "policy_r5.csv", policies / "policy_r5-old.csv")
        rc, _, err = run_cli(
            capsys,
            [
                "train",
                "--policies", str(policies),
                "--model", str(zone1_model_path),
                "--out", str(tmp_path / "trained"),
            ],
        )
        assert rc == 2
        assert str(policies / "policy_r5-old.csv") in err

    def test_matches_reproduce_train_stage(self, capsys, tmp_path, micro_run):
        # Same policies, models, schedule and derived stage seed as the
        # reproduce run: the CLI must write the identical training artifacts.
        zones = ("zone1", "zone2", "zone3")
        rc, _, _ = run_cli(
            capsys,
            [
                "train",
                "--policies", *(str(micro_run / "policies" / z) for z in zones),
                "--model", *(str(micro_run / "models" / f"{z}.json") for z in zones),
                "--epochs", "2",
                "--batch-size", "8",
                "--seed", str(derive_seed(MICRO_CONFIG["seed"], STAGE_TRAIN)),
                "--out", str(tmp_path),
            ],
        )
        assert rc == 0
        for name in ("dataset.csv", "adaptation.json", "loss_history.csv"):
            assert (tmp_path / name).read_bytes() == (micro_run / name).read_bytes(), name


class TestSimulate:
    def test_constant_gain_settles(self, capsys, tmp_path):
        traj_path = tmp_path / "traj.csv"
        rc, out, _ = run_cli(
            capsys,
            [
                "simulate",
                "--zone", "zone1",
                "--kp-const", "0.2",
                "--r", "5",
                "--noise", "0",
                "--duration", "2.0",
                "--out", str(traj_path),
            ],
        )
        assert rc == 0
        assert "settled=true" in out
        assert "retracted=false" in out
        lines = traj_path.read_text().splitlines()
        assert lines[0] == "t_s,depth_m,force_meas_n,force_true_n,kp,mode,command_m"
        assert len(lines) > 100
        assert all(len(line.split(",")) == 7 for line in lines[1:])

    def test_frozen_gain_exits_4(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            [
                "simulate",
                "--zone", "zone1",
                "--kp-const", "0.0",
                "--r", "5",
                "--noise", "0",
                "--duration", "1.0",
            ],
        )
        assert rc == 4
        assert "settled=false" in out

    def test_trained_module_runs(self, capsys, trained_dir):
        rc, out, _ = run_cli(
            capsys,
            [
                "simulate",
                "--zone", "zone1",
                "--module", str(Path(trained_dir) / "adaptation.json"),
                "--r", "5",
                "--noise", "0",
                "--duration", "1.0",
            ],
        )
        # A one-epoch network makes no settling promise; only the plumbing
        # and the exit-code split are under test here.
        assert rc in (0, 4)
        assert "settled=" in out
        assert "overshoot=" in out

    def test_missing_module_exits_2(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys,
            [
                "simulate",
                "--zone", "zone1",
                "--module", str(tmp_path / "missing.json"),
                "--r", "5",
            ],
        )
        assert rc == 2
        assert "error:" in err

    def test_unknown_zone_exits_2(self, capsys):
        rc, _, err = run_cli(
            capsys, ["simulate", "--zone", "zone9", "--kp-const", "0.1", "--r", "5"]
        )
        assert rc == 2
        assert "error:" in err


class TestReproduce:
    def test_full_run_layout(self, micro_run):
        for rel in (
            "summary.json",
            "dataset.csv",
            "adaptation.json",
            "loss_history.csv",
            "metrics.csv",
            "data/zone1.csv",
            "models/zone1.json",
            "policies/zone1/policy_r5.csv",
            "policies/zone3/policy_r10.json",
            ".done_fit",
            ".done_solve",
            ".done_train",
            ".done_evaluate",
        ):
            assert (micro_run / rel).exists(), rel
        summary = json.loads((micro_run / "summary.json").read_text())
        assert set(summary) == {"fit", "solve", "train", "evaluate"}
        assert summary["evaluate"]["episodes"] == 5

    def test_identical_trees_for_identical_config(
        self, capsys, tmp_path, micro_config_path, micro_run
    ):
        out2 = tmp_path / "out2"
        rc, out, _ = run_cli(
            capsys,
            ["reproduce", "--config", str(micro_config_path), "--out", str(out2)],
        )
        assert rc == 0
        for stage in ("fit", "solve", "train", "evaluate"):
            assert f"[{stage}] running" in out
        assert "[done] summary written to" in out
        assert tree_digest(out2) == tree_digest(micro_run)

    def test_dry_run_writes_nothing(self, capsys, tmp_path, micro_config_path):
        target = tmp_path / "never_created"
        rc, out, _ = run_cli(
            capsys,
            ["reproduce", "--config", str(micro_config_path), "--out", str(target), "--dry-run"],
        )
        assert rc == 0
        for stage in ("fit", "solve", "train", "evaluate"):
            assert f"run  {stage}" in out
        assert not target.exists()

    def test_dry_run_resume_reports_skips(self, capsys, micro_config_path, micro_run):
        rc, out, _ = run_cli(
            capsys,
            [
                "reproduce",
                "--config", str(micro_config_path),
                "--out", str(micro_run),
                "--resume",
                "--dry-run",
            ],
        )
        assert rc == 0
        for stage in ("fit", "solve", "train", "evaluate"):
            assert f"skip {stage}" in out

    def test_resume_skips_done_stages(self, capsys, tmp_path, micro_config_path, micro_run):
        work = tmp_path / "resume"
        shutil.copytree(micro_run, work)
        # Pretend the run died after the solve stage.
        for rel in (
            ".done_train",
            ".done_evaluate",
            "adaptation.json",
            "dataset.csv",
            "loss_history.csv",
            "metrics.csv",
            "summary.json",
        ):
            (work / rel).unlink()
        rc, out, _ = run_cli(
            capsys,
            ["reproduce", "--config", str(micro_config_path), "--out", str(work), "--resume"],
        )
        assert rc == 0
        assert "[fit] already complete, skipping" in out
        assert "[solve] already complete, skipping" in out
        assert "[train] running" in out
        assert "[evaluate] running" in out
        # The reseeded stages rebuild the identical artifacts.
        assert (work / "adaptation.json").read_bytes() == (
            micro_run / "adaptation.json"
        ).read_bytes()
        assert (work / "metrics.csv").read_bytes() == (
            micro_run / "metrics.csv"
        ).read_bytes()

    def test_stray_policy_file_fails_train_stage(
        self, capsys, tmp_path, micro_config_path, micro_run
    ):
        work = tmp_path / "stray"
        shutil.copytree(micro_run, work)
        for stage in ("train", "evaluate"):
            (work / f".done_{stage}").unlink()
        stray = work / "policies" / "zone2" / "policy_r5-old.csv"
        shutil.copy(stray.with_name("policy_r5.csv"), stray)
        rc, _, err = run_cli(
            capsys,
            ["reproduce", "--config", str(micro_config_path), "--out", str(work), "--resume"],
        )
        assert rc == 2
        assert "stage 'train' failed" in err
        assert str(stray) in err

    def test_solve_stage_failure_maps_to_3(self, capsys, tmp_path):
        cfg = dict(MICRO_CONFIG)
        cfg["solve"] = {"references": [5.0, 10.0], "max_sweeps": 1}
        cfg_path = tmp_path / "capped.json"
        cfg_path.write_text(json.dumps(cfg))
        rc, _, err = run_cli(
            capsys,
            ["reproduce", "--config", str(cfg_path), "--out", str(tmp_path / "broken")],
        )
        assert rc == 3
        assert "stage 'solve' failed" in err
        assert "unconverged references" in err

    def test_allow_unconverged_completes(self, capsys, tmp_path):
        cfg = dict(MICRO_CONFIG)
        cfg["solve"] = {"references": [5.0, 10.0], "max_sweeps": 1}
        cfg_path = tmp_path / "capped.json"
        cfg_path.write_text(json.dumps(cfg))
        rc, out, _ = run_cli(
            capsys,
            [
                "reproduce",
                "--config", str(cfg_path),
                "--out", str(tmp_path / "tree"),
                "--allow-unconverged",
            ],
        )
        assert rc == 0
        assert (tmp_path / "tree" / "metrics.csv").exists()

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        rc, _, err = run_cli(
            capsys,
            ["reproduce", "--config", str(cfg_path), "--out", str(tmp_path / "x")],
        )
        assert rc == 2
        assert "unknown config keys" in err

    def test_train_seed_exits_2(self, capsys, tmp_path):
        cfg_path = tmp_path / "seeded.json"
        cfg_path.write_text(json.dumps({**MICRO_CONFIG, "train": {"seed": 123}}))
        out = tmp_path / "x"
        rc, _, err = run_cli(capsys, ["reproduce", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert "train.seed" in err
        assert "top-level 'seed'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key", [("solve", "references"), ("eval", "references"), ("eval", "seeds")]
    )
    def test_empty_list_exits_2(self, capsys, tmp_path, section, key):
        cfg = {**MICRO_CONFIG, section: {**MICRO_CONFIG[section], key: []}}
        cfg_path = tmp_path / "empty.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "x"
        rc, _, err = run_cli(capsys, ["reproduce", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert f"{section}.{key}" in err
        assert not out.exists()

    @pytest.mark.parametrize("document", ["[]", "3", "null"])
    @pytest.mark.parametrize("seed", [[], ["--seed", "3"]], ids=["no-seed", "seed"])
    def test_non_object_config_exits_2(self, capsys, tmp_path, document, seed):
        cfg_path = tmp_path / "scalar.json"
        cfg_path.write_text(document)
        out = tmp_path / "x"
        rc, _, err = run_cli(
            capsys, ["reproduce", "--config", str(cfg_path), *seed, "--out", str(out)]
        )
        assert rc == 2
        assert "error: config must be a JSON object" in err
        assert not out.exists()

    def test_missing_config_exits_2(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys,
            ["reproduce", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")],
        )
        assert rc == 2
        assert "error:" in err

    def test_seed_override_parses(self, capsys, tmp_path, micro_config_path):
        rc, out, _ = run_cli(
            capsys,
            [
                "reproduce",
                "--config", str(micro_config_path),
                "--seed", "9",
                "--out", str(tmp_path / "x"),
                "--dry-run",
            ],
        )
        assert rc == 0
        assert "run  fit" in out
