import json

import pytest

import dtddsim.harness as harness
from dtddsim import __version__
from dtddsim.cli import load_config, main
from dtddsim.exceptions import ConfigurationError


def write_config(path, **overrides):
    cfg = {
        "n_bs": 16,
        "area_side": 40.0,
        "radio": {"carrier_freq_ghz": 2.0, "bandwidth_hz": 10e6,
                  "noise_figure_db": 9.0, "p_b_max_w": 0.1, "p_u_max_w": 0.1},
        "traffic": {"dl_probability": 0.5, "require_mixed_traffic": True},
        "schemes": ["baseline", "jt", "jt_ds"],
        "delta": 0,
        "utilizations": [0.25, 0.5],
        "snapshots_per_point": 3,
        "master_seed": 11,
        "worker_count": 1,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_load_config_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path / "cfg.json"))
    assert cfg.master_seed == 11
    assert cfg.utilizations == (0.25, 0.5)
    assert cfg.radio.noise_figure_db == 9.0
    assert cfg.traffic.require_mixed_traffic is True


def test_left_out_traffic_key_keeps_its_default(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"traffic": {"dl_probability": 0.5}}))
    assert load_config(path).traffic.require_mixed_traffic is True


def test_unknown_top_level_key_rejected(tmp_path):
    path = write_config(tmp_path / "cfg.json", snapshots=3)
    with pytest.raises(ConfigurationError, match="snapshots"):
        load_config(path)


def test_unknown_radio_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    write_config(path)
    raw = json.loads(path.read_text())
    raw["radio"]["tx_gain_db"] = 3.0
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigurationError, match="tx_gain_db"):
        load_config(path)


def test_utilization_must_not_hide_under_traffic(tmp_path):
    path = tmp_path / "cfg.json"
    write_config(path)
    raw = json.loads(path.read_text())
    raw["traffic"]["utilization"] = 0.5
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigurationError, match="utilization"):
        load_config(path)


def test_main_runs_and_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "records.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "config.json").exists()
    lines = (out / "records.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 3 * 2 * 3  # header + schemes x utils x snapshots
    assert "mean sum-rate" in capsys.readouterr().out


def test_main_flag_overrides(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out), "--scheme", "jt-ds",
               "--utilization", "0.75", "--snapshots", "2", "--seed", "99",
               "--delta", "1", "--workers", "1"])
    assert rc == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["schemes"] == ["jt_ds"]
    assert echoed["utilizations"] == [0.75]
    assert echoed["snapshots_per_point"] == 2
    assert echoed["master_seed"] == 99
    assert echoed["delta"] == 1
    lines = (out / "records.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[1].startswith("jt_ds,0.75,1,")


def test_main_without_config_uses_defaults(tmp_path):
    rc = main(["--out", str(tmp_path / "out"), "--snapshots", "1",
               "--utilization", "0.5", "--scheme", "baseline"])
    assert rc == 0


def test_main_reports_config_errors(tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json", typo_key=1)
    rc = main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "typo_key" in capsys.readouterr().err


def test_main_rejects_bs_spacing_inside_path_loss_clamp(tmp_path, capsys):
    # every point of a 2 m area is within 3 m of all 16 BSs: only BS 0 is
    # ever strongest, so dropping a second UE would never end
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"area_side": 2.0, "utilizations": [0.25],
                                "snapshots_per_point": 1}))
    rc = main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "spacing" in err


@pytest.mark.parametrize("overrides, argv", [
    ({"master_seed": -3}, []),
    ({}, ["--seed", "-1"]),
])
def test_main_rejects_negative_seed(tmp_path, capsys, overrides, argv):
    path = write_config(tmp_path / "cfg.json", **overrides)
    rc = main(["--config", str(path), "--out", str(tmp_path / "out"), *argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "master_seed" in err


@pytest.mark.parametrize("utilization, message", [
    ("0.03", "yields no active UE"),  # K = round(0.03 * 16) = 0
    ("0.0625", "single UE"),          # K = 1 under the default mixed traffic
])
def test_main_rejects_bad_utilization_before_sweeping(tmp_path, capsys, monkeypatch,
                                                      utilization, message):
    drawn = []
    monkeypatch.setattr(harness, "generate_snapshot", lambda *args: drawn.append(args))
    rc = main(["--out", str(tmp_path / "out"), "--snapshots", "2000",
               "--utilization", "1.0", "--utilization", utilization])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert drawn == []
    assert not (tmp_path / "out").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


@pytest.mark.parametrize("section, key, value", [
    ("radio", "p_b_max_w", "0.1"),
    ("radio", "p_u_max_w", float("nan")),
    (None, "snapshots_per_point", "5"),
    (None, "n_bs", True),
    (None, "utilizations", [0.25, None]),
    ("traffic", "require_mixed_traffic", "yes"),
])
def test_main_reports_wrongly_typed_values(tmp_path, capsys, section, key, value):
    path = write_config(tmp_path / "cfg.json")
    raw = json.loads(path.read_text())
    (raw[section] if section else raw)[key] = value
    path.write_text(json.dumps(raw))
    rc = main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
