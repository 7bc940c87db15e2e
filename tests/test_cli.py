import json
from unittest import mock

import pytest

import dtddsim.cli as cli
import dtddsim.harness as harness
from dtddsim import (RadioParams, SimulationConfig, TrafficConfig, __version__, run_sweep,
                     write_results)
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


def test_config_echo_loads_back_into_the_config_that_ran(tmp_path):
    config = SimulationConfig(
        n_bs=9, area_side=30.0, radio=RadioParams(carrier_freq_ghz=3.5),
        traffic=TrafficConfig(dl_probability=0.3, require_mixed_traffic=False),
        schemes=("jt_ds", "baseline"), delta=2, utilizations=(0.5,),
        snapshots_per_point=1, master_seed=8, worker_count="auto")
    write_results(run_sweep(config), tmp_path)  # one task: no worker pool
    echo = json.loads((tmp_path / "config.json").read_text())
    del echo["version"]
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(echo))
    assert load_config(path) == config


def test_config_echo_reruns_the_same_sweep(tmp_path):
    for i, config in enumerate([
        SimulationConfig(utilizations=(1 / 3, 0.75, 0.2), schemes=("jt_ds", "baseline"),
                         delta=1, snapshots_per_point=4),
        # 16 u + 0.5 = 1.99999999999984 gives K = 1, and its 12-digit echo
        # 0.09375 gives K = 2: the sweep must run the value config.json prints
        SimulationConfig(utilizations=(0.09374999999999,), schemes=("baseline",),
                         traffic=TrafficConfig(require_mixed_traffic=False),
                         snapshots_per_point=3),
    ]):
        first, again = tmp_path / f"first{i}", tmp_path / f"again{i}"
        write_results(run_sweep(config), first)
        assert main(["--config", str(first / "config.json"), "--out", str(again)]) == 0
        for name in ("records.csv", "summary.json", "config.json"):
            assert (again / name).read_bytes() == (first / name).read_bytes()


def test_config_from_another_version_rejected(tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json", version="0.0.0-other")
    with pytest.raises(ConfigurationError, match="0.0.0-other"):
        load_config(path)
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "0.0.0-other" in err and __version__ in err


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
    # ever strongest, so dropping a second UE would never end. The cell
    # corners of a 1e7 m area are past the 100 m path-loss range of every
    # BS: their UEs all go to BS 0, and a second UE is all but never placed
    path = tmp_path / "cfg.json"
    for area_side in (2.0, 1e7):
        path.write_text(json.dumps({"area_side": area_side, "utilizations": [0.25],
                                    "snapshots_per_point": 1}))
        with mock.patch.object(harness, "generate_snapshot", side_effect=AssertionError):
            rc = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "spacing" in err


def test_main_rejects_a_link_budget_a_float_cannot_carry(tmp_path, capsys):
    # every path gain underflows to 0 at a 1e300 GHz carrier: one error line
    # and exit 2, before any snapshot is drawn
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"radio": {"carrier_freq_ghz": 1e300}}))
    with mock.patch.object(harness, "generate_snapshot", side_effect=AssertionError):
        rc = main(["--config", str(path), "--out", str(tmp_path / "out"),
                   "--snapshots", "2", "--utilization", "0.5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "path gain" in err and "normal floats" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_bs, area_side", [(10**14, 1e8), (10**200, 1e101),
                                              (10**700, 1e101)],
                         ids=["1e14", "1e200", "1e700"])
def test_main_rejects_grid_too_large_to_allocate(tmp_path, capsys, n_bs, area_side):
    # numpy cannot hold the BS positions: a MemoryError, then a ValueError
    # past its size limit, each before any memory is taken; past a float's
    # range the grid side overflows first
    path = write_config(tmp_path / "cfg.json", n_bs=n_bs, area_side=area_side)
    with mock.patch.object(harness, "generate_snapshot", side_effect=AssertionError):
        rc = main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n_bs" in err


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


@pytest.mark.parametrize("snapshots", ["99999999999999999999", "4294967297"])
def test_main_rejects_snapshot_counts_past_the_stream_key(tmp_path, capsys, snapshots):
    # the snapshot index keys its stream as one uint32 word. The config check
    # refuses both before run_sweep builds a task list, which would raise an
    # OverflowError for the first and a MemoryError for the second
    with mock.patch.object(cli, "run_sweep", side_effect=AssertionError):
        rc = main(["--out", str(tmp_path / "out"), "--snapshots", snapshots])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "snapshots_per_point" in err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("dl_probability", [0.0, 1.0, 1e-300, 1 - 2**-53])
def test_main_rejects_unmixable_dl_probability_before_sweeping(tmp_path, capsys, monkeypatch,
                                                                dl_probability):
    # under the default require_mixed_traffic the direction redraw of the
    # last two would practically never end
    path = write_config(tmp_path / "cfg.json",
                        traffic={"dl_probability": dl_probability})
    drawn = []
    monkeypatch.setattr(harness, "generate_snapshot", lambda *args: drawn.append(args))
    rc = main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dl_probability" in err
    assert drawn == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["--out", "taken"],     # --out names a regular file
    ["--config", "."],      # --config names a directory
    ["--config", "latin1"],  # --config is not UTF-8 text
    ["--delta", "9223372036854775808"],  # past n_bs, and past int64
])
def test_main_reports_unusable_paths_before_sweeping(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    (tmp_path / "latin1").write_bytes(b"\xff{}")
    drawn = []
    monkeypatch.setattr(harness, "generate_snapshot", lambda *args: drawn.append(args))
    rc = main(argv + ["--snapshots", "1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert drawn == []


@pytest.mark.parametrize("flag", ["--workers", "--delta", "--snapshots", "--seed"])
def test_main_reports_wrongly_typed_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag, "2.7"])
    assert exc.value.code == 2
    assert f"error: argument {flag}: invalid" in capsys.readouterr().err


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
    ("traffic", "dl_probability", "0.5"),
    (None, "delta", float("nan")),  # Python's json reads NaN
    (None, "delta", 1.5),
    (None, "worker_count", 2.7),
    (None, "worker_count", "2"),
    (None, "n_bs", 15),
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
