import math

import numpy as np
import pytest

from uamsim import cli, harness
from uamsim.harness import (LOG_COLUMNS, RunLog, Scenario, metrics, preset,
                            run, settle_index, validate_log)


def tiny_scenario(**kw):
    base = dict(name="tiny", duration=0.2, standoff=0.05, approach_speed=0.1)
    base.update(kw)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# run log and schema
# ---------------------------------------------------------------------------

def test_zero_duration_gives_header_only_log(tmp_path):
    log = run(Scenario(duration=0.0))
    # a single sample at t = 0 would also be acceptable; the contract is an
    # empty time series
    assert log.n_samples <= 1
    p = tmp_path / "log.csv"
    log2 = RunLog(data=np.empty((0, len(LOG_COLUMNS))))
    log2.write_csv(p)
    text = p.read_text().strip().splitlines()
    assert text == [",".join(LOG_COLUMNS)]
    back = RunLog.read_csv(p)
    assert back.n_samples == 0


def test_replay_bit_identical():
    sc = tiny_scenario(duration=1.0, noise_f_f=0.02, seed=7)
    a = run(sc)
    b = run(sc)
    assert np.array_equal(a.data, b.data)
    assert a.events == b.events


def test_log_schema_valid_for_scenario_run():
    log = run(tiny_scenario(duration=0.5))
    validate_log(log)
    assert log.data.shape[1] == len(LOG_COLUMNS)


def test_validate_log_catches_bad_data():
    log = run(tiny_scenario(duration=0.1))
    bad = RunLog(data=log.data.copy())
    bad.data[1, 0] = bad.data[0, 0]          # non-monotone time
    with pytest.raises(ValueError):
        validate_log(bad)
    bad2 = RunLog(data=log.data.copy())
    bad2.data[0, 5] = math.nan
    with pytest.raises(ValueError):
        validate_log(bad2)


def test_csv_round_trip(tmp_path):
    log = run(tiny_scenario(duration=0.3))
    p = tmp_path / "log.csv"
    e = tmp_path / "events.csv"
    log.write_csv(p)
    log.write_events_csv(e)
    back = RunLog.read_csv(p, e)
    assert np.allclose(back.data, log.data)
    assert len(back.events) == len(log.events)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def synthetic_log(e_ff=0.0, n=2000, dt=2e-3):
    t = np.arange(n) * dt + dt
    data = np.zeros((n, len(LOG_COLUMNS)))
    data[:, LOG_COLUMNS.index("t")] = t
    data[:, LOG_COLUMNS.index("f_fr")] = -6.0
    data[:, LOG_COLUMNS.index("f_f")] = -6.0 + e_ff
    data[:, LOG_COLUMNS.index("in_contact")] = 1.0
    data[:, LOG_COLUMNS.index("mode")] = 1.0
    return RunLog(data=data)


def test_metrics_perfect_tracking_zero_errors():
    m = metrics(synthetic_log(0.0))
    assert m["force_rms"] == 0.0
    assert m["force_max_abs"] == 0.0
    assert m["motion_rms"] == 0.0
    assert m["breaks_after_settle"] == 0


def test_metrics_known_offset():
    m = metrics(synthetic_log(0.2))
    assert m["force_rms"] == pytest.approx(0.2)
    assert m["force_max_abs"] == pytest.approx(0.2)


def test_metrics_settle_detection():
    log = synthetic_log(0.0, n=3000)
    idx = settle_index(log, 3.0)
    assert idx is not None
    assert log.column("t")[idx] == pytest.approx(3.0 + log.column("t")[0])
    # break the contact early on: settling shifts past it
    j = 500
    log.data[:j, LOG_COLUMNS.index("in_contact")] = 0.0
    idx2 = settle_index(log, 3.0)
    assert log.column("t")[idx2] == pytest.approx(log.column("t")[j] + 3.0)


def test_metrics_empty_log_raises():
    with pytest.raises(ValueError):
        metrics(RunLog(data=np.empty((0, len(LOG_COLUMNS)))))


def test_metrics_experiment2_light():
    log = run(preset("experiment2-vertical", duration=12.0))
    m = metrics(log, settle_window=5.0)
    assert m["motion_rms"] < 0.02
    assert m["force_rms"] < 0.5


def test_closed_loop_constant_force_invariant():
    # exact nominal mass, no disturbance, no attitude lag, true surface
    # parameters pinned into the estimator: constant-force tracking error
    # falls below 0.05 N within 3 s of stable contact and stays there
    sc = preset("experiment1-slow", duration=12.0, tau_att=0.0,
                k_e_min=200.0, k_e_max=200.0, b_e_min=0.5, b_e_max=0.5)
    log = run(sc)
    t = log.column("t")
    inc = log.column("in_contact") > 0.5
    t_c = t[inc][0]
    assert np.all(inc[t >= t_c])                   # stable contact
    w = t >= t_c + 3.0
    e_ff = np.abs(log.column("f_f")[w] - log.column("f_fr")[w])
    assert e_ff.max() < 0.05


# ---------------------------------------------------------------------------
# scenario serialization and presets
# ---------------------------------------------------------------------------

def test_scenario_json_round_trip(tmp_path):
    sc = preset("experiment1-fast", duration=3.0, seed=42)
    p = tmp_path / "scn.json"
    sc.to_json(p)
    back = Scenario.from_json(p)
    assert back == sc


def test_scenario_json_overrides_and_unknown_keys(tmp_path):
    sc = tiny_scenario()
    p = tmp_path / "scn.json"
    sc.to_json(p)
    assert Scenario.from_json(p, duration=9.0).duration == 9.0
    import json
    raw = json.loads(p.read_text())
    raw["banana"] = 1
    p.write_text(json.dumps(raw))
    with pytest.raises(ValueError):
        Scenario.from_json(p)


def test_unknown_preset_raises():
    with pytest.raises(KeyError):
        preset("experiment9")


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(duration=-1.0)
    with pytest.raises(ValueError):
        Scenario(approach_speed=0.0)


def test_scenario_rejects_unknown_profiles():
    with pytest.raises(ValueError):
        Scenario(force_profile="ramp")
    with pytest.raises(ValueError):
        Scenario(motion_profile="circle")


def test_scenario_rejects_fractional_controller_period():
    # at 1 kHz, 300 Hz would be rounded to 3 plant steps (333 Hz)
    for rate in (300.0, 2000.0, 0.0, -500.0):
        with pytest.raises(ValueError):
            Scenario(ctl_rate=rate)
    assert Scenario(ctl_rate=250.0).ctl_rate == 250.0


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def test_bench_scheduler_rows_and_ordering(tmp_path):
    res = harness.bench_scheduler([20, 40], reps=3)
    assert [r[0] for r in res["rows"]] == [20, 40]
    for _, tg, te in res["rows"]:
        assert te < tg
    harness.write_bench_csv(res, tmp_path / "bench.csv")
    lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "N,grid_median_s,explicit_median_s"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_and_metrics(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["run", "experiment1-slow", "--out", str(out),
                   "--duration", "0.5", "--seed", "1"])
    assert rc == 0
    log_csv = out / "experiment1-slow_log.csv"
    assert log_csv.exists()
    assert (out / "experiment1-slow_events.csv").exists()
    rc = cli.main(["metrics", str(log_csv)])
    assert rc == 0
    assert "force_rms" in capsys.readouterr().out


def test_cli_run_scenario_file(tmp_path):
    scn = tmp_path / "custom.json"
    tiny_scenario(name="custom", duration=0.3).to_json(scn)
    rc = cli.main(["run", str(scn), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "custom_log.csv").exists()


def test_cli_region_export(tmp_path):
    rc = cli.main(["region-export", "--k-e", "50", "--b-e", "1.0",
                   "--m-t", "4.0", "--N", "20", "--out", str(tmp_path)])
    assert rc == 0
    for cond in ("NS1", "NS2", "NS3"):
        assert (tmp_path / f"{cond}_polygon.csv").exists()
        bm = np.loadtxt(tmp_path / f"{cond}_grid.csv", delimiter=",")
        assert bm.shape == (21, 21)


def test_cli_bench(tmp_path, capsys):
    rc = cli.main(["bench-scheduler", "--N", "15", "25", "--reps", "2",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "bench_scheduler.csv").exists()
    assert "speedup" in capsys.readouterr().out


def test_cli_sweep(tmp_path):
    scn = tmp_path / "s1.json"
    tiny_scenario(name="s1", duration=0.2).to_json(scn)
    rc = cli.main(["sweep", str(scn), "experiment1-slow", "--out",
                   str(tmp_path / "o"), "--duration", "0.2", "--jobs", "2"])
    assert rc == 0
    assert (tmp_path / "o" / "s1_log.csv").exists()
    assert (tmp_path / "o" / "experiment1-slow_log.csv").exists()
