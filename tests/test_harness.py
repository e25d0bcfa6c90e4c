import concurrent.futures
import dataclasses
import gc
import math
import os

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
    p.write_text(",".join(LOG_COLUMNS[1:]) + "\n")
    with pytest.raises(ValueError, match="schema"):
        RunLog.read_csv(p)


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


def test_infeasible_input_holds_previous_command():
    # force noise fakes a contact break at which the desired input points
    # downward (t = 1.02 s): neither extraction can realize it
    log = run(preset("experiment1-fast", duration=1.5, noise_f_f=0.2, seed=1))
    validate_log(log)
    assert log.count_events("extraction_hold") >= 1


def test_validate_log_catches_bad_data(tmp_path):
    log = run(tiny_scenario(duration=0.1))
    bad = RunLog(data=log.data.copy())
    bad.data[1, 0] = bad.data[0, 0]          # non-monotone time
    with pytest.raises(ValueError):
        validate_log(bad)
    bad2 = RunLog(data=log.data.copy())
    bad2.data[0, 5] = math.nan
    with pytest.raises(ValueError):
        validate_log(bad2)
    bad3 = RunLog(data=log.data.copy())
    bad3.data = bad3.data[:, 1:]
    with pytest.raises(ValueError, match="column count"):
        validate_log(bad3)
    # read_csv validates: such logs used to be read, and `uamsim metrics`
    # printed nan metrics for them and exited 0
    bad4 = RunLog(data=log.data[::-1].copy())  # reversed time
    for i, b in enumerate((bad, bad2, bad4)):
        p = tmp_path / f"bad{i}.csv"
        b.write_csv(p)
        with pytest.raises(ValueError):
            RunLog.read_csv(p)
        with pytest.raises(ValueError):
            cli.main(["metrics", str(p)])


def test_runlog_rejects_data_of_the_wrong_width(tmp_path):
    # such tables used to be reshaped silently into rows of 21 values
    n = len(LOG_COLUMNS)
    for shape in ((10, 2 * n), (21, n - 1), (1, n + 1), (n + 1,), (2, 3, n)):
        with pytest.raises(ValueError, match="columns"):
            RunLog(data=np.zeros(shape))
    assert RunLog(data=np.zeros(2 * n)).data.shape == (2, n)
    assert RunLog(data=np.zeros(0)).n_samples == 0
    # the right header over rows of 20 values: read as shifted rows, and
    # `uamsim metrics` printed numbers for it
    p = tmp_path / "narrow.csv"
    rows = np.arange(1.0, 21 * (n - 1) + 1.0).reshape(21, n - 1)
    np.savetxt(p, rows, delimiter=",", header=",".join(LOG_COLUMNS), comments="")
    with pytest.raises(ValueError, match="columns"):
        RunLog.read_csv(p)
    with pytest.raises(ValueError, match="columns"):
        cli.main(["metrics", str(p)])


def test_csv_round_trip(tmp_path):
    log = run(tiny_scenario(duration=0.3))
    p = tmp_path / "log.csv"
    e = tmp_path / "events.csv"
    log.write_csv(p)
    log.write_events_csv(e)
    back = RunLog.read_csv(p, e)
    assert np.allclose(back.data, log.data)
    assert len(back.events) == len(log.events)


def test_csv_round_trip_with_events_keeps_data_and_metrics(tmp_path):
    # a run long enough to settle in contact and to schedule gains
    log = run(preset("experiment1-fast", duration=6.0))
    assert log.count_events("schedule") > 0
    p, e = tmp_path / "log.csv", tmp_path / "events.csv"
    log.write_csv(p)
    log.write_events_csv(e)
    back = RunLog.read_csv(p, e)
    assert np.array_equal(back.data, log.data)
    for a, b in zip(back.events, log.events, strict=True):
        assert a[1:] == b[1:] and abs(a[0] - b[0]) <= 5e-7   # t written to 1 us
    m = metrics(log)
    assert not math.isnan(m["settle_time"])
    assert metrics(back) == m
    assert "provenance_PatternSearch=" in harness.metrics_text(metrics(back))


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


def test_metrics_of_a_one_row_log(tmp_path, capsys):
    # one in-contact row settles at once with a zero window; its lag is 0.0,
    # as there is no second sample to take a period from (t[1] - t[0] used
    # to raise IndexError, and `uamsim metrics` with it)
    log = synthetic_log(0.0, n=1)
    m = metrics(log, 0.0)
    assert m["settle_time"] == log.column("t")[0]
    assert m["xcorr_lag"] == 0.0 and m["force_rms"] == 0.0
    p = tmp_path / "log.csv"
    log.write_csv(p)
    assert cli.main(["metrics", str(p), "--settle-window=0"]) == 0
    assert "xcorr_lag=0.0" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("window", [math.nan, math.inf, -math.inf, -1.0])
def test_settle_window_must_be_finite_and_nonnegative(tmp_path, window):
    # a nan window used to give nan metrics with exit status 0, and a
    # negative one was read as 0
    log = synthetic_log(0.0)
    with pytest.raises(ValueError, match="settle window"):
        settle_index(log, window)
    with pytest.raises(ValueError, match="settle window"):
        metrics(log, window)
    p = tmp_path / "log.csv"
    log.write_csv(p)
    with pytest.raises(ValueError, match="settle window"):
        cli.main(["metrics", str(p), f"--settle-window={window}"])
    assert settle_index(log, 0.0) == 0


def test_xcorr_lag_of_delayed_white_noise_is_exact():
    # windows of one white-noise signal, the measurement k samples late
    # (k > 0) or early; no periodic wrap, so the peak is exactly at k
    x = np.random.default_rng(11).standard_normal(3000)
    dt, start, n = 0.002, 500, 2000
    for k in (-300, -41, -7, -1, 0, 1, 3, 26, 250):
        ref, meas = x[start:start + n], x[start - k:start - k + n]
        assert harness._xcorr_peak_lag(ref, meas, dt) == k * dt


def test_xcorr_lag_equals_the_direct_correlation():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(2, 1500))
        ref, meas = rng.standard_normal(n), rng.standard_normal(n)
        c = np.correlate(meas - meas.mean(), ref - ref.mean(), mode="full")
        lag = int(np.argmax(c)) - (n - 1)
        assert harness._xcorr_peak_lag(ref, meas, 0.01) == lag * 0.01


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


def test_scenario_from_json_rejects_malformed_files(tmp_path):
    # a file that is not an object, or a field of the wrong type, raises a
    # ValueError that names the problem, not an AttributeError or TypeError
    p = tmp_path / "scn.json"
    for text, match in (("[1, 2]", "JSON object, not list"), ("3", "not int"),
                        ('{"duration": null}', "duration"),
                        ('{"duration": "3"}', "duration"),
                        ('{"seed": null}', "seed"), ('{"name": 3}', "name")):
        p.write_text(text)
        with pytest.raises(ValueError, match=match):
            Scenario.from_json(p)


def test_unknown_preset_raises():
    with pytest.raises(KeyError):
        preset("experiment9")


@pytest.mark.parametrize("bad", [
    dict(duration=-1.0), dict(approach_speed=0.0),
    # each of these used to construct and fail only inside run()
    dict(seed=-1), dict(seed=1.5), dict(contact_debounce=2.5),
    dict(k_e_min=600.0), dict(k_p=-1.0), dict(b_f_min=50.0), dict(m_t=0.0),
    dict(k_e=-1.0), dict(tau_att=-1.0), dict(L_f=0.0), dict(omega_n=0.0),
    dict(noise_f_f=-0.1), dict(friction=-1.0),
    dict(dist_amp=(math.nan, 0.0, 0.0)), dict(noise_pos=math.inf),
    dict(force_period=0.0), dict(contact_threshold=-0.1), dict(slew_rate=-1.0),
    dict(thrust_ceiling_factor=0.0), dict(sched_period=-0.1),
    # NaN used to pass every check: these built and ran to the end
    dict(k_e=math.nan), dict(b_e=math.nan), dict(mu1=math.nan),
    dict(force_const=math.nan), dict(tau_att=math.nan),
    # ... these failed at t=0 with a non-finite plant state
    dict(tilt_deg=math.nan), dict(p_s=(1.0, math.nan, 1.5)),
    dict(standoff=math.nan),
    # ... and these failed inside plant.step
    dict(m_t=math.nan), dict(approach_speed=math.nan), dict(k_p=math.nan),
    dict(L_f=math.nan), dict(g=math.nan),
    dict(m_bar=math.nan), dict(yaw_ref=math.inf), dict(slide_speed=-math.inf),
    # an RLSE cap below its prior P0 = 100 ran with a frozen covariance
    dict(rho_M=50.0), dict(rho_M=0.0), dict(mu1=-0.1), dict(mu2=0.0),
    # zero gravity ran with a zero thrust ceiling; negative gravity raised
    # "thrust must be nonnegative" at t=0
    dict(g=0.0), dict(g=-9.81),
    # a slide_dir of the wrong length built, and run() raised "too many
    # values to unpack" at its first tick; every vector field is checked
    dict(slide_dir=(0.0, 1.0, 0.0)), dict(p_s=(1.0, 1.5)),
    dict(dist_freq=(0.0, 0.0, 0.0, 0.0)),
    # a string or None in a number field, or a number in a text field,
    # raised a TypeError from a comparison or passed
    dict(duration=None), dict(duration="3"), dict(seed=None), dict(k_e="200"),
    dict(m_bar="4.2"), dict(name=3), dict(force_profile=None),
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_scenario_validation(bad):
    # a bad vector field, of the wrong length or not finite, and a field of
    # the wrong type are named
    (name, value), = bad.items()
    named = (name in ("p_s", "slide_dir", "dist_const", "dist_amp", "dist_freq")
             or isinstance(value, (str, type(None))) or name == "name")
    with pytest.raises(ValueError, match=name if named else None):
        Scenario(**bad)


def test_motion_setpoint_equals_numpy_form_bit_for_bit():
    # the float slide setpoint keeps the operation order of its numpy form
    # x_m0 + unit * speed * max(0, t - start)
    rng = np.random.default_rng(8)
    for _ in range(300):
        d = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 3.0)
        sc = Scenario(motion_profile="slide", slide_dir=tuple(d),
                      slide_speed=rng.uniform(0.0, 2.0),
                      slide_start=rng.uniform(0.0, 5.0))
        x_m0 = tuple(rng.normal(size=2).tolist())
        t = rng.uniform(0.0, 20.0)
        unit = d / math.hypot(*d)
        expect = np.asarray(x_m0) + unit * sc.slide_speed * max(0.0, t - sc.slide_start)
        out = sc.motion_setpoint(t, x_m0)
        assert type(out) is tuple and list(out) == expect.tolist()
    hold = Scenario(motion_profile="hold")
    assert hold.motion_setpoint(3.0, (0.25, -1.0)) == (0.25, -1.0)


def test_run_steps_plant_through_module_attribute(monkeypatch):
    # the loop looks plant.step up on the module at every call (the
    # benchmark's tracer wraps it there), 1000 times per simulated second;
    # the log, allocated before the loop, has one row per controller tick
    calls = []
    step = harness.plantmod.step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(harness.plantmod, "step", counted)
    for duration, n_steps, n_rows in ((0.5, 500, 251), (0.001, 1, 1),
                                      (0.0035, 4, 3), (1.0, 1000, 501)):
        calls.clear()
        sc = tiny_scenario(duration=duration)
        log = run(sc)
        assert len(calls) == round(sc.duration / sc.plant_dt) == n_steps
        assert log.n_samples == n_rows
        validate_log(log)


def test_run_starts_references_at_the_ticks_own_projection():
    # the first row's motion references equal the tick's noise-free
    # measurement of the start state to the bit, on yawed surfaces too
    rng = np.random.default_rng(5)
    for _ in range(100):
        tilt, yaw = rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0)
        log = run(Scenario(duration=0.0, tilt_deg=tilt, yaw_deg=yaw,
                           motion_profile="hold"))
        assert log.column("x_mr1")[0] == log.column("x_m1")[0]
        assert log.column("x_mr2")[0] == log.column("x_m2")[0]


def test_run_warm_starts_each_schedule_from_the_last_gains(monkeypatch):
    # the loop calls schedule() through the module attribute and passes the
    # gains it last chose: the box midpoint before the first schedule
    calls = []
    schedule = harness.sched.schedule

    def recorded(*args, **kwargs):
        res = schedule(*args, **kwargs)
        calls.append((args, kwargs, res))
        return res

    monkeypatch.setattr(harness.sched, "schedule", recorded)
    sc = preset("experiment1-fast", duration=3.0)
    run(sc)
    assert len(calls) > 5
    start = sc.gain_box().mid
    for args, kwargs, res in calls:
        assert len(args) == 7 and not kwargs
        assert args[6] == start
        start = (res.k_f, res.b_f)


def test_rlse_latches_the_surface_where_the_force_first_crossed(monkeypatch):
    # from each detector make on, the estimator's x_fs is the x_f logged
    # contact_debounce - 1 rows before the make, where the debounce began:
    # a measurement, never the true surface
    calls = []
    rlse_update = harness.estm.rlse_update

    def recorded(*args):
        calls.append(args[4])
        return rlse_update(*args)

    monkeypatch.setattr(harness.estm, "rlse_update", recorded)
    for debounce in (1, 3, 5):
        calls.clear()
        sc = preset("experiment1-slow", duration=8.0, seed=3,
                    contact_debounce=debounce, k_e=50.0, b_e=0.2, k_d=25.0,
                    K_md=25.0, noise_f_f=0.1)
        log = run(sc)
        x_f = log.column("x_f")
        makes = [round(t * sc.ctl_rate) for t, kind, _ in log.events
                 if kind == "detector_make"]
        assert len(makes) >= 3
        rows = np.flatnonzero(log.column("mode") == 1.0)
        assert len(rows) == len(calls)        # one update per contact tick
        for k, x_fs in zip(rows, calls):
            make = max(j for j in makes if j <= k)
            assert x_fs == x_f[make - (debounce - 1)]
        assert sc.surface().x_fs not in calls


@pytest.mark.parametrize("name", ["experiment1-fast", "experiment2-tilted"])
def test_turning_the_scene_about_the_vertical_changes_nothing(name):
    # the surface, p_s and the yaw reference turned together about e3 by a
    # random psi: the force- and motion-frame signals, gains, estimates,
    # thrust, modes and events are those of the unturned run
    cols = ("x_f", "f_f", "f_fr", "k_f", "b_f", "k_e_hat", "b_e_hat",
            "thrust", "mode", "in_contact")

    def signals(sc):
        log = run(sc)
        data = [log.column(c) for c in cols] + [
            log.column(f"x_m{i}") - log.column(f"x_mr{i}") for i in (1, 2)]
        kinds = [(round(t / sc.plant_dt), kind) for t, kind, _ in log.events]
        return np.column_stack(data), kinds

    base = preset(name, duration=10.0)
    want, want_events = signals(base)
    px, py, pz = base.p_s
    for psi in np.random.default_rng(14).uniform(-180.0, 180.0, 2):
        c, s = math.cos(math.radians(psi)), math.sin(math.radians(psi))
        got, events = signals(dataclasses.replace(
            base, yaw_deg=psi, yaw_ref=math.radians(psi),
            p_s=(c * px - s * py, s * px + c * py, pz)))
        assert np.abs(got - want).max() <= 1e-9, psi
        assert events == want_events, psi


@pytest.mark.parametrize("name", ["experiment1-fast", "experiment2-tilted"])
def test_moving_the_scene_changes_nothing(name):
    # p_s moved by a random offset, and the start with it: the force
    # direction's position relative to the surface, the force and the motion
    # tracking error are those of the unmoved run, with the same events at
    # the same ticks
    def signals(sc):
        log = run(sc)
        data = [log.column("x_f") - sc.surface().x_fs, log.column("f_f")] + [
            log.column(f"x_m{i}") - log.column(f"x_mr{i}") for i in (1, 2)]
        kinds = [(round(t / sc.plant_dt), kind) for t, kind, _ in log.events]
        return np.column_stack(data), kinds

    base = preset(name, duration=10.0)
    want, want_events = signals(base)
    offset = np.random.default_rng(140).uniform(-5.0, 5.0, 3)
    got, events = signals(dataclasses.replace(
        base, p_s=tuple(float(p + d) for p, d in zip(base.p_s, offset))))
    assert np.abs(got - want).max() <= 1e-9
    assert events == want_events


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


def test_scenario_rejects_contact_debounce_below_one():
    # the contact latch keeps the last contact_debounce samples of x_f
    for n in (0, -1):
        with pytest.raises(ValueError):
            Scenario(contact_debounce=n)
    assert Scenario(contact_debounce=1).contact_debounce == 1


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
    with pytest.raises(ValueError, match="at least one N"):
        harness.bench_scheduler([])
    with pytest.raises(ValueError, match="reps"):     # gave rows of nan
        harness.bench_scheduler([20], reps=0)
    # the timed calls run without the collector, which is then left as it was
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            harness.bench_scheduler([20], reps=1)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


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


def test_cli_bench_and_region_export_reject_bad_sizes(tmp_path, capsys):
    # --N 5 5 printed a grid exponent fitted to one abscissa, --reps 0 nan
    # rows, and --N 0 ended in a traceback
    out = ["--out", str(tmp_path)]
    for cmd, args in (("bench-scheduler", ["--N", "0"]),
                      ("bench-scheduler", ["--N", "5", "-2"]),
                      ("bench-scheduler", ["--reps", "0"]),
                      ("region-export", ["--N", "0"])):
        with pytest.raises(SystemExit) as exc:
            cli.main([cmd, *args, *out])
        assert exc.value.code == 2
        assert "at least 1" in capsys.readouterr().err
    with pytest.raises(ValueError, match="repeated N"):
        cli.main(["bench-scheduler", "--N", "5", "5", "--reps", "1", *out])
    assert not (tmp_path / "bench_scheduler.csv").exists()


def test_cli_sweep(tmp_path):
    scn = tmp_path / "s1.json"
    tiny_scenario(name="s1", duration=0.2).to_json(scn)
    rc = cli.main(["sweep", str(scn), "experiment1-slow", "--out",
                   str(tmp_path / "o"), "--duration", "0.2", "--jobs", "2"])
    assert rc == 0
    assert (tmp_path / "o" / "s1_log.csv").exists()
    assert (tmp_path / "o" / "experiment1-slow_log.csv").exists()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs each
    job inline, so the test starts no process."""

    def __init__(self, seen, max_workers=None):
        seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = concurrent.futures.Future()
        fut.set_result(fn(*args))
        return fut


def test_cli_sweep_workers_bounded_by_scenarios(tmp_path, monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers=None: RecordingPool(seen, max_workers))
    scns = []
    for name in ("a", "b"):
        scns.append(str(tmp_path / f"{name}.json"))
        tiny_scenario(name=name, duration=0.02).to_json(scns[-1])
    out = str(tmp_path / "o")
    for jobs, workers in ((["--jobs", "64"], 2), (["--jobs", "1"], 1),
                          ([], min(os.cpu_count() or 1, 2))):
        assert cli.main(["sweep", *scns, "--out", out, *jobs]) == 0
        assert seen.pop() == workers
    assert cli.main(["sweep", scns[0], "--out", out]) == 0
    assert seen.pop() == 1
    assert (tmp_path / "o" / "b_log.csv").exists()
    for bad in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", *scns, "--out", out, "--jobs", bad])
        assert exc.value.code == 2
    assert seen == []
    assert "--jobs" in capsys.readouterr().err


def test_cli_sweep_refuses_clashing_names_before_any_run(tmp_path, monkeypatch,
                                                          capsys):
    # scenarios of one name would write the same files; each is resolved in
    # the parent, so a clash or an unknown preset stops the sweep before the
    # pool exists
    seen = []
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers=None: RecordingPool(seen, max_workers))
    scns = []
    for k_e in (150.0, 300.0):              # default name: both are "custom"
        scns.append(str(tmp_path / f"k{k_e:.0f}.json"))
        Scenario(k_e=k_e, duration=0.02).to_json(scns[-1])
    out = tmp_path / "o"
    assert cli.main(["sweep", *scns, "--out", str(out)]) == 2
    assert "custom" in capsys.readouterr().err
    assert cli.main(["sweep", "experiment1-slow", scns[0], "experiment1-slow",
                     "--out", str(out), "--duration", "0.02"]) == 2
    assert "experiment1-slow" in capsys.readouterr().err
    with pytest.raises(KeyError):
        cli.main(["sweep", scns[0], "experiment9", "--out", str(out)])
    assert seen == []
    assert list(tmp_path.rglob("*_log.csv")) == []
