"""Closed-loop scenario orchestration, metrics and the scheduler benchmark.

A scenario wires the plant at 1 kHz with the controller/estimator at 500 Hz
and the gain scheduler at 10 Hz, logs a fixed-schema time series at the
controller rate plus a sidecar event list, and is fully reproducible from
its seed.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import controller as ctl
from . import estimator as estm
from . import plant as plantmod
from . import reference as refgen
from . import scheduler as sched
from .plant import (DisturbanceConfig, MeasurementNoise, PlantConfig,
                    PlantState, SurfaceModel)
from .scheduler import GainBox

LOG_COLUMNS = (
    "t", "p_x", "p_y", "p_z", "x_f", "f_f", "f_fr",
    "x_m1", "x_m2", "x_mr1", "x_mr2",
    "k_f", "b_f", "k_e_hat", "b_e_hat",
    "mode", "in_contact", "thrust", "roll", "pitch", "yaw",
)


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """One closed-loop experiment. Defaults give the reference bench parameter set."""

    name: str = "custom"
    duration: float = 20.0
    seed: int = 0

    # surface
    tilt_deg: float = 30.0
    yaw_deg: float = 0.0
    p_s: tuple = (1.0, 0.0, 1.5)
    k_e: float = 200.0
    b_e: float = 0.5

    # approach and setpoint profiles
    standoff: float = 0.5
    approach_speed: float = 0.1
    approach_depth: float = 0.1
    force_profile: str = "constant"          # constant | sinusoid
    force_const: float = -6.0
    force_mean: float = -3.5
    force_amp: float = 2.5
    force_period: float = 5.0
    motion_profile: str = "hold"             # hold | slide
    slide_dir: tuple = (0.0, 1.0)
    slide_speed: float = 0.05
    slide_start: float = 5.0

    # plant
    m_t: float = 4.2
    g: float = 9.81
    tau_att: float = 0.02
    plant_dt: float = 1e-3
    dist_const: tuple = (0.0, 0.0, 0.0)
    dist_amp: tuple = (0.0, 0.0, 0.0)
    dist_freq: tuple = (0.0, 0.0, 0.0)
    friction: float = 0.0
    noise_f_f: float = 0.0
    noise_pos: float = 0.0
    noise_vel: float = 0.0

    # controller
    m_bar: float | None = None               # defaults to m_t
    omega_n: float = 10.0
    k_p: float = 23.5
    k_d: float = 19.5
    K_m: float = 23.5
    K_md: float = 19.5
    L_f: float = 10.0
    L_m: float = 10.0
    thrust_ceiling_factor: float = 2.0
    ctl_rate: float = 500.0
    sched_period: float = 0.1
    slew_rate: float = 5.0
    yaw_ref: float = 0.0

    # estimator
    mu1: float = 0.9996
    mu2: float = 0.9996
    rho_M: float = 5000.0
    k_e_min: float = 50.0
    k_e_max: float = 500.0
    b_e_min: float = 0.1
    b_e_max: float = 1.0
    contact_threshold: float = 0.1
    contact_debounce: int = 3

    # gain box
    k_f_min: float = 0.1
    k_f_max: float = 1.0
    b_f_min: float = 10.0
    b_f_max: float = 40.0

    def __post_init__(self):
        if self.duration < 0.0:
            raise ValueError("duration must be nonnegative")
        if self.approach_speed <= 0.0:
            raise ValueError("approach speed must be positive")
        if self.force_profile not in ("constant", "sinusoid"):
            raise ValueError(f"unknown force profile {self.force_profile!r}")
        if self.motion_profile not in ("hold", "slide"):
            raise ValueError(f"unknown motion profile {self.motion_profile!r}")
        steps = (1.0 / (self.ctl_rate * self.plant_dt)
                 if self.ctl_rate > 0.0 and self.plant_dt > 0.0 else 0.0)
        if round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError("ctl_rate must give a period of a whole number "
                             "of plant steps")
        for name in ("p_s", "slide_dir", "dist_const", "dist_amp", "dist_freq"):
            setattr(self, name, tuple(float(v) for v in getattr(self, name)))

    # -- wiring helpers ----------------------------------------------------

    def surface(self) -> SurfaceModel:
        return SurfaceModel.from_tilt(self.tilt_deg, self.yaw_deg, self.p_s,
                                      self.k_e, self.b_e)

    def plant_config(self) -> PlantConfig:
        return PlantConfig(
            m_t=self.m_t, g=self.g, tau_att=self.tau_att, dt=self.plant_dt,
            disturbance=DisturbanceConfig(
                const=np.asarray(self.dist_const, dtype=float),
                amp=np.asarray(self.dist_amp, dtype=float),
                freq_hz=np.asarray(self.dist_freq, dtype=float),
                tangential_friction=self.friction),
            noise=MeasurementNoise(pos=self.noise_pos, vel=self.noise_vel,
                                   f_f=self.noise_f_f),
        )

    def gain_set(self) -> ctl.GainSet:
        box = self.gain_box()
        mk, mb = box.mid
        return ctl.GainSet(
            k_p=self.k_p, k_d=self.k_d,
            K_mp=self.K_m * np.eye(2), K_md=self.K_md * np.eye(2),
            k_f=mk, b_f=mb, L_f=self.L_f, L_m=self.L_m * np.eye(2),
            m_bar=self.m_bar if self.m_bar is not None else self.m_t,
            g_bar=self.g)

    def rlse_config(self) -> estm.RlseConfig:
        return estm.RlseConfig(mu1=self.mu1, mu2=self.mu2, rho_M=self.rho_M,
                               k_min=self.k_e_min, k_max=self.k_e_max,
                               b_min=self.b_e_min, b_max=self.b_e_max)

    def gain_box(self) -> GainBox:
        return GainBox(self.k_f_min, self.k_f_max, self.b_f_min, self.b_f_max)

    # -- setpoint profiles -------------------------------------------------

    def force_setpoint(self, t_since_contact: float) -> float:
        if self.force_profile == "constant":
            return self.force_const
        return self.force_mean + self.force_amp * math.cos(
            2.0 * math.pi * t_since_contact / self.force_period)

    def motion_setpoint(self, t: float, x_m0: np.ndarray) -> np.ndarray:
        if self.motion_profile == "hold":
            return x_m0
        d = np.asarray(self.slide_dir, dtype=float)
        n = np.linalg.norm(d)
        d = d / n if n > 0 else d
        return x_m0 + d * self.slide_speed * max(0.0, t - self.slide_start)

    # -- serialization -----------------------------------------------------

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2)

    @classmethod
    def from_json(cls, path, **overrides) -> "Scenario":
        with open(path) as fh:
            raw = json.load(fh)
        raw.update(overrides)
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - names
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        return cls(**raw)


def preset(name: str, **overrides) -> Scenario:
    """Named presets for the standard approach/press/slide experiments."""
    presets = {
        "experiment1-slow": dict(
            name="experiment1-slow", tilt_deg=30.0, approach_speed=0.1,
            force_profile="constant", motion_profile="hold"),
        "experiment1-fast": dict(
            name="experiment1-fast", tilt_deg=30.0, approach_speed=0.3,
            force_profile="sinusoid", motion_profile="hold"),
        "experiment2-vertical": dict(
            name="experiment2-vertical", tilt_deg=0.0, approach_speed=0.3,
            force_profile="sinusoid", motion_profile="slide"),
        "experiment2-tilted": dict(
            name="experiment2-tilted", tilt_deg=30.0, approach_speed=0.1,
            force_profile="sinusoid", motion_profile="slide"),
    }
    if name not in presets:
        raise KeyError(f"unknown preset {name!r}; have {sorted(presets)}")
    cfg = presets[name] | overrides
    return Scenario(**cfg)


# ---------------------------------------------------------------------------
# run log
# ---------------------------------------------------------------------------

@dataclass
class RunLog:
    data: np.ndarray
    events: list = field(default_factory=list)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float).reshape(-1, len(LOG_COLUMNS))

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.data[:, LOG_COLUMNS.index(name)]

    def count_events(self, kind: str) -> int:
        return sum(1 for e in self.events if e[1] == kind)

    def write_csv(self, path) -> None:
        header = ",".join(LOG_COLUMNS)
        np.savetxt(path, self.data, delimiter=",", header=header, comments="")

    def write_events_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,kind,detail\n")
            for t, kind, detail in self.events:
                fh.write(f"{t:.6f},{kind},{detail}\n")

    @classmethod
    def read_csv(cls, path, events_path=None) -> "RunLog":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            body = fh.read().strip()
        if tuple(header) != LOG_COLUMNS:
            raise ValueError("log CSV columns do not match the fixed schema")
        if body:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        else:
            data = np.empty((0, len(LOG_COLUMNS)))
        events = []
        if events_path is not None:
            with open(events_path) as fh:
                fh.readline()
                for line in fh:
                    t, kind, detail = line.rstrip("\n").split(",", 2)
                    events.append((float(t), kind, detail))
        return cls(data=data, events=events)


def validate_log(log: RunLog) -> None:
    """Schema check: fixed column count, finite values, monotone time."""
    if log.data.shape[1] != len(LOG_COLUMNS):
        raise ValueError("wrong column count")
    if log.n_samples == 0:
        return
    if not np.all(np.isfinite(log.data)):
        raise ValueError("non-finite log values")
    t = log.column("t")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("timestamps not strictly increasing")


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

def run(scenario: Scenario) -> RunLog:
    """Simulate one scenario and return the complete log."""
    surface = scenario.surface()
    pcfg = scenario.plant_config()
    rng = np.random.default_rng(scenario.seed)

    p0 = surface.p_s - scenario.standoff * surface.B_f
    st = PlantState(p_e=p0, v_e=np.zeros(3), phi=np.zeros(3))

    gains = scenario.gain_set()
    box = scenario.gain_box()
    rcfg = scenario.rlse_config()
    est = rcfg.initial_estimate()
    detector = estm.ContactDetector(threshold=scenario.contact_threshold,
                                    debounce=scenario.contact_debounce)
    dob = ctl.DOBState()
    slew = sched.SlewLimitedGains(gains.k_f, gains.b_f, rate=scenario.slew_rate)

    x_f0 = float(surface.B_f @ p0)
    x_m0 = surface.B_m.T @ p0
    ref = refgen.ReferenceState.at_rest(x_f0, x_m0)

    dt = scenario.plant_dt
    n_steps = round(scenario.duration / dt)
    ctl_every = round(1.0 / (scenario.ctl_rate * dt))
    dt_ctl = ctl_every * dt
    ceiling = scenario.thrust_ceiling_factor * gains.m_bar * gains.g_bar
    x_fd_target = surface.x_fs + scenario.approach_depth

    rows = []
    events = []
    T_cmd = pcfg.m_t * pcfg.g
    phi_r = np.array([0.0, 0.0, scenario.yaw_ref])
    x_fs_hat = surface.x_fs        # latched on contact detection
    x_f_recent = deque(maxlen=scenario.contact_debounce)  # x_f for the latch
    t_contact0 = None              # first detected contact (force phase origin)
    target_k, target_b = gains.k_f, gains.b_f
    last_sched_t = -math.inf
    saturated = False
    was_in_contact_true = st.in_contact

    for i in range(n_steps + 1):
        t = i * dt

        if i % ctl_every == 0:
            if not (np.all(np.isfinite(st.p_e)) and np.all(np.isfinite(st.v_e))):
                raise RuntimeError(f"non-finite plant state at t={t:.3f}")

            meas = plantmod.measure(st, surface, pcfg, rng)
            prev_contact = detector.in_contact
            in_contact = detector.update(meas.f_f)
            x_f_recent.append(meas.x_f)

            if in_contact and not prev_contact:
                events.append((t, "detector_make", f"f_f={meas.f_f:.3f}"))
                # anchor at the sample where the force first exceeded the
                # threshold (the debounce only confirms contact began then)
                x_fs_hat = x_f_recent[0]
                if t_contact0 is None:
                    t_contact0 = t
                ref = refgen.switch_mode(ref, refgen.CONTACT, meas.f_f)
                last_sched_t = -math.inf       # force an immediate schedule
            elif prev_contact and not in_contact:
                events.append((t, "detector_break", ""))
                ref = refgen.switch_mode(ref, refgen.FREE)

            if in_contact:
                est = estm.rlse_update(est, meas.x_f, meas.x_dot_f, meas.f_f,
                                       x_fs_hat, rcfg, dt_ctl)
                if t - last_sched_t >= scenario.sched_period:
                    res = sched.schedule(gains.k_p, gains.k_d, est.k_hat,
                                         est.b_hat, gains.m_bar, box)
                    if (target_k, target_b) != (res.k_f, res.b_f):
                        events.append((t, "schedule", res.provenance))
                    target_k, target_b = res.k_f, res.b_f
                    last_sched_t = t
                gains.k_f, gains.b_f = slew.track(target_k, target_b, dt_ctl)

            tc = t - t_contact0 if t_contact0 is not None else 0.0
            f_fd = scenario.force_setpoint(tc)
            x_md = scenario.motion_setpoint(t, x_m0)
            x_fd = min(x_f0 + scenario.approach_speed * t, x_fd_target)

            if ref.mode == refgen.CONTACT:
                ref = refgen.contact_step(ref, f_fd, x_md, est,
                                          scenario.omega_n, dt_ctl)
            else:
                ref = refgen.free_step(ref, x_fd, x_md, scenario.omega_n, dt_ctl)

            d_f, d_m = ctl.dob_estimates(dob, meas, gains)
            u_f = ctl.control_force(ref, meas, d_f, gains, surface)
            u_m = ctl.control_motion(ref, meas, d_m, gains, surface)
            dob = ctl.dob_update(dob, meas, u_f, u_m, gains, surface,
                                 in_contact, dt_ctl)

            u_e = ctl.compose_u(u_f, u_m, surface)
            try:
                T_cmd, phi_xr, phi_yr = ctl.extract_inputs(u_e, st.phi)
            except ctl.InfeasibleInput:
                # large attitude error puts the yaw-aligned extraction
                # outside its asin domain; the exact inversion still
                # realizes any input with an upward component
                T_cmd, phi_xr, phi_yr = ctl.invert_inputs(u_e, scenario.yaw_ref)
                events.append((t, "extraction_fallback", f"T={T_cmd:.1f}"))
            if T_cmd > ceiling:
                T_cmd = ceiling
                if not saturated:
                    events.append((t, "thrust_saturation", f"T={T_cmd:.2f}"))
                    saturated = True
            else:
                saturated = False
            phi_r = np.array([phi_xr, phi_yr, scenario.yaw_ref])

            rows.append((
                t, st.p_e[0], st.p_e[1], st.p_e[2], meas.x_f, meas.f_f,
                ref.f_fr, meas.x_m[0], meas.x_m[1], ref.x_mr[0], ref.x_mr[1],
                gains.k_f, gains.b_f, est.k_hat, est.b_hat,
                1.0 if ref.mode == refgen.CONTACT else 0.0,
                1.0 if st.in_contact else 0.0,
                T_cmd, st.phi[0], st.phi[1], st.phi[2],
            ))

        if i == n_steps:
            break
        st = plantmod.step(st, T_cmd, phi_r, surface, pcfg)
        if st.in_contact != was_in_contact_true:
            kind = "contact_make" if st.in_contact else "contact_break"
            events.append((st.t, kind, ""))
            was_in_contact_true = st.in_contact

    data = np.array(rows) if rows else np.empty((0, len(LOG_COLUMNS)))
    return RunLog(data=data, events=events)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def settle_index(log: RunLog, settle_window: float = 3.0) -> int | None:
    """First sample index after `settle_window` seconds of unbroken contact."""
    if log.n_samples == 0:
        return None
    t = log.column("t")
    inc = log.column("in_contact") > 0.5
    start = None
    for i in range(log.n_samples):
        if inc[i]:
            if start is None:
                start = i
            if t[i] - t[start] >= settle_window:
                return i
        else:
            start = None
    return None


def metrics(log: RunLog, settle_window: float = 3.0) -> dict:
    """Post-settling tracking errors plus switching/scheduling statistics."""
    if log.n_samples == 0:
        raise ValueError("empty log")
    out: dict = {}
    t = log.column("t")
    idx = settle_index(log, settle_window)
    out["settle_time"] = float(t[idx]) if idx is not None else math.nan

    e_ff = log.column("f_f") - log.column("f_fr")
    e_m = np.stack([log.column("x_m1") - log.column("x_mr1"),
                    log.column("x_m2") - log.column("x_mr2")], axis=1)
    if idx is not None:
        w = slice(idx, None)
        out["force_rms"] = float(np.sqrt(np.mean(e_ff[w] ** 2)))
        out["force_max_abs"] = float(np.max(np.abs(e_ff[w])))
        out["motion_rms"] = float(np.sqrt(np.mean(np.sum(e_m[w] ** 2, axis=1))))
        out["breaks_after_settle"] = sum(
            1 for te, kind, _ in log.events
            if kind == "contact_break" and te >= t[idx])
        out["xcorr_lag"] = _xcorr_peak_lag(
            log.column("f_fr")[w], log.column("f_f")[w], t[1] - t[0])
    else:
        for k in ("force_rms", "force_max_abs", "motion_rms", "xcorr_lag"):
            out[k] = math.nan
        out["breaks_after_settle"] = 0

    out["contact_switches"] = (log.count_events("contact_make")
                               + log.count_events("contact_break"))
    hist: dict[str, int] = {}
    for _, kind, detail in log.events:
        if kind == "schedule":
            hist[detail] = hist.get(detail, 0) + 1
    out["provenance"] = hist
    return out


def _xcorr_peak_lag(ref: np.ndarray, meas: np.ndarray, dt: float) -> float:
    """Lag (s) of the cross-correlation peak; positive = measurement late."""
    r = ref - ref.mean()
    m = meas - meas.mean()
    if np.allclose(r, 0.0) or np.allclose(m, 0.0):
        return 0.0
    c = np.correlate(m, r, mode="full")
    lag = int(np.argmax(c)) - (len(r) - 1)
    return lag * dt


def metrics_text(m: dict) -> str:
    lines = []
    for k, v in m.items():
        if k == "provenance":
            for name, n in sorted(v.items()):
                lines.append(f"provenance_{name}={n}")
        else:
            lines.append(f"{k}={v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scheduler benchmark
# ---------------------------------------------------------------------------

def bench_scheduler(N_list, reps: int = 20, k_p: float = 23.5,
                    k_d: float = 19.5, k_e: float = 200.0, b_e: float = 0.5,
                    m_t: float = 4.0, box: GainBox | None = None) -> dict:
    """Median wall time of grid search vs explicit inequalities per N.

    Returns {"rows": [(N, t_grid, t_explicit)], "grid_exponent": float}.
    Both methods compute all three no-switching regions.
    """
    if not N_list:
        raise ValueError("need at least one N")
    box = box or GainBox()

    def _time_grid(N):
        t0 = time.perf_counter()
        for cond in (sched.NS1, sched.NS2, sched.NS3):
            sched.region_grid(cond, k_p, k_d, k_e, b_e, m_t, box, N)
        return time.perf_counter() - t0

    def _time_explicit():
        t0 = time.perf_counter()
        for cond in (sched.NS1, sched.NS2, sched.NS3):
            sched.region_explicit(cond, k_p, k_d, k_e, b_e, m_t, box)
        return time.perf_counter() - t0

    _time_grid(min(N_list))          # warmup
    _time_explicit()
    tg = {N: [] for N in N_list}
    te = {N: [] for N in N_list}
    # interleave repetitions across N so load drift hits all sizes alike,
    # and keep the collector out of the timed sections
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            for N in N_list:
                tg[N].append(_time_grid(N))
                te[N].append(_time_explicit())
                gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    rows = [(int(N), float(np.median(tg[N])), float(np.median(te[N])))
            for N in N_list]

    expo = math.nan
    if len(rows) >= 2:
        # fit on per-size minima: the least load-contaminated cost estimate
        lx = np.log(list(N_list))
        ly = np.log([min(tg[N]) for N in N_list])
        expo = float(np.polyfit(lx, ly, 1)[0])
    return {"rows": rows, "grid_exponent": expo}


def write_bench_csv(result: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write("N,grid_median_s,explicit_median_s\n")
        for N, tg, te in result["rows"]:
            fh.write(f"{N},{tg:.6e},{te:.6e}\n")


def write_region_csv(region: sched.GainRegion, path) -> None:
    """Polygon vertex list as CSV (empty file body for an empty region)."""
    with open(path, "w") as fh:
        fh.write(f"# condition={region.condition_id} area={region.area:.6e}\n")
        fh.write("k_f,b_f\n")
        for k, b in region.vertices:
            fh.write(f"{k:.8f},{b:.8f}\n")


def write_bitmap_csv(bitmap: np.ndarray, path) -> None:
    """Row-major 0/1 bitmap of a grid search result."""
    np.savetxt(path, bitmap.astype(int), fmt="%d", delimiter=",")
