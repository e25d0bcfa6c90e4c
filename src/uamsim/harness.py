"""Closed-loop scenario orchestration, metrics and the scheduler benchmark.

A scenario wires the plant at 1 kHz with the controller/estimator at 500 Hz
and the gain scheduler at 10 Hz, logs a fixed-schema time series at the
controller rate plus a sidecar event list, and is fully reproducible from
its seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import timeit
from collections import deque
from dataclasses import dataclass, field
from math import inf
from numbers import Real

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
        for name, n in (("p_s", 3), ("slide_dir", 2), ("dist_const", 3),
                        ("dist_amp", 3), ("dist_freq", 3)):
            try:
                setattr(self, name, plantmod.as_floats(getattr(self, name), n))
            except ValueError as e:
                raise ValueError(f"{name} must be {n} floats: {e}") from None
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(f.default, str):          # the text fields
                if not isinstance(v, str):
                    raise ValueError(f"{f.name} must be a string")
            elif not (v is None and f.default is None   # m_bar defaults to m_t
                      or all(isinstance(x, Real) and math.isfinite(x)
                             for x in (v if isinstance(v, tuple) else (v,)))):
                raise ValueError(f"{f.name} must be a finite number")
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
        for name in ("seed", "contact_debounce"):
            if not isinstance(getattr(self, name), int):
                raise ValueError(f"{name} must be an integer")
        if self.contact_debounce < 1:
            raise ValueError("contact_debounce must be at least 1")
        for name in ("omega_n", "force_period", "thrust_ceiling_factor"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("seed", "contact_threshold", "slew_rate", "sched_period"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be nonnegative")
        (d0, d1), n = self.slide_dir, math.hypot(*self.slide_dir)
        self._slide_unit = (d0 / n, d1 / n) if n > 0.0 else self.slide_dir
        # each component checks its own parameters when it is built
        for build in (self.surface, self.plant_config, self.gain_set,
                      self.rlse_config):
            build()

    # -- wiring helpers ----------------------------------------------------

    def surface(self) -> SurfaceModel:
        return SurfaceModel.from_tilt(self.tilt_deg, self.yaw_deg, self.p_s,
                                      self.k_e, self.b_e)

    def plant_config(self) -> PlantConfig:
        return PlantConfig(
            m_t=self.m_t, g=self.g, tau_att=self.tau_att, dt=self.plant_dt,
            disturbance=DisturbanceConfig(
                const=self.dist_const, amp=self.dist_amp,
                freq_hz=self.dist_freq, tangential_friction=self.friction),
            noise=MeasurementNoise(pos=self.noise_pos, vel=self.noise_vel,
                                   f_f=self.noise_f_f),
        )

    def gain_set(self) -> ctl.GainSet:
        box = self.gain_box()
        mk, mb = box.mid
        return ctl.GainSet(
            k_p=self.k_p, k_d=self.k_d,
            K_mp=self.K_m, K_md=self.K_md,
            k_f=mk, b_f=mb, L_f=self.L_f, L_m=self.L_m,
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

    def motion_setpoint(self, t: float, x_m0) -> tuple[float, float]:
        if self.motion_profile == "hold":
            return x_m0
        (x0, x1), (u0, u1) = x_m0, self._slide_unit
        s, travel = self.slide_speed, max(0.0, t - self.slide_start)
        return (x0 + u0 * s * travel, x1 + u1 * s * travel)

    # -- serialization -----------------------------------------------------

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2)

    @classmethod
    def from_json(cls, path, **overrides) -> "Scenario":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("a scenario file must hold a JSON object, not "
                             f"{type(raw).__name__}")
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
        # a table of LOG_COLUMNS columns, or a flat array of whole rows
        data, n = np.asarray(self.data, dtype=float), len(LOG_COLUMNS)
        if not (data.shape[1] == n if data.ndim == 2
                else data.ndim == 1 and data.size % n == 0):
            raise ValueError(f"log data must have {n} columns, got shape "
                             f"{data.shape}")
        self.data = data.reshape(-1, n)

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
        log = cls(data=data, events=events)
        validate_log(log)
        return log


def validate_log(log: RunLog) -> None:
    """Schema check: fixed column count, finite values, monotone time.
    RunLog.read_csv applies it to every log it reads."""
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

    st = PlantState(p_e=surface.p_s - scenario.standoff * surface.B_f,
                    v_e=(0.0, 0.0, 0.0), phi=(0.0, 0.0, scenario.yaw_ref))

    gains = scenario.gain_set()
    box = scenario.gain_box()
    rcfg = scenario.rlse_config()
    est = rcfg.initial_estimate()
    detector = estm.ContactDetector(threshold=scenario.contact_threshold,
                                    debounce=scenario.contact_debounce)
    dob = ctl.DOBState()
    slew = sched.SlewLimitedGains(gains.k_f, gains.b_f, rate=scenario.slew_rate)

    start = plantmod.measure(st, surface, pcfg)   # the tick's projection, no noise
    x_f0, x_m0 = start.x_f, start.x_m
    ref = refgen.ReferenceState(x_fr=x_f0, x_mr=x_m0)

    dt = scenario.plant_dt
    n_steps = round(scenario.duration / dt)
    ctl_every = round(1.0 / (scenario.ctl_rate * dt))
    dt_ctl = ctl_every * dt
    ceiling = scenario.thrust_ceiling_factor * gains.m_bar * gains.g_bar
    x_fd_target = surface.x_fs + scenario.approach_depth

    row = struct.Struct(f"{len(LOG_COLUMNS)}d")
    n_ticks = n_steps // ctl_every + 1
    rows = bytearray(n_ticks * row.size)       # the whole log
    events = []
    T_cmd = gains.m_bar * gains.g_bar          # held if the first tick holds
    phi_xr = phi_yr = 0.0          # the attitude command (yaw: yaw_ref)
    x_fs_hat = None                # latched on contact detection
    x_f_recent = deque(maxlen=scenario.contact_debounce)  # x_f for the latch
    t_contact0 = None              # first detected contact (force phase origin)
    target = (gains.k_f, gains.b_f)    # the scheduled gains
    last_sched_t = -math.inf
    saturated = holding = False

    for k in range(n_ticks):
        t = k * ctl_every * dt
        (px, py, pz), (vx, vy, vz) = st.p_e, st.v_e
        if not (-inf < px < inf and -inf < py < inf and -inf < pz < inf
                and -inf < vx < inf and -inf < vy < inf and -inf < vz < inf):
            raise RuntimeError(f"non-finite plant state at t={t:.3f}")

        meas = plantmod.measure(st, surface, pcfg, rng)
        in_contact = detector.update(meas.f_f)
        x_f_recent.append(meas.x_f)

        if in_contact != (ref.mode == refgen.CONTACT):
            if in_contact:
                events.append((t, "detector_make", f"f_f={meas.f_f:.3f}"))
                # anchor at the sample where the force first exceeded the
                # threshold (the debounce only confirms contact began then)
                x_fs_hat = x_f_recent[0]
                if t_contact0 is None:
                    t_contact0 = t
                ref = refgen.switch_mode(ref, refgen.CONTACT, meas.f_f)
                last_sched_t = -math.inf       # force an immediate schedule
            else:
                events.append((t, "detector_break", ""))
                ref = refgen.switch_mode(ref, refgen.FREE)

        x_md = scenario.motion_setpoint(t, x_m0)
        if in_contact:
            est = estm.rlse_update(est, meas.x_f, meas.x_dot_f, meas.f_f,
                                   x_fs_hat, rcfg, dt_ctl)
            if t - last_sched_t >= scenario.sched_period:
                res = sched.schedule(gains.k_p, gains.k_d, est.k_hat,
                                     est.b_hat, gains.m_bar, box, target)
                if target != (res.k_f, res.b_f):
                    events.append((t, "schedule", res.provenance))
                target = res.k_f, res.b_f
                last_sched_t = t
            gains.k_f, gains.b_f = slew.track(*target, dt_ctl)
            ref = refgen.contact_step(
                ref, scenario.force_setpoint(t - t_contact0), x_md, est,
                scenario.omega_n, dt_ctl)
        else:
            x_fd = min(x_f0 + scenario.approach_speed * t, x_fd_target)
            ref = refgen.free_step(ref, x_fd, x_md, scenario.omega_n, dt_ctl)

        d_f, d_m = ctl.dob_estimates(dob, meas, gains)
        u_f = ctl.control_force(ref, meas, d_f, gains, surface)
        u_m = ctl.control_motion(ref, meas, d_m, gains, surface)
        dob = ctl.dob_update(dob, meas, u_f, u_m, gains, surface,
                             in_contact, dt_ctl)

        u_e = ctl.compose_u(u_f, u_m, surface)
        try:
            T_cmd, phi_xr, phi_yr = ctl.extract_inputs(u_e, st.phi)
            holding = False
        except ctl.InfeasibleInput:
            # large attitude error puts the yaw-aligned extraction
            # outside its asin domain; the exact inversion still
            # realizes any input with an upward component
            try:
                T_cmd, phi_xr, phi_yr = ctl.invert_inputs(u_e, scenario.yaw_ref)
                events.append((t, "extraction_fallback", f"T={T_cmd:.1f}"))
                holding = False
            except ctl.InfeasibleInput:
                # no thrust realizes it: hold the previous tick's command
                if not holding:
                    events.append((t, "extraction_hold", f"u_z={u_e[2]:.3f}"))
                holding = True
        if T_cmd > ceiling and not saturated:
            events.append((t, "thrust_saturation", f"T={ceiling:.2f}"))
        saturated = T_cmd > ceiling
        T_cmd = min(T_cmd, ceiling)
        phi_r = (phi_xr, phi_yr, scenario.yaw_ref)

        row.pack_into(
            rows, k * row.size,
            t, *st.p_e, meas.x_f, meas.f_f, ref.f_fr, *meas.x_m, *ref.x_mr,
            gains.k_f, gains.b_f, est.k_hat, est.b_hat,
            1.0 if in_contact else 0.0,
            1.0 if st.in_contact else 0.0,
            T_cmd, *st.phi)

        for _ in range(min(ctl_every, n_steps - k * ctl_every)):
            was_in_contact = st.in_contact
            st = plantmod.step(st, T_cmd, phi_r, surface, pcfg)
            if st.in_contact != was_in_contact:
                kind = "contact_make" if st.in_contact else "contact_break"
                events.append((st.t, kind, ""))

    return RunLog(data=np.frombuffer(rows), events=events)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def settle_index(log: RunLog, settle_window: float = 3.0) -> int | None:
    """First sample index after `settle_window` seconds of unbroken contact.
    Raises ValueError on a window that is negative or not finite."""
    if not 0.0 <= settle_window < math.inf:
        raise ValueError(f"settle window must be finite and >= 0: {settle_window}")
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
    """Post-settling tracking errors plus switching/scheduling statistics.

    provenance counts the `schedule` events by path. Such an event marks a
    change of the target gains, not a schedule() call: a call that keeps
    the target writes none.
    """
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
            log.column("f_fr")[w], log.column("f_f")[w],
            t[1] - t[0] if log.n_samples > 1 else 0.0)
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
    n = len(r)
    size = 1 << (2 * n - 2).bit_length()    # >= 2n - 1: the FFT does not wrap
    c = np.fft.irfft(np.fft.rfft(m, size) * np.fft.rfft(r, size).conj(), size)
    c = np.concatenate((c[size - n + 1:], c[:n]))   # lags -(n - 1) .. n - 1
    lag = int(np.argmax(c)) - (n - 1)
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

def bench_scheduler(N_list, reps: int = 20) -> dict:
    """Median wall time of grid search vs explicit inequalities per N.

    Returns {"rows": [(N, t_grid, t_explicit)], "grid_exponent": float},
    the exponent being the median over repetitions of the log-log slope of
    the grid times. Both methods compute all three no-switching regions.
    Raises ValueError on an empty or repeated N list, or reps below 1.
    """
    if not N_list:
        raise ValueError("need at least one N")
    if len(set(N_list)) != len(N_list):     # the fit pairs times by N
        raise ValueError(f"repeated N in {list(N_list)}")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    k_p, k_d, k_e, b_e, m_t, box = 23.5, 19.5, 200.0, 0.5, 4.0, GainBox()

    def _grid(N):
        for cond in sched._CONDITIONS:
            sched.region_grid(cond, k_p, k_d, k_e, b_e, m_t, box, N)

    def _explicit():
        for cond in sched._CONDITIONS:
            sched.region_explicit(cond, k_p, k_d, k_e, b_e, m_t, box)

    _grid(min(N_list))          # warmup
    _explicit()
    tg = {N: [] for N in N_list}
    te = {N: [] for N in N_list}
    # interleave repetitions across N so load drift hits all sizes alike;
    # timeit keeps the collector out of each timed call
    for _ in range(reps):
        for N in N_list:
            tg[N].append(timeit.timeit(lambda: _grid(N), number=1))
            te[N].append(timeit.timeit(_explicit, number=1))
    rows = [(int(N), float(np.median(tg[N])), float(np.median(te[N])))
            for N in N_list]

    expo = math.nan
    if len(rows) >= 2:
        # the sizes of one repetition run back to back, so they share the
        # machine's load; fit each repetition and take the median slope
        lx = np.log(list(N_list))
        expo = float(np.median([np.polyfit(lx, np.log(ts), 1)[0]
                                for ts in zip(*(tg[N] for N in N_list))]))
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
