"""Output checks of the benchmark, computed independently of the program.

Each check returns a list of problems (empty when the output is right). The
closed-loop checks rebuild the surface geometry and the force-reference
filter from the scenario; the scheduler checks evaluate the raw
no-switching inequalities themselves and integrate the switching cycle with
scipy. Nothing is compared against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

SETTLE_WINDOW = 3.0            # s of unbroken contact, as harness.metrics uses
GEOMETRY_TOL = 1e-12           # m, logged x_f against B_f . p
TIME_TOL = 1e-9                # s, logged t against i / ctl_rate
STATICS_TOL = 0.01             # N, plus the noise allowance below
FORCE_TRACK_TOL = 0.03         # N, plus the noise allowance below
NOISE_TRACK_FACTOR = 4.0       # tracking allowance per N of force-noise std
MOTION_RMS_MAX = 0.02          # m
K_E_REL_TOL = 0.10             # final k_e_hat against the true k_e
LAMBDA_TOL = 1e-7              # relative, closed-form cycle against integration
J_REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

def surface_normal(tilt_deg: float, yaw_deg: float) -> np.ndarray:
    """Inward surface normal B_f of a surface tilted by tilt_deg, yawed by yaw_deg."""
    a, psi = math.radians(tilt_deg), math.radians(yaw_deg)
    return np.array([math.cos(a) * math.cos(psi), math.cos(a) * math.sin(psi),
                     -math.sin(a)])


def settle_index(t: np.ndarray, in_contact: np.ndarray,
                 window: float = SETTLE_WINDOW) -> int | None:
    """First sample after `window` seconds of unbroken true contact."""
    start = None
    for i, c in enumerate(in_contact):
        if not c:
            start = None
            continue
        if start is None:
            start = i
        if t[i] - t[start] >= window:
            return i
    return None


def force_target(tau: np.ndarray, f0: float, sc) -> np.ndarray:
    """Force setpoint through omega_n^2/(s+omega_n)^2, from f0 at rest at tau=0.

    Closed form: the filter's steady response to mean + amp*cos(Omega tau)
    plus the (c1 + c2 tau) exp(-omega_n tau) transient that matches the
    initial value f0 and zero initial rate.
    """
    wn = sc.omega_n
    if sc.force_profile == "constant":
        mean, amp, big_w = sc.force_const, 0.0, 0.0
    elif sc.force_profile == "sinusoid":
        mean, amp = sc.force_mean, sc.force_amp
        big_w = 2.0 * math.pi / sc.force_period
    else:
        raise ValueError(f"unknown force profile {sc.force_profile!r}")
    gain = wn * wn / (wn * wn + big_w * big_w)
    phase = -2.0 * math.atan2(big_w, wn)
    y0 = mean + amp * gain * math.cos(phase)
    dy0 = -amp * gain * big_w * math.sin(phase)
    c1 = f0 - y0
    c2 = wn * c1 - dy0
    return (mean + amp * gain * np.cos(big_w * tau + phase)
            + (c1 + c2 * tau) * np.exp(-wn * tau))


def _noise_free(sc) -> bool:
    return sc.noise_f_f == 0.0 and sc.noise_pos == 0.0 and sc.noise_vel == 0.0


def check_log(sc, log) -> tuple[list[str], dict]:
    """Check one closed-loop log against its scenario.

    Returns (problems, figures); figures holds the post-settling force and
    motion RMS the benchmark reports, and the margins of the checks.
    """
    name = f"{sc.name}/seed={sc.seed}"
    bad: list[str] = []
    fig: dict = {}
    data = log.data
    n_expect = round(sc.duration * sc.ctl_rate) + 1
    if data.shape[0] != n_expect:
        return [f"{name}: {data.shape[0]} log rows, expected {n_expect}"], fig
    if not np.all(np.isfinite(data)):
        return [f"{name}: non-finite log values"], fig

    col = log.column
    t = col("t")
    t_err = float(np.max(np.abs(t - np.arange(n_expect) / sc.ctl_rate)))
    if t_err > TIME_TOL:
        bad.append(f"{name}: log times off the controller grid by {t_err:.3e} s")

    b_f = surface_normal(sc.tilt_deg, sc.yaw_deg)
    x_f = col("x_f")
    geo = float(np.max(np.abs(
        x_f - (b_f[0] * col("p_x") + b_f[1] * col("p_y") + b_f[2] * col("p_z")))))
    fig["geometry_err_m"] = geo
    if geo > GEOMETRY_TOL:
        bad.append(f"{name}: logged x_f differs from B_f.p by {geo:.3e} m")

    f_f = col("f_f")
    in_contact = col("in_contact") > 0.5
    if _noise_free(sc):
        off = f_f[~in_contact]
        if np.any(off != 0.0):
            bad.append(f"{name}: nonzero force out of contact "
                       f"(max |f_f| {float(np.max(np.abs(off))):.3e} N)")

    k_f, b_fg = col("k_f"), col("b_f")
    if (np.any(k_f < sc.k_f_min) or np.any(k_f > sc.k_f_max)
            or np.any(b_fg < sc.b_f_min) or np.any(b_fg > sc.b_f_max)):
        bad.append(f"{name}: logged gains leave the gain box")

    k_err = abs(float(col("k_e_hat")[-1]) - sc.k_e) / sc.k_e
    fig["k_e_rel_err"] = k_err
    if k_err > K_E_REL_TOL:
        bad.append(f"{name}: final k_e_hat off the true k_e by {100 * k_err:.1f}%")

    idx = settle_index(t, in_contact)
    if idx is None:
        bad.append(f"{name}: contact never settled")
        return bad, fig
    w = slice(idx, None)

    e_ff = f_f - col("f_fr")
    e_m = np.hypot(col("x_m1") - col("x_mr1"), col("x_m2") - col("x_mr2"))
    fig["force_rms_N"] = float(np.sqrt(np.mean(e_ff[w] ** 2)))
    fig["motion_rms_m"] = float(np.sqrt(np.mean(e_m[w] ** 2)))
    if fig["motion_rms_m"] >= MOTION_RMS_MAX:
        bad.append(f"{name}: motion RMS {fig['motion_rms_m']:.4f} m")

    # Kelvin-Voigt statics over whole force periods ending at the last sample
    per = round(sc.force_period * sc.ctl_rate)
    k = (n_expect - idx) // per
    if k < 1:
        bad.append(f"{name}: less than one force period after settling")
    else:
        ws = slice(n_expect - k * per, None)
        x_fs = float(b_f @ np.asarray(sc.p_s))
        resid = abs(float(np.mean(f_f[ws]) + sc.k_e * np.mean(x_f[ws] - x_fs)))
        allow = STATICS_TOL + 5.0 * sc.noise_f_f / math.sqrt(k * per)
        fig["statics_resid_N"] = resid
        if resid > allow:
            bad.append(f"{name}: Kelvin-Voigt statics residual {resid:.4f} N "
                       f"> {allow:.4f} N")

    # force tracking against the closed-form filtered setpoint
    makes = [te for te, kind, _ in log.events if kind == "detector_make"]
    if not makes:
        bad.append(f"{name}: no detector_make event")
        return bad, fig
    j0 = round(makes[0] * sc.ctl_rate)
    dt_ctl = 1.0 / sc.ctl_rate
    # the reference advances one zero-order-hold step per tick, so the row
    # logged at tick j holds the filter about half a step past j*dt
    tau = t[w] - t[j0] + 0.5 * dt_ctl
    target = force_target(tau, float(f_f[j0]), sc)
    track = float(np.sqrt(np.mean((f_f[w] - target) ** 2)))
    allow = FORCE_TRACK_TOL + NOISE_TRACK_FACTOR * sc.noise_f_f
    fig["force_track_rms_N"] = track
    if track > allow:
        bad.append(f"{name}: force RMS against the filtered setpoint "
                   f"{track:.4f} N > {allow:.4f} N")
    return bad, fig


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------

def mode_params(k_p, k_d, k_f, b_f, k_e, b_e, m):
    """(K1, B1, K2, B2) of the free and contact error dynamics."""
    return (k_p / m, k_d / m, (1.0 + k_f) * k_e / m,
            ((1.0 + k_f) * b_e + b_f) / m)


def no_switch_holds(cond: str, K1, B1, K2, B2) -> bool:
    """The raw no-switching inequalities NS1-NS3 in the (K, B) mode form."""
    dK, dB = K1 - K2, B1 - B2
    if cond == "NS1":
        disc = B1 * B1 - 4.0 * K1
        if dB >= 0.0 or disc < 0.0:
            return False
        return dK / dB < 2.0 * K1 / (B1 - math.sqrt(disc))
    if cond == "NS2":
        disc = B2 * B2 - 4.0 * K2
        if dB >= 0.0 or disc < 0.0:
            return False
        return 2.0 * K2 / (B2 + math.sqrt(disc)) < dK / dB
    if cond == "NS3":
        return dB >= 0.0 and B2 * B2 >= 4.0 * K2
    raise ValueError(f"unknown condition {cond!r}")


def check_schedule(k_p, k_d, k_e, b_e, m, box, res, j_cost) -> list[str]:
    """Check one ScheduleResult; j_cost is the program's cost function."""
    where = f"schedule(k_e={k_e:.4f}, b_e={b_e:.4f}, m={m:.4f})"
    if not (box.k_f_min <= res.k_f <= box.k_f_max
            and box.b_f_min <= res.b_f <= box.b_f_max):
        return [f"{where}: ({res.k_f}, {res.b_f}) outside the gain box"]
    if res.provenance == "NS-centroid":
        if not no_switch_holds(res.condition_id,
                               *mode_params(k_p, k_d, res.k_f, res.b_f, k_e, b_e, m)):
            return [f"{where}: NS-centroid pair violates {res.condition_id}"]
        return []
    if res.provenance != "PatternSearch":
        return [f"{where}: provenance {res.provenance}"]
    if res.J is None or not math.isfinite(res.J):
        return [f"{where}: PatternSearch J={res.J}"]
    at_result = j_cost(res.k_f, res.b_f, k_p, k_d, k_e, b_e, m, box)
    if abs(res.J - at_result) > J_REL_TOL * max(1.0, abs(at_result)):
        return [f"{where}: J={res.J} but j_cost at the result is {at_result}"]
    for seed in [box.mid] + box.corners():
        j_seed = j_cost(*seed, k_p, k_d, k_e, b_e, m, box)
        if res.J > j_seed:
            return [f"{where}: J={res.J:.6g} above the seed {seed} with J={j_seed:.6g}"]
    return []


_CYCLE_T_MAX = 60.0


def _first_crossing(K, B, z0, line):
    from scipy.integrate import solve_ivp

    def event(_t, z):
        return line[0] * z[0] + line[1] * z[1]

    event.terminal = True
    sol = solve_ivp(lambda _t, z: (z[1], -K * z[0] - B * z[1]),
                    (0.0, _CYCLE_T_MAX), z0, events=event,
                    rtol=1e-11, atol=1e-13)
    return sol.y_events[0][0] if sol.t_events[0].size else None


def cycle_ratio(K1, B1, K2, B2) -> float | None:
    """Amplitude ratio of one free-then-contact switching cycle, integrated.

    Starts on the mode-difference line dK z1 + dB z2 = 0, runs the free mode
    to the turning line z2 = 0, then the contact mode back to the
    mode-difference line. None when no such cycle exists (the trajectory
    decays into the origin or never reaches the line).
    """
    dK, dB = K1 - K2, B1 - B2
    L = math.hypot(dK, dB)
    if L < 1e-12 or abs(dK) < 1e-12:
        return None
    z0 = np.array([dB, -dK]) / L
    for start in (z0, -z0):
        z_turn = _first_crossing(K1, B1, start, (0.0, 1.0))
        if z_turn is None or abs(z_turn[0]) < 1e-6:
            continue
        z_end = _first_crossing(K2, B2, z_turn, (dK, dB))
        if z_end is None or np.linalg.norm(z_end) < 1e-6 * abs(z_turn[0]):
            continue
        return float(np.linalg.norm(z_end))
    return None


def check_lambda(K1, B1, K2, B2, prod) -> tuple[list[str], float | None]:
    """Compare the program's Lambda1*Lambda2 with the integrated cycle.

    Returns (problems, |difference|), the difference None when there is no
    cycle to compare against.
    """
    ratio = cycle_ratio(K1, B1, K2, B2)
    if ratio is None:
        return [], None
    diff = abs(prod - ratio)
    if diff > LAMBDA_TOL * max(1.0, ratio):
        return [f"Lambda1*Lambda2={prod:.9g} but the integrated cycle gives "
                f"{ratio:.9g} (K1={K1:.4g}, B1={B1:.4g}, K2={K2:.4g}, B2={B2:.4g})"], diff
    return [], diff
