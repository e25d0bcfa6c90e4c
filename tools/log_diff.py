"""Report how the fingerprint runs of two checkouts differ.

    python3 tools/log_diff.py BASE_DIR CHANGE_DIR

Runs the nine fingerprint runs of tools/log_hashes.py (the eight closed-loop
logs and the schedule() draws) once with each checkout's own src/, in a
subprocess per checkout, and prints for each run whether the two outputs are
identical; if they are not, the largest |change| of each log column that
changed, and where the change began: the first log row that differs (its
tick index and t) and the first column, in schema order, that differs
there. For every closed-loop run it also prints, base -> change,
force_rms, motion_rms, settle_time, the final k_e_hat and b_e_hat, whether
the events are identical and, for each kind of event, the number of events,
whether its sequence of times is identical and, if not, the first event of
that kind whose time differs (base -> change, "none" past the end). For the
schedule() draws it prints how many of the 1000 results differ, how many of
those changed provenance or condition_id, the largest |change| of k_f and
b_f relative to the box's width in that gain, and the largest |change| of
J. It only reports: the exit status is 0 whatever the differences.
"""

import math
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
METRICS = ("force_rms", "motion_rms", "settle_time")
DRAWS = "schedule-draws/7"


def dump(path: str) -> None:
    """Pickle every fingerprint run's output, with the uamsim on sys.path."""
    from log_hashes import log_runs, schedule_results
    from uamsim import harness

    out = {"columns": harness.LOG_COLUMNS}
    for label, sc in log_runs():
        log = harness.run(sc)
        m = harness.metrics(log)
        out[label] = (log.data, log.events, {k: m[k] for k in METRICS})
    out[DRAWS] = [(repr(r), r.provenance, r.condition_id, r.k_f, r.b_f, r.J,
                   box.widths) for box, r in schedule_results(7)]
    with open(path, "wb") as fh:
        pickle.dump(out, fh)


def outputs(checkout: Path, path: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(checkout.resolve() / "src"), str(TOOLS)]))
    subprocess.run([sys.executable, "-c",
                    "import sys, log_diff; log_diff.dump(sys.argv[1])", path],
                   cwd=checkout, env=env, check=True)
    with open(path, "rb") as fh:
        return pickle.load(fh)


def report(label: str, columns, base, change) -> None:
    (d0, ev0, m0), (d1, ev1, m1) = base, change
    if d0.shape != d1.shape:
        print(f"{label}: logs differ in shape, {d0.shape} -> {d1.shape}")
    elif d0.tobytes() == d1.tobytes() and ev0 == ev1:
        print(f"{label}: identical")
    else:
        delta = abs(d1 - d0).max(axis=0)
        moved = [f"{c} {x:.3g}" for c, x in zip(columns, delta) if x]
        print(f"{label}: differ; max |change| by column: "
              + (", ".join(moved) or "none (only the events differ)"))
        changed = (d0 != d1).any(axis=1)
        if changed.any():
            i = int(changed.argmax())
            j = int((d0[i] != d1[i]).argmax())
            print(f"    first change: row {i} (t={d0[i, 0]:.3f}), column "
                  f"{columns[j]}: {float(d0[i, j])!r} -> {float(d1[i, j])!r}")
    rows = [(k, m0[k], m1[k]) for k in METRICS]
    rows += [(k, d0[-1, columns.index(k)], d1[-1, columns.index(k)])
             for k in ("k_e_hat", "b_e_hat")]
    for k, a, b in rows:
        rel = f" ({(b - a) / abs(a):+.3%})" if math.isfinite(a) and a else ""
        print(f"    {k}: {a:.6g} -> {b:.6g}{rel}")
    print(f"    events ({'identical' if ev0 == ev1 else 'differ'}):")
    for kind in sorted({k for _, k, _ in ev0} | {k for _, k, _ in ev1}):
        e0, e1 = ([e for e in ev if e[1] == kind] for ev in (ev0, ev1))
        t0, t1 = [e[0] for e in e0], [e[0] for e in e1]
        line = f"        {kind} {len(e0)} -> {len(e1)}: "
        if t0 == t1:
            print(line + "identical times")
            continue
        i = next(i for i, (a, b) in enumerate(zip(t0 + [None], t1 + [None]))
                 if a != b)
        print(line + f"first difference at #{i}: "
              + " -> ".join(repr(e[i]) if i < len(e) else "none"
                            for e in (e0, e1)))


def relative(d: float, width: float) -> float:
    """|d| in units of a box width; inf for a change across a zero width."""
    return abs(d) / width if width else (math.inf if d else 0.0)


def report_draws(label: str, base, change) -> None:
    moved = [(a, b) for a, b in zip(base, change) if a[0] != b[0]]
    if not moved:
        print(f"{label}: identical")
        return
    n_prov = n_cond = 0
    dk = db = dJ = 0.0
    for (_, p0, c0, k0, b0, J0, (wk, wb)), (_, p1, c1, k1, b1, J1, _) in moved:
        n_prov += p0 != p1
        n_cond += c0 != c1
        dk = max(dk, relative(k1 - k0, wk))
        db = max(db, relative(b1 - b0, wb))
        if J0 is not None and J1 is not None:
            dJ = max(dJ, abs(J1 - J0))
    print(f"{label}: {len(moved)} of {len(base)} results differ; "
          f"{n_prov} changed provenance, {n_cond} changed condition_id")
    print(f"    max |change| of k_f {dk:.3g} and of b_f {db:.3g} of the box "
          f"widths; max |change| of J {dJ:.3g}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    with tempfile.TemporaryDirectory() as tmp:
        base, change = (outputs(Path(a), os.path.join(tmp, f"{i}.pkl"))
                        for i, a in enumerate(args))
    columns = base.pop("columns")
    change.pop("columns")
    for label in base:
        if label == DRAWS:
            report_draws(label, base[label], change[label])
        else:
            report(label, columns, base[label], change[label])
    return 0


if __name__ == "__main__":
    sys.exit(main())
