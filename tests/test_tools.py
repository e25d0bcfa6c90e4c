"""tools/log_diff.py's report on synthetic outputs: no subprocess runs."""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import log_diff  # noqa: E402

COLUMNS = ("t", "x_f", "f_f", "k_e_hat", "b_e_hat")
METRICS = {"force_rms": 0.5, "motion_rms": 0.25, "settle_time": math.nan}


def output(data=None, events=()):
    if data is None:
        data = np.array([[0.0, 1.0, 0.0, 200.0, 0.5],
                         [0.002, 1.5, -1.0, 210.0, 0.6],
                         [0.004, 2.0, -2.0, 220.0, 0.7]])
    return data, list(events), dict(METRICS)


def reported(capsys, label, base, change) -> list:
    log_diff.report(label, COLUMNS, base, change)
    return capsys.readouterr().out.splitlines()


def reported_draws(capsys, base, change) -> list:
    log_diff.report_draws("draws/7", base, change)
    return capsys.readouterr().out.splitlines()


def test_identical_outputs_print_identical(capsys):
    events = [(0.002, "detector_make", "f_f=-1.000")]
    out = reported(capsys, "run/1", output(events=events), output(events=events))
    assert out[0] == "run/1: identical"
    assert "    events (identical):" in out
    assert "        detector_make 1 -> 1: identical times" in out
    assert "    k_e_hat: 220 -> 220 (+0.000%)" in out
    assert "    settle_time: nan -> nan" in out


def test_moved_column_is_named_with_its_largest_change_and_first_row(capsys):
    base = output()
    data = base[0].copy()
    data[1, 2] += 0.25                     # f_f moves first, at row 1
    data[2, 1] -= 3.0                      # x_f moves most, at row 2
    out = reported(capsys, "run/2", base, output(data))
    assert out[0] == ("run/2: differ; max |change| by column: "
                      "x_f 3, f_f 0.25")
    assert out[1] == ("    first change: row 1 (t=0.002), column f_f: "
                      "-1.0 -> -0.75")
    assert "    events (identical):" in out


def test_logs_of_another_shape_are_named(capsys):
    base = output()
    out = reported(capsys, "run/3", base, output(base[0][:2]))
    assert out[0] == "run/3: logs differ in shape, (3, 5) -> (2, 5)"


def test_differing_event_kind_gets_its_counts_and_first_difference(capsys):
    make = (0.002, "detector_make", "f_f=-1.000")
    ev0 = [make, (0.1, "schedule", "ns_centroid")]
    ev1 = [make, (0.1, "schedule", "ns_centroid"),
           (0.2, "schedule", "pattern_search"), (0.3, "detector_break", "")]
    out = reported(capsys, "run/4", output(events=ev0), output(events=ev1))
    assert out[0] == ("run/4: differ; max |change| by column: "
                      "none (only the events differ)")
    i = out.index("    events (differ):")
    assert out[i + 1:] == [
        "        detector_break 0 -> 1: first difference at #0: "
        "none -> (0.3, 'detector_break', '')",
        "        detector_make 1 -> 1: identical times",
        "        schedule 1 -> 2: first difference at #1: "
        "none -> (0.2, 'schedule', 'pattern_search')",
    ]
    moved = [make, (0.12, "schedule", "ns_centroid")]
    out = reported(capsys, "run/5", output(events=ev0), output(events=moved))
    assert out[-1] == ("        schedule 1 -> 1: first difference at #0: "
                       "(0.1, 'schedule', 'ns_centroid') -> "
                       "(0.12, 'schedule', 'ns_centroid')")


def draw(provenance="pattern_search", condition=1, k_f=0.5, b_f=20.0, J=2.0,
         widths=(1.0, 40.0)):
    result = (provenance, condition, k_f, b_f, J)
    return (repr(result), *result, widths)


def test_draws_report_provenance_condition_and_relative_gain_changes(capsys):
    base = [draw(), draw(k_f=0.3, widths=(0.5, 0.0)), draw(J=None)]
    assert reported_draws(capsys, base, list(base)) == [
        "draws/7: identical"]
    change = [draw(),
              draw(k_f=0.4, b_f=20.5, condition=2, widths=(0.5, 0.0)),
              draw(provenance="fallback", b_f=18.0, J=None)]
    assert reported_draws(capsys, base, change) == [
        "draws/7: 2 of 3 results differ; 1 changed provenance, "
        "1 changed condition_id",
        "    max |change| of k_f 0.2 and of b_f inf of the box widths; "
        "max |change| of J 0",
    ]
    # a change within a nonzero width is relative to it, J's change absolute
    change = [draw(k_f=0.75, b_f=30.0, J=2.5), *base[1:]]
    assert reported_draws(capsys, base, change) == [
        "draws/7: 1 of 3 results differ; 0 changed provenance, "
        "0 changed condition_id",
        "    max |change| of k_f 0.25 and of b_f 0.25 of the box widths; "
        "max |change| of J 0.5",
    ]
