"""CI benchmark-regression gate for the update hot path.

Compares a fresh ``bench_update_hotpath.py`` run against the checked-in
``benchmarks/baseline_smoke.json``:

* **median per-op time** — compared after normalizing by each run's
  ``calibration_seconds`` (a fixed busy-loop timed on the same machine),
  so a uniformly slower CI runner cancels out; tolerance ±30 %.
* **ledger counters** — the obs pass is seeded and deterministic, so
  every counter must match **exactly**.  A counter drift means the
  algorithm did different work, not that the machine was slow.
* **codec microbench** — per-operation medians of the raw packed-codec
  hot loops (compare, middle assignment, batch encode, run insert),
  calibration-normalized like the engine medians but held to a
  *tighter*, one-sided envelope (+25 % by default; improvements never
  fail).  These loops are pure codec work, so a silent fallback to a
  per-bit path — 2-4x slower on every one of them — fails here even
  when treap/pager time hides it from the engine-level medians.
* **durability off stays free** — the smoke workload runs with
  ``durability="off"``, so *any* ``wal.*`` unit in its ledger totals is
  a leak (the WAL hooked itself into the default path) and fails the
  gate outright, baseline or not.

Usage::

    PYTHONPATH=src python benchmarks/bench_update_hotpath.py \
        --sizes 1000 --ops 45 --out BENCH_smoke.json
    python benchmarks/bench_gate.py BENCH_smoke.json \
        benchmarks/baseline_smoke.json            # exit 1 on regression
    python benchmarks/bench_gate.py BENCH_smoke.json \
        benchmarks/baseline_smoke.json --update   # regenerate baseline

On regression the gate prints a per-metric diff table naming every
offending config/metric pair.  Regenerate the baseline (``make
bench-baseline``) only when the work profile changed *intentionally*,
and say why in the commit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_TOLERANCE = 0.30
# Tighter envelope for the pure-codec loops: no engine noise to hide
# behind, and the cheapest slow-path fallback costs ~2x.
CODEC_TOLERANCE = 0.25
# The gated microbench metrics; ``run_insert_sequential`` is the slow
# reference denominator, so its drift is deliberately not gated.
CODEC_METRICS = (
    "compare_median_seconds",
    "assign_middle_median_seconds",
    "encode_run_median_seconds",
    "run_insert_batch_median_seconds",
)
BASELINE_PATH = Path(__file__).parent / "baseline_smoke.json"

OK = "ok"
FAIL = "FAIL"


def load_entries(payload: dict) -> dict:
    """Gate-relevant view of a bench_update_hotpath JSON payload.

    Keyed ``"<scheme>@<n>"``; only ``optimized`` configs count —
    ``refcodec`` ones time the per-bit reference codec on purpose and
    prove nothing about HEAD.
    """
    entries = {}
    for config in payload.get("configs", []):
        if config.get("mode") != "optimized":
            continue
        entry = {
            "median_seconds_per_update": config["median_seconds_per_update"],
        }
        obs = config.get("obs")
        if obs is not None:
            entry["ledger_totals"] = obs["ledger"]["totals"]
        entries[f"{config['scheme']}@{config['n']}"] = entry
    return {
        "calibration_seconds": payload.get("calibration_seconds"),
        "codec_microbench": payload.get("codec_microbench"),
        "entries": entries,
    }


def wal_leaks(current: dict) -> list[str]:
    """``wal.*`` ledger units in a run that never opted into durability."""
    leaks = []
    for key, entry in sorted(current["entries"].items()):
        for unit in sorted(entry.get("ledger_totals") or {}):
            if unit.startswith("wal."):
                leaks.append(f"{key}: {unit}")
    return leaks


def compare(
    current: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[list[tuple[str, str, str, str, str, str]], bool]:
    """Diff rows ``(config, metric, baseline, current, delta, status)``
    and an overall pass flag."""
    rows = []
    ok = True
    cur_cal = current.get("calibration_seconds")
    base_cal = baseline.get("calibration_seconds")
    for key in sorted(baseline["entries"]):
        base_entry = baseline["entries"][key]
        cur_entry = current["entries"].get(key)
        if cur_entry is None:
            rows.append((key, "(config)", "present", "MISSING", "", FAIL))
            ok = False
            continue

        base_median = base_entry["median_seconds_per_update"]
        cur_median = cur_entry["median_seconds_per_update"]
        if cur_cal and base_cal:
            ratio = (cur_median / cur_cal) / (base_median / base_cal)
            metric = "median/op (calibrated)"
        else:
            ratio = cur_median / base_median
            metric = "median/op (raw)"
        delta = f"{(ratio - 1) * 100:+.1f}%"
        status = OK if abs(ratio - 1.0) <= tolerance else FAIL
        rows.append(
            (
                key,
                metric,
                f"{base_median * 1e6:.1f}us",
                f"{cur_median * 1e6:.1f}us",
                delta,
                status,
            )
        )
        ok = ok and status == OK

        base_totals = base_entry.get("ledger_totals", {})
        cur_totals = cur_entry.get("ledger_totals")
        if base_totals and cur_totals is None:
            rows.append((key, "ledger", "present", "MISSING", "", FAIL))
            ok = False
            continue
        for unit in sorted(set(base_totals) | set(cur_totals or {})):
            base_value = base_totals.get(unit)
            cur_value = (cur_totals or {}).get(unit)
            if base_value == cur_value:
                continue
            rows.append(
                (key, unit, str(base_value), str(cur_value), "drift", FAIL)
            )
            ok = False
    return rows, ok


def compare_microbench(
    current: dict, baseline: dict, tolerance: float = CODEC_TOLERANCE
) -> tuple[list[tuple[str, str, str, str, str, str]], bool]:
    """Gate the codec microbench medians against the baseline.

    Same calibration normalization as :func:`compare`, a tighter
    one-sided tolerance (only slowdowns fail), and a hard shape check:
    the batch/run sizes must match or the per-operation numbers are not
    comparable at all.
    """
    rows = []
    ok = True
    base_micro = baseline.get("codec_microbench")
    cur_micro = current.get("codec_microbench")
    if not base_micro:
        return rows, ok  # pre-microbench baseline: nothing to hold to
    if not cur_micro:
        return [("codec", "(microbench)", "present", "MISSING", "", FAIL)], False
    cur_cal = current.get("calibration_seconds")
    base_cal = baseline.get("calibration_seconds")
    for shape_key in ("batch_size", "run_size"):
        base_shape = base_micro.get(shape_key)
        cur_shape = cur_micro.get(shape_key)
        if base_shape != cur_shape:
            rows.append(
                (
                    "codec",
                    shape_key,
                    str(base_shape),
                    str(cur_shape),
                    "mismatch",
                    FAIL,
                )
            )
            ok = False
    if not ok:
        return rows, ok
    for metric in CODEC_METRICS:
        base_value = base_micro.get(metric)
        cur_value = cur_micro.get(metric)
        if base_value is None:
            continue
        if cur_value is None:
            rows.append(("codec", metric, "present", "MISSING", "", FAIL))
            ok = False
            continue
        if cur_cal and base_cal:
            ratio = (cur_value / cur_cal) / (base_value / base_cal)
        else:
            ratio = cur_value / base_value
        delta = f"{(ratio - 1) * 100:+.1f}%"
        # One-sided: a fallback to a per-bit slow path only ever makes
        # these *slower*, so getting faster never fails the gate.
        status = OK if ratio - 1.0 <= tolerance else FAIL
        rows.append(
            (
                "codec",
                metric,
                f"{base_value * 1e9:.0f}ns",
                f"{cur_value * 1e9:.0f}ns",
                delta,
                status,
            )
        )
        ok = ok and status == OK
    return rows, ok


def print_table(rows) -> None:
    headers = ("config", "metric", "baseline", "current", "delta", "")
    table = [headers, *rows]
    widths = [max(len(str(row[i])) for row in table) for i in range(6)]
    for row in table:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh bench JSON (BENCH_smoke.json)")
    parser.add_argument(
        "baseline",
        nargs="?",
        default=str(BASELINE_PATH),
        help="checked-in baseline JSON",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="relative time tolerance (default 0.30 = +/-30%%)",
    )
    parser.add_argument(
        "--codec-tolerance",
        type=float,
        default=CODEC_TOLERANCE,
        help="relative tolerance for the codec microbench medians "
        "(default 0.25 = +/-25%%)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="write the baseline from the current run instead of comparing",
    )
    args = parser.parse_args(argv)

    current = load_entries(json.loads(Path(args.current).read_text()))
    leaks = wal_leaks(current)
    if leaks:
        # Checked before --update too: a leak must never become baseline.
        print(
            "bench-gate: WAL counters leaked into a durability=off run:\n  "
            + "\n  ".join(leaks),
            file=sys.stderr,
        )
        return 1
    if args.update:
        payload = {
            "benchmark": "update_hotpath_smoke",
            "note": (
                "CI bench-gate baseline; regenerate with `make "
                "bench-baseline` when the work profile changes on purpose"
            ),
            **current,
        }
        Path(args.baseline).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"baseline written to {args.baseline}")
        return 0

    try:
        baseline = json.loads(Path(args.baseline).read_text())
    except OSError as exc:
        print(f"error: cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
        return 2
    rows, ok = compare(current, baseline, args.tolerance)
    micro_rows, micro_ok = compare_microbench(
        current, baseline, args.codec_tolerance
    )
    rows += micro_rows
    ok = ok and micro_ok
    print_table(rows)
    if not ok:
        print(
            f"\nbench-gate: REGRESSION (time tolerance +/-{args.tolerance:.0%}, "
            "counters exact). If intentional, regenerate the baseline with "
            "`make bench-baseline` and justify it in the commit message.",
            file=sys.stderr,
        )
        return 1
    print("\nbench-gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
