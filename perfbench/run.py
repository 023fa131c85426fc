"""The repo benchmark: one command per workload, end to end or traced.

Usage::

    python3 perfbench/run.py --workload edit --seed 1 --seconds 20 --trace 0

``--workload`` is ``edit``, ``pipeline`` or ``browse`` (see README.md).
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it is a separate traced run that reports the per-layer
split instead.  Both kinds check every output against the expected
documents; the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``), and the exit code
is 1 when any check failed.

This process is the harness: it builds the inputs from the seed (with a
shadow copy of every document), starts ``serve.py`` as the serving
process, and checks what that process saw against the shadow.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bootstrap import ROOT, MissingProgram, import_program  # noqa: E402

#: Where runs keep their scratch WAL directories, traces and run log.
OUT_DIR = ROOT / ".perfbench-out"
#: The serving process must finish within this many seconds.
CHILD_TIMEOUT_S = 160.0


def declared_metrics(trace: bool) -> "list[tuple[str, str]]":
    """(name, unit) of the metrics ``BENCHMARK.json`` lists for a run kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [
        (metric["name"], metric["unit"])
        for metric in spec["per_layer" if trace else "end_to_end"]
    ]


def host_probe_ms(repeats: int = 5, iterations: int = 200_000) -> "list[float]":
    """Wall time of a fixed pure-Python loop, ``repeats`` times (ms).

    Recorded beside every run's metrics: when the host slows down, this
    slows down with it, which separates host drift from a change in the
    program.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for value in range(iterations):
            total += value * value % 7
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


def ops_per_document(workload) -> int:
    """How many updates one round may submit to a single document."""
    requests = workload.warmup_requests + workload.round_requests
    if workload.group:
        return requests
    # Without a group, every (reads_per_update + 1)-th request is an
    # update, and any document may draw all of them.
    return requests // (workload.reads_per_update + 1) + 1


def prepare(workload, seed: int, seconds: float, trace: bool):
    """Inputs, op streams and documents for one run."""
    from workloads import generate_ops
    from repro.xmltree import serialize_document

    documents = workload.documents()
    rng = random.Random(seed)
    count = ops_per_document(workload)
    ops, min_nodes = {}, {}
    for doc_id, document in documents:
        ops[doc_id], min_nodes[doc_id] = generate_ops(document, count, rng)
    inputs = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scheme": workload.scheme,
        "group": workload.group,
        "reads_per_update": workload.reads_per_update,
        "read_kinds": list(workload.read_kinds),
        "warmup_requests": workload.warmup_requests,
        "round_requests": workload.round_requests,
        "docs": [
            {"id": doc_id, "xml": serialize_document(document)}
            for doc_id, document in documents
        ],
        "min_nodes": min_nodes,
    }
    return inputs, ops, dict(documents)


def serve(inputs, ops, work_dir: Path) -> dict:
    """Run ``serve.py`` on ``inputs`` and ``ops``; returns what it wrote."""
    work_dir.mkdir(parents=True, exist_ok=True)
    (work_dir / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
    (work_dir / "ops.json").write_text(json.dumps(ops), encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, str(HERE / "serve.py"), str(work_dir)],
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"serving process exited with {completed.returncode}")
    return json.loads((work_dir / "outputs.json").read_text(encoding="utf-8"))


def split_lines(split) -> "list[str]":
    """Self time per layer in the traced rounds, as report lines."""
    busy = split["writer_busy_s"]
    lines = [f"split writer busy {busy:.3f}s (traced rounds, all writer threads)"]
    for layer, seconds in sorted(split["writer"].items(), key=lambda item: -item[1]):
        share = seconds / busy if busy else 0.0
        lines.append(f"split writer {layer:<12} {seconds:9.3f}s {share:7.1%}")
    for layer, seconds in sorted(split["client"].items(), key=lambda item: -item[1]):
        lines.append(f"split client {layer:<12} {seconds:9.3f}s")
    return lines


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    drop_expected_op: "int | None" = None,
) -> "tuple[dict, list[str]]":
    """One benchmark run: returns the result line and the report lines.

    ``drop_expected_op`` removes that op from the *expected* stream only
    (the service still applies it): the self-test uses it to show that
    the checks fail when the expectation is wrong.
    """
    from gate import check
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    probe = host_probe_ms()
    inputs, ops, documents = prepare(workload, seed, seconds, trace)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload_name}-seed{seed}-trace{int(trace)}"
    inputs["trace_path"] = str(OUT_DIR / f"trace-{workload_name}-seed{seed}.jsonl")
    work_dir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    try:
        outputs = serve(inputs, ops, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    probe += host_probe_ms()

    failures = check(documents, ops, outputs, drop_expected_op=drop_expected_op)
    summary = outputs["summary"]
    if trace:
        values = {**outputs["layers"], "host.probe_ms": statistics.median(probe)}
    else:
        values = {**summary, "peak_rss_mb": outputs["peak_rss_mb"]}
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in declared_metrics(trace)
    }
    rounds = outputs["rounds"]
    attempted = sum(item["updates"] + item["reads"] for item in rounds)
    failed = sum(item["updates_failed"] + item["reads_failed"] for item in rounds)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    raw = summary["raw"]
    report = [
        f"workload={workload_name} seed={seed} seconds={seconds} trace={int(trace)}",
        "host_probe_ms " + " ".join(f"{value:.1f}" for value in probe),
        (
            f"rounds {len(rounds)} ({summary['rounds']} untraced), host scale "
            + " ".join(f"{item['scale']:.3f}" for item in rounds)
        ),
        (
            f"samples updates={summary['updates_acked']} reads={summary['reads']} "
            f"beyond_p99: updates={int(summary['updates_acked'] * 0.01)} "
            f"reads={int(summary['reads'] * 0.01)}"
        ),
        # Not bounded metrics: neither repeats from run to run (README).
        f"update_p99_ms {summary['update_p99_ms']:.6g} ms (unbounded)",
        f"restart_s {outputs['restart']['seconds']:.6g} s (unbounded, wall)",
        "raw wall " + " ".join(f"{name}={value:.6g}" for name, value in raw.items()),
    ]
    if trace:
        report += split_lines(outputs["split"])
    report += [
        f"{name} {entry['value']:.6g} {entry['unit']}" for name, entry in metrics.items()
    ]
    report += [f"CHECK FAILED: {failure}" for failure in failures]
    with open(OUT_DIR / "runs.jsonl", "a", encoding="utf-8") as log:
        log.write(
            json.dumps(
                {
                    "workload": workload_name,
                    "seed": seed,
                    "seconds": seconds,
                    "trace": int(trace),
                    "host_probe_ms": probe,
                    "rounds": [
                        {
                            key: item[key]
                            for key in ("traced", "seconds", "scale", "setup_s", "setup_scale")
                        }
                        for item in rounds
                    ],
                    "raw": raw,
                    "samples": {"updates": summary["updates_acked"], "reads": summary["reads"]},
                    "result": result,
                }
            )
            + "\n"
        )
    return result, report


def main(argv=None, *, drop_expected_op: "int | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("edit", "pipeline", "browse"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except MissingProgram as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    result, report = run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        drop_expected_op=drop_expected_op,
    )
    for line in report:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
