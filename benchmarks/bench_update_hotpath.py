"""Update hot-path microbenchmark: per-update latency vs document size.

The seed implementation found a node's document-order position with
``list.index`` — an O(N) scan — on *every* insert, delete and move, and
rebuilt the page store's byte-offset array on every splice.  With the
order-statistic tree the per-update time should be nearly flat in N
(the acceptance bar is "N=100k within 3x of N=1k").  The speedup over
the seed's O(N) behaviour (43–76x at N=100k) is on record in
``BENCH_updates.json``; this bench times the code as it stands.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_update_hotpath.py \
        --sizes 1000,10000,100000 --ops 200 --out BENCH_updates.json

Every timed configuration runs in ``optimized`` mode (blocked order
index, hint-based child lookup, blocked page offsets); the
full sweep adds ``refcodec`` configurations, the same workload on the
per-bit reference codec.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.labeling import make_scheme
from repro.obs import OBS
from repro.obs.export import bench_section
from repro.updates import UpdateEngine
from repro.xmltree import Node
from repro.xmltree.generator import ShapeSpec, generate_document

DEFAULT_SIZES = (1_000, 10_000, 100_000)
DEFAULT_SCHEMES = (
    "V-CDBS-Containment",
    "F-CDBS-Containment",
    "CDBS(UTF8)-Prefix",
)
OP_KINDS = ("insert", "delete", "move")


def _build_labeled(scheme_name: str, size: int, seed: int):
    spec = ShapeSpec(
        tags=("doc", "sect", "para", "span", "em"),
        max_depth=8,
        subtree_range=(3, 24),
    )
    document = generate_document(
        f"bench-{size}", "doc", size, spec, seed=seed
    )
    return make_scheme(scheme_name).label_document(document)


def _pick_leaf(labeled, rng):
    nodes = labeled.nodes_in_order
    count = len(nodes)
    while True:
        node = nodes[rng.randrange(count)]
        if node.parent is not None and not node.children:
            return node


def _calibration_seconds(repeats: int = 5, iterations: int = 200_000) -> float:
    """Best-of-N wall time for a fixed integer busy-loop.

    Stored alongside the timed results so the CI gate can compare
    *calibration-normalized* medians across machines: a runner that is
    uniformly 1.4x slower reports a 1.4x larger calibration too, and
    the ratio cancels out of the regression check.
    """
    best = None
    acc = 0
    for _ in range(repeats):
        start = time.perf_counter()
        for i in range(iterations):
            acc += i * i % 7
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def _run_workload(
    scheme_name: str,
    size: int,
    ops: int,
    *,
    seed: int = 7,
    obs_pass: bool = False,
):
    """Mean seconds per update op over a mixed insert/delete/move trace.

    With ``obs_pass=True`` the identical (same-seed) workload runs with
    the obs registry captured, and the result carries an ``obs`` section
    (ledger totals, span aggregates) instead of being timing-faithful —
    timings and counters are collected in *separate* passes so the
    instrumentation never inflates the numbers the gate compares.
    """
    labeled = _build_labeled(scheme_name, size, seed)
    engine = UpdateEngine(labeled, with_storage=True)
    rng = random.Random(seed * 31 + size)
    per_kind = {kind: [] for kind in OP_KINDS}
    relabel_ops = 0
    counter = 0
    if obs_pass:
        OBS.reset()
        OBS.enabled = True
    try:
        for step in range(ops):
            kind = OP_KINDS[step % len(OP_KINDS)]
            if kind == "insert":
                target = _pick_leaf(labeled, rng)
                fresh = Node.element(f"n{counter}")
                counter += 1
                start = time.perf_counter()
                result = engine.insert_before(target, fresh)
                per_kind[kind].append(time.perf_counter() - start)
            elif kind == "delete":
                victim = _pick_leaf(labeled, rng)
                start = time.perf_counter()
                result = engine.delete(victim)
                per_kind[kind].append(time.perf_counter() - start)
            else:  # move
                node = _pick_leaf(labeled, rng)
                target = _pick_leaf(labeled, rng)
                if node is target:
                    continue
                start = time.perf_counter()
                result = engine.move_before(node, target)
                per_kind[kind].append(time.perf_counter() - start)
            if result.stats.relabeled_nodes:
                relabel_ops += 1
    finally:
        if obs_pass:
            OBS.enabled = False
    if obs_pass:
        return {
            "scheme": scheme_name,
            "n": size,
            "mode": "optimized",
            "obs": bench_section(OBS),
        }
    samples = [t for times in per_kind.values() for t in times]
    return {
        "scheme": scheme_name,
        "n": size,
        "mode": "optimized",
        "ops": len(samples),
        # F-CDBS occasionally overflows its fixed code length and
        # re-labels a whole suffix (the paper's Table 4 behaviour);
        # those storms are algorithmic, not hot-path, so the headline
        # per-update figure is the *median* — robust to the storm
        # minority — with the mean reported alongside.
        "relabel_ops": relabel_ops,
        "mean_seconds_per_update": statistics.fmean(samples),
        "median_seconds_per_update": statistics.median(samples),
        "per_kind_mean_seconds": {
            kind: statistics.fmean(times) if times else None
            for kind, times in per_kind.items()
        },
        "per_kind_median_seconds": {
            kind: statistics.median(times) if times else None
            for kind, times in per_kind.items()
        },
    }


def _codec_microbench(repeats: int = 7, run_size: int = 4096):
    """Per-operation medians of the raw codec hot loops.

    Timed in-process on the packed codec (whatever implementation the
    ``REPRO_BITSTRING_IMPL`` switch selected), best-of-``repeats`` per
    batch then divided by the batch size.  The CI gate compares these
    against the baseline so a silent fallback to a per-bit path — which
    is 4-8x slower on every one of these — fails the build even when
    the engine-level medians hide it behind order-index/pager time.

    The two ``run_insert_*`` metrics time a run insert of ``run_size``
    codes into one gap — the workload behind bulk load,
    ``insert_run_before`` and the V-CDBS relabel fallback.  *Batch* is
    the production path (``VCDBSCodec.between_run`` on the packed
    kernel); *sequential* is the pre-packed-codec path kept as the
    generic :meth:`IntervalCodec.between_run` fallback — one
    ``codec.between`` call per code, with per-code endpoint validation
    and ledger charges.  Their ratio, taken across the packed and
    reference processes, is the PR's headline insert speedup.
    """
    from repro.core import bitstring as bitstring_mod
    from repro.core.middle import assign_middle_binary_string
    from repro.labeling.codecs import IntervalCodec, VCDBSCodec

    codes = bitstring_mod.encode_run(4096)
    probe = codes[len(codes) // 2]

    def best(fn, count=repeats):
        times = []
        for _ in range(count):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    def compare_batch():
        bitstring_mod.compare_many(codes, probe)

    pairs = list(zip(codes[:-1], codes[1:]))

    def assign_batch():
        for left, right in pairs:
            assign_middle_binary_string(left, right)

    def encode_batch():
        bitstring_mod.encode_run(4096)

    codec = VCDBSCodec()

    def run_insert_batch():
        codec.between_run(None, None, run_size)

    def run_insert_sequential():
        IntervalCodec.between_run(codec, None, None, run_size)

    # The sequential chain costs ~5-9 us/code, so cap its repeats to
    # keep the microbench under a few seconds at run_size=100k.
    run_repeats = max(3, min(repeats, 3_000_000 // max(run_size, 1)))
    return {
        "batch_size": 4096,
        "run_size": run_size,
        "compare_median_seconds": best(compare_batch) / len(codes),
        "assign_middle_median_seconds": best(assign_batch) / len(pairs),
        "encode_run_median_seconds": best(encode_batch) / 4096,
        "run_insert_batch_median_seconds": best(run_insert_batch, run_repeats)
        / run_size,
        "run_insert_sequential_median_seconds": best(
            run_insert_sequential, run_repeats
        )
        / run_size,
    }


def _refcodec_configs(sizes, ops, schemes):
    """Re-run the timed workloads with the per-bit reference codec.

    The reference implementation is selected at import time
    (``REPRO_BITSTRING_IMPL=ref``), so the run happens in a fresh
    subprocess: monkeypatching cannot reach the ``from ... import
    BitString`` bindings every module already holds.  The subprocess
    executes this same script with identical seeds/ops and its configs
    are re-tagged ``mode="refcodec"`` — the pre-packed-codec baseline
    the ≥5x insert-speedup acceptance bar compares against.

    Returns ``(configs, codec_microbench)`` where the microbench dict
    carries the reference process's per-operation medians.
    """
    with tempfile.TemporaryDirectory(prefix="repro-refcodec-") as tmp:
        out = Path(tmp) / "ref.json"
        env = dict(os.environ)
        env["REPRO_BITSTRING_IMPL"] = "ref"
        subprocess.run(
            [
                sys.executable,
                __file__,
                "--sizes",
                ",".join(str(size) for size in sizes),
                "--ops",
                str(ops),
                "--schemes",
                ",".join(schemes),
                "--no-obs",
                "--no-durability",
                "--no-refcodec",
                "--out",
                str(out),
            ],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        payload = json.loads(out.read_text())
    configs = []
    for config in payload["configs"]:
        config["mode"] = "refcodec"
        configs.append(config)
    return configs, payload.get("codec_microbench")


def _durability_probe(scheme_name: str, size: int, ops: int = 40, seed: int = 7):
    """Median WAL bytes per insert vs a full checkpoint bundle.

    The durable footprint of a CDBS insert is its *label delta* — the
    freshly-minted labels plus a small positional header — so the redo
    record should be a sliver of what re-snapshotting the whole document
    costs (DESIGN.md §9; the ISSUE 5 acceptance bar is a median ratio
    at or below 5 %).  Checkpointing is disabled for the probe so every
    insert's frame is observable in the log.
    """
    labeled = _build_labeled(scheme_name, size, seed)
    rng = random.Random(seed * 17 + size)
    with tempfile.TemporaryDirectory(prefix="repro-wal-probe-") as wal_dir:
        OBS.reset()
        OBS.enabled = True
        try:
            engine = UpdateEngine(
                labeled,
                with_storage=True,
                durability="wal",
                wal_dir=wal_dir,
                wal_checkpoint_commits=10**9,
                wal_checkpoint_bytes=1 << 60,
            )
            frame_bytes = []
            for counter in range(ops):
                target = _pick_leaf(labeled, rng)
                result = engine.insert_before(
                    target, Node.element(f"d{counter}")
                )
                frame_bytes.append(result.costs["wal.bytes_appended"])
            bundle_bytes = engine.wal.checkpoint().bundle_bytes
        finally:
            OBS.enabled = False
            OBS.reset()
    median_bytes = statistics.median(frame_bytes)
    return {
        "scheme": scheme_name,
        "n": size,
        "inserts": ops,
        "median_wal_bytes_per_insert": median_bytes,
        "checkpoint_bundle_bytes": bundle_bytes,
        "wal_to_checkpoint_ratio": median_bytes / bundle_bytes,
    }


def run_bench(
    sizes=DEFAULT_SIZES,
    ops: int = 200,
    schemes=DEFAULT_SCHEMES,
    *,
    with_obs: bool = True,
    with_durability: bool = True,
    with_refcodec: bool = False,
):
    configs = []
    for scheme_name in schemes:
        for size in sizes:
            config = _run_workload(scheme_name, size, ops)
            if with_obs:
                # Second, identically-seeded pass with the registry on:
                # deterministic ledger counters for the CI gate, without
                # instrumentation overhead leaking into the timed pass.
                config["obs"] = _run_workload(
                    scheme_name, size, ops, obs_pass=True
                )["obs"]
            configs.append(config)
    ref_microbench = None
    if with_refcodec:
        # One subprocess covers every (scheme, largest size) cell: the
        # per-bit codec is the slow path being measured, so the sweep is
        # restricted to the size the acceptance bar quotes.
        ref_configs, ref_microbench = _refcodec_configs(
            (max(sizes),), ops, schemes
        )
        configs.extend(ref_configs)

    def _stat(scheme_name, size, mode, key):
        for config in configs:
            if (
                config["scheme"] == scheme_name
                and config["n"] == size
                and config["mode"] == mode
            ):
                return config[key]
        return None

    durability = []
    if with_durability:
        # ISSUE 5 reports the ratio at N=10k; fall back to the largest
        # size when a custom sweep does not include it.
        probe_size = 10_000 if 10_000 in sizes else max(sizes)
        durability = [
            _durability_probe(scheme_name, probe_size)
            for scheme_name in schemes
        ]

    smallest, largest = min(sizes), max(sizes)
    summary = {}
    for scheme_name in schemes:
        entry = {}
        for stat, key in (
            ("median", "median_seconds_per_update"),
            ("mean", "mean_seconds_per_update"),
        ):
            small = _stat(scheme_name, smallest, "optimized", key)
            large = _stat(scheme_name, largest, "optimized", key)
            entry[f"{stat}_scaling_{largest}_vs_{smallest}"] = (
                large / small if small and large else None
            )
        if with_refcodec:
            # Sanity cross-check, NOT the headline: single-node insert
            # latency through the whole engine is dominated by the
            # engine around the codec (order index, pager, undo log),
            # so this ratio hovers near 1 even though the codec itself
            # got much faster.  It guards against the packed codec
            # *regressing* the end-to-end path.
            packed_kinds = _stat(
                scheme_name, largest, "optimized", "per_kind_median_seconds"
            )
            ref_kinds = _stat(
                scheme_name, largest, "refcodec", "per_kind_median_seconds"
            )
            packed_insert = (packed_kinds or {}).get("insert")
            ref_insert = (ref_kinds or {}).get("insert")
            entry[f"end_to_end_insert_ratio_vs_refcodec_at_{largest}"] = (
                ref_insert / packed_insert
                if packed_insert and ref_insert
                else None
            )
        summary[scheme_name] = entry
    codec_microbench = _codec_microbench(run_size=largest)
    if with_refcodec and ref_microbench:
        # The headline of the packed-codec rewrite: median per-code
        # insert latency for a run insert at the largest size — the new
        # packed batch kernel against the pre-PR path (a sequential
        # ``codec.between`` chain on the per-bit reference codec).
        packed_insert = codec_microbench["run_insert_batch_median_seconds"]
        ref_insert = ref_microbench.get("run_insert_sequential_median_seconds")
        summary["codec_run_insert"] = {
            "run_size": largest,
            "packed_batch_seconds_per_code": packed_insert,
            "refcodec_sequential_seconds_per_code": ref_insert,
            f"median_insert_speedup_vs_refcodec_at_{largest}": (
                ref_insert / packed_insert
                if packed_insert and ref_insert
                else None
            ),
        }
    results = {
        "benchmark": "update_hotpath",
        "sizes": list(sizes),
        "schemes": list(schemes),
        "calibration_seconds": _calibration_seconds(),
        "codec_microbench": codec_microbench,
        "configs": configs,
        "summary": summary,
    }
    if ref_microbench:
        results["refcodec_microbench"] = ref_microbench
    if durability:
        results["durability"] = durability
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default=",".join(str(s) for s in DEFAULT_SIZES),
        help="comma-separated document sizes (node counts)",
    )
    parser.add_argument(
        "--ops", type=int, default=200, help="update ops per configuration"
    )
    parser.add_argument(
        "--schemes",
        default=",".join(DEFAULT_SCHEMES),
        help="comma-separated scheme names",
    )
    parser.add_argument(
        "--no-obs",
        action="store_true",
        help="skip the obs counter pass (no embedded metric snapshots)",
    )
    parser.add_argument(
        "--no-durability",
        action="store_true",
        help="skip the WAL durable-footprint probe",
    )
    parser.add_argument(
        "--refcodec",
        dest="refcodec",
        action="store_true",
        default=None,
        help="also run the per-bit reference-codec subprocess pass "
        "(default: on for full sweeps, off for single-size smokes)",
    )
    parser.add_argument(
        "--no-refcodec",
        dest="refcodec",
        action="store_false",
        help="skip the reference-codec subprocess pass",
    )
    parser.add_argument(
        "--out", default="BENCH_updates.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    sizes = tuple(int(s) for s in args.sizes.split(",") if s)
    schemes = tuple(s for s in args.schemes.split(",") if s)
    with_refcodec = (
        len(sizes) > 1 if args.refcodec is None else args.refcodec
    )
    started = time.perf_counter()
    results = run_bench(
        sizes,
        args.ops,
        schemes,
        with_obs=not args.no_obs,
        with_durability=not args.no_durability,
        with_refcodec=with_refcodec,
    )
    results["wall_seconds"] = round(time.perf_counter() - started, 2)
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    for scheme_name, stats in results["summary"].items():
        print(f"{scheme_name}:")
        for key, value in stats.items():
            shown = f"{value:.2f}" if value is not None else "n/a"
            print(f"  {key}: {shown}")
    for probe in results.get("durability", []):
        print(
            f"{probe['scheme']} durability @ n={probe['n']}: "
            f"median {probe['median_wal_bytes_per_insert']:.0f} WAL "
            f"bytes/insert vs {probe['checkpoint_bundle_bytes']} bundle "
            f"bytes ({probe['wal_to_checkpoint_ratio']:.2%})"
        )
    print(f"wrote {args.out} in {results['wall_seconds']}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
