"""Self-test of the benchmark: its metrics exist and its checks can fail.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It makes a tiny run of every workload ``BENCHMARK.json`` lists, and of
``edit``, which runs but is not gated; each runs untraced and traced.
It checks that each passes its correctness gate (a run that cannot give
a metric ``BENCHMARK.json`` lists stops with an error), and then that:

* a run whose *expected* op stream lost one op (the service still
  applies it) fails the gate, and the command exits non-zero;
* the command, copied into a directory that holds only
  ``BENCHMARK.json`` and the benchmark's files, exits non-zero without
  printing a result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bootstrap import ROOT  # noqa: E402

TINY_SECONDS = 1.0


def _command(argv, **options) -> "tuple[int, dict | None, str]":
    """Run ``run.main`` in-process; returns (exit code, result, output)."""
    import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, **options)
    lines = out.getvalue().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return code, result, out.getvalue()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    for workload in [entry["name"] for entry in spec["workloads"]] + ["edit"]:
        for trace in (False, True):
            argv = [
                "--workload", workload, "--seed", "1",
                "--seconds", str(TINY_SECONDS), "--trace", str(int(trace)),
            ]
            code, result, output = _command(argv)
            label = f"{workload} trace={int(trace)}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{label}: exit {code}\n{output}")
                continue
            print(f"ok   {label}: {len(result['metrics'])} metrics, gate passed")

    code, result, output = _command(
        ["--workload", "edit", "--seed", "1", "--seconds", str(TINY_SECONDS)],
        drop_expected_op=0,
    )
    if code == 0 or result is None or result["correct"]:
        problems.append(f"a dropped expected op was not caught (exit {code})\n{output}")
    else:
        print("ok   a dropped expected op fails the gate and the command exits", code)

    bare = ROOT / ".perfbench-out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(
                ROOT / path,
                bare / path,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        completed = subprocess.run(
            spec["command"]
            + ["--workload", "edit", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
            check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if completed.returncode == 0 or completed.stdout.strip():
        problems.append(
            f"a checkout without the program gave exit {completed.returncode} "
            f"and printed {completed.stdout!r}"
        )
    else:
        print("ok   without the program's sources the command exits", completed.returncode)

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
