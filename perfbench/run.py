"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload expand|write|serve --seed N \\
        --seconds S --trace 0|1

Set-up runs at least three times (``setup_s`` is the median, see
``common.SETUP_REPEATS``), then the timed closed loop runs for
``--seconds``.  With ``--trace 0`` the last line of standard output is a
JSON object carrying every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` the loop is split in two halves — untraced, then traced —
and the JSON carries every per-layer metric, ``trace.overhead_ratio``
included.  Output checks run in the same command: a
failed check prints ``"correct": false`` and exits 1.  The program is
imported from ``src/`` of the checkout; without it the command exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run prints, as ``BENCHMARK.json`` lists them.

    ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
    ones; every workload prints every one, and a layer the workload does not
    reach reads 0.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in metrics}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("expand", "write", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` — never from elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {src / 'repro'} is missing", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )


def make_workload(name: str, seed: int, seconds: float, workdir: Path):
    if name == "expand":
        from expand import ExpandWorkload

        return ExpandWorkload(seed, seconds, workdir)
    if name == "write":
        from write import WriteWorkload

        return WriteWorkload(seed, seconds, workdir)
    from serve import ServeWorkload

    return ServeWorkload(seed, seconds, workdir)


def run(
    args: argparse.Namespace, workdir: Path, units: dict[str, str]
) -> tuple[dict, bool, int, int, list[str]]:
    from common import SETUP_REPEATS, SETUP_SECONDS, CheckFailed, latency_metrics, timed
    from tracing import Tracer

    workload = make_workload(args.workload, args.seed, args.seconds, workdir)
    setups = []
    try:
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            if setups:
                workload.close()
            setups.append(timed(workload.setup)[1])
        notes: list[str] = []
        if args.trace:
            reference = workload.measure(args.seconds / 2)
            tracer = Tracer()
            try:
                workload.instrument(tracer)
                measured = workload.measure(args.seconds / 2, tracer)
            finally:
                tracer.restore()
            workload.collect()
            halves = [reference, measured]
        else:
            measured = workload.measure(args.seconds)
            halves = [measured]
        attempted = sum(half.attempted for half in halves)
        failed = sum(half.failed for half in halves)
        correct = True
        for half in halves:
            if half.exhausted:
                # A loop cut short by its inputs must not pass as a full run.
                correct = False
                notes.append(
                    f"CHECK FAILED: the inputs prepared in set-up ran out after "
                    f"{half.attempted} operations, {half.elapsed:.2f} s into a "
                    f"{args.seconds / len(halves):g} s loop"
                )
        try:
            workload.verify()
        except CheckFailed as exc:
            correct = False
            notes.append(f"CHECK FAILED: {exc}")
        if args.trace:
            metrics = dict.fromkeys(units, 0.0)
            metrics.update(workload.layer_metrics(tracer, measured))
            metrics["trace.overhead_ratio"] = (
                reference.ops_per_s / measured.ops_per_s if measured.ops_per_s else 0.0
            )
            trace_name = f"{args.workload}-seed{args.seed}.jsonl.gz"
            trace_path = ROOT / ".perfbench" / "traces" / trace_name
            tracer.write(trace_path)
            notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            metrics, note = latency_metrics(measured)
            notes.append(note)
            metrics["setup_s"] = statistics.median(setups)
            metrics.update(workload.end_to_end())
        notes.extend(workload.report())
        notes.append(f"{len(setups)} set-ups, median {statistics.median(setups):.4f} s")
    finally:
        workload.close()
    return metrics, correct, attempted, failed, notes


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    load_program()
    from common import CheckFailed

    units = metric_units(bool(args.trace))
    # A terminated run still stops the server child (workload.close()).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, correct, attempted, failed, notes = run(args, workdir, units)
    except CheckFailed as exc:
        # A check that fails mid-loop leaves no metrics worth reporting.
        print(f"CHECK FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics.keys() != units.keys():
        mismatch = sorted(metrics.keys() ^ units.keys())
        print(f"metrics differ from BENCHMARK.json: {mismatch}", file=sys.stderr)
        return 1
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    for note in notes:
        print(note)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
