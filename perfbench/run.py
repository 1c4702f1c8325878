"""One benchmark for the three round paths: in-process, served and secure.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload inproc-adaptive-1m --seed 1 --seconds 25 --trace 0

``--trace 0`` is the end-to-end run: set-up repeated three times (its
median is ``setup_s``), then a closed loop of checked rounds for
``--seconds`` of timed rounds, tracing off.  ``--trace 1`` is the
per-layer pass (see ``perfbench/layers.py``): a fixed number of rounds per
path, so ``--seconds`` is unused; its span stream, Chrome trace and
summary land in ``perfbench/results/``.

Tests: ``python -m pytest perfbench`` runs every workload at tiny sizes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed check exits 1.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for _path in (SRC, ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.env import fingerprint, pin_environment  # noqa: E402

RESULTS = ROOT / "perfbench" / "results"


def parse_args(argv: list[str] | None, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def emit(line: str, out) -> None:
    out.write(line + "\n")
    out.flush()


def main(
    argv: list[str] | None = None,
    sizes: dict[str, int] | None = None,
    results: Path = RESULTS,
    out=None,
) -> int:
    """Run one workload; ``sizes`` overrides client counts (tests only)."""
    out = out or sys.stdout
    if not (SRC / "repro").is_dir():
        print(f"no program sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    pin_environment()
    from perfbench import endtoend, layers
    from perfbench.stats import median
    from perfbench.workloads import WORKLOADS

    imports_s = time.perf_counter() - _STARTED
    args = parse_args(argv, WORKLOADS)
    sizes = {
        name: (sizes or {}).get(name) or cls.default_clients for name, cls in WORKLOADS.items()
    }
    machine = fingerprint()
    emit(f"fingerprint {json.dumps(machine, sort_keys=True)}", out)
    run_id = f"{args.workload}-seed{args.seed}"

    if args.trace:
        lp = layers.LayerPass(args.workload, args.seed, sizes)
        lp.run()
        measured = lp.metrics()
        attempted, failed, problems = lp.attempted, lp.failed, lp.problems
        for path, parts in lp.breakdown.items():
            cover = median(lp.coverage[path])
            emit(f"breakdown {path}: layer spans cover {cover:.1%} of the round", out)
            for name, values in parts.items():
                emit(f"  {name:<28} {median(values) * 1e3:12.3f} ms", out)
        units = {name: unit for name, (unit, _better) in layers.PER_LAYER.items()}
        for name in layers.PER_LAYER:
            if name in measured:
                value, count = measured[name]
                emit(f"layer {name:<44} {value:14.6g} {units[name]:<8} n={count}", out)
            else:
                # Every layer runs in every traced pass; a gap is a defect.
                failed += 1
                attempted += 1
                problems.append(f"no samples for {name}")
                emit(f"layer {name:<44} absent: no samples", out)
        directory = results / f"trace-{run_id}"
        lp.write(directory, {"fingerprint": machine, "workload": args.workload, "seed": args.seed})
        emit(f"trace written to {directory}", out)
        values = {name: value for name, (value, _count) in measured.items()}
    else:
        workload_cls = WORKLOADS[args.workload]
        workload, setup_times = endtoend.set_up(
            lambda: workload_cls(args.seed, sizes[args.workload])
        )
        try:
            loop = endtoend.closed_loop(workload, args.seconds)
        finally:
            workload.close()
        values, notes = endtoend.metrics(loop, imports_s + median(setup_times))
        units = endtoend.UNITS
        attempted, failed, problems = loop.attempted, loop.failed, loop.problems
        notes.update({"imports_s": imports_s, "setup_repeats_s": setup_times})
        for name, value in values.items():
            emit(f"metric {name:<20} {value:14.6g} {units[name]}", out)
        emit(f"notes {json.dumps(notes, sort_keys=True)}", out)
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{run_id}.json").write_text(
            json.dumps(
                {
                    "fingerprint": machine,
                    "workload": args.workload,
                    "seed": args.seed,
                    "metrics": values,
                    "notes": notes,
                    "latencies_s": loop.latencies,
                    "problems": problems,
                },
                indent=2,
            )
            + "\n"
        )

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = failed == 0
    emit(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in values.items()
                },
            }
        ),
        out,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
