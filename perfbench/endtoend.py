"""End-to-end pass: repeated set-up, then a closed loop of checked rounds.

Closed loop: one caller issues a round, waits for its estimate, checks it
with the clock stopped, then issues the next.  The timed phase is the sum
of the issued rounds' wall time (checks excluded), and CPU time is taken
over exactly the same intervals.
"""

from __future__ import annotations

import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from perfbench.stats import median, tail
from perfbench.workloads import ROUND_STREAM, WARMUP_STREAM, Workload, derive_seed

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: End-to-end metric name -> unit, in report order.
UNITS = {
    "clients_per_s": "1/s",
    "round_p50_s": "s",
    "round_tail_s": "s",
    "cpu_us_per_client": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checked_frac": "fraction",
}


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    clients: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def set_up(
    make: Callable[[], Workload], repeats: int = SETUP_REPEATS
) -> tuple[Workload, list[float]]:
    """Build the workload ``repeats`` times (inputs, construction, one warm-up round).

    Returns the last instance and every repeat's wall time.  Warm-up rounds
    are neither checked nor counted.
    """
    times = []
    workload = None
    for repeat in range(repeats):
        if workload is not None:
            workload.close()
        start = time.perf_counter()
        workload = make()
        workload.setup()
        workload.run_round(derive_seed(workload.seed, WARMUP_STREAM, repeat))
        times.append(time.perf_counter() - start)
    return workload, times


def closed_loop(workload: Workload, seconds: float) -> LoopResult:
    """Issue checked rounds until the timed phase reaches ``seconds``."""
    result = LoopResult()
    index = 0
    while result.attempted == 0 or result.wall_s < seconds:
        seed = derive_seed(workload.seed, ROUND_STREAM, index)
        index += 1
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            rnd = workload.run_round(seed)
        except Exception:  # a failed round is counted, not fatal
            rnd = None
            error = traceback.format_exc()
        result.cpu_s += time.process_time() - cpu0
        result.wall_s += time.perf_counter() - wall0
        result.attempted += 1
        if rnd is None:
            result.failed += 1
            result.problems.append(f"round {index - 1} raised:\n{error}")
            continue
        result.latencies.append(rnd.latency_s)
        problems = workload.check(rnd)
        if problems:
            result.failed += 1
            result.problems.append(f"round {index - 1}: {'; '.join(problems)}")
            continue
        result.clients += rnd.clients
    return result


def peak_rss_mb() -> float:
    scale = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


def metrics(loop: LoopResult, setup_s: float) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics, plus the notes printed beside them."""
    tail_s, tail_pct = tail(loop.latencies) if loop.latencies else (0.0, 0.0)
    clients = max(loop.clients, 1)
    values = {
        "clients_per_s": loop.clients / loop.wall_s,
        "round_p50_s": median(loop.latencies) if loop.latencies else 0.0,
        "round_tail_s": tail_s,
        "cpu_us_per_client": loop.cpu_s / clients * 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "checked_frac": (loop.attempted - loop.failed) / loop.attempted,
    }
    notes = {
        "rounds": loop.attempted,
        "failed_frac": loop.failed / loop.attempted,
        "round_tail_pct": tail_pct,
        "timed_wall_s": loop.wall_s,
        "timed_cpu_s": loop.cpu_s,
    }
    return values, notes
