"""Process pinning and the machine fingerprint recorded with every result.

:func:`pin_environment` must run before numpy is first imported: BLAS and
OpenMP read their thread counts once, at load time.
"""

from __future__ import annotations

import os
import platform
import resource
import sys

#: Thread and worker knobs pinned for every benchmark process.  One worker
#: keeps secure aggregation's shard pool (a fork-based process pool when
#: ``REPRO_WORKERS > 1``) out of the measurement: every workload then runs
#: on one thread, so its figures do not depend on what else shares the
#: machine's cores.
PINNED = {
    "REPRO_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: Knobs removed so the program's own defaults apply (recorded, not set).
UNSET = ("REPRO_BATCH_CHUNK",)


#: Descriptors a served-1k round needs: one socket per client on each side.
MIN_OPEN_FILES = 4096


def pin_environment() -> None:
    """Pin worker and thread counts; drop knobs that would change the work.

    Also lifts the soft open-file limit toward the hard one: the served
    workload holds two sockets per client, past a common 1024 default.
    """
    os.environ.update(PINNED)
    for key in UNSET:
        os.environ.pop(key, None)
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft != resource.RLIM_INFINITY and soft < MIN_OPEN_FILES:
        target = MIN_OPEN_FILES if hard == resource.RLIM_INFINITY else min(hard, MIN_OPEN_FILES)
        resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    """CPU, interpreter, library and knob values this result was measured on."""
    import numpy as np

    from repro.core.client_plane import batch_chunk_size
    from repro.federated import ServeConfig

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 1
    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "REPRO_WORKERS": os.environ.get("REPRO_WORKERS"),
        "REPRO_BATCH_CHUNK": batch_chunk_size(),
        "thread_env": {key: os.environ.get(key) for key in PINNED if key != "REPRO_WORKERS"},
        "serve_telemetry_default": ServeConfig(n_clients=1).telemetry,
        "open_files_limit": resource.getrlimit(resource.RLIMIT_NOFILE)[0],
    }
