"""Paths, process environment and statistics shared by the workloads."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Run artefacts (span files, server logs); ignored by git.
OUT = BENCH_DIR / "out"


class BenchError(Exception):
    """The benchmark cannot run here, or the program's output is wrong."""


def child_env() -> Dict[str, str]:
    """Environment for program processes: default configuration (no
    ``REPRO_*`` knob set), sources on ``PYTHONPATH``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def prepare() -> None:
    """Point this process at the checkout's sources, in the default
    configuration; fail when the program is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    OUT.mkdir(exist_ok=True)


def time_subprocess(argv: Sequence[str], repeats: int,
                    timeout: float) -> List[float]:
    """Wall seconds of each of ``repeats`` runs of ``argv`` (must exit 0)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run(list(argv), env=child_env(), cwd=str(ROOT),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=timeout)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchError("set-up process failed: "
                             + done.stderr.decode(errors="replace")[-2000:])
    return samples


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")
