"""Print the machine block recorded next to benchmark baselines, as JSON.

    python3 perfbench/machine.py
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc() -> str:
    """Size of the highest cache level the kernel reports for cpu0."""
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def machine() -> dict:
    import numpy
    import scipy
    nproc = os.cpu_count() or 1
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "llc_reported": _llc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # OpenBLAS starts one thread per online CPU unless told otherwise
        "blas_threads": min(int(env) if env else nproc, nproc),
    }


if __name__ == "__main__":
    print(json.dumps(machine(), indent=2))
