"""Machine facts the benchmark's figures depend on, printed as JSON.

    PYTHONPATH=src python3 perfbench/machine.py

Reports the CPU count, the Python, NumPy and SciPy versions, NumPy's BLAS,
and the BLAS thread count in this process and in a campaign pool worker
started the way ``run_experiment`` starts its pool (``ProcessPoolExecutor``
with ``initializer=_single_thread_env``).  The thread count is read from
the loaded OpenBLAS library through ctypes.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import scipy


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that NumPy loaded, or None if it is not OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _worker_report() -> dict:
    return {"blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> None:
    from sklab.experiment_harness import _single_thread_env

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with ProcessPoolExecutor(max_workers=1, initializer=_single_thread_env) as pool:
        worker = pool.submit(_worker_report).result()
    print(json.dumps({
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "parent": _worker_report(),
        "pool_worker": worker,
    }, indent=2))


if __name__ == "__main__":
    main()
