"""A record of the machine and numerical libraries a run measured on.

numpy is imported only inside the functions, so the benchmark's parent
process can read BLAS_THREAD_VARS without loading it.
"""

import ctypes
import glob
import os
import platform
from pathlib import Path

# Environment variables that cap the thread pools of the common BLAS builds.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads(np):
    """Threads of numpy's bundled OpenBLAS, asked of the library itself."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _caches():
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        entry = Path(index)
        try:
            level = (entry / "level").read_text().strip()
            kind = (entry / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (entry / "size").read_text().strip()
        except OSError:
            continue
    return caches


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def record() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(np),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
