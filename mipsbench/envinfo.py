"""The machine and library versions a run was measured with."""
from __future__ import annotations

import ctypes
import os
import platform
import re

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> dict:
    """Version and build options NumPy reports, plus the live thread count."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "name": info.get("name"),
        "version": info.get("version"),
        "config": info.get("openblas configuration"),
        "threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def environment(*, master: str | None, partitions: int | None) -> dict:
    import pyarrow
    import pyspark

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "pyspark": pyspark.__version__,
        "pyarrow": pyarrow.__version__,
        "spark_master": master,
        "spark_partitions": partitions,
    }
