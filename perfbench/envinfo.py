"""The environment record written with every result: interpreter and library
versions, the FFT backend GridSpec actually calls, core count, CPU model,
L3 size and the thread-count variables of the common math libraries."""

from __future__ import annotations

import os
import platform
import sys
from importlib import metadata
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _l3_size() -> str | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        if (_read(str(index / "level")) or "").strip() == "3":
            return (_read(str(index / "size")) or "").strip() or None
    return None


def fft_backend() -> str:
    """Which library's rfftn/irfftn a GridSpec transform reaches, found by
    counting calls during one small transform pair. A scipy module is only
    watched if the program has already imported it."""
    import numpy as np
    from sabi.grid import GridSpec

    targets = [("numpy.fft", np.fft)]
    if "scipy.fft" in sys.modules:
        targets.append(("scipy.fft", sys.modules["scipy.fft"]))
    hits = {label: 0 for label, _ in targets}
    saved = []
    for label, module in targets:
        for attr in ("rfftn", "irfftn"):
            fn = getattr(module, attr)
            saved.append((module, attr, fn))

            def counted(*args, _fn=fn, _label=label, **kwargs):
                hits[_label] += 1
                return _fn(*args, **kwargs)

            setattr(module, attr, counted)
    try:
        grid = GridSpec(8, 8, 8)
        grid.irfft(grid.rfft(np.zeros(grid.shape)))
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
    used = [label for label, n in hits.items() if n]
    return "+".join(used) if used else "unknown (GridSpec calls neither numpy.fft nor scipy.fft)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "fft_backend": fft_backend(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "l3_size": _l3_size(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }
