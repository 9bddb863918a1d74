"""Record of the machine and software a benchmark result came from."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy
import scipy


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def cache_sizes() -> dict:
    """Unified/data cache size per level of cpu0, as the kernel reports it."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        kind = _read(f"{index}/type")
        level = _read(f"{index}/level")
        size = _read(f"{index}/size")
        if kind in ("Unified", "Data") and level and size:
            out[f"L{level}"] = size
    return out


def filesystem_type(path: Path) -> str | None:
    """Type of the mount holding path, from the longest matching mount point."""
    target = str(Path(path).resolve())
    best, best_type = "", None
    for line in (_read("/proc/self/mountinfo") or "").splitlines():
        fields = line.split()
        if " - " not in line or len(fields) < 5:
            continue
        mount = fields[4].replace("\\040", " ")
        fstype = line.split(" - ", 1)[1].split()[0]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, best_type = mount, fstype
    return best_type


def environment(watch_dir: Path, largest_array_bytes: int) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "nproc": cpus,
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "largest_array_mb": largest_array_bytes / 1e6,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "watch_dir_filesystem": filesystem_type(watch_dir),
        "io_note": "lock files are written and read back through the page cache, "
                   "which the benchmark never drops, so no disk behaviour is measured",
    }
