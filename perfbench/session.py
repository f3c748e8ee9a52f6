"""The measured process's Ray session, and what it reads about its processes."""

from __future__ import annotations

import glob
import logging
import os
import re

from perfbench import config

#: the raylet logs its cumulative spill volume on lines like
#: ``Spilled 65 MiB, 13 objects, write throughput 107 MiB/s``
_SPILLED = re.compile(r"Spilled (\d+) MiB")


class RaySession:
    """A local one-CPU Ray session with a fixed object store, whose temp
    directory is ``temp_dir``. ``start`` and ``stop`` may alternate."""

    def __init__(self, temp_dir: str):
        self.temp_dir = temp_dir
        self.session_dirs: list[str] = []

    def start(self) -> None:
        import ray

        ray.init(
            address="local",
            num_cpus=config.NUM_CPUS,
            object_store_memory=config.OBJECT_STORE_BYTES,
            _temp_dir=self.temp_dir,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
        )
        import ray.data as rd

        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        from events_validator_ray.logutil import (
            suppress_empty_shuffle_partition_warning,
            suppress_schema_hash_warning,
        )

        suppress_empty_shuffle_partition_warning()
        suppress_schema_hash_warning()
        self.session_dirs.append(ray._private.worker._global_node.get_session_dir_path())

    def stop(self) -> None:
        import ray

        ray.shutdown()

    def spilled_mb(self) -> float:
        """MiB the current session's object store spilled to disk so far."""
        if not self.session_dirs:
            return 0.0
        mib = 0
        for path in glob.glob(os.path.join(self.session_dirs[-1], "logs", "raylet*.out")):
            with open(path, errors="replace") as f:
                for m in _SPILLED.finditer(f.read()):
                    mib = max(mib, int(m.group(1)))
        return float(mib)


_TICK = os.sysconf("SC_CLK_TCK")


def host_cpu() -> tuple[float, float]:
    """(busy, stolen) CPU seconds of the whole host since boot, from
    ``/proc/stat``; steal is time a virtual CPU waited for the hypervisor."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return (v[0] + v[1] + v[2] + v[5] + v[6]) / _TICK, v[7] / _TICK


def session_procs(sid: int) -> list[tuple[int, str, float]]:
    """``(pid, state, cpu_s)`` of every process in session ``sid``, where
    ``cpu_s`` is its user + system CPU seconds so far."""
    procs = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as f:
                s = f.read()
        except OSError:  # the process ended while we looked
            continue
        fields = s[s.rindex(")") + 2 :].split()
        if int(fields[3]) == sid:
            procs.append((int(stat.split("/")[2]), fields[0], (int(fields[11]) + int(fields[12])) / _TICK))
    return procs


def tree_cpu_s() -> float:
    """CPU seconds of every live process in this process's session: the
    driver, the Ray daemons and the Ray workers."""
    return sum(cpu for _, _, cpu in session_procs(os.getsid(0)))
