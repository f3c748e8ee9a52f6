"""Benchmark of the validation engine on a one-CPU local Ray session.

    python3 perfbench/run.py --workload scan|full_run|report --seed N \
        --seconds S --trace 0|1

Run it from the repository root. It prepares the seed's inputs in one child
process, measures in another that it starts in a process group of its own,
then stops and reaps that group and deletes the Ray session directory. The
last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it holds detail (sample counts, tail percentile, set-ups).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import config  # noqa: E402
from perfbench.session import session_procs  # noqa: E402

PREPARE_TIMEOUT_S = 120
#: AF_UNIX socket paths are capped at 107 bytes; Ray puts them at
#: <temp dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
MAX_RAY_DIR = 42


def _session_members(sid: int) -> list[int]:
    """Live (not zombie) processes of session ``sid``."""
    return [pid for pid, state, _ in session_procs(sid) if state != "Z"]


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_group(sid: int, grace_s: float = 5.0) -> None:
    """Stop every process of the measured session and wait until each has
    ended. As child subreaper this process inherits, and reaps, the Ray
    daemons and workers whose parents exit first."""
    deadline = time.monotonic() + grace_s
    while _session_members(sid) and time.monotonic() < deadline:
        _reap()
        time.sleep(0.1)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        if not _session_members(sid):
            break
        try:
            os.killpg(sid, sig)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + grace_s
        while _session_members(sid) and time.monotonic() < deadline:
            _reap()
            time.sleep(0.1)
    _reap()
    if _session_members(sid):
        raise RuntimeError(f"processes of session {sid} survived SIGKILL")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=config.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "events_validator_ray")):
        print("perfbench: events_validator_ray/ not found; run from the repository root", file=sys.stderr)
        return 2
    out = os.path.join(ROOT, config.OUT_DIR)
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "last_run.log")
    result_path = os.path.join(out, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    ray_dir = os.path.join(ROOT, config.RAY_DIR)
    if len(ray_dir) > MAX_RAY_DIR:
        # the checkout path is too long for Ray's sockets: use a short
        # private directory instead, removed below like the default one
        ray_dir = tempfile.mkdtemp(prefix="pb-")
    shutil.rmtree(ray_dir, ignore_errors=True)
    env = dict(
        os.environ,
        # Ray workers import the engine and the benchmark's UDFs from the root
        PYTHONPATH=os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")])),
        RAY_TMPDIR=ray_dir,
    )
    corpora = {"scan"} if args.workload == "scan" else {"run"}
    if args.trace:
        corpora = {"scan", "run"}

    # a SIGTERM to this process stops the measured group too (finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = time.monotonic() + config.RUN_TIMEOUT_S
    with open(log_path, "w") as log:
        cmd = [sys.executable, "-m", "perfbench.prepare", "--seed", str(args.seed)]
        for c in sorted(corpora):
            cmd += ["--corpus", c]
        try:
            subprocess.run(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                           timeout=PREPARE_TIMEOUT_S, check=True)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: preparing inputs failed ({e}); see {log_path}", file=sys.stderr)
            return 1

        try:  # PR_SET_CHILD_SUBREAPER: orphans of the measured session come to us
            ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
        except (OSError, AttributeError):
            pass
        cmd = [
            sys.executable, "-m", "perfbench.measure",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--ray-dir", ray_dir, "--result", result_path,
        ]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=max(10.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            stop_group(proc.pid)
            proc.wait()
            shutil.rmtree(ray_dir, ignore_errors=True)

    if rc != 0 or not os.path.exists(result_path):
        why = "timed out" if rc is None else f"exited with {rc}"
        print(f"perfbench: the measured process {why}; see {log_path}", file=sys.stderr)
        return 1
    with open(result_path) as f:
        rec = json.load(f)
    print(json.dumps({"detail": rec["detail"]}))
    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
