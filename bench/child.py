"""One benchmark child: import splab, run one untimed warm-up call, then run
the round's operation list through ``splab.cli.main`` until the requested
seconds of call time have passed.

Usage: python3 bench/child.py JOB.json  (the job file is written by run.py)

Only the call itself is timed (and traced); removing stale outputs,
hashing them and saving the first round's copies happen outside.  The
result file records per-call exit code, latency, output digest and error
class, the setup time, the peak RSS and, when traced, the per-layer aggregate.

After setup the child times ``calibrate("mix")``, and between calls, each
time at least ``calib_every_s`` of call time has passed, it times the
workload's own calibration kernel; both are fixed kernels that do not
touch splab, so that run.py can rescale times to a reference machine speed.
An ``alloc``
job runs a single round under ``tracemalloc`` and records the peak of the
memory that round allocated through Python and numpy; it skips the
calibrations between calls, and its latencies are not used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

_ERROR_CLASS = re.compile(r"^splab: ([A-Za-z]+): ", re.MULTILINE)
_OUT_FLAGS = ("--out", "--perturb-out")


def _outputs(argv: list[str]) -> list[Path]:
    return [Path(argv[i + 1]) for i, tok in enumerate(argv[:-1]) if tok in _OUT_FLAGS]


def _call(cli, argv: list[str], tracer):
    """Run one CLI call; return (exit code, seconds, stdout, stderr, error class)."""
    for path in _outputs(argv):
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.on = True
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a traceback escaping the CLI is itself a failure to record
            rc = -1
            error = "traceback"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.on = False
    stderr = err.getvalue()
    if error is None and rc != 0:
        found = _ERROR_CLASS.search(stderr)
        error = found.group(1) if found else ("usage" if rc == 1 else f"exit-{rc}")
    return rc, elapsed, out.getvalue(), stderr, error


def _digest(argv: list[str], stdout: str, stderr: str) -> str:
    h = hashlib.sha256()
    h.update(stdout.encode())
    h.update(b"\0")
    h.update(stderr.encode())
    for path in _outputs(argv):
        h.update(b"\0" + path.name.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


_KERNEL = {}


def calibrate(kind: str = "mix") -> float:
    """Seconds a fixed kernel takes.

    ``mix``: the median of five runs of interpreter work (integer
    arithmetic, a string-keyed dict) and small LAPACK calls, the mix of work
    in small-reports and verify-suites; one run is 6-8 ms, too short to read
    the machine's speed on its own.  ``svd``: the singular values of a fixed
    1024x1024 complex matrix, the dense LAPACK work that large-report's time
    is in; its speed follows the host's swings in large-report's call times,
    which ``mix`` does not.
    """
    import numpy as np

    if not _KERNEL:
        rng = np.random.default_rng(0)
        _KERNEL["small"] = rng.standard_normal((12, 12))
        _KERNEL["mid"] = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
    if kind == "svd":
        if "big" not in _KERNEL:
            rng = np.random.default_rng(1)
            _KERNEL["big"] = (rng.standard_normal((1024, 1024))
                              + 1j * rng.standard_normal((1024, 1024)))
        start = time.perf_counter()
        np.linalg.svd(_KERNEL["big"], compute_uv=False)
        return time.perf_counter() - start
    return statistics.median(_mix(np) for _ in range(5))


def _mix(np) -> float:
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    table = {str(i): i for i in range(2000)}
    for _ in range(30):
        np.linalg.eigvals(_KERNEL["small"])
        np.linalg.qr(_KERNEL["small"])
    np.linalg.svd(_KERNEL["mid"], compute_uv=False)
    elapsed = time.perf_counter() - start
    del table  # freed outside the timed part
    return elapsed


def _peak_rss_mb() -> float:
    """VmHWM of this process.  Unlike ru_maxrss, which keeps the parent's
    high-water mark across fork and exec, it covers this program alone."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(job_path: str) -> int:
    start = time.perf_counter()
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import splab.cli as cli

    src = Path(job["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"imported splab from {cli.__file__}, not from {src}")
    ops = job["ops"]
    warm = _call(cli, ops[job["warmup"]]["argv"], None)
    result = {"setup_s": time.perf_counter() - start,
              "warmup": {"rc": warm[0], "error": warm[4]}}
    calibrate()  # first run builds the kernel's inputs
    result["setup_calib_s"] = [calibrate() for _ in range(3)]
    if job["setup_only"]:
        Path(job["result"]).write_text(json.dumps(result))
        return 0

    tracer = None
    if job["trace"]:
        import tracer as tracing
        tracer = tracing.install()
    save = Path(job["save"])
    save.mkdir(parents=True, exist_ok=True)
    if job["alloc"]:
        tracemalloc.start()
    rounds, stderr_first = [], []
    kernel, every = job["calib_kernel"], job["calib_every_s"]
    calib = []
    if not job["alloc"]:
        calibrate(kernel)  # first run builds the kernel's inputs
        calib.append(calibrate(kernel))
    measured = since_calib = 0.0
    # a traced child traces every other round, so the untraced rounds in
    # between give the trace overhead under the same machine conditions
    min_rounds = 2 if tracer is not None else 1
    traced_rounds = []
    while len(rounds) < min_rounds or measured < job["seconds"]:
        calls = []
        traced = tracer if tracer is not None and len(rounds) % 2 == 1 else None
        if traced is not None:
            traced_rounds.append(len(rounds))
        for op in ops:
            rc, elapsed, stdout, stderr, error = _call(cli, op["argv"], traced)
            measured += elapsed
            since_calib += elapsed
            calls.append([rc, elapsed, _digest(op["argv"], stdout, stderr), error])
            if calib and since_calib >= every:
                calib.append(calibrate(kernel))
                since_calib = 0.0
            if not rounds:
                stderr_first.append(stderr)
                for path in _outputs(op["argv"]):
                    if path.exists():
                        shutil.copyfile(path, save / path.name)
        rounds.append(calls)
    result.update(rounds=rounds, traced_rounds=traced_rounds, stderr=stderr_first, calib_s=calib,
                  peak_rss_mb=_peak_rss_mb())
    if job["alloc"]:
        result["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        result["counters"] = dict(tracer.counters)
        tracer.write_spans(job["spans"])
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
