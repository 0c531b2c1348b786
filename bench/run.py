"""splab benchmark: three workloads driven through ``splab.cli.main``.

Run one workload (the last stdout line is the JSON result):

    python3 bench/run.py --workload small-reports --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: setup_s
(median over fresh children of import + one warm-up call), wall_s (one
round of the fixed operation list) and peak_alloc_mb (peak memory one
round allocates through Python and numpy, from tracemalloc in a child of
its own).

On a shared 2-vCPU Xeon host raw times swing up to 1.9x, in phases of
seconds to minutes, so runs made minutes apart disagree by more than the
bounds.  setup_s and wall_s are therefore at reference machine speed: each
time is divided by the time of a fixed kernel that does not touch splab,
timed in the same child, and multiplied by the kernel's CALIB_REF_S.
setup_s uses child.calibrate("mix") timed right after setup.  wall_s is
the median round against the median time of the workload's kernel
(workloads.CALIBRATION), timed between calls all through the run.  The raw
medians are printed too (setup_raw_s, wall_raw_s, and calib_ms, the
median time of the workload's kernel).

It also prints, ungated: peak_rss_mb (VmHWM of the measuring child;
with glibc's sliding mmap threshold it is 224 or 250 MB on large-report
depending on the seed's allocation history, too bimodal to gate),
op_p50_ms / op_p90_ms on small-reports (per-call latency over every
measured call; the other workloads have too few and too unlike calls per
round for percentiles to mean anything), and failed_frac with the known
failures (0 on two workloads, so it cannot be gated).

``--trace 1`` runs an untraced and a traced child for half the time each
and prints the per-layer metrics (per traced round of the operation list).
The traced child traces every other round; the trace overhead is the
median traced round over the median untraced round of that child, minus 1.
Both children must write identical outputs.

Other modes:

    python3 bench/run.py --collect results.json --seeds 1-10
    python3 bench/run.py --collect pairs.json --seeds 1-10 --base ../parent
    python3 bench/run.py --self-test
    python3 bench/run.py --record-reference

``--collect`` runs every workload on each seed and traces the first seed,
then prints each metric's median, quartiles and spread.  With ``--base``
(a checkout of the parent commit) every run is a pair, parent and change
in alternating order, and it also prints the paired comparison: per-seed
ratios, the share of pairs the change wins, and a verdict per metric.

Each run writes bench/out/result-<workload>-s<seed>-t<trace>.json (and, when
traced, the spans as CSV).  Children run one at a time, closed loop, with
BLAS pinned to one thread through their environment (see CHILD_ENV); no
machine setting is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3
# Times are rescaled to a machine on which each child.calibrate() kernel
# takes this long (about what a 2-vCPU Xeon host reads at its fastest).
CALIB_REF_S = {"mix": 0.0055, "svd": 0.85}
CHILD_TIMEOUT_S = 170

# per-layer metrics read directly from the tracer's <label>.<stat> table
LAYER_STATS = (
    "bounds.sep_frobenius.total_ms", "bounds.sep_frobenius.calls",
    "linalg.singular_values.self_ms", "linalg.kron.calls", "linalg.kron.self_ms",
    "partition.gap_delta0.calls", "partition.gap_delta0.self_ms",
    "linalg.eig.calls", "linalg.eig.self_ms", "linalg.singular_values.calls",
    "linalg.qr_decompose.calls", "linalg.qr_decompose.self_ms", "linalg.cond2.calls",
    "angles.orth_complement.calls", "angles.orth_complement.self_ms",
    "angles.sin_theta_norm.total_ms", "partition.partition.calls",
    "partition.match_partition.self_ms", "bounds.new_bound.total_ms",
    "bounds.full_report.total_ms", "bounds.full_report.self_ms",
    "rng.SplitMix64.complex_normals.self_ms", "rng.SplitMix64.normals.self_ms",
    "verify.random_diagonalizable_case.total_ms",
    "experiments.gen_gaussian_perturbation.total_ms",
    "oracles.build_oracle_context.total_ms", "oracles.coupling_row.total_ms",
    "oracles.contour_projector.total_ms",
    "cli.main.self_ms", "io.load_matrix.self_ms", "io.report_to_obj.self_ms",
    "io.records_to_json.self_ms", "io.sweep_to_csv.self_ms",
)


def environment() -> dict:
    """Read-only record of the machine and library versions."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_env": CHILD_ENV,
    }


def _spawn(job: dict, tag: str) -> dict:
    """Run one child to completion and return its result record."""
    job_path = Path(job["result"]).with_suffix(".job.json")
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(job_path)],
                          cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"child {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(Path(job["result"]).read_text())


def _tally(ops, child: dict, problems: dict, first: list[str]) -> tuple[int, list, dict]:
    """Failed-call count, unexpected failures and known failures of a child."""
    failed, unexpected, known = 0, [], {}
    for calls in child["rounds"]:
        for op, (rc, _, digest, error), ref_digest in zip(ops, calls, first):
            if rc not in op.expect_rc:
                failed += 1
                if op.known_failure is not None and error == op.known_failure:
                    known[op.name] = error
                else:
                    unexpected.append(f"{op.name}: exit {rc} ({error})")
            elif digest != ref_digest:
                failed += 1
                unexpected.append(f"{op.name}: output differs from the first round")
            elif problems.get(op.name):
                failed += 1
                unexpected.extend(problems[op.name])
    return failed, unexpected, known


def _round_walls(child: dict) -> list[float]:
    return [sum(call[1] for call in calls) for calls in child["rounds"]]


def measure(workload: str, seed: int, seconds: float, trace: bool, src: Path = SRC) -> dict:
    """Run one workload on the splab sources in ``src`` and check its outputs.

    Returns the result record; its ``final`` entry is the benchmark's JSON
    result line.  The checks always use this checkout's sources, so two
    source trees are measured with identical benchmark code.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))  # the checks use splab's independent oracle
    tag = f"{workload}-s{seed}-t{int(trace)}"
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{tag}-", dir=OUT))
    try:
        ops, warmup = workloads.build(workload, seed, work)

        kernel, every = workloads.CALIBRATION[workload]

        def job(name: str, secs: float, traced: bool = False, setup_only: bool = False,
                alloc: bool = False):
            return {"src": str(src), "ops": [vars(op) for op in ops], "warmup": warmup,
                    "calib_kernel": kernel, "calib_every_s": every, "seconds": secs,
                    "trace": traced, "setup_only": setup_only, "alloc": alloc,
                    "save": str(work / f"saved-{name}"),
                    "result": str(work / f"child-{name}.json"),
                    "spans": str(OUT / f"spans-{tag}.csv")}

        if trace:
            children = {"plain": _spawn(job("plain", seconds / 2), "plain"),
                        "traced": _spawn(job("traced", seconds / 2, traced=True), "traced")}
            setups = []
        else:
            setups = [_spawn(job(f"setup{i}", 0, setup_only=True), f"setup{i}")
                      for i in range(SETUP_SAMPLES - 2)]
            children = {"alloc": _spawn(job("alloc", 0, alloc=True), "alloc"),
                        "plain": _spawn(job("plain", seconds), "plain")}
            setups.append(children["alloc"])
        plain = children["plain"]
        setups.append(plain)

        saved = work / "saved-plain"
        reference = json.loads(checks.REFERENCE_PATH.read_text())
        first = [call[2] for call in plain["rounds"][0]]
        problems = {}
        for op, stderr, call in zip(ops, plain["stderr"], plain["rounds"][0]):
            if call[0] in op.expect_rc:
                try:
                    found = checks.check_op(op, work, saved, stderr, reference)
                except Exception as exc:  # malformed output fails its check
                    found = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
                if found:
                    problems[op.name] = found
        attempted = failed = 0
        unexpected, known = [], {}
        for name, child in children.items():
            warm = child["warmup"]
            if warm["rc"] not in ops[warmup].expect_rc:
                unexpected.append(f"{name} warm-up {ops[warmup].name}: exit {warm['rc']}")
            f, u, k = _tally(ops, child, problems, first)
            attempted += sum(len(calls) for calls in child["rounds"])
            failed += f
            unexpected += u
            known.update(k)
        if trace:
            traced = children["traced"]
            traced_first = [call[2] for call in traced["rounds"][traced["traced_rounds"][0]]]
            unexpected += [f"{op.name}: traced output differs from untraced output"
                           for op, a, b in zip(ops, first, traced_first) if a != b]

        record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                  "environment": environment(), "rounds": len(plain["rounds"]),
                  "calls_per_round": len(ops), "attempted": attempted, "failed": failed,
                  "known_failures": known,
                  "unexpected": list(dict.fromkeys(unexpected))[:50], "digests": first,
                  "setup_samples_s": [child["setup_s"] for child in setups]}
        info = {"failed_frac": (failed / attempted, "fraction")}
        if trace:
            layers, metrics = traced_metrics(traced)
            record["layers"] = layers
            record["traced_digests"] = traced_first
            record["self_ms_sum"] = sum(row["self_ms"] for row in traced["layers"].values())
            record["traced_wall_ms_total"] = 1e3 * sum(
                _round_walls(traced)[i] for i in traced["traced_rounds"])
        else:
            latencies = [call[1] * 1e3 for calls in plain["rounds"] for call in calls]
            deciles = statistics.quantiles(latencies, n=10, method="inclusive")
            walls, calib = _round_walls(plain), statistics.median(plain["calib_s"])
            metrics = {
                "setup_s": (statistics.median(
                    c["setup_s"] * CALIB_REF_S["mix"] / statistics.median(c["setup_calib_s"])
                    for c in setups), "s"),
                "wall_s": (statistics.median(walls) * CALIB_REF_S[kernel] / calib, "s"),
                "peak_alloc_mb": (children["alloc"]["alloc_peak_mb"], "MB"),
            }
            info["setup_raw_s"] = (statistics.median(c["setup_s"] for c in setups), "s")
            info["wall_raw_s"] = (statistics.median(walls), "s")
            info["calib_ms"] = (1e3 * calib, "ms")
            info["peak_rss_mb"] = (plain["peak_rss_mb"], "MB")
            if workload == "small-reports":
                info["op_p50_ms"] = (statistics.median(latencies), "ms")
                info["op_p90_ms"] = (deciles[8], "ms")
        record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        record["info"] = {name: {"value": v, "unit": u} for name, (v, u) in info.items()}
        record["final"] = {"correct": not unexpected, "attempted": attempted, "failed": failed,
                           "metrics": record["metrics"]}
        (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return record


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "splab" / "cli.py").is_file():
        print(f"bench: no splab sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    record = measure(workload, seed, seconds, trace)
    env = record["environment"]
    final = record["final"]
    print(f"env nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']!r} "
          f"child_env={','.join(f'{k}={v}' for k, v in CHILD_ENV.items())}")
    print(f"workload {workload} seed {seed} trace {int(trace)}: {record['rounds']} rounds "
          f"x {record['calls_per_round']} calls; {final['attempted']} attempted, "
          f"{final['failed']} failed")
    for name, m in record["metrics"].items():
        print(f"  {name:<48} {m['value']:14.6g} {m['unit']}")
    for name, m in record["info"].items():
        print(f"  {name:<48} {m['value']:14.6g} {m['unit']} (not gated)")
    if trace:
        print("  largest self time per round:")
        top = sorted(record["layers"].items(), key=lambda kv: -kv[1]["self_ms"])[:8]
        for label, row in top:
            print(f"    {label:<46} {row['self_ms']:10.3f} ms self {row['total_ms']:10.3f} ms total "
                  f"{row['calls']:8.1f} calls")
    for name, error in record["known_failures"].items():
        print(f"  known failure: {name} fails with {error} (counted in failed_frac)")
    for line in record["unexpected"][:20]:
        print(f"  FAILED CHECK: {line}")
    print(json.dumps(final))
    return 0


def traced_metrics(traced: dict) -> tuple[dict, dict]:
    """Per-layer stats per traced round of the traced child, and the named
    per-layer metrics."""
    walls = _round_walls(traced)
    on = traced["traced_rounds"]
    rounds = len(on)
    layers = {label: {stat: value / rounds for stat, value in row.items()}
              for label, row in traced["layers"].items()}
    counters = traced["counters"]
    metrics = {}
    for name in LAYER_STATS:
        label, stat = name.rsplit(".", 1)
        metrics[name] = (layers[label][stat], "count" if stat == "calls" else "ms")
    metrics["linalg.kron.bytes"] = (counters.get("kron_bytes", 0) / rounds, "bytes_computed")
    metrics["rng.variates"] = (counters.get("variates", 0) / rounds, "count")
    contexts = counters.get("identity_contexts", 0)
    metrics["verify.identity_accept_ratio"] = (
        counters.get("identity_records", 0) / contexts if contexts else 0.0, "ratio")
    cases = counters.get("dominance_cases", 0)
    metrics["verify.dominance_eig_per_case"] = (
        counters.get("dominance_eig", 0) / cases if cases else 0.0, "calls/case")
    traced_wall = statistics.median([walls[i] for i in on])
    plain_wall = statistics.median([w for i, w in enumerate(walls) if i not in on])
    metrics["trace.wall_ms"] = (traced_wall * 1e3, "ms")
    metrics["trace.overhead"] = (traced_wall / plain_wall - 1.0, "ratio")
    return layers, metrics


# ------------------------------------------------------------------ modes


def _parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def _run(workload: str, seed: int, seconds: float, trace: bool, src: Path) -> dict:
    record = measure(workload, seed, seconds, trace, src)
    run = {"seed": seed, "correct": record["final"]["correct"],
           "attempted": record["final"]["attempted"], "failed": record["final"]["failed"],
           "metrics": {k: v["value"] for k, v in record["metrics"].items()}}
    if trace:
        run["layers"] = record["layers"]
    else:
        run["info"] = {k: v["value"] for k, v in record["info"].items()}
    return run


def collect(out: Path, seeds: list[int], base: Path | None) -> int:
    """Run every workload on each seed, and trace the first seed.

    With ``base`` (a checkout of the parent commit), each seed runs as a
    pair: the parent's sources and this checkout's, the order swapped on
    every other pair, so that drift in the machine's speed falls on both
    sides alike.  Both sides are measured with this checkout's benchmark.
    """
    spec = json.loads(SPEC.read_text())
    sides = {"change": SRC}
    if base is not None:
        sides = {"base": (base / "src").resolve(), "change": SRC}
        if not (sides["base"] / "splab" / "cli.py").is_file():
            print(f"bench: no splab sources at {sides['base']}", file=sys.stderr)
            return 2
    result = {"benchmark": spec, "environment": environment(),
              "sources": {side: str(src) for side, src in sides.items()}, "workloads": {}}
    for workload in workloads.WORKLOADS:
        data = {side: {"runs": [], "trace_runs": []} for side in sides}
        for i, seed in enumerate(seeds):
            for trace in ((False, True) if i == 0 else (False,)):
                # the base goes first on even seeds; the traced pair goes the other way
                order = list(sides) if (i + trace) % 2 == 0 else list(reversed(sides))
                for side in order:
                    run = _run(workload, seed, spec["run_seconds"], trace, sides[side])
                    data[side]["trace_runs" if trace else "runs"].append(run)
                    print(f"{workload} seed {seed} {side}{' traced' if trace else ''}: "
                          + " ".join(f"{k}={v:.5g}" for k, v in run["metrics"].items()
                                     if not trace), flush=True)
        result["workloads"][workload] = data
        out.write_text(json.dumps(result, indent=1))
    print(spread_table(result))
    if base is not None:
        print(compare(result))
    return 0


def _quartiles(values):
    """First and third quartile, by statistics.quantiles' default method."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _metric_rows(spec: dict, runs: list) -> list[tuple[str, float | None]]:
    """(name, bound) for each gated metric, then (name, None) for ungated ones."""
    rows = [(m["name"], m["bound"]) for m in spec["end_to_end"]]
    return rows + [(name, None) for name in runs[0].get("info", {})]


def _values(runs: list, name: str) -> list[float]:
    return [{**run["metrics"], **run.get("info", {})}[name] for run in runs]


def spread_table(result: dict) -> str:
    """Median, quartiles and spread ((q3 - q1) / median) of each side's runs."""
    lines = [f"{'workload':<15} {'side':<6} {'metric':<13} {'median':>11} {'q1':>11} "
             f"{'q3':>11} {'spread':>7} {'bound':>6}"]
    for workload, data in result["workloads"].items():
        for side, runs in ((side, d["runs"]) for side, d in data.items()):
            if len(runs) < 2:
                continue
            for name, bound in _metric_rows(result["benchmark"], runs):
                values = _values(runs, name)
                med = statistics.median(values)
                q1, q3 = _quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                if bound is None:
                    flag, shown = "  (not gated)", "     -"
                else:
                    flag = "" if spread < bound / 3 else "  <-- above bound/3"
                    shown = f"{bound:6.2f}"
                lines.append(f"{workload:<15} {side:<6} {name:<13} {med:11.5g} {q1:11.5g} "
                             f"{q3:11.5g} {spread:7.3f} {shown}{flag}")
    return "\n".join(lines)


def compare(result: dict) -> str:
    """Paired report of a collection made with a base: per metric, each
    side's median and quartiles, the per-seed ratios change/base (median and
    quartiles), the share of pairs the change wins (ties count for neither)
    and a verdict:

    * gain -- there are at least ten pairs, the change wins at least 9/10
      of them and the medians differ by more than the base's own quartile
      distance;
    * worse beyond bound -- the change's median is worse than the base's by
      more than the metric's bound;
    * unresolved -- either side's spread exceeds the bound and the change
      does not read better on every run than the base on every run;
    * within bound -- otherwise.
    """
    spec = result["benchmark"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    lines = ["ratios are change / base, paired by seed; base is the parent's sources",
             f"{'workload':<15} {'metric':<13} {'base median [q1, q3]':>33} "
             f"{'change median [q1, q3]':>33} {'ratio [q1, q3]':>24} {'won':>6}  verdict"]
    for workload, data in result["workloads"].items():
        b_runs, c_runs = data["base"]["runs"], data["change"]["runs"]
        for name, bound in _metric_rows(spec, b_runs):
            bv, cv = _values(b_runs, name), _values(c_runs, name)
            bm, cm = statistics.median(bv), statistics.median(cv)
            (bq1, bq3), (cq1, cq3) = _quartiles(bv), _quartiles(cv)
            if not bm or not cm or 0 in bv:
                lines.append(f"{workload:<15} {name:<13} {bm:11.5g} {cm:11.5g}  (zero value)")
                continue
            ratios = [c / b for b, c in zip(bv, cv)]
            rq1, rq3 = _quartiles(ratios)
            sign = -1 if better.get(name, "lower") == "lower" else 1
            wins = sum(1 for b, c in zip(bv, cv) if sign * (c - b) > 0)
            if bound is None:
                verdict = "not gated"
            elif len(bv) >= 10 and wins >= 0.9 * len(bv) and sign * (cm - bm) > bq3 - bq1:
                verdict = "gain"
            elif sign * (cm - bm) < -bound * bm:
                verdict = "worse beyond bound %.2f" % bound
            elif (max((bq3 - bq1) / bm, (cq3 - cq1) / cm) > bound
                  and not all(sign * (c - b) > 0 for c in cv for b in bv)):
                verdict = "unresolved (spread > bound %.2f)" % bound
            else:
                verdict = "within bound"
            lines.append(f"{workload:<15} {name:<13} {bm:11.5g} [{bq1:9.5g}, {bq3:9.5g}] "
                         f"{cm:11.5g} [{cq1:9.5g}, {cq3:9.5g}] "
                         f"{statistics.median(ratios):8.4f} [{rq1:6.4f}, {rq3:6.4f}] "
                         f"{wins:>2}/{len(bv):<3}  {verdict}")
        b_tr, c_tr = data["base"]["trace_runs"], data["change"]["trace_runs"]
        lines.append(f"  per-layer self_ms per round, {workload}, seed {b_tr[0]['seed']} traced:")
        rows = []
        for label in sorted(set(b_tr[0]["layers"]) | set(c_tr[0]["layers"])):
            bs = b_tr[0]["layers"].get(label, {}).get("self_ms", 0.0)
            cs = c_tr[0]["layers"].get(label, {}).get("self_ms", 0.0)
            if bs or cs:
                rows.append((cs - bs, label, bs, cs))
        for delta, label, bs, cs in sorted(rows, key=lambda row: abs(row[0]), reverse=True):
            lines.append(f"    {label:<44} {bs:11.3f} -> {cs:11.3f}  ({delta:+.3f} ms)")
    return "\n".join(lines)


def self_test() -> int:
    """Tiny-run checks of the benchmark itself; exit 0 when all pass."""
    spec = json.loads(SPEC.read_text())
    failures = []

    def expect(cond: bool, what: str):
        print(("PASS " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for workload in workloads.WORKLOADS:
        plain = measure(workload, 1, 1, False)
        traced = measure(workload, 1, 1, True)
        for rec, group in ((plain, "end_to_end"), (traced, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in rec["metrics"].items()}
            expect(got == want, f"{workload}: {group} metrics emitted with their units")
        expect(plain["final"]["correct"] and traced["final"]["correct"],
               f"{workload}: outputs pass their checks")
        expect(traced["self_ms_sum"] <= traced["traced_wall_ms_total"],
               f"{workload}: per-layer self time {traced['self_ms_sum']:.1f} ms <= traced wall "
               f"{traced['traced_wall_ms_total']:.1f} ms")
        expect(plain["digests"] == traced["traced_digests"],
               f"{workload}: traced and untraced runs write identical outputs")

    def paired(factor: float) -> dict:
        base = [{"seed": s, "metrics": {m["name"]: 1.0 + 0.001 * s for m in spec["end_to_end"]}}
                for s in range(10)]
        change = [{"seed": r["seed"], "metrics": {k: v * factor for k, v in r["metrics"].items()}}
                  for r in base]
        trace = [{"seed": 0, "layers": {"x.y": {"self_ms": 1.0}}}]
        return {"benchmark": spec, "workloads": {"w": {"base": {"runs": base, "trace_runs": trace},
                                                       "change": {"runs": change,
                                                                  "trace_runs": trace}}}}

    for factor, verdict in ((0.5, "gain"), (1.0, "within bound"), (1.5, "worse beyond bound")):
        rows = [line for line in compare(paired(factor)).splitlines() if line.startswith("w ")]
        expect(len(rows) == len(spec["end_to_end"]) and all(verdict in r for r in rows),
               f"compare calls a change of x{factor} on every pair '{verdict}'")
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        shutil.copy(SPEC, tmp)
        shutil.copytree(BENCH, Path(tmp) / BENCH.name, ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                               "small-reports", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the program's sources the benchmark exits non-zero and prints no result")
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def record_reference() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp)
        ops, warmup = workloads.build("small-reports", 0, work)
        kernel, every = workloads.CALIBRATION["small-reports"]
        job = {"src": str(SRC), "ops": [vars(op) for op in ops], "warmup": warmup,
               "calib_kernel": kernel, "calib_every_s": every, "seconds": 0,
               "trace": False, "setup_only": False, "alloc": False,
               "save": str(work / "saved"),
               "result": str(work / "child.json"), "spans": ""}
        _spawn(job, "reference")
        ref = checks.record_reference(work / "saved")
    checks.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--collect", type=Path, metavar="OUT")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--base", type=Path, metavar="CHECKOUT",
                        help="with --collect: the parent commit's checkout, run in pairs")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.record_reference:
        return record_reference()
    if args.collect:
        return collect(args.collect, _parse_seeds(args.seeds), args.base)
    if args.workload is None:
        parser.error("give --workload, or one of --collect/--self-test/--record-reference")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(SPEC.read_text())["run_seconds"]
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
