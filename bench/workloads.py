"""The three benchmark workloads: inputs made from the workload seed, and the
fixed operation list one round of each workload runs through the CLI.

Every operation is one ``splab.cli.main(argv)`` call.  The program sees only
the files written here and a ``--seed`` derived from the workload seed.

* small-reports -- interactive-scale use: sweeps, a worked example and
  reports on random 8x8 and 12x12 matrices.  ``partition.gap_delta0``
  (Nelder-Mead refinement) dominates.  The random cases have r > 1 and
  n - r > 1, so they take the general ``delta0`` path; table1 and the tight
  families are small special cases.  An ``eig`` call on each random matrix
  makes 11 calls a round, so p50 and p90 of the per-call latency fall
  inside one kind of call rather than on the edge between two kinds.
* large-report -- reports on random complex Gaussian matrices scaled by
  1/sqrt(2n) at n in {48, 64, 80, 96} with r = n/4, where the dense
  Kronecker SVD in ``bounds.sep_frobenius`` dominates.  The n=120, r=30
  report has r(n-r) = 2700, inside the documented ``size_cap`` of 4096, yet
  fails with SizeCap on ``linalg.kron``'s own cap.  It stays in the list as
  a known failure so the defect stays visible.
* verify-suites -- batch-study throughput: thousands of tiny calls into the
  same linalg/partition/angles layers through the verification suites,
  with nearest-assignment matching; never calls ``gap_delta0`` or
  ``sep_frobenius``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("small-reports", "large-report", "verify-suites")

# Report perturbation size; also used by the checker to rebuild dA.
GAUSSIAN_NORM = 1e-6
TIGHT_R, TIGHT_DELTA, TIGHT_EPS = 4, 0.1, 1e-7
LARGE_SIZES = (48, 64, 80, 96)
VERIFY_CASES = {"dominance": 300, "lemma32": 100, "lemma33": 100}

# Calibration of each workload (see child.calibrate): the kernel whose speed
# follows the workload's call times, and the call time after which the child
# times it again, so that its readings spread over the whole run.
# small-reports' calls are 5-40 ms and the mix kernel about 35 ms, so it
# runs about once a round; verify-suites' calls are 0.1-1 s, so it runs
# after each; large-report's kernel takes about 1 s, so it runs twice a
# round, before and after the n=96 report that holds most of its time.
CALIBRATION = {"small-reports": ("mix", 0.15), "large-report": ("svd", 1.0),
               "verify-suites": ("mix", 0.1)}


@dataclass
class Op:
    """One CLI call of a round.

    ``kind`` selects the output check; ``meta`` carries what the check needs
    to rebuild the inputs independently.  ``known_failure`` names the error
    class a documented defect makes this call fail with.
    """

    name: str
    argv: list[str]
    out: str
    kind: str
    expect_rc: tuple[int, ...] = (0,)
    meta: dict = field(default_factory=dict)
    known_failure: str | None = None


def program_seed(seed: int) -> int:
    """The ``--seed`` handed to the program, derived from the workload seed."""
    digest = hashlib.sha256(f"splab-bench-{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % (1 << 31)


def random_matrix(seed: int, n: int, k: int) -> np.ndarray:
    """Complex Gaussian n x n matrix scaled by 1/sqrt(2n).

    Redraws until the k-th and (k+1)-th eigenvalue magnitudes differ by at
    least 1e-3 of the spectral radius, so that a topk:k split is well posed
    under a 1e-6 perturbation and both match strategies pick the same set.
    """
    for attempt in range(100):
        rng = np.random.default_rng([seed, n, k, attempt])
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
        mags = np.sort(np.abs(np.linalg.eigvals(a)))[::-1]
        if mags[k - 1] - mags[k] >= 1e-3 * mags[0]:
            return a
    raise RuntimeError(f"no well-posed {n}x{n} topk:{k} matrix for seed {seed}")


def write_matrix(path: Path, a: np.ndarray) -> None:
    """Write splab's JSON matrix format (row-major [re, im] pairs)."""
    obj = {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
           "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)]}
    path.write_text(json.dumps(obj) + "\n")


def _report(name: str, work: Path, n: int, k: int, pseed: int, seed: int,
            nearest: bool = False, known_failure: str | None = None) -> Op:
    src = work / f"{name}-A.json"
    write_matrix(src, random_matrix(seed, n, k))
    argv = ["report", "--input", str(src), "--perturb", f"gaussian:{GAUSSIAN_NORM!r}",
            "--select", f"topk:{k}", "--seed", str(pseed)]
    if nearest:
        argv += ["--match", "nearest"]
    out = f"{name}.json"
    return Op(name, argv + ["--out", str(work / out)], out, "report", (0, 2),
              {"input": src.name, "k": k, "nearest": nearest, "perturb_seed": pseed},
              known_failure)


def build(workload: str, seed: int, work: Path) -> tuple[list[Op], int]:
    """Write the inputs for ``workload`` into ``work``; return the round's
    operation list and the index of the untimed warm-up operation."""
    pseed = program_seed(seed)
    ps = str(pseed)
    if workload == "small-reports":
        t_a, t_da = work / "tight-A.json", work / "tight-dA.json"
        r8 = _report("report-r8-nearest", work, 8, 3, pseed, seed, nearest=True)
        r12 = _report("report-r12", work, 12, 4, pseed, seed)
        ops = [
            Op("sweep-table1", ["sweep", "table1", "--seed", ps, "--format", "csv",
                                "--out", str(work / "table1.csv")], "table1.csv",
               "table1", meta={"seed": pseed}),
            Op("sweep-tightness-r2", ["sweep", "tightness", "--r", "2", "--seed", ps,
                                      "--out", str(work / "tight-r2.csv")],
               "tight-r2.csv", "golden"),
            Op("sweep-tightness-r3", ["sweep", "tightness", "--r", "3", "--seed", ps,
                                      "--out", str(work / "tight-r3.csv")],
               "tight-r3.csv", "golden"),
            Op("sweep-v2necessity", ["sweep", "v2necessity", "--n", "8",
                                     "--out", str(work / "v2nec.json")],
               "v2nec.json", "golden"),
            Op("sweep-special", ["sweep", "special", "--out", str(work / "special.json")],
               "special.json", "golden"),
            Op("example-tightgeneral",
               ["example", "tightgeneral", "--r", str(TIGHT_R), "--delta", repr(TIGHT_DELTA),
                "--eps", repr(TIGHT_EPS), "--out", str(t_a), "--perturb-out", str(t_da)],
               t_a.name, "example"),
            Op("report-tightgeneral",
               ["report", "--input", str(t_a), "--perturb", f"file:{t_da}",
                "--select", f"topk:{TIGHT_R}", "--out", str(work / "tight-report.json")],
               "tight-report.json", "report", (0, 2), {"k": TIGHT_R, "nearest": False}),
            Op("eig-r8", ["eig", "--input", str(work / r8.meta["input"]),
                          "--out", str(work / "eig-r8.json")], "eig-r8.json", "eig",
               meta={"input": r8.meta["input"]}),
            r8,
            Op("eig-r12", ["eig", "--input", str(work / r12.meta["input"]),
                           "--out", str(work / "eig-r12.json")], "eig-r12.json", "eig",
               meta={"input": r12.meta["input"]}),
            r12,
        ]
        return ops, 0
    if workload == "large-report":
        ops = [_report(f"report-n{n}", work, n, n // 4, pseed, seed) for n in LARGE_SIZES]
        ops.append(_report("report-n120", work, 120, 30, pseed, seed,
                           known_failure="SizeCap"))
        return ops, 0
    if workload == "verify-suites":
        ops = []
        for suite in ("dominance", "lemma32", "lemma33", "contour"):
            argv = ["verify", suite, "--seed", ps]
            if suite in VERIFY_CASES:
                argv += ["--cases", str(VERIFY_CASES[suite])]
            out = f"verify-{suite}.json"
            ops.append(Op(f"verify-{suite}", argv + ["--out", str(work / out)], out,
                          "verify", meta={"suite": suite,
                                          "cases": VERIFY_CASES.get(suite)}))
        return ops, 3
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
