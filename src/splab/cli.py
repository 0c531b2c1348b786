"""Command-line front end.

Commands: eig, report, verify, example, sweep.  Exit codes are a stable
contract: 0 success, 1 usage, parse or selector failure (including a selector
that leaves one side of the split empty or puts an eigenvalue on a disk
boundary), 2 an assumption flag fired (the report is still written),
3 numerical failure.

Every numerical threshold is a constant beside the check that reads it
(``linalg.KAPPA_CAP``, ``partition.DISK_TOL``, ...), so no option changes
what counts as a valid input.  Nothing is read from the environment: a run
is reproduced by its command line alone, and ``--seed`` defaults to 42.
A seed must lie in [0, 2^64), and so must the seed of every case ``verify``
runs (case k runs on seed + k); anything else exits 1.
``sweep --format`` applies to table1 and tightness (CSV by default);
v2necessity and special write JSON only, and refuse an explicit
``--format csv``.  ``verify --cases`` applies to the suites in
``verify.CASES``; contour and scaling run a fixed case list and refuse it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments, io, verify
from .bounds import full_report
from .errors import (BoundaryAmbiguity, EmptySide, IndexOutOfRange, InvalidMatrix,
                     SpecViolation, SplabError)
from .linalg import eig
from .partition import NearestAssignment, SameSelector, parse_selector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSUMPTION = 2
EXIT_NUMERICAL = 3

DEFAULT_SEED = 42
# SplitMix64 keeps the low 64 bits of a seed, so a seed outside [0, 2^64)
# would silently reproduce another seed's draws
SEED_LIMIT = 1 << 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; remap to the contract's 1."""

    def error(self, message):
        raise _UsageError(message)


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= seed < SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"{seed} lies outside [0, 2**64)")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="splab",
                     description="Invariant-subspace perturbation workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eig = sub.add_parser("eig", help="eigendecomposition of a matrix file")
    p_eig.add_argument("--input", required=True)
    p_eig.add_argument("--out", default=None)

    p_rep = sub.add_parser("report", help="full bound report for (A, dA, selector)")
    p_rep.add_argument("--input", required=True)
    p_rep.add_argument("--perturb", required=True,
                       help="unit:i,j,EPS | gaussian:NORM | file:PATH")
    p_rep.add_argument("--select", required=True)
    p_rep.add_argument("--match", choices=["same", "nearest"], default="same")
    p_rep.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p_rep.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("suite", help=" | ".join(verify.SUITES))
    p_ver.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p_ver.add_argument("--cases", type=int, default=None)
    p_ver.add_argument("--out", default=None)

    p_ex = sub.add_parser("example", help="generate a worked example matrix")
    p_ex.add_argument("family", help=" | ".join(experiments.FAMILIES))
    p_ex.add_argument("--eps", type=float, default=None)
    p_ex.add_argument("--delta", type=float, default=None)
    p_ex.add_argument("--delta1", type=float, default=None)
    p_ex.add_argument("--r", type=int, default=None)
    p_ex.add_argument("--n", type=int, default=None)
    p_ex.add_argument("--out", required=True)
    p_ex.add_argument("--perturb-out", default=None,
                      help="also write the family's paired perturbation")

    p_sw = sub.add_parser("sweep", help="run a sweep harness")
    p_sw.add_argument("family", help="table1 | tightness | v2necessity | special")
    p_sw.add_argument("--eps-list", default="1e-2,1e-4,1e-6,1e-8,1e-10")
    p_sw.add_argument("--norm", type=float, default=1e-6)
    p_sw.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p_sw.add_argument("--r", type=int, default=2)
    p_sw.add_argument("--delta-list", default="0.2,0.1,0.05")
    p_sw.add_argument("--eps-rule", type=float, default=0.01)
    p_sw.add_argument("--delta", type=float, default=0.05)
    p_sw.add_argument("--delta1", type=float, default=0.005)
    p_sw.add_argument("--eps", type=float, default=1e-6)
    p_sw.add_argument("--n", type=int, default=None)
    p_sw.add_argument("--eps1", type=float, default=1e-6)
    p_sw.add_argument("--format", choices=["json", "csv"], default=None)
    p_sw.add_argument("--out", default=None)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _parse_perturbation(spec: str, n: int, seed: int) -> np.ndarray:
    parts = spec.split(":", 1)
    if len(parts) != 2:
        raise _UsageError(f"--perturb: cannot parse {spec!r}")
    kind, rest = parts[0].lower(), parts[1]
    if kind == "unit":
        try:
            i_s, j_s, eps_s = rest.split(",")
            return experiments.gen_unit_perturbation(n, int(i_s), int(j_s), float(eps_s))
        except ValueError as exc:
            raise _UsageError(f"--perturb unit: expected i,j,EPS: {exc}") from exc
    if kind == "gaussian":
        try:
            return experiments.gen_gaussian_perturbation(n, float(rest), seed)
        except ValueError as exc:
            raise _UsageError(f"--perturb gaussian: bad norm {rest!r}") from exc
    if kind == "file":
        return io.load_matrix(rest)
    raise _UsageError(f"--perturb: unknown kind {kind!r}")


def _cmd_eig(args) -> int:
    ed = eig(io.load_matrix(args.input))
    _emit(json.dumps(io.eig_to_obj(ed), indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_report(args) -> int:
    a = io.load_matrix(args.input)
    selector = parse_selector(args.select)
    da = _parse_perturbation(args.perturb, a.shape[0], args.seed)
    match = SameSelector(selector) if args.match == "same" else NearestAssignment()
    report = full_report(a, da, selector, match=match)
    _emit(json.dumps(io.report_to_obj(report), indent=2) + "\n", args.out)
    if not (report.classical_valid and report.gap_ok and report.dominance_ok):
        return EXIT_ASSUMPTION
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.cases is not None and args.cases < 1:
        raise _UsageError(f"--cases must be at least 1, got {args.cases}")
    cases = verify.CASES.get(args.suite, 1) if args.cases is None else args.cases
    if args.seed + cases - 1 >= SEED_LIMIT:
        raise _UsageError(f"--seed {args.seed}: case {cases - 1} would run on a seed "
                          f"past 2**64 - 1")
    records = verify.run_suite(args.suite, args.seed, args.cases)
    _emit(io.records_to_json(records), args.out)
    failed = [rec for rec in records if not rec["pass"]]
    if failed:
        sys.stderr.write(f"verify {args.suite}: {len(failed)} of "
                         f"{len(records)} cases failed\n")
        return EXIT_NUMERICAL
    sys.stderr.write(f"verify {args.suite}: all {len(records)} cases passed\n")
    return EXIT_OK


def _example_spec(args):
    family = experiments.FAMILIES.get(args.family.lower())
    if family is None:
        raise _UsageError(f"unknown example family {args.family!r}")
    values = {}
    for f in dataclasses.fields(family):
        values[f.name] = getattr(args, f.name)
        if values[f.name] is None:
            raise _UsageError(f"example family requires --{f.name}")
    return family(**values)


def _cmd_example(args) -> int:
    spec = _example_spec(args)
    a, facts = experiments.gen_example(spec)
    io.save_matrix(args.out, a)
    if args.perturb_out is not None:
        if facts.perturbation is None:
            raise _UsageError(
                f"family {facts.family} has no paired perturbation to write")
        io.save_matrix(args.perturb_out, facts.perturbation)
    return EXIT_OK


def _float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from exc
    if not values:
        raise _UsageError(f"{flag} needs at least one value")
    return values


def _cmd_sweep(args) -> int:
    family = args.family.lower()
    if family in ("v2necessity", "special") and args.format == "csv":
        raise _UsageError(f"sweep {family} writes JSON only; --format csv does not apply")
    if family == "table1":
        eps_list = _float_list(args.eps_list, "--eps-list")
        result = experiments.run_table1_sweep(eps_list, args.norm, args.seed)
    elif family == "tightness":
        deltas = _float_list(args.delta_list, "--delta-list")
        result = experiments.run_tightness_sweep(args.r, deltas, args.eps_rule, args.seed)
    elif family == "v2necessity":
        record = experiments.run_v2_necessity(args.delta, args.delta1, args.eps, n=args.n)
        _emit(io.records_to_json([record]), args.out)
        return EXIT_OK
    elif family == "special":
        rows = experiments.run_special_perturbation_suite(args.eps, args.eps1)
        _emit(io.records_to_json(rows), args.out)
        return EXIT_NUMERICAL if any(not row["pass"] for row in rows) else EXIT_OK
    else:
        raise _UsageError(f"unknown sweep family {args.family!r}")

    text = io.sweep_to_json(result) if args.format == "json" else io.sweep_to_csv(result)
    _emit(text, args.out)
    for note in result.notes:
        sys.stderr.write(note + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handlers = {
            "eig": _cmd_eig,
            "report": _cmd_report,
            "verify": _cmd_verify,
            "example": _cmd_example,
            "sweep": _cmd_sweep,
        }
        return handlers[args.command](args)
    except (_UsageError, InvalidMatrix, SpecViolation, IndexOutOfRange, EmptySide,
            BoundaryAmbiguity, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"splab: {exc}\n")
        return EXIT_USAGE
    except SplabError as exc:
        sys.stderr.write(f"splab: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
