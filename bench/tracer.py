"""Outside-in tracer for the traced benchmark child.

``install`` replaces each listed public function with a timing wrapper in
every ``splab`` module that holds a reference to it (``splab.bounds.eig``,
``splab.verify.eig``, ``splab.oracles.eig``, ... all get the same wrapper),
and wraps the listed ``SplitMix64`` methods on the class.  Modules are looked
up in ``sys.modules``: the package re-exports functions named ``partition``
and others, so ``splab.partition`` as an attribute is not the submodule.

Spans (label, start, end, parent) stay in memory until the run ends.  A
label's self time is its spans' durations minus their direct children's;
its total time counts only spans with no ancestor of the same label.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

TARGETS = {
    "splab.cli": ("main",),
    "splab.io": ("load_matrix", "save_matrix", "report_to_obj", "eig_to_obj",
                 "records_to_json", "sweep_to_csv", "sweep_to_json"),
    "splab.linalg": ("eig", "singular_values", "norms", "cond2", "qr_decompose", "kron"),
    "splab.partition": ("partition", "match_partition", "gap_delta0", "gap_delta1"),
    "splab.angles": ("principal_angles", "orth_complement", "sin_theta_norm"),
    "splab.bounds": ("full_report", "new_bound", "classical_bound", "sep_frobenius"),
    "splab.oracles": ("build_oracle_context", "coupling_row", "contour_projector",
                      "hadamard_identity_residual", "residue_coupling_matrix",
                      "contour_coupling_matrix", "brute_force_sin_theta"),
    "splab.experiments": ("gen_example", "gen_gaussian_perturbation", "run_table1_sweep",
                          "run_tightness_sweep", "run_v2_necessity",
                          "run_special_perturbation_suite"),
    "splab.verify": ("random_diagonalizable_case", "random_clustered_case",
                     "run_identity_suite", "run_dominance_suite", "run_contour_suite"),
}
CLASS_TARGETS = {("splab.rng", "SplitMix64"): ("normals", "complex_normals")}


def _label(module: str, name: str) -> str:
    return f"{module.removeprefix('splab.')}.{name}"


class Tracer:
    def __init__(self):
        self.on = False
        self.labels: list[str] = []
        # [label id, start ns, end ns, parent span index, outermost of its label]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.depth: Counter = Counter()
        self.counters: defaultdict = defaultdict(int)

    def inside(self, label: str) -> bool:
        return self.depth[label] > 0

    def wrap(self, label: str, fn, hook=None):
        lid = len(self.labels)
        self.labels.append(label)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            spans, stack, depth = tracer.spans, tracer.stack, tracer.depth
            idx = len(spans)
            depth[label] += 1
            span = [lid, 0, 0, stack[-1] if stack else -1, depth[label] == 1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
                depth[label] -= 1
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per label: calls, self_ms and total_ms over the whole run."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = {label: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0}
                 for label in self.labels}
        for (lid, start, end, _, outermost), kids in zip(self.spans, child_ns):
            row = stats[self.labels[lid]]
            row["calls"] += 1
            row["self_ms"] += (end - start - kids) / 1e6
            if outermost:
                row["total_ms"] += (end - start) / 1e6
        return stats

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("label,start_ns,end_ns,parent\n")
            for lid, start, end, parent, _ in self.spans:
                fh.write(f"{self.labels[lid]},{start},{end},{parent}\n")


def _count_kron_bytes(tracer, result):
    tracer.counters["kron_bytes"] += result.nbytes


def _count_normals(tracer, result):
    tracer.counters["variates"] += result.size


def _count_complex_normals(tracer, result):
    tracer.counters["variates"] += 2 * result.size


def _count_identity_context(tracer, result):
    if tracer.inside("verify.run_identity_suite"):
        tracer.counters["identity_contexts"] += 1


def _count_dominance_eig(tracer, result):
    if tracer.inside("verify.run_dominance_suite"):
        tracer.counters["dominance_eig"] += 1


def _count_identity_records(tracer, result):
    tracer.counters["identity_records"] += len(result)


def _count_dominance_cases(tracer, result):
    tracer.counters["dominance_cases"] += len(result)


HOOKS = {
    "linalg.kron": _count_kron_bytes,
    "rng.SplitMix64.normals": _count_normals,
    "rng.SplitMix64.complex_normals": _count_complex_normals,
    "oracles.build_oracle_context": _count_identity_context,
    "linalg.eig": _count_dominance_eig,
    "verify.run_identity_suite": _count_identity_records,
    "verify.run_dominance_suite": _count_dominance_cases,
}


def install() -> Tracer:
    """Wrap every target in every loaded splab module; return the tracer."""
    tracer = Tracer()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "splab" or name.startswith("splab."))]
    for modname, names in TARGETS.items():
        home = sys.modules[modname]
        for name in names:
            orig = getattr(home, name)
            label = _label(modname, name)
            wrapped = tracer.wrap(label, orig, HOOKS.get(label))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
    for (modname, clsname), names in CLASS_TARGETS.items():
        cls = getattr(sys.modules[modname], clsname)
        for name in names:
            label = _label(modname, f"{clsname}.{name}")
            setattr(cls, name, tracer.wrap(label, getattr(cls, name), HOOKS.get(label)))
    return tracer
