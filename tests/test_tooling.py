import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_exist():
    # the benchmark's tracer looks each target up with no default, so a
    # renamed or deleted function would break only the traced benchmark run
    tracer = load_tracer()
    missing = [f"{mod}.{name}" for mod, names in tracer.TARGETS.items()
               for name in names if not callable(getattr(importlib.import_module(mod),
                                                         name, None))]
    for (mod, cls_name), names in tracer.CLASS_TARGETS.items():
        cls = getattr(importlib.import_module(mod), cls_name, None)
        missing += [f"{mod}.{cls_name}.{name}" for name in names
                    if not callable(getattr(cls, name, None))]
    assert not missing


def test_traced_suites_run_through_the_wrapped_runners():
    # the tracer rebinds module attributes, so SUITES must look each runner
    # up at call time; a table of direct references would run them unwrapped
    import splab.cli  # noqa: F401  (imports every module the tracer wraps)
    from splab import verify

    tracer_module = load_tracer()
    homes = [mod for name, mod in list(sys.modules.items())
             if name == "splab" or name.startswith("splab.")]
    homes += [getattr(sys.modules[mod], cls) for mod, cls in tracer_module.CLASS_TARGETS]
    saved = [(home, dict(vars(home))) for home in homes]
    tracer = tracer_module.install()
    try:
        tracer.on = True
        verify.run_suite("lemma32", 3, 2)
        verify.run_suite("dominance", 3, 2)
    finally:
        tracer.on = False
        for home, attrs in saved:
            for name, value in attrs.items():
                if vars(home).get(name) is not value:
                    setattr(home, name, value)
    stats = tracer.aggregate()
    assert stats["verify.run_identity_suite"]["calls"] == 1
    assert stats["verify.run_dominance_suite"]["calls"] == 1
    assert tracer.counters["identity_records"] == 2
    assert tracer.counters["dominance_cases"] == 2
    assert tracer.counters["dominance_eig"] == 2 * 2
