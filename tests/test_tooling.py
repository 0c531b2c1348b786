import importlib
import importlib.util
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
