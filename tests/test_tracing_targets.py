"""The traced benchmark (perfbench/tracing.py) wraps package functions by
name and reads their leading arguments by position, so a renamed function
or a reordered parameter would break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_takes_the_arguments_its_label_reads():
    tracing = load_tracing()
    for name in tracing.MODULES:
        importlib.import_module(name)
    labelled = 0
    for module_name, attr, label in tracing.TARGETS:
        fn = getattr(importlib.import_module(module_name), attr)
        assert callable(fn), (module_name, attr)
        if not callable(label):
            continue
        labelled += 1
        read = [p.name for p in inspect.signature(label).parameters.values()
                if p.kind is p.POSITIONAL_OR_KEYWORD]
        leading = list(inspect.signature(fn).parameters.values())[:len(read)]
        assert len(leading) == len(read), (attr, read)
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in leading), (attr, leading)
        # a label may shorten a name, as ``extent`` for ``kernel_extent``
        assert all(p.name == r or p.name.endswith("_" + r)
                   for p, r in zip(leading, read)), (attr, read, leading)
    assert labelled == 5
