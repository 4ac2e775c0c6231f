"""The benchmark's tracer wraps pauliflow names in place; a refactor that
renames or deletes one of them must fail here, not in a benchmark run."""

from pathlib import Path
import types

import pauliflow
import pauliflow.cli  # noqa: F401  (the tracer resolves pauliflow.cli)
import pauliflow.oracle  # noqa: F401
from pauliflow import layers

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    """bench/tracer.py as a module, compiled in memory so nothing is
    written next to it."""
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_install_and_uninstall_restore_every_name():
    tracer_module = load_tracer()
    wrapped = tracer_module.SPANNED + tracer_module.COUNTED
    originals = {
        (owner, attr): getattr(tracer_module._resolve(pauliflow, owner), attr)
        for owner, attr, *_ in wrapped
    }
    tracer = tracer_module.Tracer()
    tracer.install(pauliflow)
    try:
        for (owner, attr), original in originals.items():
            current = getattr(tracer_module._resolve(pauliflow, owner), attr)
            assert current.__wrapped__ is original, f"{owner}.{attr}"
        rotations = layers.random_rotations(4, 12, seed=0)
        layers.build_layers(rotations)
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert getattr(tracer_module._resolve(pauliflow, owner), attr) is original
    names = {span[0] for span in tracer.spans}
    assert {"layers.build_layers", "layers.Layering.commute_rows"} <= names
