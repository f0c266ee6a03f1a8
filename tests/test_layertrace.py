"""The benchmark's layer tracer still installs over the package: every
function it times, and every package name the benchmark calls, exists."""

import importlib.util
import re
from pathlib import Path

import orthoproc

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", BENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    layertrace = _load_layertrace()
    originals = {
        (layer, name): getattr(getattr(orthoproc, layer), name)
        for layer, functions in layertrace.LAYER_FUNCTIONS.items()
        for name in functions
    }
    tracer = layertrace.Tracer()
    try:
        tracer.install(orthoproc)
        for (layer, name), original in originals.items():
            assert getattr(getattr(orthoproc, layer), name) is not original
    finally:
        tracer.uninstall()
    for (layer, name), original in originals.items():
        assert getattr(getattr(orthoproc, layer), name) is original


def test_package_names_the_benchmark_calls_exist():
    used = set()
    for path in BENCH.glob("*.py"):
        used |= set(re.findall(r"\b(?:op|orthoproc)\.([A-Za-z_]\w*)", path.read_text()))
    missing = sorted(name for name in used if not hasattr(orthoproc, name))
    assert used and not missing
