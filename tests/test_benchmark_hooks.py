"""The traced benchmark run wraps program functions by (owner, attribute);
these tests keep those names, and the lookups through them, in place."""
import importlib.util
import inspect
from pathlib import Path

from shapenas import ShapingConfig, SyntheticOracle, SyntheticTaskSpec
from shapenas import controller
from shapenas.controller import CallableSecondary


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_resolves():
    for owner, attr, _, _ in load_tracing().PATCHES:
        assert callable(getattr(owner, attr)), (owner, attr)
    # the step counter reads the trace as the 7th positional argument
    assert list(inspect.signature(controller.run_episodes).parameters)[6] \
        == "trace"


def test_traced_search_reaches_the_wrapped_functions(toy_space):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    oracle = SyntheticOracle(SyntheticTaskSpec((0.25, 0.05, 0.02)))
    secondary = CallableSecondary(lambda net, actions: [len(actions)], 1)
    steps = 0
    tracer.install()
    try:
        for backend in ("tabular", "mlp"):
            cfg = ShapingConfig(episodes=2, max_steps=3, tau=-1e9,
                                backend=backend, hidden=(4,))
            for weights in (None, (1.0, 0.1)):
                trace = controller.run_search(toy_space, oracle, secondary,
                                              cfg, 0, weights=weights)
                steps += len(trace.records)
    finally:
        tracer.remove()
    spans = tracer.summary()
    for name in ("controller.run_episodes", "controller.select_action",
                 "controller.q_update", "controller.potential_update",
                 "controller.secondary", "function_approx.value",
                 "function_approx.blend", "design_space.embed_state",
                 "design_space.legal_actions", "oracle.accuracy"):
        assert spans[name]["calls"] > 0, name
    assert tracer.counts["controller.steps"] == steps
