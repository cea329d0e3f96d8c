"""The benchmark tracer still finds and restores every name it patches."""

import numpy as np

from perfbench import tracing
from ulsam import models, training


def _current(setter, owner, key):
    return getattr(owner, key) if setter is setattr else owner[key]


def test_tracer_covers_a_training_step_and_an_inference_forward():
    graph = models.apply_ulsam(models.build_mv1_tiny(4, width=4, dtype=np.float32, seed=0), ["5:1"], g=2)
    x = np.random.default_rng(0).normal(size=(2, 3, 8, 8)).astype(np.float32)
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        assert all(_current(setter, owner, key) is not original for setter, owner, key, original in patched)
        loss = training.cross_entropy(models.forward(graph, x, train=True), np.array([0, 3]))
        loss.backward()
        training.sgd_step(graph.params, {}, 0.1, 0.9, 0.0)
        models.forward(graph, x, train=False)
    finally:
        tracer.remove()
    assert all(_current(setter, owner, key) is original for setter, owner, key, original in patched)

    assert tracer.mismatched_layers == set()
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"layer", "attention", "ops.spatial_softmax", "ops.spatial_softmax.bwd", "training.sgd_step"} <= names
    tapes = [span[tracing.ATTRS]["nodes"] for span in tracer.spans if span[tracing.NAME] == "tape"]
    assert tapes[-1] == 1  # the inference forward records no tape
    assert min(tapes[:-1]) > 1
