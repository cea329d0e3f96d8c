"""The finite-difference suite's row table: coverage of the ops a model runs, and per-row draws."""

import inspect

import numpy as np

from ulsam import gradcheck, models, ops, training
from ulsam.tensor import Tensor


def _record_op_calls(monkeypatch) -> set:
    """Wrap every public ``ops`` function, the activations models bound at import, and ``Tensor.__add__``."""
    seen: set = set()

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            seen.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in inspect.getmembers(ops, inspect.isfunction):
        if not name.startswith("_") and fn.__module__ == ops.__name__:
            monkeypatch.setattr(ops, name, recorded(name, fn))
    for name, fn in list(models._ACTS.items()):
        monkeypatch.setitem(models._ACTS, name, recorded(name, fn))
    monkeypatch.setattr(Tensor, "__add__", recorded("add", Tensor.__add__))
    return seen


def test_every_op_of_a_training_step_has_a_row(monkeypatch):
    seen = _record_op_calls(monkeypatch)
    rng = np.random.default_rng(0)
    graphs = [
        models.apply_ulsam(models.build_mv2(10, dtype=np.float64), ["14", "17"], 4),
        models.apply_ulsam(models.build_mv1(0.25, 10, dtype=np.float64), ["8:1", "11"], 4),
    ]
    for graph in graphs:
        logits = models.forward(graph, rng.standard_normal((2, 3, 32, 32)), train=True)
        training.cross_entropy(logits, np.array([3, 7])).backward()
    in_models = set(seen)
    assert {"add", "relu", "relu6", "grouped_pointwise"} <= in_models

    seen.clear()
    monkeypatch.setattr(gradcheck, "model_end_to_end", lambda seed=0: 0.0)  # per-op rows only
    gradcheck.run_suite(seed=0)
    assert in_models - seen == set()


def test_removing_a_row_leaves_every_other_error_bitwise_unchanged(monkeypatch):
    names = [name for name, _, _ in gradcheck.ROWS]
    assert len(set(names)) == len(names)  # rows are seeded by name
    full = {r.name: r.max_error for r in gradcheck.run_suite(seed=0)}
    dropped = names[0]
    monkeypatch.setattr(gradcheck, "ROWS", gradcheck.ROWS[1:])
    rest = {r.name: r.max_error for r in gradcheck.run_suite(seed=0)}
    assert rest == {name: err for name, err in full.items() if name != dropped}
