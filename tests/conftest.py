from dataclasses import replace

import numpy as np
import pytest

from mubench import ModelLayout, TrainConfig, UnlearnEngine, gen_synthetic


@pytest.fixture(scope="session")
def small_layout():
    return ModelLayout(6, (7, 5), 2)


@pytest.fixture(scope="session")
def tiny_dataset():
    return gen_synthetic(600, 8, 1)


@pytest.fixture(scope="session")
def tiny_config():
    # per-slice 200 samples; costs 1200/1000/600, so phi=1000 gives t=2
    return TrainConfig(num_slices=3, batch_size=64, epochs_per_slice=1, seed=4, phi=1000.0)


@pytest.fixture()
def trained_engine(tiny_dataset, tiny_config):
    """Fresh trained engine per test; training takes ~15 ms at this scale."""
    return UnlearnEngine.train(tiny_dataset, tiny_config)


def balanced_batch(layout: ModelLayout, rows: int, seed: int):
    """Batch with an equal number of 0 and 1 labels."""
    from mubench import Batch

    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((rows, layout.input_dim)).astype(np.float32)
    labels = np.arange(rows) % 2
    return Batch(feats, labels)


def _as_bytes(*arrays):
    return tuple(a.tobytes() for a in arrays)


def _checkpoint_state(cp):
    """A checkpoint's params, then its Adam state if it holds one, as bytes."""
    state = cp.opt_state
    adam = () if state is None else _as_bytes(state.m, state.v) + (state.step_count,)
    return _as_bytes(cp.params.values) + adam


def recorded_ids(store, i):
    """Slice i's ledger ids: the as-planned ids its row index records, in
    plan order."""
    return store.plan.order[i - 1][store.ledgers[i].index >= 0]


def engine_state(eng):
    """Every structure of an engine as bytes: checkpoints with Adam state
    (checkpoint S has none), ledgers' deltas, index and batch ends, the
    plan's masks, and last the served params."""
    store = eng.store
    return (
        {k: _checkpoint_state(c) for k, c in store.checkpoints.items()},
        {k: _as_bytes(x.deltas, x.index, x.ends) for k, x in store.ledgers.items()},
        _as_bytes(*eng.plan.masks),
        eng.model.params.values.tobytes(),
    )


def forget_training_starts(eng):
    """Clear ``trained_from``: the next request retrains every slice it rewrites."""
    for k, cp in eng.store.checkpoints.items():
        eng.store.checkpoints[k] = replace(cp, trained_from=None)
