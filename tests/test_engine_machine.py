"""One state machine checks every request stream: Hypothesis serves, refuses,
clones and reloads on small engines. A line is an engine, its twin (cleared of
``trained_from`` before each request, so it never reuses) and the model: the
ids revoked in order and each ledger's ids. After every rule each engine must
match its twin, and its plan, ledgers and tombstones a scan of the model;
each ledger recorded from its stored checkpoint i-1 must be a re-run of its
slice from that checkpoint."""

import functools
import os
import tempfile
from dataclasses import dataclass

import numpy as np
from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from mubench import STRATEGIES, StateStore, TrainConfig, UnlearnEngine, UnlearnRequest
from mubench import gen_synthetic, init_params
from mubench.engine import _train_slice
from mubench.errors import AlreadyRevoked, DispatchError, InvalidArgument, MuError, NotFound

from conftest import engine_state, forget_training_starts, recorded_ids

MAX_LINES = 3
LINE = st.integers(0, MAX_LINES - 1)  # a line, modulo the lines there are
SERVE = dict(k=LINE, i=st.integers(1, 5), depth=st.none() | st.integers(0, 6))
BAD_IDS = (2.0, True, "3", None, np.float64(1.0))
BAD_DEPTHS = (2.7, True, "2", -1, np.float64(1.0), 6)  # 6 > S
INTS = (int, np.int64)  # the integer types among the ids and depths the rules send


@functools.lru_cache(maxsize=32)
def _trained(n, s, t, batch, seed):
    """A trained engine per config, and its state; phi just affords slice t."""
    phi = float(-(-n * sum(range(t, s + 1)) // s))
    config = TrainConfig(num_slices=s, batch_size=batch, seed=seed, phi=phi, hidden_dims=(6,))
    eng = UnlearnEngine.train(gen_synthetic(n, 4, seed), config)
    return eng, engine_state(eng)


def _attempt(call, *args, **kwargs):
    """What a call returns, or the type of the package error it raised."""
    try:
        return call(*args, **kwargs)
    except MuError as exc:
        return type(exc)


@dataclass
class Line:
    engine: UnlearnEngine
    twin: UnlearnEngine
    revoked: list  # the ids served, in order
    recorded: dict  # slice -> the ids its ledger holds, in plan order


class EngineMachine(RuleBasedStateMachine):
    @initialize(n=st.integers(12, 160), s=st.integers(1, 5), r=st.integers(0, 4),
                batch=st.integers(1, 24), seed=st.integers(0, 2**16))
    def start(self, n, s, r, batch, seed):
        """S slices, OHS depth r from 0 to S - 1 and the threshold t = S + 1 - r:
        slice 1 at least is recorded, so that requests can amend."""
        self.n, self.s, self.batch, self.r = n, s, batch, r % s
        self.t = s + 1 - self.r
        eng, pristine = _trained(n, self.s, self.t, batch, seed)
        if engine_state(eng) != pristine:  # a faulty clone let a request write into it
            _trained.cache_clear()  # so that each example starts from a trained engine
            eng, pristine = _trained(n, self.s, self.t, batch, seed)
        assert (eng.threshold, eng.default_ohs_depth) == (self.t, self.r)
        perm = np.random.default_rng(seed).permutation(self.n)
        self.order = [part.tolist() for part in np.array_split(perm, self.s)]
        self.slice_of = {x: i for i, part in enumerate(self.order, 1) for x in part}
        recorded = {i: self.order[i - 1] for i in range(1, self.t)}
        self.lines = [Line(eng.clone(), eng.clone(), [], recorded)]
        self.snapshots = []  # (params_after, its bytes) of every outcome

    def _live(self, line, i):
        dead = set(line.revoked)
        return [x for x in self.order[i - 1] if x not in dead]

    def _expect(self, line, sid, strategy, depth):
        """The error a request must raise, or its (path, located_at,
        rewritten slices) under the dispatch rule."""
        s, t, b = self.s, self.t, self.batch
        d = self.r if depth is None else depth
        if strategy == "ohs" and not (type(d) in INTS and 0 <= d <= s) or type(sid) not in INTS:
            return InvalidArgument
        if not 0 <= sid < self.n:
            return NotFound
        if sid in line.revoked:
            return AlreadyRevoked
        i, d = self.slice_of[int(sid)], d if strategy == "ohs" else 0
        if strategy == "dpus" and i >= t:
            return DispatchError
        if i <= s - d and (strategy == "dpus" or (strategy != "prs" and i < t)):
            ids = line.recorded[i]
            j = ids.index(sid) // b + 1
            consumed = not set(line.revoked).isdisjoint(ids[(j - 1) * b : j * b])
            path = "ohs" if d else ("noop-consumed" if consumed else "dpus")
            return path, (i, j), list(range(s - d + 1, s + 1))
        return "prs", (i, self._live(line, i).index(sid) // b + 1), list(range(i, s + 1))

    def _request(self, line, sid, strategy, depth=None):
        """Serve one request, with its depth, through ``dispatch`` on the
        engine and on its twin, which reuses no checkpoint; check both against
        the model and each other."""
        expected = self._expect(line, sid, strategy, depth)
        forget_training_starts(line.twin)
        before = engine_state(line.engine), engine_state(line.twin)
        request = UnlearnRequest(sid, strategy, depth)
        out, ref = (_attempt(e.dispatch, request) for e in (line.engine, line.twin))
        if isinstance(out, type):
            event(f"error: {out.__name__}")
            assert out is ref is expected
            assert (engine_state(line.engine), engine_state(line.twin)) == before
            return expected
        event(f"path: {out.strategy_executed}")
        for o in (out, ref):
            assert (o.strategy_executed, o.located_at, o.checkpoints_rewritten) == expected
        assert out.params_after.bits_equal(ref.params_after)
        line.revoked.append(int(sid))
        line.recorded.update({k: self._live(line, k) for k in expected[2] if k < self.t})
        rows = sum(len(self._live(line, k)) for k in expected[2])
        assert ref.rows_read == rows * line.engine.config.epochs_per_slice >= out.rows_read
        if out.rows_read < ref.rows_read:
            event("reused a checkpoint")
        self.snapshots += [(o.params_after, o.params_after.values.tobytes()) for o in (out, ref)]
        return expected

    def _serve(self, k, near, i, pos, strategy, depth):
        """Serve the pos-th live id of the i-th non-empty slice, OHS at a
        drawn depth from 0 to S + 1. With ``near`` the id is among the first
        two batches of a recorded slice, and the depth from 1 to S - i."""
        line = self.lines[k % len(self.lines)]
        slices = range(1, self.t) if near else range(1, self.s + 1)
        live = [ids for ids in (self._live(line, m) for m in slices) if ids]
        if live:
            ids = live[(i - 1) % len(live)]
            sid = np.int64(ids[pos % min(2 * self.batch if near else self.n, len(ids))])
            room = self.s - self.slice_of[int(sid)] if near else self.s + 2
            drawn = strategy == "ohs" and depth is not None and room
            self._request(line, sid, strategy, near + depth % room if drawn else None)

    @rule(**SERVE, pos=st.integers(0, 159), strategy=st.sampled_from(STRATEGIES))
    def serve(self, k, i, pos, strategy, depth):
        """Serve a live id with a drawn strategy."""
        self._serve(k, False, i, pos, strategy, depth)

    @rule(**SERVE, pos=st.integers(0, 47), strategy=st.sampled_from(("dpus", "hs", "ohs")))
    def serve_recorded(self, k, i, pos, strategy, depth):
        """Amend early ids of recorded slices: they meet in consumed batches."""
        self._serve(k, True, i, pos, strategy, depth)

    @rule(k=LINE, pick=st.integers(0, 63), strategy=st.sampled_from(STRATEGIES))
    def refuse(self, k, pick, strategy):
        """Send a request that must fail: an id outside the plan, not an int
        or already revoked, DPUS at or above t, or a bad OHS depth."""
        line = self.lines[k % len(self.lines)]
        high = [x for i in range(self.t, self.s + 1) for x in self._live(line, i)][:3]
        bad = [(x, strategy, None) for x in (-1, self.n, *BAD_IDS, *line.revoked[-3:])]
        bad += [(x, "dpus", None) for x in high] + [(0, "ohs", d) for d in BAD_DEPTHS]
        assert isinstance(self._request(line, *bad[pick % len(bad)]), type)  # an error

    @rule(k=LINE)
    def clone(self, k):
        """Clone a line (plan masks not shared); keep MAX_LINES."""
        line = self.lines[k % len(self.lines)]
        dup = Line(line.engine.clone(), line.twin.clone(), list(line.revoked), dict(line.recorded))
        assert not any(a is b for a, b in zip(dup.engine.plan.masks, line.engine.plan.masks))
        self.lines = (self.lines + [dup])[-MAX_LINES:]

    @rule(k=LINE)
    def reload(self, k):
        """persist -> load -> from_store on both; everything stays, the served
        params and the derived ledger rows included. No file holds checkpoint
        0, which a load derives, and checkpoint S holds no Adam state before
        or after."""
        line = self.lines[k % len(self.lines)]
        for name in ("engine", "twin"):
            eng = getattr(line, name)
            with tempfile.TemporaryDirectory() as root:
                eng.store.persist(root)
                assert not os.path.exists(os.path.join(root, "checkpoint_0000.muck"))
                back = UnlearnEngine.from_store(eng.dataset, StateStore.load(root))
            assert engine_state(back) == engine_state(eng)
            start, zeros = back.store.get_checkpoint(0), bytes(4 * back.layout.param_count)
            assert start.params.bits_equal(init_params(back.layout, back.config.seed))
            state = start.opt_state  # fresh: step 0, float32 zero moments
            assert (state.step_count, state.m.tobytes(), state.v.tobytes()) == (0, zeros, zeros)
            for e in (eng, back):
                assert e.store.get_checkpoint(self.s).opt_state is None
            setattr(line, name, back)

    @invariant()
    def lines_match_the_model(self):
        """Engine against twin and against scans of the model, where a batch
        is consumed exactly when it holds a revoked id, so ``mark_consumed``
        answers True for the others only; params_after intact."""
        b, slices = self.batch, range(1, self.s + 1)
        for line in self.lines:
            plan, store, dead = line.engine.plan, line.engine.store, set(line.revoked)
            assert engine_state(line.engine) == engine_state(line.twin)
            assert store.tombstones == plan.tombstones == dead
            live = {i: self._live(line, i) for i in slices}
            assert {i: plan.slice_ids(i).tolist() for i in slices} == live
            assert not any(ids.flags.writeable for ids in plan.slices)
            where = {x: (i, k // b + 1) for i in slices for k, x in enumerate(live[i])}
            for sid in range(-1, self.n + 1):
                want = where.get(sid, AlreadyRevoked if sid in dead else NotFound)
                assert _attempt(plan.locate, sid) == want
            assert store.ledgers.keys() == line.recorded.keys()
            for eng in (line.engine, line.twin):  # a derivable ledger is a re-run of its slice
                for i, ledger in eng.store.ledgers.items():
                    if not ledger.derivable:
                        event("a ledger recorded from an amended start")
                        continue
                    start, end = eng.store.checkpoints[i - 1], eng.store.checkpoints[i]
                    ids = eng.plan.order[i - 1][ledger.index >= 0]
                    params, _, rows = _train_slice(
                        eng.dataset, eng.config, start.params, start.opt_state, i, ids, True
                    )
                    assert params.bits_equal(end.params)
                    assert rows.tobytes() == ledger.deltas.tobytes()
            for i, held in line.recorded.items():
                index = store.ledgers[i].index
                batches = [held[j : j + b] for j in range(0, len(held), b)]
                assert recorded_ids(store, i).tolist() == held and not index.flags.writeable
                whole = [store.mark_consumed(i, j) for j in range(1, len(batches) + 1)]
                assert whole == [dead.isdisjoint(x) for x in batches]
            for i in range(1, self.s + 2):  # every as-planned index of each slice, and past it
                held, planned = line.recorded.get(i, []), self.order[i - 1] if i <= self.s else []
                for k in range(-1, len(planned) + 1):
                    sid = planned[k] if 0 <= k < len(planned) else None
                    want = held.index(sid) // b + 1 if sid in held else NotFound
                    assert _attempt(store.recorded_batch_index, i, k) == want
        for params, values in self.snapshots:
            assert params.values.tobytes() == values and not params.values.flags.writeable


EngineMachine.TestCase.settings = settings(max_examples=50, stateful_step_count=20, deadline=None)
TestEngineMachine = EngineMachine.TestCase
