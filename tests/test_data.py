import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubench import (
    Dataset,
    gen_synthetic,
    load_csv,
    make_slice_plan,
    save_csv,
    split_dataset,
)
from mubench.data import split_ids
from mubench.errors import (
    AlreadyRevoked,
    CsvParseError,
    EmptyDatasetError,
    InvalidArgument,
    LabelDomainError,
    NotFound,
)


# -------------------------------------------------------------------- loading
def test_load_csv_three_rows(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("f0,f1,label\n0.5,1.5,0\n-2.0,0.25,1\n3.5,4.5,1\n")
    ds = load_csv(path)
    assert ds.n == 3
    assert ds.feature_dim == 2
    assert list(ds.labels) == [0, 1, 1]
    assert ds.features[1, 0] == np.float32(-2.0)


@pytest.mark.parametrize(
    "header,rows",
    [("label,f0,f1", "0,0.5,1.5\n1,-2.0,0.25\n"), ("f0,f1,label", "0.5,1.5,0\n-2.0,0.25,1\n")],
    ids=["label_first", "label_last"],
)
def test_load_csv_reads_a_byte_order_mark(tmp_path, header, rows):
    """A UTF-8 byte-order mark is not part of the first column's name,
    whether that column is the label or a feature (an error names it
    ``'f0'``); ``save_csv`` writes none."""
    path = tmp_path / "bom.csv"
    path.write_text(f"\ufeff{header}\n{rows}", encoding="utf-8")
    ds = load_csv(path)
    assert list(ds.labels) == [0, 1]
    assert np.array_equal(ds.features, np.array([[0.5, 1.5], [-2.0, 0.25]], np.float32))
    path.write_text(f"\ufeff{header}\n{rows.replace('-2.0', 'x')}", encoding="utf-8")
    with pytest.raises(CsvParseError, match="row 2, column 'f0': cell 'x'"):
        load_csv(path)
    save_csv(ds, path)
    assert path.read_bytes().startswith(b"f0,f1,label")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_nonnumeric_cell_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["f0,f1,label"] + [f"{i}.0,1.0,0" for i in range(1, 5)] + ["oops,1.0,0", "6.0,1.0,1"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(CsvParseError, match="row 5"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", " NaN ", "1e39"])
def test_load_csv_nonfinite_cell_names_row_and_column(tmp_path, cell):
    """A cell that parses to nan, an infinity or a number beyond float32's
    range is refused like a non-numeric one, naming its row and column,
    before training scores it."""
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"f0,f1,label\n1.0,2.0,0\n3.0,{cell},1\n")
    with pytest.raises(CsvParseError, match=f"row 2, column 'f1': cell {cell.strip()!r}"):
        load_csv(path)


def test_load_csv_nonbinary_label(tmp_path):
    path = tmp_path / "bad_label.csv"
    path.write_text("f0,label\n1.0,0\n2.0,2\n")
    with pytest.raises(LabelDomainError, match="row 2"):
        load_csv(path)


def test_load_csv_no_data_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("f0,f1,label\n")
    with pytest.raises(EmptyDatasetError):
        load_csv(path)


def test_load_csv_missing_label_column(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(CsvParseError, match="label"):
        load_csv(path)


def test_save_load_roundtrip(tmp_path):
    ds = gen_synthetic(64, 5, seed=8)
    path = tmp_path / "round.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.n == ds.n and back.feature_dim == ds.feature_dim
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_dataset_arrays_are_read_only():
    """A Dataset's arrays refuse writes, so its cached fingerprint cannot go
    stale; a caller's writable arrays are copied, not frozen in place."""
    feats, labels = np.ones((4, 2), dtype=np.float32), np.array([0, 1, 1, 0])
    ds = Dataset(feats, labels)
    for arr in (ds.features, ds.labels):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert feats.flags.writeable and labels.flags.writeable
    feats[0, 0] = 5.0
    assert ds.features[0, 0] == 1.0
    assert ds.fingerprint() is ds.fingerprint()
    assert ds.fingerprint() == Dataset(np.ones((4, 2)), [0, 1, 1, 0]).fingerprint()


def test_subset_reads_ids_as_integers_in_range():
    """``subset`` takes rows by integer ids, numpy or Python, in [0, n):
    an array that does not hold 64-bit integers is InvalidArgument, and an
    id outside the rows NotFound."""
    ds = gen_synthetic(50, 3, seed=2)
    for ids in ([4, 1], np.array([4, 1], np.uint8), (np.int32(4), 1)):
        sub = ds.subset(ids)
        assert np.array_equal(sub.features, ds.features[[4, 1]])
        assert np.array_equal(sub.labels, ds.labels[[4, 1]])
    for bad in ([1.7], ["3"], [True, False], np.array([1.0]), [1, None], [2**70]):
        with pytest.raises(InvalidArgument, match="row ids must be 64-bit integers"):
            ds.subset(bad)
    for bad, shown in (([-1], "row -1"), ([3, 50], "row 50"), ([999], "row 999")):
        with pytest.raises(NotFound, match=shown):
            ds.subset(bad)


# ------------------------------------------------------------------ synthetic
def test_gen_synthetic_deterministic():
    a = gen_synthetic(1000, 20, seed=3)
    b = gen_synthetic(1000, 20, seed=3)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_gen_synthetic_balance():
    ds = gen_synthetic(2000, 20, seed=3)
    assert 0.45 <= ds.labels.mean() <= 0.55


def test_gen_synthetic_rejects_tiny():
    with pytest.raises(InvalidArgument):
        gen_synthetic(1, 4, seed=0)
    with pytest.raises(InvalidArgument):
        gen_synthetic(10, 0, seed=0)


def test_gen_synthetic_learnable_in_five_epochs():
    """A fresh model reaches >= 0.9 train accuracy after 5 epochs."""
    from mubench import ModelLayout, evaluate
    from mubench.mia import fit_dense

    ds = gen_synthetic(2000, 20, seed=3)
    params = fit_dense(
        ds.features, ds.labels, ModelLayout(20), epochs=5, batch_size=128,
        learning_rate=0.005, seed=0,
    )
    assert evaluate(params, ds) >= 0.9


def test_split_dataset_partitions_rows():
    ds = gen_synthetic(500, 4, seed=1)
    train, hold = split_dataset(ds, 0.2, seed=9)
    assert train.n == 400 and hold.n == 100
    stacked = np.vstack([train.features, hold.features])
    assert sorted(map(tuple, stacked)) == sorted(map(tuple, ds.features))


@pytest.mark.parametrize("fraction", ["0.2", None, float("nan"), float("inf")])
def test_split_refuses_a_fraction_that_is_not_a_finite_real(fraction):
    """Either split raises InvalidArgument, a MuError, not a bare TypeError."""
    with pytest.raises(InvalidArgument, match="eval_fraction must be a finite real number"):
        split_dataset(gen_synthetic(50, 4, seed=1), fraction, 1)
    with pytest.raises(InvalidArgument, match="eval_fraction must be a finite real number"):
        split_ids(50, fraction, 1)


# ----------------------------------------------------------------------- plan
def test_plan_fully_determined_by_inputs():
    ds = gen_synthetic(300, 4, seed=0)
    a = make_slice_plan(ds.n, 4, 32, seed=5)
    b = make_slice_plan(ds.n, 4, 32, seed=5)
    c = make_slice_plan(ds.n, 4, 32, seed=6)
    assert all(np.array_equal(a.slice_ids(i), b.slice_ids(i)) for i in range(1, 5))
    assert not all(np.array_equal(a.slice_ids(i), c.slice_ids(i)) for i in range(1, 5))


def test_plan_equal_split_and_batches():
    ds = gen_synthetic(1000, 4, seed=0)
    plan = make_slice_plan(ds.n, 4, 128, seed=5)
    assert plan.num_slices == 4
    assert plan.slice_sizes() == (250, 250, 250, 250)
    for i in range(1, 5):
        assert plan.num_batches(i) == 2
        assert len(plan.batch_ids(i, 1)) == 128
        assert len(plan.batch_ids(i, 2)) == 122


def test_plan_near_equal_split_remainder():
    ds = gen_synthetic(1002, 4, seed=0)
    plan = make_slice_plan(ds.n, 4, 128, seed=5)
    sizes = plan.slice_sizes()
    assert sum(sizes) == 1002
    assert max(sizes) - min(sizes) <= 1


def test_plan_rejects_oversized_s():
    ds = gen_synthetic(10, 4, seed=0)
    with pytest.raises(InvalidArgument):
        make_slice_plan(ds.n, 11, 4, seed=0)


def test_locate_first_of_shuffled_order():
    ds = gen_synthetic(100, 4, seed=0)
    plan = make_slice_plan(ds.n, 4, 16, seed=7)
    first = plan.slice_ids(1)[0]
    assert plan.locate(first) == (1, 1)


def test_locate_unknown_and_revoked():
    ds = gen_synthetic(50, 4, seed=0)
    plan = make_slice_plan(ds.n, 5, 8, seed=1)
    with pytest.raises(NotFound):
        plan.locate(999)
    plan2 = plan.tombstone(3)
    with pytest.raises(AlreadyRevoked):
        plan2.locate(3)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 300),
    s=st.integers(1, 12),
    batch=st.integers(1, 64),
    seed=st.integers(0, 2**16),
)
def test_partition_property(n, s, batch, seed):
    """Every live id maps to exactly one (slice, batch)."""
    s = min(s, n)
    ds = Dataset(np.zeros((n, 2), dtype=np.float32), np.arange(n) % 2)
    plan = make_slice_plan(ds.n, s, batch, seed)
    seen = [
        sid
        for i in range(1, s + 1)
        for j in range(1, plan.num_batches(i) + 1)
        for sid in plan.batch_ids(i, j)
    ]
    assert sorted(seen) == list(range(n))
    for sid in range(0, n, max(1, n // 7)):
        i, j = plan.locate(sid)
        assert sid in plan.batch_ids(i, j)


# ------------------------------------------------------------------ tombstone
@pytest.fixture()
def plan_1000():
    ds = gen_synthetic(1000, 4, seed=0)
    return make_slice_plan(ds.n, 4, 128, seed=5)


def test_tombstone_idempotent(plan_1000):
    once = plan_1000.tombstone(17)
    twice = once.tombstone(17)
    assert twice is once


def test_tombstone_shrinks_only_affected_slice(plan_1000):
    """Revoking one id, by ``tombstone`` or ``tombstone_all`` on a copy,
    removes it from its slice alone, and the base stays whole; ids read
    before a revocation keep the revoked id."""
    before = plan_1000.slices
    victim = int(before[1][0])
    for after in (plan_1000.copy().tombstone(victim), plan_1000.copy().tombstone_all([victim])):
        assert after is not plan_1000
        assert after.slice_sizes() == (250, 249, 250, 250)
        assert after.tombstones == {victim}
        assert np.array_equal(after.slice_ids(2), before[1][1:])
        for i in (1, 3, 4):
            assert np.array_equal(after.slice_ids(i), before[i - 1])
    assert plan_1000.slice_sizes() == (250, 250, 250, 250) and not plan_1000.tombstones
    assert all(np.array_equal(a, b) for a, b in zip(plan_1000.slices, before))
    held = plan_1000.slice_ids(2)
    assert plan_1000.tombstone(victim).slice_ids(2).size == 249
    assert held[0] == victim and held.size == 250 and not held.flags.writeable


def test_tombstone_preserves_survivor_order(plan_1000):
    """Oracle: flatten, remove, re-chunk by hand; compare to tombstone()."""
    victim = plan_1000.batch_ids(3, 2)[7]
    flat = [x for j in range(1, plan_1000.num_batches(3) + 1) for x in plan_1000.batch_ids(3, j)]
    expected = [x for x in flat if x != victim]
    after = plan_1000.tombstone(victim)
    batches = [after.batch_ids(3, j) for j in range(1, after.num_batches(3) + 1)]
    got = [x for ids in batches for x in ids]
    assert got == expected
    assert all(len(b) <= 128 for b in batches)


def test_tombstone_unknown_id(plan_1000):
    with pytest.raises(NotFound):
        plan_1000.tombstone(123456)


def _chunk(ids, size):
    return [tuple(ids[k : k + size]) for k in range(0, len(ids), size)]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 200),
    s=st.integers(1, 10),
    batch=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_tombstone_sequence_matches_list_reference(n, s, batch, seed, data):
    """Random tombstone sequences against the tuple-of-batches reference:
    flatten the victim's slice, remove it, re-chunk the survivors in order."""
    s = min(s, n)
    ds = Dataset(np.zeros((n, 2), dtype=np.float32), np.arange(n) % 2)
    plan = make_slice_plan(ds.n, s, batch, seed)
    order = np.random.default_rng(seed).permutation(n)
    ref = [_chunk(part.tolist(), batch) for part in np.array_split(order, s)]
    revoked = set()
    for victim in data.draw(st.lists(st.integers(-2, n + 2), max_size=2 * n)):
        home = [k for k, batches in enumerate(ref) for b in batches if victim in b]
        if victim in revoked:
            with pytest.raises(AlreadyRevoked):
                plan.locate(victim)
            assert plan.tombstone(victim) is plan
        elif not home:
            with pytest.raises(NotFound):
                plan.locate(victim)
            with pytest.raises(NotFound):
                plan.tombstone(victim)
        else:
            k = home[0]
            ref[k] = _chunk([x for b in ref[k] for x in b if x != victim], batch)
            plan = plan.tombstone(victim)
            revoked.add(victim)

    live = sorted(x for batches in ref for b in batches for x in b)
    assert plan.live_ids().tolist() == live
    assert plan.slice_sizes() == tuple(sum(len(b) for b in batches) for batches in ref)
    for i, batches in enumerate(ref, start=1):
        assert plan.num_batches(i) == len(batches)
        for j, b in enumerate(batches, start=1):
            assert plan.batch_ids(i, j).tolist() == list(b)
            for sid in b:
                assert plan.locate(sid) == (i, j)
        with pytest.raises(NotFound):
            plan.batch_ids(i, len(batches) + 1)


def _tombstone_each(plan, ids):
    for sid in ids:
        plan = plan.tombstone(sid)
    return plan


def _revoke_both_ways(base, ids):
    """``tombstone_all`` and one-by-one ``tombstone`` of ``ids``, each on its
    own copy of ``base``; ``base`` itself is left as it was."""
    ids, revoked, before = list(ids), base.tombstones, base.slices
    got, want = base.copy().tombstone_all(ids), _tombstone_each(base.copy(), ids)
    assert got is not want and base.tombstones == revoked
    assert all(np.array_equal(a, b) for a, b in zip(base.slices, before))
    assert want.tombstones == revoked | set(ids)
    return got, want


def _assert_same_plan(got, want, base):
    """Bit-equal read-only slices; the same tombstones, batches and
    locations."""
    assert got.tombstones == want.tombstones
    assert got.slice_of is want.slice_of is base.slice_of
    for k, (a, b) in enumerate(zip(got.slices, want.slices)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not a.flags.writeable and not b.flags.writeable
        assert got.num_batches(k + 1) == want.num_batches(k + 1)
    for sid in want.live_ids().tolist():
        assert got.locate(sid) == want.locate(sid)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 200),
    s=st.integers(1, 10),
    batch=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_tombstone_all_matches_one_by_one(n, s, batch, seed, data):
    """One pass over a random revoked set, drawn on top of earlier revocations
    and optionally holding a whole slice and an id in every slice, equals
    tombstoning its ids one at a time."""
    s = min(s, n)
    ds = Dataset(np.zeros((n, 2), dtype=np.float32), np.arange(n) % 2)
    ids = st.lists(st.integers(0, n - 1), max_size=n)
    base = _tombstone_each(make_slice_plan(ds.n, s, batch, seed), data.draw(ids))
    revoked = set(data.draw(ids))
    if data.draw(st.booleans()):
        revoked |= set(base.slices[data.draw(st.integers(0, s - 1))].tolist())
    if data.draw(st.booleans()):
        revoked |= {int(part[0]) for part in base.slices if part.size}
    _assert_same_plan(*_revoke_both_ways(base, revoked), base)


def test_tombstone_all_edge_sets(plan_1000):
    """The empty set, ids already revoked, a whole slice, one id per slice and
    every id; an id outside the plan, also one beyond int64, revokes nothing."""
    slices = plan_1000.slices
    assert plan_1000.tombstone_all([]) is plan_1000 and not plan_1000.tombstones
    once = plan_1000.copy()
    assert once.tombstone_all([3, 4]) is once and once.tombstones == {3, 4}
    first = once.slices
    assert once.tombstone_all([4, 3]) is once and once.tombstones == {3, 4}
    assert all(np.array_equal(a, b) for a, b in zip(once.slices, first))  # nothing changes
    whole = slices[1].tolist()
    every = [int(part[-1]) for part in slices]
    for revoked in (whole, every, range(1000)):
        _assert_same_plan(*_revoke_both_ways(plan_1000, revoked), plan_1000)
    assert plan_1000.copy().tombstone_all(range(1000)).slice_sizes() == (0, 0, 0, 0)
    for unplanned in ([5, 123456], [5, 2**63], [2**64], [3, -(2**63) - 1], [np.uint64(2**63)]):
        with pytest.raises(NotFound, match=f"sample {int(unplanned[-1])} is not in the plan"):
            plan_1000.tombstone_all(unplanned)
    assert not plan_1000.tombstones
    emptied = plan_1000.copy().tombstone_all(whole)
    assert emptied.slice_sizes() == (250, 0, 250, 250)
    for sid in whole[:3]:
        with pytest.raises(AlreadyRevoked):
            emptied.locate(sid)
        assert emptied.tombstone(sid) is emptied
    assert plan_1000.slice_sizes() == (250, 250, 250, 250)


def test_tombstone_all_refuses_non_integer_ids(plan_1000):
    """A float, a bool or any other non-integer id raises InvalidArgument
    before any id is revoked, in a list or as an array's dtype; numpy ints,
    in a list or as an array, are still accepted."""
    for bad in (
        [3.7, True], [5, True], [2, np.float64(4.0)], [1, "2"], [None], [np.bool_(True)],
        np.array([1.0, 2.0]), np.array([True]),
    ):
        with pytest.raises(InvalidArgument, match="sample id must be an integer"):
            plan_1000.tombstone_all(bad)
        assert not plan_1000.tombstones
    assert plan_1000.copy().tombstone_all([np.int64(3), np.int32(5), 7]).tombstones == {3, 5, 7}
    for ids, want in ((np.array([3, 5], np.uint8), {3, 5}), (iter([6]), {6}), (np.zeros(0), set())):
        assert plan_1000.copy().tombstone_all(ids).tombstones == want


@pytest.mark.parametrize("bad", [1.0, 1.5, True, np.True_, np.float64(1.0), "1", None])
def test_plan_indexes_must_be_integers(plan_1000, bad):
    """The slice, batch and position a plan method takes follow the ids' rule:
    a Python or numpy int, never a bool or a float, or InvalidArgument; a
    slice outside 1..S is NotFound."""
    calls = [
        lambda: plan_1000.slice_ids(bad),
        lambda: plan_1000.num_batches(bad),
        lambda: plan_1000.batch_ids(bad, 1),
        lambda: plan_1000.batch_ids(1, bad),
        lambda: plan_1000.batch_at(bad, 0),
        lambda: plan_1000.batch_at(1, bad),
    ]
    for call in calls:
        with pytest.raises(InvalidArgument, match="index must be an integer, got"):
            call()
    calls = [plan_1000.slice_ids, plan_1000.num_batches, lambda i: plan_1000.batch_at(i, 0)]
    for i in (0, 5, np.int64(-1)):
        for call in calls:
            with pytest.raises(NotFound, match=f"no slice {i} in a 4-slice plan"):
                call(i)
    one, two = np.int64(1), np.int32(2)
    assert np.array_equal(plan_1000.slice_ids(two), plan_1000.slice_ids(2))
    assert plan_1000.num_batches(one) == 2
    assert np.array_equal(plan_1000.batch_ids(one, two), plan_1000.batch_ids(1, 2))
    assert plan_1000.batch_at(one, np.int32(128)) == plan_1000.batch_at(1, 128) == 2


def test_batch_at_refuses_an_index_outside_the_slice(plan_1000):
    """An as-planned index outside slice i's order is NotFound, where a count
    over the clipped mask would name a batch; the first and last index of the
    slice are served."""
    size = plan_1000.order[0].size
    assert size == 250
    for k in (-1, size, 10**6, np.int64(-size)):
        with pytest.raises(NotFound, match=f"slice 1 has no as-planned index {k}$"):
            plan_1000.batch_at(1, k)
    assert (plan_1000.batch_at(1, 0), plan_1000.batch_at(np.int64(1), size - 1)) == (1, 2)


def test_tombstone_at_history_scale():
    """20,000 ids revoked one by one, half of them located first as the
    engine does, from an n=50,000, S=8 plan give the plan ``tombstone_all``
    gives for the same ids."""
    n = 50_000
    ds = Dataset(np.zeros((n, 1), dtype=np.float32), np.arange(n) % 2)
    base = make_slice_plan(ds.n, 8, 128, seed=3)
    base.slices
    ids = np.random.default_rng(4).choice(n, 20_000, replace=False).tolist()
    plan = base.copy()
    for sid in ids:
        if sid % 2:
            plan.locate(sid)
        assert plan.tombstone(sid) is plan
    _assert_same_plan(base.copy().tombstone_all(ids), plan, base)
    assert plan.tombstones == set(ids) and not base.tombstones


def _planned_slices(n, s, seed):
    """Each slice's as-planned ids, drawn the way ``make_slice_plan`` draws
    them."""
    return [part.tolist() for part in np.array_split(np.random.default_rng(seed).permutation(n), s)]


def _assert_plan_reads(plan, planned, revoked, batch):
    """``plan``'s slices, live ids, sizes, tombstones and locations are those
    of the ``planned`` slices without the ``revoked`` ids."""
    want = [[sid for sid in part if sid not in revoked] for part in planned]
    assert [ids.tolist() for ids in plan.slices] == want
    assert plan.live_ids().tolist() == sorted(sid for part in want for sid in part)
    assert plan.slice_sizes() == tuple(len(part) for part in want)
    assert plan.tombstones == revoked
    for i, part in enumerate(want, start=1):
        for k, sid in enumerate(part):
            assert plan.locate(sid) == (i, k // batch + 1)
    for sid in revoked:
        with pytest.raises(AlreadyRevoked):
            plan.locate(sid)


def test_plan_copies_revoke_independently():
    """A copy shares none of the revoked state: base and copy each revoke
    their own ids in every slice, by ``tombstone`` and by ``tombstone_all``,
    and each side then reads as the planned slices without its own ids."""
    n, s, batch = 2_000, 8, 16
    planned = _planned_slices(n, s, seed=2)
    base = make_slice_plan(n, s, batch, seed=2)
    before = base.slices
    dup = base.copy()
    assert dup is not base
    assert dup.order is base.order and dup.slice_of is base.slice_of and dup.pos_of is base.pos_of
    assert all(np.array_equal(a, b) for a, b in zip(dup.slices, before))
    assert not any(a is b for a, b in zip(dup.masks, base.masks))
    mine = {part[3] for part in planned} | {part[10] for part in planned}
    theirs = {part[5] for part in planned} | {part[-1] for part in planned}
    for sid in sorted(mine)[::2]:
        assert base.tombstone(sid) is base
    assert base.tombstone_all(sorted(mine)[1::2]) is base
    for sid in sorted(theirs)[::2]:
        assert dup.tombstone(sid) is dup
    assert dup.tombstone_all(sorted(theirs)[1::2]) is dup
    _assert_plan_reads(dup, planned, theirs, batch)
    _assert_plan_reads(base, planned, mine, batch)


def test_tombstoned_ids_never_reappear(plan_1000):
    plan = plan_1000
    victims = [int(plan.batch_ids(1, 1)[k]) for k in range(5)]
    for v in victims:
        plan = plan.tombstone(v)
    live = set(plan.live_ids().tolist())
    assert live.isdisjoint(victims)
    assert len(live) == 995
