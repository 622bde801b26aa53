"""Differential tests for the exact-discovery kernels of the NumPy backend.

``partition_refine`` must return the python reference's
:meth:`Partition.product` byte for byte (same ``int64`` CSR arrays), and
``oc_holds_batch`` must agree with :func:`oc_holds_in_classes` pair by pair.
Every test runs with the compiled kernels of :mod:`repro.backend.native`
and with the NumPy fallback (the ``native_mode`` fixture).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backend import get_backend
from repro.dataset.partition import Partition
from repro.validation.exact_oc import oc_holds_in_classes

np = pytest.importorskip("numpy")

from repro.validation.distributed import ClassShard  # noqa: E402

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def _refine_instances(draw):
    """A partition (the product of up to two drawn columns, or the unit
    partition) over ``n`` rows plus a column to refine it by; small value
    ranges make ties, singletons and null rank 0 common."""
    n = draw(st.integers(0, 60))
    span = draw(st.integers(0, 8))
    column = st.lists(st.integers(0, span), min_size=n, max_size=n)
    partition = Partition.unit(n)
    for ranks in draw(st.lists(column, max_size=2)):
        partition = partition.product(ranks)
    return partition, draw(column)


@st.composite
def _holds_instances(draw):
    """Stripped classes over ``n`` rows plus rank-column pairs."""
    n = draw(st.integers(0, 60))
    perm = draw(st.permutations(range(n)))
    classes, i = [], 0
    while i < n:
        size = draw(st.integers(1, 24))
        if size >= 2 and i + size <= n:
            classes.append(sorted(perm[i:i + size]))
        i += size
    span = draw(st.integers(0, 8))
    column = st.lists(st.integers(0, span), min_size=n, max_size=n)
    pairs = draw(st.lists(st.tuples(column, column), min_size=1, max_size=4))
    return classes, pairs


def _check_refine(partition, ranks):
    nq = get_backend("numpy")
    expected = partition.product(ranks)
    got = nq.partition_refine(partition, nq.to_native(ranks))
    assert got.num_rows == expected.num_rows
    assert got.row_indices.dtype == np.int64
    assert got.class_offsets.dtype == np.int64
    assert got.row_indices.tolist() == list(expected.row_indices)
    assert got.class_offsets.tolist() == list(expected.class_offsets)
    return got


def _check_holds(classes, pairs):
    nq = get_backend("numpy")
    expected = [oc_holds_in_classes(list(classes), a, b) for a, b in pairs]
    got = nq.oc_holds_batch(
        classes, [(nq.to_native(a), nq.to_native(b)) for a, b in pairs]
    )
    assert got == expected
    assert all(type(flag) is bool for flag in got)
    return got


class TestPartitionRefine:
    @SETTINGS
    @given(instance=_refine_instances())
    def test_generated_partitions(self, native_mode, instance):
        partition, ranks = instance
        _check_refine(partition, ranks)
        # Also refine an array-backed copy: the kernels read its CSR arrays.
        nq = get_backend("numpy")
        as_arrays = Partition.from_csr(
            np.asarray(partition.row_indices, dtype=np.int64),
            np.asarray(partition.class_offsets, dtype=np.int64),
            partition.num_rows,
        )
        assert nq.partition_refine(as_arrays, nq.to_native(ranks)) == \
            partition.product(ranks)

    def test_empty_and_unit_partitions(self, native_mode):
        nq = get_backend("numpy")
        empty = nq.partition_single(nq.to_native([0, 1, 2, 3]), 4)
        assert empty.num_classes == 0
        assert _check_refine(empty, [0, 0, 0, 0]).num_classes == 0
        assert _check_refine(Partition.unit(0), []).num_classes == 0
        assert _check_refine(Partition.unit(1), [0]).num_classes == 0
        unit = Partition.unit(6)
        assert _check_refine(unit, [2, 0, 2, 1, 0, 2]).class_offsets.tolist() \
            == [0, 3, 5]

    def test_one_shared_rank_and_null_rank(self, native_mode):
        unit = Partition.unit(5)
        same = _check_refine(unit, [3, 3, 3, 3, 3])
        assert same.row_indices.tolist() == [0, 1, 2, 3, 4]
        nulls = _check_refine(unit, [0, 1, 0, 2, 0])  # rank 0 is a null
        assert nulls.row_indices.tolist() == [0, 2, 4]

    def test_refinement_into_singletons(self, native_mode):
        partition = Partition([[0, 2, 4], [1, 3, 5]], 6)
        assert _check_refine(partition, [0, 1, 2, 3, 4, 5]).num_classes == 0

    def test_maximum_rank_equals_row_count(self, native_mode):
        n = 7
        ranks = [n, 1, n, 2, 1, n, 0]
        refined = _check_refine(Partition.unit(n), ranks)
        assert refined.row_indices.tolist() == [0, 2, 5, 1, 4]

    def test_classes_ordered_by_first_row(self, native_mode):
        # The split groups of two parent classes interleave by first row.
        partition = Partition([[0, 3, 4, 7], [1, 2, 5, 6]], 8)
        refined = _check_refine(partition, [0, 0, 1, 1, 0, 0, 1, 1])
        assert refined.row_indices.tolist() == [0, 4, 1, 5, 2, 6, 3, 7]

    def test_rejects_bad_columns(self, native_mode):
        nq = get_backend("numpy")
        with pytest.raises(IndexError):
            nq.partition_refine(Partition.unit(3), nq.to_native([0, 1]))
        if native_mode == "native":  # the NumPy fallback orders negative ranks
            with pytest.raises(ValueError):
                nq.partition_refine(Partition.unit(3), nq.to_native([0, -1, 0]))


class TestOcHoldsBatch:
    @SETTINGS
    @given(instance=_holds_instances())
    def test_generated_contexts(self, native_mode, instance):
        classes, pairs = instance
        _check_holds(classes, pairs)
        n = len(pairs[0][0])
        _check_holds(Partition(classes, n), pairs)
        _check_holds(ClassShard.pack(classes, as_arrays=True), pairs)

    def test_empty_and_unit_contexts(self, native_mode):
        nq = get_backend("numpy")
        pairs = [([0, 1, 2], [2, 1, 0]), ([0, 0, 1], [1, 2, 0])]
        assert _check_holds([], pairs) == [True, True]
        assert _check_holds(nq.partition_single(nq.to_native([0, 1, 2]), 3),
                            pairs) == [True, True]
        assert _check_holds(Partition.unit(3), pairs) == [False, False]
        assert nq.oc_holds_batch(Partition.unit(3), []) == []

    def test_one_shared_rank_and_null_rank(self, native_mode):
        classes = [[0, 1, 2, 3]]
        # A constant column orders nothing; rank 0 (null) sorts first.
        assert _check_holds(classes, [
            ([3, 3, 3, 3], [4, 1, 3, 2]),
            ([4, 1, 3, 2], [3, 3, 3, 3]),
            ([0, 2, 0, 1], [0, 2, 1, 1]),
            ([0, 2, 0, 1], [1, 0, 0, 1]),
        ]) == [True, True, True, False]

    def test_maximum_rank_equals_row_count(self, native_mode):
        n = 5
        assert _check_holds([list(range(n))], [
            ([n, 0, 1, 2, n], [n, 0, 1, 2, n]),
            ([n, 0, 1, 2, n], [0, 0, 1, 2, n]),
        ]) == [True, False]

    def test_raw_lists_and_shards(self, native_mode):
        classes = [[0, 1, 2], [3, 5], [4, 6, 7, 8]]
        pairs = [
            ([0, 1, 2, 0, 0, 1, 1, 2, 3], [0, 1, 2, 5, 5, 6, 5, 4, 9]),
            ([0, 1, 2, 0, 0, 1, 1, 2, 3], [0, 1, 2, 5, 5, 6, 7, 8, 9]),
        ]
        assert _check_holds(classes, pairs) == [False, True]
        for packed in (True, False):
            assert _check_holds(ClassShard.pack(classes, as_arrays=packed),
                                pairs) == [False, True]

    def test_swap_only_in_last_class(self, native_mode):
        # Many clean classes, then one long class with a single swap at its
        # end: the kernel must walk (and sort) everything before failing.
        n = 600
        classes = [list(range(i, i + 4)) for i in range(0, n - 100, 4)]
        classes.append(list(range(n - 100, n)))
        a = list(range(n))
        clean = list(range(n))
        swapped = clean[:-2] + [clean[-1], clean[-2]]
        assert _check_holds(classes, [(a, clean), (a, swapped), (clean, a)]) \
            == [True, False, True]

    def test_rejects_bad_columns(self, native_mode):
        nq = get_backend("numpy")
        short = nq.to_native([0, 1])
        with pytest.raises(IndexError):
            nq.oc_holds_batch([[0, 2]], [(short, short)])
        if native_mode == "native":  # the NumPy fallback orders negative ranks
            with pytest.raises(ValueError):
                nq.oc_holds_batch([[0, 1]], [(nq.to_native([0, -1]), short)])
