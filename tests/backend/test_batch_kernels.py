"""Differential tests for the batched removal kernels.

The batch kernels (``oc_optimal_removal_count_batch`` / ``ofd_removal_batch``)
must honour the contract documented in ``repro.backend.base``: entry ``i``
aligns with input ``i``, the ``exceeded`` flag is exact, and whenever a
candidate does not exceed the limit its count/rows are byte-identical to the
single-candidate kernels — across both backends.  The NumPy backend's
compiled kernels (``repro.backend.native``) and its NumPy fallback are both
checked against the python reference and the quadratic LNDS oracle, on
generated instances and on fixed edge cases (``TestNativeKernels``).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backend import get_backend
from repro.dataset.partition import Partition
from repro.validation.distributed import ClassShard
from repro.validation.lnds import lnds_length_quadratic

numpy = pytest.importorskip("numpy")

BACKENDS = ("python", "numpy")


def _random_instance(rng, n):
    """Random stripped classes plus a few random rank-column pairs."""
    perm = list(range(n))
    rng.shuffle(perm)
    classes, i = [], 0
    while i < n - 1:
        size = rng.randrange(2, 10)
        cls = sorted(perm[i:i + size])
        if len(cls) >= 2:
            classes.append(cls)
        i += size + rng.randrange(0, 2)  # occasionally leave singleton gaps
    span = max(2, n // 3)
    pairs = [
        (
            [rng.randrange(0, span) for _ in range(n)],
            [rng.randrange(0, span) for _ in range(n)],
        )
        for _ in range(rng.randrange(1, 5))
    ]
    return classes, pairs


def _native_pairs(backend, pairs):
    return [(backend.to_native(a), backend.to_native(b)) for a, b in pairs]


class TestOcCountBatch:
    def test_backends_agree_on_random_instances(self):
        rng = random.Random(1234)
        py, nq = get_backend("python"), get_backend("numpy")
        for _ in range(60):
            n = rng.randrange(4, 120)
            classes, pairs = _random_instance(rng, n)
            for limit in (None, 0, 1, n // 4, n):
                ref = py.oc_optimal_removal_count_batch(classes, pairs, limit)
                got = nq.oc_optimal_removal_count_batch(
                    classes, _native_pairs(nq, pairs), limit
                )
                assert len(ref) == len(got) == len(pairs)
                for (ref_count, ref_over), (got_count, got_over) in zip(ref, got):
                    assert ref_over == got_over
                    if not ref_over:
                        assert ref_count == got_count
                    elif limit is not None:
                        # exceeded counts are backend-defined but must prove
                        # the violation
                        assert ref_count > limit and got_count > limit

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_batch_matches_single_kernel(self, backend_name):
        rng = random.Random(99)
        backend = get_backend(backend_name)
        for _ in range(20):
            n = rng.randrange(10, 80)
            classes, pairs = _random_instance(rng, n)
            native = _native_pairs(backend, pairs)
            batch = backend.oc_optimal_removal_count_batch(classes, native, None)
            for (a, b), (count, over) in zip(native, batch):
                single_count, single_over = backend.oc_optimal_removal_count(
                    classes, a, b, None
                )
                assert (count, over) == (single_count, single_over)

    def test_empty_inputs(self):
        for backend_name in BACKENDS:
            backend = get_backend(backend_name)
            assert backend.oc_optimal_removal_count_batch([], [], 3) == []
            a = backend.to_native([0, 1, 2, 3])
            assert backend.oc_optimal_removal_count_batch(
                [], [(a, a), (a, a)], 3
            ) == [(0, False), (0, False)]

    def test_many_short_segments_match_oracle(self):
        """Hundreds of short dirty classes in one context."""
        rng = random.Random(5)
        backend = get_backend("numpy")
        n, width = 3000, 8
        perm = list(range(n))
        rng.shuffle(perm)
        classes = [
            sorted(perm[i * width:(i + 1) * width]) for i in range(n // width)
        ]
        a = list(range(n))  # identity: class order == row order
        b = [rng.randrange(0, 40) for _ in range(n)]
        expected = 0
        for cls in classes:
            values = [b[row] for row in cls]
            expected += len(values) - lnds_length_quadratic(values)
        (count, over), = backend.oc_optimal_removal_count_batch(
            classes, [(backend.to_native(a), backend.to_native(b))], None
        )
        assert not over
        assert count == expected
        # and under a crossing budget the flag trips with a count above it
        (count, over), = backend.oc_optimal_removal_count_batch(
            classes,
            [(backend.to_native(a), backend.to_native(b))],
            expected - 1,
        )
        assert over and count > expected - 1

    def test_mixed_segment_sizes_match_reference(self):
        """One huge dirty class beside many small ones."""
        rng = random.Random(21)
        backend = get_backend("numpy")
        big = list(range(4000))
        small_rows = list(range(4000, 7000))
        classes = [big] + [
            small_rows[i * 6:(i + 1) * 6] for i in range(len(small_rows) // 6)
        ]
        n = 7000
        a = list(range(n))
        b = [rng.randrange(0, 30) for _ in range(n)]
        py = get_backend("python")
        ref = py.oc_optimal_removal_count_batch(classes, [(a, b)], None)
        got = backend.oc_optimal_removal_count_batch(
            classes, [(backend.to_native(a), backend.to_native(b))], None
        )
        assert ref == got


class TestExactHoldsBatch:
    """The batched exact checks must equal the single-candidate checks —
    across both backends, and for numpy against the python reference."""

    def test_oc_holds_batch_matches_single_and_reference(self):
        rng = random.Random(777)
        py, nq = get_backend("python"), get_backend("numpy")
        for _ in range(40):
            n = rng.randrange(4, 120)
            classes, pairs = _random_instance(rng, n)
            ref = [py.oc_holds(classes, a, b) for a, b in pairs]
            assert py.oc_holds_batch(classes, pairs) == ref
            native = _native_pairs(nq, pairs)
            got = nq.oc_holds_batch(classes, native)
            assert got == ref
            for (a, b), holds in zip(native, got):
                assert nq.oc_holds(classes, a, b) == holds

    def test_ofd_holds_batch_matches_single_and_reference(self):
        rng = random.Random(778)
        py, nq = get_backend("python"), get_backend("numpy")
        for _ in range(40):
            n = rng.randrange(4, 120)
            classes, pairs = _random_instance(rng, n)
            rhs = [a for a, _ in pairs]
            ref = [py.ofd_holds(classes, ranks) for ranks in rhs]
            assert py.ofd_holds_batch(classes, rhs) == ref
            rhs_native = [nq.to_native(r) for r in rhs]
            got = nq.ofd_holds_batch(classes, rhs_native)
            assert got == ref
            for ranks, holds in zip(rhs_native, got):
                assert nq.ofd_holds(classes, ranks) == holds

    def test_constant_rhs_holds(self):
        classes = [[0, 1], [2, 3, 4]]
        for backend_name in BACKENDS:
            backend = get_backend(backend_name)
            constant = backend.to_native([7] * 5)
            varying = backend.to_native([0, 1, 0, 0, 0])
            assert backend.ofd_holds_batch(classes, [constant, varying]) \
                == [True, False]

    def test_empty_inputs(self):
        for backend_name in BACKENDS:
            backend = get_backend(backend_name)
            assert backend.oc_holds_batch([], []) == []
            assert backend.ofd_holds_batch([], []) == []
            ranks = backend.to_native([0, 1, 2])
            assert backend.oc_holds_batch([], [(ranks, ranks)]) == [True]
            assert backend.ofd_holds_batch([], [ranks]) == [True]


class TestOfdRemovalBatch:
    def test_backends_agree_and_match_single(self):
        rng = random.Random(4321)
        py, nq = get_backend("python"), get_backend("numpy")
        for _ in range(40):
            n = rng.randrange(4, 120)
            classes, pairs = _random_instance(rng, n)
            rhs = [a for a, _ in pairs]
            rhs_native = [nq.to_native(r) for r in rhs]
            for limit in (None, 0, 2, n // 4):
                ref = py.ofd_removal_batch(classes, rhs, limit)
                got = nq.ofd_removal_batch(classes, rhs_native, limit)
                # rows kernels are fully deterministic: identical rows in
                # identical order, including the early-exit truncation point
                assert ref == got
                for ranks, single_ranks, result in zip(rhs, rhs_native, got):
                    assert result == nq.ofd_removal_rows(
                        classes, single_ranks, limit
                    )

    def test_empty_inputs(self):
        for backend_name in BACKENDS:
            backend = get_backend(backend_name)
            assert backend.ofd_removal_batch([], [], None) == []
            ranks = backend.to_native([0, 0, 1])
            assert backend.ofd_removal_batch([], [ranks], 1) == [([], False)]


@st.composite
def _kernel_instances(draw):
    """A context (classes over ``n`` rows, singletons stripped) plus rank
    columns drawn from a small value range so ties and descents are common."""
    n = draw(st.integers(0, 60))
    perm = draw(st.permutations(range(n)))
    classes, i = [], 0
    while i < n:
        size = draw(st.integers(1, 12))
        if size >= 2 and i + size <= n:
            classes.append(sorted(perm[i:i + size]))
        i += size
    span = draw(st.integers(1, 8))
    column = st.lists(st.integers(0, span), min_size=n, max_size=n)
    pairs = draw(st.lists(st.tuples(column, column), min_size=1, max_size=4))
    limit = draw(st.one_of(st.none(), st.integers(0, n)))
    return classes, pairs, limit


@st.composite
def _sorted_class_instances(draw):
    """Contexts whose classes fall on both sides of the compiled count
    kernel's small/large sort cutoff (32 rows), with A and B ranks of 1 to
    20 bits (one to three radix digits; narrow ones tie heavily)."""
    sizes = draw(st.lists(st.integers(2, 90), min_size=1, max_size=5))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = sum(sizes) + draw(st.integers(0, 4))
    rows = list(range(n))
    rng.shuffle(rows)
    classes, i = [], 0
    for size in sizes:
        classes.append(sorted(rows[i:i + size]))
        i += size

    def column():
        top = 2 ** draw(st.integers(1, 20)) - 1
        return [rng.randint(0, top) for _ in range(n)]

    pairs = [(column(), column())
             for _ in range(draw(st.integers(1, 4)))]
    return classes, pairs


def _oracle_count(classes, a, b):
    """Algorithm 2's count by definition: per class, len − LNDS of B in
    [A ASC, B ASC] order."""
    return sum(
        len(rows) - lnds_length_quadratic(
            [b[row] for row in sorted(rows, key=lambda r: (a[r], b[r]))])
        for rows in classes
    )


class TestNativeKernels:
    """The NumPy batch kernels, compiled and fallback, against the python
    reference: exact ``exceeded`` flags, and byte-identical counts/rows
    whenever a candidate stays within the budget."""

    @staticmethod
    def _check_oc(classes, pairs, limit):
        py, nq = get_backend("python"), get_backend("numpy")
        ref = py.oc_optimal_removal_count_batch(classes, pairs, limit)
        got = nq.oc_optimal_removal_count_batch(
            classes, _native_pairs(nq, pairs), limit
        )
        assert len(got) == len(ref)
        for (ref_count, ref_over), (count, over) in zip(ref, got):
            assert type(count) is int and type(over) is bool
            assert over == ref_over
            if over:
                assert count > limit
            else:
                assert count == ref_count
        return got

    @staticmethod
    def _check_ofd(classes, columns, limit):
        py, nq = get_backend("python"), get_backend("numpy")
        ref = py.ofd_removal_batch(classes, columns, limit)
        got = nq.ofd_removal_batch(
            classes, [nq.to_native(c) for c in columns], limit
        )
        assert got == ref
        for rows, over in got:
            assert type(over) is bool
            assert all(type(row) is int for row in rows)
        return got

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(instance=_kernel_instances())
    def test_generated_instances(self, native_mode, instance):
        classes, pairs, limit = instance
        self._check_oc(classes, pairs, limit)
        self._check_ofd(classes, [b for _, b in pairs], limit)

    def test_limit_boundaries(self, native_mode):
        rng = random.Random(17)
        n = 400
        classes = [list(range(i, i + 8)) for i in range(0, n, 8)]
        a = list(range(n))
        b = [rng.randrange(0, 5) for _ in range(n)]
        (total, over), = self._check_oc(classes, [(a, b)], None)
        assert not over and total > 1
        assert self._check_oc(classes, [(a, b)], total) == [(total, False)]
        (count, over), = self._check_oc(classes, [(a, b)], total - 1)
        assert over and count > total - 1
        (count, over), = self._check_oc(classes, [(a, b)], 0)
        assert over and count > 0
        removed, over = self._check_ofd(classes, [b], None)[0]
        assert not over
        assert self._check_ofd(classes, [b], len(removed)) == [(removed, False)]
        assert self._check_ofd(classes, [b], len(removed) - 1)[0][1]
        assert self._check_ofd(classes, [b], 0)[0][1]

    def test_one_long_dirty_class(self, native_mode):
        """A single class longer than 2048 rows, against the oracle."""
        rng = random.Random(8)
        n = 5000
        a = [rng.randrange(0, 50) for _ in range(n)]
        b = [rng.randrange(0, 50) for _ in range(n)]
        classes = [list(range(n))]
        (count, over), = self._check_oc(classes, [(a, b)], None)
        ordered = [b[row] for row in sorted(range(n), key=lambda r: (a[r], b[r]))]
        assert not over
        assert count == n - lnds_length_quadratic(ordered)
        self._check_oc(classes, [(a, b)], count - 1)
        self._check_ofd(classes, [b], None)
        self._check_ofd(classes, [b], 100)

    def test_equal_decreasing_and_two_row_classes(self, native_mode):
        n = 12
        classes = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9], [10, 11]]
        a = list(range(n))
        b = [3, 3, 3, 3, 9, 7, 5, 1, 2, 1, 1, 2]
        # all-equal: 0, strictly decreasing: 3, descending pair: 1, clean pair: 0
        assert self._check_oc(classes, [(a, b)], None) == [(4, False)]
        for limit in (0, 3, 4):
            self._check_oc(classes, [(a, b)], limit)
        for limit in (None, 0, 3, 4):
            self._check_ofd(classes, [b], limit)

    def test_empty_contexts(self, native_mode):
        nq = get_backend("numpy")
        ranks = nq.to_native([0, 1, 2, 3])
        no_groups = nq.partition_single(ranks, 4)  # all rows are singletons
        assert len(no_groups) == 0 and no_groups.num_rows == 4
        for classes in ([], no_groups):
            assert nq.oc_optimal_removal_count_batch(
                classes, [(ranks, ranks)], 0
            ) == [(0, False)]
            assert nq.ofd_removal_batch(classes, [ranks], 0) == [([], False)]
        self._check_oc([], [([0, 1], [1, 0])], None)
        self._check_ofd([], [[0, 1]], None)

    def test_ofd_ties_go_to_first_occurrence(self, native_mode):
        classes = [[0, 1, 2, 3], [4, 5, 6, 7, 8]]
        values = [1, 2, 2, 1, 5, 3, 3, 5, 7]
        removed = self._check_ofd(classes, [values], None)
        # class 1 keeps 1 (seen before 2), class 2 keeps 5 (seen before 3)
        assert removed == [([1, 2, 5, 6, 8], False)]

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(instance=_sorted_class_instances())
    def test_classes_across_the_sort_cutoff(self, native_mode, instance):
        classes, pairs = instance
        got = self._check_oc(classes, pairs, None)
        assert got == [(_oracle_count(classes, a, b), False) for a, b in pairs]
        for (a, b), (count, _) in zip(pairs, got):
            for limit in {0, max(count - 1, 0), count}:
                self._check_oc(classes, [(a, b)], limit)
        self._check_oc(classes, pairs, 0)
        self._check_oc(classes, pairs, min(count for count, _ in got))

    def test_heavy_ties_in_a_and_b(self, native_mode):
        rng = random.Random(29)
        n = 600
        classes = [list(range(0, 300)), list(range(300, 340)),
                   list(range(340, 352)), list(range(352, n))]
        pairs = [
            ([rng.randrange(0, 3) for _ in range(n)],
             [rng.randrange(0, 4) for _ in range(n)]),
            ([rng.randrange(0, 2) for _ in range(n)],
             [rng.randrange(0, 300) for _ in range(n)]),
            ([0] * n, [rng.randrange(0, 50) for _ in range(n)]),
            ([rng.randrange(0, 1000) for _ in range(n)], [7] * n),
        ]
        got = self._check_oc(classes, pairs, None)
        assert got == [(_oracle_count(classes, a, b), False) for a, b in pairs]
        assert got[0][0] > 0 and got[1][0] > 0
        assert got[2] == (0, False) and got[3] == (0, False)
        for limit in (0, got[0][0] - 1, got[0][0]):
            self._check_oc(classes, pairs, limit)

    def test_only_the_last_class_is_dirty(self, native_mode):
        classes = [list(range(i, i + 40)) for i in range(0, 160, 40)]
        a = list(range(160))
        clean = list(range(160))
        dirty = clean[:120] + clean[120:][::-1]
        got = self._check_oc(classes, [(a, clean), (a, dirty), (a, clean)], None)
        assert got == [(0, False), (39, False), (0, False)]
        self._check_oc(classes, [(a, dirty)], 38)

    def test_shard_and_list_inputs(self, native_mode):
        rng = random.Random(5)
        n = 300
        classes = [list(range(i, i + size))
                   for i, size in zip(range(0, n, 75), (2, 33, 70, 9))]
        pairs = [([rng.randrange(0, 40) for _ in range(n)],
                  [rng.randrange(0, 700) for _ in range(n)]) for _ in range(3)]
        nq = get_backend("numpy")
        expected = self._check_oc(classes, pairs, None)
        native_pairs = _native_pairs(nq, pairs)
        for container in (
            ClassShard.pack(classes, as_arrays=True),
            ClassShard.pack(classes, as_arrays=False),
            Partition(classes, n),
            [tuple(rows) for rows in classes],
        ):
            assert nq.oc_optimal_removal_count_batch(
                container, native_pairs, None) == expected
            assert nq.ofd_removal_batch(
                container, [b for _, b in native_pairs], None
            ) == self._check_ofd(classes, [b for _, b in pairs], None)

    def test_rejects_bad_columns(self, native_mode):
        nq = get_backend("numpy")
        short = nq.to_native([0, 1])
        with pytest.raises(IndexError):
            nq.oc_optimal_removal_count_batch([[0, 2]], [(short, short)], None)
        with pytest.raises(IndexError):
            nq.ofd_removal_batch([[0, 2]], [short], None)
        if native_mode == "native":  # the NumPy fallback orders negative ranks
            negative = nq.to_native([0, -1])
            with pytest.raises(ValueError):
                nq.oc_optimal_removal_count_batch([[0, 1]], [(negative, short)], 3)
            with pytest.raises(ValueError):
                nq.oc_optimal_removal_count_batch([[0, 1]], [(short, negative)], None)
            with pytest.raises(ValueError):
                nq.ofd_removal_batch([[0, 1]], [negative], None)

    def test_ofd_ranks_beyond_the_row_count(self, native_mode):
        classes = [[0, 1, 2], [3, 4]]
        self._check_ofd(classes, [[900, 7, 900, 5000, 5000]], None)
        self._check_ofd(classes, [[1, 2, 2, 0, 1], [70, 70, 3, 9, 9]], 0)
