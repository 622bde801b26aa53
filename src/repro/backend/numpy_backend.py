"""The NumPy columnar backend.

Rank columns are dense ``int32`` arrays; the hot loops become vectorised
array operations:

* encoding via ``np.unique(return_inverse=True)`` on clean homogeneous
  columns (dirty mixed-type columns fall back to the reference encoder, so
  the semantics — including first-appearance tie-breaks for values whose
  sort keys collide — are preserved exactly);
* partition construction via stable argsort / lexsort over rank columns,
  splitting on group boundaries; refinement is a compiled walk over the
  CSR arrays (:mod:`repro.backend.native`), else a lexsort;
* the single-candidate removal-set kernels order *all* classes of a
  context with one fused-key sort; the batched kernels run in C over the
  context's CSR arrays, gathering ranks through its rows — the AOC count
  and the exact OC check take every pair in one call (per class: gather,
  sort, scan), the ``g3`` kernel one call per column — else loop over the
  single-candidate NumPy kernels (the exact OC check: the fused-key sort).

Parity contract: every method returns the same values, in the same order,
with the same early-exit points as :class:`PythonBackend`.  One documented
exception: for float columns containing both ``-0.0`` and ``0.0`` the
*representative* stored in the decode dictionary may differ (the ranks are
still identical); such columns behave identically in all discovery and
validation code, which only ever touches ranks.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import native
from repro.backend.base import ComputeBackend, EncodedColumn
from repro.dataset.partition import Partition
from repro.dataset.schema import AttributeType

#: Largest magnitude at which ``float(int)`` is still injective; beyond it
#: the reference encoder's float sort keys collide and break ties by first
#: appearance, which a numeric sort cannot reproduce — so we fall back.
_FLOAT_SAFE_INT = 1 << 53

_NUMERIC_TYPES = (AttributeType.INTEGER, AttributeType.FLOAT)


def _empty_partition(num_rows: int) -> Partition:
    """A classless partition with array-typed CSR storage."""
    return Partition.from_csr(
        np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64), num_rows
    )


def _csr_arrays(classes) -> Tuple[np.ndarray, np.ndarray]:
    """Contiguous ``int64`` ``(rows, offsets)`` of a class container, for
    the compiled kernels; a :class:`Partition` hands over its own."""
    if isinstance(classes, Partition):
        rows, offsets = classes.row_indices, classes.class_offsets
    else:
        rows, _, lengths = NumpyBackend._columnar_classes(classes)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != rows.size:
        raise ValueError("class offsets do not span the row array")
    return rows, offsets


class NumpyBackend(ComputeBackend):
    """Vectorised backend over ``int32`` rank arrays."""

    name = "numpy"

    # -- columns ---------------------------------------------------------------

    def to_native(self, ranks: Sequence[int]):
        if isinstance(ranks, np.ndarray):
            return ranks
        return np.asarray(ranks, dtype=np.int32)

    def encode_column(
        self, values: Sequence[object], attr_type: AttributeType = AttributeType.STRING
    ) -> EncodedColumn:
        encoded = self._encode_fast(values, attr_type)
        if encoded is not None:
            return encoded
        from repro.dataset.encoding import encode_column

        ranks, dictionary = encode_column(values, attr_type)
        return ranks, dictionary, np.asarray(ranks, dtype=np.int32)

    def _encode_fast(self, values: Sequence[object], attr_type) -> Optional[EncodedColumn]:
        """Vectorised encoding for homogeneous columns; ``None`` → fall back.

        The reference encoder sorts by per-type sort keys with equality
        dedup and first-appearance tie-breaks.  Those semantics reduce to a
        plain value sort exactly when the column is homogeneously typed
        (all ``int``, all ``float`` or all ``str`` — ``bool`` excluded
        because ``True == 1`` merges across types) and the sort key is
        injective on the values (no NaN, ints within float precision).
        """
        all_int = all_float = all_str = True
        present: List[object] = []
        for value in values:
            if value is None:
                continue
            kind = type(value)
            if kind is int:
                all_float = all_str = False
            elif kind is float:
                all_int = all_str = False
            elif kind is str:
                all_int = all_float = False
                if "\0" in value:
                    # NumPy's fixed-width unicode dtype ignores trailing NUL
                    # characters in comparisons, which would merge strings
                    # the reference encoder keeps distinct.
                    return None
            else:
                return None
            if not (all_int or all_float or all_str):
                return None
            present.append(value)
        if not present:
            return None  # empty / all-None columns: let the reference handle it
        if all_int and attr_type in _NUMERIC_TYPES:
            try:
                array = np.array(present, dtype=np.int64)
            except OverflowError:
                return None
            if int(np.abs(array).max()) >= _FLOAT_SAFE_INT:
                return None
        elif all_float and attr_type in _NUMERIC_TYPES:
            array = np.array(present, dtype=np.float64)
            if np.isnan(array).any():
                return None
        elif all_str and attr_type not in _NUMERIC_TYPES:
            array = np.array(present, dtype=np.str_)
        else:
            return None  # type/declared-type mismatch: reference coercion rules apply
        uniques, inverse = np.unique(array, return_inverse=True)
        inverse = inverse.astype(np.int32).reshape(-1)
        if len(present) == len(values):
            native = inverse
            dictionary = uniques.tolist()
        else:
            mask = np.fromiter(
                (v is not None for v in values), dtype=bool, count=len(values)
            )
            native = np.zeros(len(values), dtype=np.int32)
            native[mask] = inverse + 1
            dictionary = [None] + uniques.tolist()
        # ranks=None: the canonical list is derived lazily from `native` by
        # EncodedRelation on first access, so hot paths that only touch the
        # columnar form never pay for a Python list.
        return None, dictionary, native

    # -- partitions ------------------------------------------------------------

    def partition_unit(self, num_rows: int) -> Partition:
        if num_rows <= 1:
            return _empty_partition(num_rows)
        return Partition.from_csr(
            np.arange(num_rows, dtype=np.int64),
            np.array([0, num_rows], dtype=np.int64),
            num_rows,
        )

    def partition_single(self, native_ranks, num_rows: int) -> Partition:
        ranks = self.to_native(native_ranks)
        if ranks.size == 0:
            return _empty_partition(num_rows)
        order = np.argsort(ranks, kind="stable")
        return self._csr_partition(
            order, (ranks[order].astype(np.int64),), num_rows
        )

    def partition_from_row_keys(self, keys, num_rows: int) -> Partition:
        try:
            key_matrix = np.asarray(keys, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            key_matrix = None
        if key_matrix is None or key_matrix.ndim != 2:
            # Ragged / non-integer keys: reference dict grouping.
            return super().partition_from_row_keys(keys, num_rows)
        if key_matrix.shape[0] == 0:
            return _empty_partition(num_rows)
        if key_matrix.shape[1] == 0:
            return self.partition_unit(num_rows)
        # lexsort keys last-first: reverse so the first tuple element is the
        # most significant (any consistent total order groups equal tuples,
        # but this keeps the sort deterministic and cache-friendly).
        columns = tuple(key_matrix[:, i] for i in range(key_matrix.shape[1]))
        order = np.lexsort(columns[::-1])
        return self._csr_partition(
            order, tuple(column[order] for column in columns), num_rows
        )

    def partition_refine(self, partition: Partition, native_ranks) -> Partition:
        ranks = self.to_native(native_ranks)
        if partition.num_classes == 0:
            return _empty_partition(partition.num_rows)
        library = native.kernels()
        if library is not None:
            return self._native_refine(library, partition, ranks)
        rows, class_ids, _ = self._columnar_classes(partition)
        values = ranks[rows].astype(np.int64)
        order = np.lexsort((values, class_ids))
        return self._csr_partition(
            rows[order], (class_ids[order], values[order]), partition.num_rows
        )

    @staticmethod
    def _native_refine(library, partition: Partition, ranks) -> Partition:
        """Compiled refinement: one walk over the CSR arrays, no sort."""
        rows, offsets = _csr_arrays(partition)
        column = np.ascontiguousarray(ranks, dtype=np.int32)
        out_rows = np.empty(rows.size, dtype=np.int64)
        out_offsets = np.empty(rows.size // 2 + 1, dtype=np.int64)
        num_classes = library.repro_partition_refine(
            rows.ctypes.data, offsets.ctypes.data, offsets.size - 1,
            column.ctypes.data, column.size, int(column.max(initial=0)) + 1,
            out_rows.ctypes.data, out_offsets.ctypes.data,
        )
        if num_classes == -1:  # the scratch array is indexed by rank
            raise ValueError("rank columns must be non-negative")
        if num_classes == -2:
            raise IndexError("the rank column does not cover the partition's rows")
        if num_classes < 0:
            raise MemoryError("partition refinement scratch")
        if num_classes == 0:
            return _empty_partition(partition.num_rows)
        out_offsets = out_offsets[:num_classes + 1].copy()
        return Partition.from_csr(
            out_rows[:out_offsets[-1]].copy(), out_offsets, partition.num_rows
        )

    def partition_product(self, left: Partition, right: Partition) -> Partition:
        if left.num_rows != right.num_rows:
            raise ValueError("partitions are over relations of different sizes")
        if left.num_classes == 0 or right.num_classes == 0:
            return _empty_partition(left.num_rows)
        class_of = np.full(left.num_rows, -1, dtype=np.int64)
        right_rows, right_ids, _ = self._columnar_classes(right)
        class_of[right_rows] = right_ids
        rows, class_ids, _ = self._columnar_classes(left)
        other = class_of[rows]
        grouped = other >= 0  # singletons of `right` stay singletons in the product
        rows, class_ids, other = rows[grouped], class_ids[grouped], other[grouped]
        if rows.size == 0:
            return _empty_partition(left.num_rows)
        order = np.lexsort((other, class_ids))
        return self._csr_partition(
            rows[order], (class_ids[order], other[order]), left.num_rows
        )

    @staticmethod
    def _columnar_classes(classes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten a class container into ``(rows, class_ids, lengths)`` arrays.

        :class:`Partition` objects already hold the flat CSR layout, so the
        columnar view is derived from the offset arrays with no per-class
        Python objects; the result is cached on the partition because
        candidates share contexts heavily during the level-wise search
        (the compiled kernels read the CSR arrays instead; this view serves
        the NumPy fallbacks, products and the pool's shard planner).
        Objects exposing a ``columnar_view()`` (e.g. the worker-side
        :class:`~repro.validation.distributed.ClassShard`) hand over their
        pre-flattened arrays directly; raw lists of row lists (kernel inputs
        from the repair path) are concatenated.
        """
        if isinstance(classes, Partition):
            cached = classes._columnar
            if cached is not None:
                return cached
            rows = classes.row_indices
            offsets = classes.class_offsets
            rows = (
                rows.astype(np.int64, copy=False)
                if isinstance(rows, np.ndarray)
                else np.asarray(rows, dtype=np.int64)
            )
            offsets = (
                offsets
                if isinstance(offsets, np.ndarray)
                else np.asarray(offsets, dtype=np.int64)
            )
            lengths = np.diff(offsets)
            class_ids = np.repeat(
                np.arange(lengths.size, dtype=np.int64), lengths
            )
            columnar = (rows, class_ids, lengths)
            classes._columnar = columnar
            return columnar
        if hasattr(classes, "columnar_view"):
            return classes.columnar_view()
        class_lists = list(classes)
        lengths = np.fromiter(
            (len(c) for c in class_lists), dtype=np.int64, count=len(class_lists)
        )
        total = int(lengths.sum())
        rows = np.fromiter(chain.from_iterable(class_lists), dtype=np.int64, count=total)
        class_ids = np.repeat(np.arange(len(class_lists), dtype=np.int64), lengths)
        return rows, class_ids, lengths

    @staticmethod
    def _csr_partition(
        sorted_rows: np.ndarray, key_arrays, num_rows: int
    ) -> Partition:
        """Partition from key-sorted rows: split at key changes, keep
        segments of size ≥ 2, reorder by first row, lay out flat CSR.

        Never materialises per-class Python lists: segments are selected
        and reordered with one gather over the flat row array.
        """
        n = sorted_rows.size
        change = np.zeros(n - 1, dtype=bool)
        for key in key_arrays:
            change |= np.diff(key) != 0
        boundaries = np.concatenate(([0], np.nonzero(change)[0] + 1, [n]))
        lengths = np.diff(boundaries)
        keep = lengths >= 2
        lengths = lengths[keep]
        if lengths.size == 0:
            return _empty_partition(num_rows)
        starts = boundaries[:-1][keep]
        # Segments come out in key order; the canonical layout orders
        # classes by their (unique) first row.
        order = np.argsort(sorted_rows[starts], kind="stable")
        starts, lengths = starts[order], lengths[order]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        flat = np.repeat(starts - offsets[:-1], lengths) + np.arange(
            int(offsets[-1])
        )
        return Partition.from_csr(
            sorted_rows[flat].astype(np.int64, copy=False), offsets, num_rows
        )

    # -- shared kernel plumbing ------------------------------------------------

    def _sorted_class_segments(self, classes, a_ranks, b_ranks, descending_b: bool):
        """One ``lexsort`` over all classes → per-class ``(rows, b_values)``.

        Classes come back in input order, each ordered by ``[A ASC, B ASC]``
        (or ``B DESC`` ties when ``descending_b``), with ties falling back
        to ascending row order — matching the stable reference sorts.
        """
        a = self.to_native(a_ranks)
        b = self.to_native(b_ranks)
        rows, class_ids, lengths = self._columnar_classes(classes)
        a_values = a[rows]
        b_values = b[rows].astype(np.int64)
        # Fold (class, A) into one int64 key: ranks are non-negative and
        # bounded by the row count, so class_id * (max_a + 1) + a cannot
        # overflow and sorts exactly like the (class, A) pair.
        combined = class_ids * (int(a_values.max(initial=0)) + 1) + a_values
        tie_break = -b_values if descending_b else b_values
        order = np.lexsort((tie_break, combined))
        rows_sorted = rows[order]
        b_sorted = b_values[order]
        offsets = np.concatenate(([0], np.cumsum(lengths))).tolist()
        for i in range(lengths.size):
            start, end = offsets[i], offsets[i + 1]
            yield rows_sorted[start:end], b_sorted[start:end]

    def _lnds_removal_rows(
        self, classes, a_ranks, b_ranks, limit: Optional[int], descending_b: bool
    ) -> Tuple[List[int], bool]:
        from repro.validation.lnds import lnds_indices

        if not len(classes):
            return [], False
        removal: List[int] = []
        for seg_rows, seg_values in self._sorted_class_segments(
            classes, a_ranks, b_ranks, descending_b
        ):
            # Clean classes (the common case during discovery) have a fully
            # non-decreasing projection: the LNDS is the whole class and the
            # removal contribution is empty — no need to run the patience DP.
            if seg_values.size < 2 or bool(np.all(np.diff(seg_values) >= 0)):
                continue
            values = seg_values.tolist()
            kept = set(lnds_indices(values))
            removal.extend(
                row
                for position, row in enumerate(seg_rows.tolist())
                if position not in kept
            )
            if limit is not None and len(removal) > limit:
                return removal, True
        return removal, False

    # -- exact checks ----------------------------------------------------------

    def oc_holds(self, classes, a_ranks, b_ranks) -> bool:
        if not len(classes):
            return True
        a = self.to_native(a_ranks)
        b = self.to_native(b_ranks)
        rows, class_ids, lengths = self._columnar_classes(classes)
        a_values = a[rows]
        b_values = b[rows].astype(np.int64)
        combined = class_ids * (int(a_values.max(initial=0)) + 1) + a_values
        order = np.lexsort((b_values, combined))
        b_sorted = b_values[order]
        interior = self._interior_mask(lengths)
        return bool(np.all(np.diff(b_sorted)[interior] >= 0))

    def ofd_holds(self, classes, value_ranks) -> bool:
        if not len(classes):
            return True
        ranks = self.to_native(value_ranks)
        rows, _, lengths = self._columnar_classes(classes)
        values = ranks[rows].astype(np.int64)
        interior = self._interior_mask(lengths)
        return bool(np.all(np.diff(values)[interior] == 0))

    def oc_holds_batch(self, classes, rank_pairs) -> List[bool]:
        """Batched exact OC checks: one shared context, many rank pairs.

        The context's columnar view and interior mask are built once; per
        pair one fused-key sort orders every class and a single vectorised
        comparison detects any in-class descent — the same screening the
        batched count kernel runs, without the LNDS step.
        """
        num_pairs = len(rank_pairs)
        if num_pairs == 0:
            return []
        if not len(classes):
            return [True] * num_pairs
        library = native.kernels()
        if library is not None:
            return self._native_holds_batch(library, classes, rank_pairs)
        rows, class_ids, lengths = self._columnar_classes(classes)
        if rows.size == 0:
            return [True] * num_pairs
        interior = self._interior_mask(lengths)
        results: List[bool] = []
        for a_ranks, b_ranks in rank_pairs:
            a_values = self.to_native(a_ranks)[rows].astype(np.int64)
            b_values = self.to_native(b_ranks)[rows].astype(np.int64)
            b_sorted = self._fused_b_sorted(
                lengths.size, class_ids, a_values, b_values
            )
            results.append(bool(np.all(np.diff(b_sorted)[interior] >= 0)))
        return results

    def _native_holds_batch(self, library, classes, rank_pairs) -> List[bool]:
        """One compiled call checks every pair: per class a packed
        ``(A << 32) | B`` key sort, stopping at the first swap."""
        rows, offsets = _csr_arrays(classes)
        if rows.size == 0:
            return [True] * len(rank_pairs)
        addresses, pairs, _columns = self._column_table(rows, rank_pairs)
        keys = np.empty(rows.size, dtype=np.uint64)
        out = np.empty(len(rank_pairs), dtype=np.int8)
        if library.repro_oc_holds_batch(
            rows.ctypes.data, offsets.ctypes.data, offsets.size - 1,
            addresses.ctypes.data, pairs.ctypes.data, len(rank_pairs),
            keys.ctypes.data, out.ctypes.data,
        ) < 0:
            raise ValueError("rank columns must be non-negative")
        return out.view(bool).tolist()

    def _column_table(self, rows: np.ndarray, rank_pairs):
        """``(addresses, pairs, columns)`` for the compiled pair kernels:
        pairs share columns, so each is converted and addressed once and
        the pairs become index pairs into it; ``columns`` keeps the
        converted arrays alive for the call."""
        last_row = int(rows.max())
        columns: List[np.ndarray] = []
        slots = {}

        def slot(ranks) -> int:
            index = slots.get(id(ranks))
            if index is None:
                column = np.ascontiguousarray(self.to_native(ranks), dtype=np.int32)
                if column.size <= last_row:
                    raise IndexError("a rank column does not cover the context's rows")
                index = slots[id(ranks)] = len(columns)
                columns.append(column)
            return index

        pairs = np.array(
            [(slot(a), slot(b)) for a, b in rank_pairs], dtype=np.int64
        )
        addresses = np.array([c.ctypes.data for c in columns], dtype=np.uintp)
        return addresses, pairs, columns

    def ofd_holds_batch(self, classes, rhs_ranks) -> List[bool]:
        """Batched exact OFD checks: one shared context, many RHS columns.

        All RHS columns are stacked into one value matrix and the
        constant-within-class test runs over every column at once.
        """
        num_rhs = len(rhs_ranks)
        if num_rhs == 0:
            return []
        if not len(classes):
            return [True] * num_rhs
        # The CSR arrays, not the columnar view: with the compiled kernels
        # no discovery kernel needs a partition's class ids, so cached
        # partitions never grow that per-row array.
        rows, offsets = _csr_arrays(classes)
        lengths = np.diff(offsets)
        if rows.size < 2:
            return [True] * num_rhs
        # Gather each column down to the grouped rows *before* stacking:
        # stripped partitions usually cover a fraction of the table.
        values = np.stack(
            [self.to_native(ranks)[rows] for ranks in rhs_ranks]
        ).astype(np.int64)
        changed = (values[:, 1:] != values[:, :-1]) & self._interior_mask(
            lengths
        )[None, :]
        return [not bool(flag) for flag in np.any(changed, axis=1)]

    @staticmethod
    def _interior_mask(lengths: np.ndarray) -> np.ndarray:
        """Adjacent-pair mask that is ``False`` across class boundaries.

        Classes are concatenated contiguously, so the pair at flat position
        ``cumsum(lengths) - 1`` straddles two classes.
        """
        total = int(lengths.sum())
        interior = np.ones(max(total - 1, 0), dtype=bool)
        if lengths.size > 1:
            interior[np.cumsum(lengths)[:-1] - 1] = False
        return interior

    @staticmethod
    def _fused_b_sorted(
        num_classes: int, class_ids: np.ndarray,
        a_values: np.ndarray, b_values: np.ndarray,
    ) -> np.ndarray:
        """The ``B`` projection of every class ordered by ``[class, A ASC,
        B ASC]``.

        Counts and holds checks never need row identities, so the
        ``(class, A, B)`` triple is fused into one int64 key and
        value-sorted — cheaper than a two-pass lexsort followed by a
        gather.  Falls back to the lexsort when the fused key would
        overflow."""
        a_base = int(a_values.max(initial=0)) + 1
        b_base = int(b_values.max(initial=0)) + 1
        if num_classes * a_base * b_base < 1 << 62:
            key = (class_ids * a_base + a_values) * b_base + b_values
            key.sort()
            return key % b_base
        combined = class_ids * a_base + a_values  # pragma: no cover - needs ~2^62 keys
        order = np.lexsort((b_values, combined))
        return b_values[order]

    # -- removal-set kernels ---------------------------------------------------

    def oc_optimal_removal_rows(
        self, classes, a_ranks, b_ranks, limit: Optional[int] = None
    ) -> Tuple[List[int], bool]:
        return self._lnds_removal_rows(classes, a_ranks, b_ranks, limit,
                                       descending_b=False)

    def oc_optimal_removal_count(
        self, classes, a_ranks, b_ranks, limit: Optional[int] = None
    ) -> Tuple[int, bool]:
        """Count-only Algorithm 2 through the batched screening machinery.

        One fused-key sort orders every class and a single vectorised pass
        finds the *dirty* classes; the patience step then runs only on
        those, in class order.  Clean classes contribute zero removals, so
        the count observed at every early-exit check — and therefore the
        exceeded partial — is identical to the reference kernel's
        class-by-class accumulation.
        """
        from repro.validation.lnds import lnds_length

        if not len(classes):
            return 0, False
        rows, class_ids, lengths = self._columnar_classes(classes)
        if rows.size == 0:
            return 0, False
        b_sorted = self._fused_b_sorted(
            lengths.size, class_ids,
            self.to_native(a_ranks)[rows].astype(np.int64),
            self.to_native(b_ranks)[rows].astype(np.int64),
        )
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        viol = np.zeros(b_sorted.size, dtype=bool)
        viol[:-1] = (np.diff(b_sorted) < 0) & self._interior_mask(lengths)
        dirty = np.add.reduceat(viol, starts) > 0
        if not dirty.any():
            return 0, False
        ends = starts + lengths
        count = 0
        for index in np.nonzero(dirty)[0]:
            values = b_sorted[starts[index]:ends[index]].tolist()
            count += len(values) - lnds_length(values)
            if limit is not None and count > limit:
                return count, True
        return count, False

    def oc_greedy_removal_rows(
        self, classes, a_ranks, b_ranks, limit: Optional[int] = None
    ) -> Tuple[List[int], bool]:
        # Algorithm 1 is the paper's quadratic baseline; its per-removal
        # update loop is inherently sequential, so it runs through the
        # reference implementation on materialised lists.
        from repro.validation.approx_oc_iterative import iterative_removal_rows

        return iterative_removal_rows(
            classes, self._as_list(a_ranks), self._as_list(b_ranks), limit
        )

    def od_removal_rows(
        self, classes, a_ranks, b_ranks, limit: Optional[int] = None
    ) -> Tuple[List[int], bool]:
        return self._lnds_removal_rows(classes, a_ranks, b_ranks, limit,
                                       descending_b=True)

    # -- batched removal kernels ------------------------------------------------
    #
    # Compiled kernels when :mod:`repro.backend.native` is loaded, else the
    # base-class loop over the kernels above (identical results).  Both read
    # the context's CSR arrays and gather ranks through the rows in C, so no
    # class-id array is built or cached on the partition.

    def oc_optimal_removal_count_batch(
        self, classes, rank_pairs, limit: Optional[int] = None
    ) -> List[Tuple[int, bool]]:
        """Batched Algorithm 2 counts: one shared context, many rank pairs.

        One compiled call covers every pair: per class it sorts the packed
        ``(A, B)`` keys, skips clean classes and runs the patience loop,
        stopping once the count provably exceeds ``limit`` (pinned to
        ``limit + 1``) without gathering or sorting the pair's remaining
        classes.
        """
        library = native.kernels()
        if library is None or (limit is not None and limit < 0):
            return super().oc_optimal_removal_count_batch(classes, rank_pairs, limit)
        rows, offsets = _csr_arrays(classes)
        if rows.size == 0:
            return [(0, False)] * len(rank_pairs)
        addresses, pairs, _columns = self._column_table(rows, rank_pairs)
        longest = int(np.diff(offsets).max())
        keys = np.empty(2 * longest, dtype=np.uint64)
        tails = np.empty(longest, dtype=np.int64)
        out = np.empty(len(rank_pairs), dtype=np.int64)
        if library.repro_oc_lnds_count_batch(
            rows.ctypes.data, offsets.ctypes.data, offsets.size - 1,
            addresses.ctypes.data, pairs.ctypes.data, len(rank_pairs),
            -1 if limit is None else int(limit),
            keys.ctypes.data, tails.ctypes.data, out.ctypes.data,
        ) < 0:
            raise ValueError("rank columns must be non-negative")
        return [
            (count, limit is not None and count > limit) for count in out.tolist()
        ]

    def ofd_removal_batch(
        self, classes, rhs_ranks, limit: Optional[int] = None
    ) -> List[Tuple[List[int], bool]]:
        """Batched ``g3`` kernel: one shared context, many RHS columns.

        Per column the compiled loop reads the ranks through the rows, keeps
        each class's most frequent value (first occurrence breaks ties, like
        ``Counter.most_common``) and returns the reference's exact rows and
        truncation point.
        """
        library = native.kernels()
        if library is None or (limit is not None and limit < 0):
            return super().ofd_removal_batch(classes, rhs_ranks, limit)
        rows, offsets = _csr_arrays(classes)
        if rows.size == 0:
            return [([], False) for _ in rhs_ranks]
        last_row = int(rows.max())
        budget = -1 if limit is None else int(limit)
        out = np.empty(rows.size, dtype=np.int64)
        freq = np.zeros(0, dtype=np.int64)
        results: List[Tuple[List[int], bool]] = []
        for ranks in rhs_ranks:
            column = np.ascontiguousarray(self.to_native(ranks), dtype=np.int32)
            if column.size <= last_row:
                raise IndexError("a rank column does not cover the context's rows")
            # The scratch is indexed by rank.  Encoded ranks stay below the
            # row count + 1 (null included); larger ones (-2) size it to
            # the column's maximum.
            if freq.size <= column.size:
                freq = np.zeros(column.size + 1, dtype=np.int64)
            written = self._g3_rows(library, column, rows, offsets, budget, freq, out)
            if written == -2:
                freq = np.zeros(int(column.max()) + 1, dtype=np.int64)
                written = self._g3_rows(
                    library, column, rows, offsets, budget, freq, out
                )
            if written < 0:
                raise ValueError("rank columns must be non-negative")
            over = limit is not None and written > limit
            results.append((out[:written].tolist(), over))
        return results

    @staticmethod
    def _g3_rows(library, column, rows, offsets, budget, freq, out) -> int:
        return library.repro_ofd_g3_rows(
            column.ctypes.data, rows.ctypes.data, offsets.ctypes.data,
            offsets.size - 1, budget, freq.ctypes.data, freq.size,
            out.ctypes.data,
        )

    def ofd_removal_rows(
        self, classes, value_ranks, limit: Optional[int] = None
    ) -> Tuple[List[int], bool]:
        if not len(classes):
            return [], False
        ranks = self.to_native(value_ranks)
        rows, class_ids, lengths = self._columnar_classes(classes)
        values = ranks[rows].astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        # Per-row frequency of (class, value), then per class keep the value
        # with the highest frequency, ties broken by first occurrence within
        # the class — exactly Counter.most_common(1)'s insertion-order rule.
        keys = class_ids * (int(values.max()) + 1 if values.size else 1) + values
        _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        row_counts = counts[inverse.reshape(-1)]
        class_max = np.maximum.reduceat(row_counts, starts)
        positions = np.arange(rows.size, dtype=np.int64)
        candidates = np.where(row_counts == np.repeat(class_max, lengths),
                              positions, rows.size)
        first_best = np.minimum.reduceat(candidates, starts)
        keep_values = values[first_best]
        removal_mask = values != np.repeat(keep_values, lengths)
        removed_per_class = np.add.reduceat(removal_mask.astype(np.int64), starts)
        cumulative = np.cumsum(removed_per_class)
        if limit is not None and cumulative[-1] > int(limit):
            crossing = int(np.argmax(cumulative > int(limit)))
            cut = int(starts[crossing] + lengths[crossing])
            return rows[:cut][removal_mask[:cut]].tolist(), True
        return rows[removal_mask].tolist(), False

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _as_list(ranks) -> List[int]:
        if isinstance(ranks, np.ndarray):
            return ranks.tolist()
        return ranks if isinstance(ranks, list) else list(ranks)
