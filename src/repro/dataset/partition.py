"""Equivalence-class partitions (position list indexes).

Definition 2.8 of the paper: an attribute set ``X`` partitions the tuples of
a table into equivalence classes ``E(t_X) = {s | s_X = t_X}``; the partition
``Pi_X`` is the set of all such classes.  The canonical OD framework
validates every candidate *within* the equivalence classes of its context,
so partitions are the central data structure of the discovery framework.

Following TANE and FASTOD, partitions are stored *stripped*: singleton
classes are dropped because a class with a single tuple can contain neither
a swap nor a split.  Partition products (``Pi_{X ∪ Y}`` from ``Pi_X`` and
``Pi_Y``) are computed with the standard probe-table refinement algorithm,
which is linear in the number of tuples appearing in the stripped classes.

Layout
------
A partition is stored flat, in CSR (compressed sparse row) form:

* ``row_indices`` — the concatenation of every stripped class's row ids;
* ``class_offsets`` — ``num_classes + 1`` offsets into ``row_indices``
  (``class_offsets[0] == 0``), so class ``i`` is the half-open slice
  ``row_indices[class_offsets[i]:class_offsets[i + 1]]``.

Invariants: rows are ascending within a class, every class has >= 2 rows,
and classes are ordered by their first row (firsts are unique because
classes are disjoint).  The arrays are plain lists under the reference
backend and ``int64`` NumPy arrays under the vectorised one — this is the
exact layout the distributed validators ship to workers, so shard planning
and kernel dispatch slice the arrays directly without ever materialising
per-class Python lists.  The legacy list-of-lists view survives as the lazy
:attr:`Partition.classes` compatibility property for tests, baselines and
other cold consumers.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.caching import BoundedLRU


def _plain(sequence):
    """A plain-list view of a CSR array (no-op for lists)."""
    return sequence.tolist() if hasattr(sequence, "tolist") else sequence


class Partition:
    """A stripped partition of row indices into equivalence classes.

    Attributes
    ----------
    row_indices:
        Concatenated row ids of every stripped class (list or ``int64``
        array; see the module docstring for the layout invariants).
    class_offsets:
        ``num_classes + 1`` offsets delimiting each class's slice of
        ``row_indices``.
    num_rows:
        Total number of rows in the underlying relation (including rows in
        stripped singleton classes).
    """

    __slots__ = ("row_indices", "class_offsets", "num_rows", "_classes",
                 "_columnar")

    def __init__(self, classes: Sequence[Sequence[int]], num_rows: int) -> None:
        kept = [sorted(c) for c in classes if len(c) >= 2]
        kept.sort(key=lambda c: c[0])
        flat: List[int] = []
        offsets: List[int] = [0]
        for rows in kept:
            flat.extend(rows)
            offsets.append(len(flat))
        self.row_indices = flat
        self.class_offsets = offsets
        self.num_rows = num_rows
        self._classes: Optional[List[List[int]]] = kept
        # Backend-owned columnar view (concatenated NumPy row/class-id
        # arrays), built lazily by the first vectorised kernel that touches
        # this partition and reused by all later candidates sharing the
        # context.  Not part of equality/repr.
        self._columnar = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_csr(cls, row_indices, class_offsets, num_rows: int) -> "Partition":
        """Adopt CSR arrays verbatim (trusted constructor).

        The caller guarantees the layout invariants: ascending rows within
        each class, every class of size >= 2, classes ordered by first row,
        ``class_offsets[0] == 0``.
        """
        partition = cls.__new__(cls)
        partition.row_indices = row_indices
        partition.class_offsets = class_offsets
        partition.num_rows = num_rows
        partition._classes = None
        partition._columnar = None
        return partition

    @classmethod
    def single(cls, ranks: Sequence[int]) -> "Partition":
        """Build the partition of a single encoded column.

        Routed through the default compute backend, so cold construction
        uses the vectorised lexsort path whenever NumPy is active; the
        pure-Python grouping lives in :func:`build_partition_single`.
        """
        from repro.backend import resolve_backend

        return resolve_backend(None).partition_single(ranks, len(ranks))

    @classmethod
    def unit(cls, num_rows: int) -> "Partition":
        """Partition of the empty attribute set: one class with every row.

        This is the context of level-2 OC candidates such as ``{}: A ~ B``
        and of level-1 OFD candidates such as ``{}: [] -> A``.
        """
        if num_rows <= 1:
            return cls.from_csr([], [0], num_rows)
        return cls.from_csr(list(range(num_rows)), [0, num_rows], num_rows)

    @classmethod
    def from_row_keys(cls, keys: Sequence[Tuple[int, ...]]) -> "Partition":
        """Build a partition by grouping rows with equal key tuples.

        Like :meth:`single`, construction goes through the default backend
        (the NumPy backend lexsorts the stacked key columns).
        """
        from repro.backend import resolve_backend

        return resolve_backend(None).partition_from_row_keys(keys, len(keys))

    @classmethod
    def _from_sorted_classes(
        cls, classes: List[List[int]], num_rows: int
    ) -> "Partition":
        """Internal fast path: adopt class lists whose rows are already
        sorted ascending and all of length >= 2, skipping the per-class
        normalisation."""
        classes.sort(key=lambda rows: rows[0])
        flat: List[int] = []
        offsets: List[int] = [0]
        for rows in classes:
            flat.extend(rows)
            offsets.append(len(flat))
        partition = cls.from_csr(flat, offsets, num_rows)
        partition._classes = classes
        return partition

    # -- properties ------------------------------------------------------------

    @property
    def classes(self) -> List[List[int]]:
        """Legacy list-of-lists view of the classes (lazy compatibility).

        Hot paths never touch this: construction, products, delta patching,
        shard planning and the vectorised kernels all work on the flat CSR
        arrays.  The materialised lists are cached for repeat consumers.
        """
        if self._classes is None:
            rows = _plain(self.row_indices)
            offsets = _plain(self.class_offsets)
            self._classes = [
                rows[offsets[i]:offsets[i + 1]]
                for i in range(len(offsets) - 1)
            ]
        return self._classes

    @property
    def num_classes(self) -> int:
        """Number of (non-singleton) equivalence classes."""
        return len(self.class_offsets) - 1

    @property
    def num_grouped_rows(self) -> int:
        """Number of rows contained in non-singleton classes (O(1))."""
        return len(self.row_indices)

    @property
    def num_singleton_rows(self) -> int:
        """Number of rows that form singleton classes (stripped away)."""
        return self.num_rows - self.num_grouped_rows

    def total_class_count(self) -> int:
        """Number of equivalence classes *including* singletons (``|Pi_X|``)."""
        return self.num_classes + self.num_singleton_rows

    def error_rows(self) -> int:
        """TANE's ``||Pi_X||`` error numerator: rows minus classes.

        This equals the minimal number of tuples to remove so that ``X``
        becomes a key.
        """
        return self.num_rows - self.total_class_count()

    def __iter__(self):
        return iter(self.classes)

    def __len__(self) -> int:
        return self.num_classes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.num_rows == other.num_rows
            and _plain(self.class_offsets) == _plain(other.class_offsets)
            and _plain(self.row_indices) == _plain(other.row_indices)
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Partition({self.num_classes} stripped classes over "
            f"{self.num_rows} rows)"
        )

    # -- refinement ------------------------------------------------------------

    def product(self, ranks: Sequence[int]) -> "Partition":
        """Refine this partition by an encoded column (reference algorithm).

        ``self`` is ``Pi_X``; ``ranks`` is the rank column of an attribute
        ``A``.  The result is ``Pi_{X ∪ {A}}``, computed by splitting every
        class of ``Pi_X`` on the ranks of ``A``.
        """
        rows = _plain(self.row_indices)
        offsets = _plain(self.class_offsets)
        split: List[List[int]] = []
        for i in range(len(offsets) - 1):
            groups: Dict[int, List[int]] = {}
            for position in range(offsets[i], offsets[i + 1]):
                row = rows[position]
                groups.setdefault(ranks[row], []).append(row)
            split.extend(g for g in groups.values() if len(g) >= 2)
        return _partition_from_groups(split, self.num_rows)

    def product_partition(self, other: "Partition") -> "Partition":
        """Compute ``Pi_{X ∪ Y}`` from ``Pi_X`` (self) and ``Pi_Y`` (other).

        Standard TANE probe-table algorithm on stripped partitions.
        """
        if self.num_rows != other.num_rows:
            raise ValueError("partitions are over relations of different sizes")
        class_of = _row_owners(other)
        rows = _plain(self.row_indices)
        offsets = _plain(self.class_offsets)
        split: List[List[int]] = []
        for i in range(len(offsets) - 1):
            groups: Dict[int, List[int]] = {}
            for position in range(offsets[i], offsets[i + 1]):
                row = rows[position]
                other_class = class_of.get(row)
                if other_class is None:
                    continue  # row is a singleton in `other`, so also in the product
                groups.setdefault(other_class, []).append(row)
            split.extend(g for g in groups.values() if len(g) >= 2)
        return _partition_from_groups(split, self.num_rows)

    def refines(self, other: "Partition") -> bool:
        """Return ``True`` iff every class of ``self`` is contained in a class
        of ``other`` (i.e. ``self`` is at least as fine as ``other``)."""
        class_of = _row_owners(other)
        rows = _plain(self.row_indices)
        offsets = _plain(self.class_offsets)
        for i in range(len(offsets) - 1):
            owners = set()
            for position in range(offsets[i], offsets[i + 1]):
                row = rows[position]
                owners.add(class_of.get(row, ("singleton", row)))
                if len(owners) > 1:
                    return False
        return True


def _row_owners(partition: Partition) -> Dict[int, int]:
    """Map each grouped row of ``partition`` to its class id."""
    rows = _plain(partition.row_indices)
    offsets = _plain(partition.class_offsets)
    class_of: Dict[int, int] = {}
    for class_id in range(len(offsets) - 1):
        for position in range(offsets[class_id], offsets[class_id + 1]):
            class_of[rows[position]] = class_id
    return class_of


def _partition_from_groups(groups: List[List[int]], num_rows: int) -> Partition:
    """Partition from per-class row lists whose rows are already ascending.

    Strips classes of size < 2, orders survivors by first row and lays them
    out flat.  This is the shared tail of every pure-Python construction
    path; the materialised lists are kept as the partition's cached legacy
    view since they were paid for anyway.
    """
    kept = [rows for rows in groups if len(rows) >= 2]
    kept.sort(key=lambda rows: rows[0])
    flat: List[int] = []
    offsets: List[int] = [0]
    for rows in kept:
        flat.extend(rows)
        offsets.append(len(flat))
    partition = Partition.from_csr(flat, offsets, num_rows)
    partition._classes = kept
    return partition


def build_partition_single(ranks: Sequence[int], num_rows: int) -> Partition:
    """Reference (pure-Python) construction of a single-column partition.

    Kept separate from :meth:`Partition.single` — which routes through the
    resolved default backend — so the Python backend can call the dict
    grouping directly without recursing through backend resolution.
    """
    groups: Dict[int, List[int]] = {}
    for row, rank in enumerate(ranks):
        groups.setdefault(rank, []).append(row)
    return _partition_from_groups(list(groups.values()), num_rows)


def build_partition_from_row_keys(
    keys: Sequence[Tuple[int, ...]], num_rows: int
) -> Partition:
    """Reference (pure-Python) grouping of rows by equal key tuples."""
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for row, key in enumerate(keys):
        groups.setdefault(key, []).append(row)
    return _partition_from_groups(list(groups.values()), num_rows)


class DeltaPatches:
    """Outcome of :meth:`PartitionCache.apply_delta`.

    ``affected`` — keys whose stripped classes changed; ``class_patches``
    maps each of them to ``(removed, added)`` class lists (what the delta
    replaced); ``dropped`` — keys evicted because nothing was left to patch
    them from.
    """

    __slots__ = ("affected", "dropped", "class_patches")

    def __init__(self) -> None:
        self.affected: Set[FrozenSet[int]] = set()
        self.dropped: Set[FrozenSet[int]] = set()
        self.class_patches: Dict[
            FrozenSet[int], Tuple[List[List[int]], List[List[int]]]
        ] = {}


def _class_diff(
    old_classes: Sequence[Sequence[int]], new_classes: Sequence[Sequence[int]]
) -> Tuple[List[List[int]], List[List[int]]]:
    """Symmetric difference of two class lists: ``(removed, added)``.

    Classes that survive a delta untouched appear in both lists and drop
    out, so downstream repair only ever re-runs kernels on classes whose
    membership genuinely changed.
    """
    old_set = {tuple(rows) for rows in old_classes}
    new_set = {tuple(rows) for rows in new_classes}
    removed = [list(rows) for rows in old_classes if tuple(rows) not in new_set]
    added = [list(rows) for rows in new_classes if tuple(rows) not in old_set]
    return removed, added


def _gather_segments(rows, offsets, ids):
    """Concatenate the classes ``ids`` selects out of a CSR array pair.

    Pure index arithmetic: ``starts - out_offsets`` repeated per element
    plus a flat ``arange`` turns the per-class slices into one gather.
    """
    import numpy as np

    lengths = np.diff(offsets)[ids]
    starts = offsets[:-1][ids]
    out_starts = np.cumsum(lengths) - lengths
    total = int(lengths.sum())
    flat = np.repeat(starts - out_starts, lengths) + np.arange(total)
    return rows[flat], lengths


def _select_partition(rows, offsets, ids, num_rows: int) -> Partition:
    """Partition made of the classes ``ids`` selects (ids ascending)."""
    import numpy as np

    flat, lengths = _gather_segments(rows, offsets, ids)
    new_offsets = np.concatenate(
        ([0], np.cumsum(lengths))
    ).astype(np.int64, copy=False)
    return Partition.from_csr(flat, new_offsets, num_rows)


def _diff_partitions(
    old: Partition, new: Partition
) -> Tuple[List[List[int]], List[List[int]]]:
    """Symmetric difference of two partitions' classes: ``(removed, added)``.

    Both partitions keep their classes ordered by (unique) first row, so a
    two-pointer merge over the offset arrays pairs classes up without
    materialising the ones that survived unchanged — only genuinely changed
    classes become Python lists for the repair kernels.
    """
    o_rows, o_offsets = old.row_indices, old.class_offsets
    n_rows, n_offsets = new.row_indices, new.class_offsets
    if not isinstance(o_rows, list) and not isinstance(n_rows, list):
        return _diff_partitions_arrays(o_rows, o_offsets, n_rows, n_offsets)
    o_rows, o_offsets = _plain(o_rows), _plain(o_offsets)
    n_rows, n_offsets = _plain(n_rows), _plain(n_offsets)
    removed: List[List[int]] = []
    added: List[List[int]] = []
    i = j = 0
    num_old, num_new = len(o_offsets) - 1, len(n_offsets) - 1
    while i < num_old and j < num_new:
        old_first = o_rows[o_offsets[i]]
        new_first = n_rows[n_offsets[j]]
        if old_first < new_first:
            removed.append(o_rows[o_offsets[i]:o_offsets[i + 1]])
            i += 1
        elif new_first < old_first:
            added.append(n_rows[n_offsets[j]:n_offsets[j + 1]])
            j += 1
        else:
            old_class = o_rows[o_offsets[i]:o_offsets[i + 1]]
            new_class = n_rows[n_offsets[j]:n_offsets[j + 1]]
            if old_class != new_class:
                removed.append(old_class)
                added.append(new_class)
            i += 1
            j += 1
    while i < num_old:
        removed.append(o_rows[o_offsets[i]:o_offsets[i + 1]])
        i += 1
    while j < num_new:
        added.append(n_rows[n_offsets[j]:n_offsets[j + 1]])
        j += 1
    return removed, added


def _diff_partitions_arrays(o_rows, o_offsets, n_rows, n_offsets):
    """Vectorised :func:`_diff_partitions` over ``int64`` CSR arrays.

    Classes are matched by first row (unique and ascending on both sides);
    matched pairs differ when their lengths differ or any element does —
    checked with one segmented comparison over all equal-length pairs.
    """
    import numpy as np

    o_firsts = o_rows[o_offsets[:-1]]
    n_firsts = n_rows[n_offsets[:-1]]
    position = np.searchsorted(n_firsts, o_firsts)
    matched = position < n_firsts.size
    if n_firsts.size:
        safe = np.minimum(position, n_firsts.size - 1)
        matched &= n_firsts[safe] == o_firsts
    o_match = np.nonzero(matched)[0]
    n_match = position[o_match]
    o_lengths = np.diff(o_offsets)
    n_lengths = np.diff(n_offsets)
    changed = o_lengths[o_match] != n_lengths[n_match]
    same_length = np.nonzero(~changed)[0]
    if same_length.size:
        left, lengths = _gather_segments(o_rows, o_offsets, o_match[same_length])
        right, _ = _gather_segments(n_rows, n_offsets, n_match[same_length])
        starts = np.cumsum(lengths) - lengths
        changed[same_length] = np.add.reduceat(left != right, starts) > 0
    removed_ids = np.sort(
        np.concatenate([np.nonzero(~matched)[0], o_match[changed]])
    )
    new_unmatched = np.ones(n_firsts.size, dtype=bool)
    new_unmatched[n_match] = False
    added_ids = np.sort(
        np.concatenate([np.nonzero(new_unmatched)[0], n_match[changed]])
    )
    removed = _segments_as_lists(o_rows, o_offsets, removed_ids)
    added = _segments_as_lists(n_rows, n_offsets, added_ids)
    return removed, added


def _segments_as_lists(rows, offsets, ids) -> List[List[int]]:
    """Materialise the selected classes as plain row lists."""
    return [
        rows[offsets[i]:offsets[i + 1]].tolist() for i in ids.tolist()
    ]


def _merge_disjoint(a: Partition, b: Partition, num_rows: int) -> Partition:
    """Merge two partitions with disjoint classes, ordered by first row."""
    if a.num_classes == 0:
        return Partition.from_csr(b.row_indices, b.class_offsets, num_rows)
    if b.num_classes == 0:
        return Partition.from_csr(a.row_indices, a.class_offsets, num_rows)
    a_rows, a_offsets = a.row_indices, a.class_offsets
    b_rows, b_offsets = b.row_indices, b.class_offsets
    if not isinstance(a_rows, list) and not isinstance(b_rows, list):
        import numpy as np

        rows_all = np.concatenate([a_rows, b_rows])
        starts = np.concatenate([a_offsets[:-1], b_offsets[:-1] + a_rows.size])
        lengths = np.concatenate([np.diff(a_offsets), np.diff(b_offsets)])
        order = np.argsort(rows_all[starts], kind="stable")
        starts, lengths = starts[order], lengths[order]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        flat = np.repeat(starts - offsets[:-1], lengths) + np.arange(
            int(offsets[-1])
        )
        return Partition.from_csr(rows_all[flat], offsets, num_rows)
    a_rows, a_offsets = _plain(a_rows), _plain(a_offsets)
    b_rows, b_offsets = _plain(b_rows), _plain(b_offsets)
    flat: List[int] = []
    offsets: List[int] = [0]
    i = j = 0
    num_a, num_b = len(a_offsets) - 1, len(b_offsets) - 1
    while i < num_a or j < num_b:
        take_a = j >= num_b or (
            i < num_a and a_rows[a_offsets[i]] < b_rows[b_offsets[j]]
        )
        if take_a:
            flat.extend(a_rows[a_offsets[i]:a_offsets[i + 1]])
            i += 1
        else:
            flat.extend(b_rows[b_offsets[j]:b_offsets[j + 1]])
            j += 1
        offsets.append(len(flat))
    return Partition.from_csr(flat, offsets, num_rows)


def _touched_base_classes(base: Partition, old_num_rows: int,
                          new_num_rows: int):
    """Select the base classes a delta touched, plus a membership tester.

    A base class is *touched* iff it contains an appended row — class rows
    are ascending, so its last row decides.  Returns ``(touched, member)``
    where ``touched`` is the sub-partition of those classes (over the new
    row count) and ``member`` tests whether an old row id lies in a touched
    class (a boolean mask for array partitions, a set for list ones).
    """
    rows, offsets = base.row_indices, base.class_offsets
    if not isinstance(rows, list):
        import numpy as np

        lasts = rows[offsets[1:] - 1]
        ids = np.nonzero(lasts >= old_num_rows)[0]
        touched = _select_partition(rows, offsets, ids, new_num_rows)
        member = np.zeros(old_num_rows, dtype=bool)
        touched_rows = touched.row_indices
        member[touched_rows[touched_rows < old_num_rows]] = True
        return touched, member
    flat: List[int] = []
    t_offsets: List[int] = [0]
    member: Set[int] = set()
    for i in range(len(offsets) - 1):
        if rows[offsets[i + 1] - 1] >= old_num_rows:
            segment = rows[offsets[i]:offsets[i + 1]]
            flat.extend(segment)
            t_offsets.append(len(flat))
            member.update(segment)
    return Partition.from_csr(flat, t_offsets, new_num_rows), member


def _split_by_touched(old: Partition, member, new_num_rows: int):
    """Split ``old``'s classes into ``(carried, replaced)`` partitions.

    An old class lies inside exactly one base class; its first row (always
    below the old row count) tells whether that base class was touched.
    """
    rows, offsets = old.row_indices, old.class_offsets
    if not isinstance(rows, list) and not isinstance(member, set):
        import numpy as np

        firsts = rows[offsets[:-1]]
        replaced_mask = member[firsts]
        carried = _select_partition(
            rows, offsets, np.nonzero(~replaced_mask)[0], new_num_rows
        )
        replaced = _select_partition(
            rows, offsets, np.nonzero(replaced_mask)[0], old.num_rows
        )
        return carried, replaced
    contains = member.__contains__ if isinstance(member, set) else (
        lambda row: bool(member[row])
    )
    rows, offsets = _plain(rows), _plain(offsets)
    c_flat: List[int] = []
    c_offsets: List[int] = [0]
    r_flat: List[int] = []
    r_offsets: List[int] = [0]
    for i in range(len(offsets) - 1):
        segment = rows[offsets[i]:offsets[i + 1]]
        if contains(segment[0]):
            r_flat.extend(segment)
            r_offsets.append(len(r_flat))
        else:
            c_flat.extend(segment)
            c_offsets.append(len(c_flat))
    carried = Partition.from_csr(c_flat, c_offsets, new_num_rows)
    replaced = Partition.from_csr(r_flat, r_offsets, old.num_rows)
    return carried, replaced


class PartitionCache:
    """Cache of partitions keyed by attribute-index sets.

    The level-wise lattice traversal requests the partition of many
    overlapping attribute sets; each partition is built once by refining a
    cached partition of a subset with one more single-attribute partition,
    as in the TANE / FASTOD implementations.

    Construction and refinement go through a pluggable compute backend
    (defaulting to the encoded relation's); every backend produces
    identical :class:`Partition` objects, so cache contents are
    backend-agnostic.

    ``max_entries`` bounds the number of retained partitions with LRU
    eviction (``None`` — the default — retains everything): long-lived
    sessions over wide schemas use it to cap the cache's O(rows)-per-context
    memory.  Evicted partitions are rebuilt on demand, so results never
    change; only :meth:`apply_delta`'s ability to patch (rather than drop)
    an entry depends on what is still cached.
    """

    def __init__(
        self, encoded_relation, backend=None, max_entries: Optional[int] = None
    ) -> None:
        from repro.backend import resolve_backend

        self._encoded = encoded_relation
        self._backend = resolve_backend(
            backend if backend is not None
            else getattr(encoded_relation, "backend", None)
        )
        self._cache: BoundedLRU = BoundedLRU(max_entries)
        self._hits = 0
        self._misses = 0

    @property
    def backend(self):
        """The compute backend used to build partitions."""
        return self._backend

    @property
    def num_rows(self) -> int:
        return self._encoded.num_rows

    @property
    def stats(self) -> Dict[str, int]:
        """Cache statistics (``hits``, ``misses``, ``entries``, ``evictions``)."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "entries": len(self._cache),
            "evictions": self._cache.evictions,
        }

    def cached_keys(self) -> Iterator[FrozenSet[int]]:
        """Iterate over the attribute-index sets currently cached."""
        return iter(list(self._cache))

    def get(self, attribute_indices: Iterable[int]) -> Partition:
        """Return ``Pi_X`` for the attribute-index set ``attribute_indices``."""
        key = frozenset(attribute_indices)
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        partition = self._build(key)
        self._cache[key] = partition
        return partition

    def get_by_names(self, names: Iterable[str]) -> Partition:
        """Return ``Pi_X`` for attribute *names*."""
        indices = [self._encoded.schema.index_of(n) for n in names]
        return self.get(indices)

    def _build(self, key: FrozenSet[int]) -> Partition:
        if not key:
            return self._backend.partition_unit(self._encoded.num_rows)
        if len(key) == 1:
            (index,) = key
            return self._backend.partition_single(
                self._native_ranks(index), self._encoded.num_rows
            )
        # Prefer one refinement from a cached immediate subset; else extend
        # the largest cached proper subset; else refine attribute by
        # attribute.
        best_subset = next(
            (key - {i} for i in sorted(key) if key - {i} in self._cache), None
        )
        if best_subset is None:
            for cached_key in self._cache:
                if cached_key < key and (
                    best_subset is None or len(cached_key) > len(best_subset)
                ):
                    best_subset = cached_key
        if best_subset is None:
            ordered = sorted(key)
            partition = self.get(ordered[:1])
            remaining = ordered[1:]
        else:
            partition = self._cache[best_subset]
            remaining = sorted(key - best_subset)
        for index in remaining:
            partition = self._backend.partition_refine(
                partition, self._native_ranks(index)
            )
        return partition

    def _native_ranks(self, index: int):
        getter = getattr(self._encoded, "native_ranks_by_index", None)
        if getter is not None:
            return getter(index)
        return self._backend.to_native(self._encoded.ranks_by_index(index))

    def evict_level(self, level: int) -> None:
        """Drop cached partitions of attribute sets smaller than ``level``.

        Sets of size ``level`` and larger stay.  The engine calls
        ``evict_level(L - 2)`` after level ``L``: level ``L + 1``'s contexts
        (sizes ``L`` and ``L - 1``) are then each one refinement away from a
        retained subset (sizes ``L - 1`` and ``L - 2``), so the two most
        recent levels of contexts are kept.  Evicting older entries bounds
        memory on wide schemas, matching the original implementations.
        """
        for key in [k for k in self._cache if 0 < len(k) < level]:
            del self._cache[key]

    # -- incremental maintenance -------------------------------------------------

    def apply_delta(self, encoded_relation, old_num_rows: int) -> "DeltaPatches":
        """Rebind to an extended encoding and patch every cached partition.

        ``encoded_relation`` is the delta-encoded relation produced by
        :meth:`~repro.dataset.encoding.EncodedRelation.extend` (same schema,
        ``num_rows >= old_num_rows``).  Every cached partition is brought up
        to the new row count by a per-context merge: contexts are processed
        smallest-first, and a context ``X`` reuses the already-patched
        partition of a cached proper subset ``B`` — only ``B``-classes that
        contain an appended row can gain or change ``X``-classes (appending
        rows never splits an equivalence class), so only those classes are
        re-split on ``X \\ B``.  No full rebuild, and the stripped-away old
        singletons never need scanning: any old singleton that an appended
        row joins is already inside one of the touched ``B``-classes.

        The whole merge happens on the flat CSR arrays: touched classes are
        gathered into a sub-partition, re-split through the backend's
        ``partition_refine`` (the same vectorised path a cold build uses),
        and stitched back between the untouched classes with one
        first-row-ordered merge — no per-class Python lists.

        The returned :class:`DeltaPatches` says per key what changed:
        ``affected`` holds the keys whose *stripped classes* changed (their
        validation outcomes may differ), with ``class_patches`` recording
        exactly which classes disappeared and which replaced them — every
        kernel is class-additive, so memoised counts for affected contexts
        can be *adjusted* by re-running kernels on just those classes (see
        :mod:`repro.incremental.repair`).  ``dropped`` holds keys that had
        to be evicted because no cached subset was left to patch from
        (their effect on validations is unknown, so callers must treat them
        as affected without a patch).  Keys in neither set kept identical
        class lists, so memoised removal counts for them remain exact; the
        re-encoded rank columns only ever differ from the old ones by an
        order-preserving bijection, which no kernel can observe.
        """
        new_num_rows = encoded_relation.num_rows
        if new_num_rows < old_num_rows:
            raise ValueError(
                f"apply_delta only supports appends: {old_num_rows} rows "
                f"cannot shrink to {new_num_rows}"
            )
        self._encoded = encoded_relation
        patches = DeltaPatches()
        if new_num_rows == old_num_rows:
            return patches
        by_size: Dict[int, List[FrozenSet[int]]] = {}
        for key in self._cache:
            by_size.setdefault(len(key), []).append(key)
        for key in sorted(self._cache, key=len):
            old_partition = self._cache[key]
            if len(key) <= 1:
                if not key:
                    patched = self._backend.partition_unit(new_num_rows)
                else:
                    (index,) = key
                    patched = self._backend.partition_single(
                        self._native_ranks(index), new_num_rows
                    )
                removed, added = _diff_partitions(old_partition, patched)
            else:
                base_key = self._best_patch_base(key, by_size, patches.dropped)
                if base_key is None:
                    del self._cache[key]
                    patches.dropped.add(key)
                    continue
                patched, removed, added = self._patch_from_base(
                    key, base_key, old_partition, old_num_rows, new_num_rows
                )
            self._cache[key] = patched
            if removed or added:
                patches.affected.add(key)
                patches.class_patches[key] = (removed, added)
        return patches

    def _best_patch_base(
        self,
        key: FrozenSet[int],
        by_size: Dict[int, List[FrozenSet[int]]],
        dropped: Set[FrozenSet[int]],
    ) -> Optional[FrozenSet[int]]:
        """Largest cached, already-patched proper subset of ``key``.

        ``by_size`` indexes the cached keys by length, so the search walks
        the largest candidate subsets first and stops at the first hit
        instead of scanning the whole cache per key (smaller-first
        processing guarantees every smaller key is already patched).
        """
        for size in range(len(key) - 1, -1, -1):
            for cached_key in by_size.get(size, ()):
                if cached_key not in dropped and cached_key < key:
                    return cached_key
        return None

    def _patch_from_base(
        self,
        key: FrozenSet[int],
        base_key: FrozenSet[int],
        old_partition: Partition,
        old_num_rows: int,
        new_num_rows: int,
    ) -> Tuple[Partition, List[List[int]], List[List[int]]]:
        """Merge appended rows into ``Pi_key`` using the patched base,
        returning ``(patched, removed_classes, added_classes)``.

        ``Pi_key`` refines ``Pi_base``: every (non-singleton) ``key``-class
        lies inside a ``base``-class.  A ``key``-class can only gain rows or
        newly form inside a ``base``-class that contains an appended row, so
        the *touched* base classes are gathered into a sub-partition and
        re-split on the remaining attributes through the backend's refine
        kernel, while every other old class is carried over unchanged.
        """
        base = self._cache[base_key]
        touched, member = _touched_base_classes(
            base, old_num_rows, new_num_rows
        )
        rebuilt = touched
        for index in sorted(key - base_key):
            rebuilt = self._backend.partition_refine(
                rebuilt, self._native_ranks(index)
            )
        carried, replaced = _split_by_touched(
            old_partition, member, new_num_rows
        )
        removed, added = _diff_partitions(replaced, rebuilt)
        return _merge_disjoint(carried, rebuilt, new_num_rows), removed, added
