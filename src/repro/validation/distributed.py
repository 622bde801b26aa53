"""Distributed AOC validation (the paper's future work, §5).

The conclusions propose extending approximate OC discovery "to distributed
settings, similar to [Saxena, Golab, Ilyas, PVLDB 2019]".  The key
observation that makes this easy for canonical OCs is that equivalence
classes of the context are completely independent: each worker can validate
its share of the classes locally and ship only a removal *count* (or the
removal rows, for repair) to the coordinator, which adds them up and applies
the global threshold.

Two execution modes are provided for the single-candidate entry point:

* ``"simulated"`` — workers run in-process.  This exercises and tests the
  partitioning / merging logic (which classes go where, how counts combine)
  without any transport, and is deterministic and dependency-free.
* ``"process"`` — workers are real OS processes behind a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Each worker runs the
  configured compute backend's per-class kernels on its shard; the
  coordinator merges the reports exactly as in the simulated mode, so both
  modes (and every worker count) produce identical results.

The worker-resident column plane
--------------------------------

:class:`ShardedValidationPool` is the engine-facing variant: persistent
worker processes, each running a small message loop, validate whole context
groups (one shared context, many candidate rank pairs).  Groups below a
cost floor run in-process; larger ones split into contiguous,
cost-balanced class shards (``_plan_shards``) dispatched to the
least-loaded workers.  The coordinator merges per-shard removal counts by
summation, which is order-independent, so results are identical for every
worker count and scheduling mode.

What makes the pool pay off below ~100k rows is that rank columns are
*worker-resident*: each worker process keeps a cache of rank columns keyed
by ``(plane, version, attribute)``, so a column crosses the process
boundary **at most once per worker per dataset version** — group dispatches
after the first send only compact column *references* plus the shard's
class offsets (:class:`ClassShard`).  A :class:`ColumnPlane` is the
coordinator-side handle for one dataset's columns: it tracks the current
:class:`~repro.dataset.encoding.EncodedRelation` and version, and its
:meth:`ColumnPlane.apply_delta` integrates with incremental maintenance —
after :meth:`repro.discovery.session.Profiler.extend` the workers receive
only the appended-row deltas (mirroring ``EncodedRelation.extend``'s
``"appended"`` fast path), never a full re-broadcast; remapped columns are
dropped and re-shipped lazily on next use.

Dispatch is asynchronous: :meth:`ColumnPlane.submit` enqueues a group's
shard jobs and returns a :class:`PendingGroup` immediately;
:meth:`ColumnPlane.harvest` blocks until the group's shards are merged.
The discovery engine uses this seam to overlap coordinator-side work
(OFD validation, partition building, memo bookkeeping) with in-flight
worker validation — see ``repro.discovery.engine``.

The pool is a context manager and :meth:`ShardedValidationPool.close` is
idempotent.  Its owner is whoever constructed it: a
:class:`~repro.discovery.session.Profiler` session keeps one pool warm
across runs and closes it in ``Profiler.close()``; a standalone engine
spawns its own and shuts it down in the ``finally`` of its event stream, so
worker processes never outlive the run that needed them — including runs
that raise, get cancelled, or hit their time limit.

Self-healing
------------

A worker process is expendable: the byte-identity invariant guarantees any
shard can be recomputed anywhere, so the pool recovers from worker deaths
without changing results.  The coordinator *supervises* its workers — a
liveness check while waiting for results plus an exitcode sweep on every
dispatch — and when one dies (OOM kill, segfault, or a per-job timeout
treated as death) it

1. invalidates the dead worker's resident-column bookkeeping (the cache
   died with the process; a replacement refills lazily via the ordinary
   ship-on-miss path),
2. respawns a replacement into the same slot, and
3. *requeues* the dead worker's in-flight shards onto surviving workers
   under fresh job ids — ids are never reused, so a late result from a
   presumed-dead worker is dropped through the ``_discarded`` set exactly
   like an abandoned job's.

A shard that kills workers twice is *quarantined*: the coordinator
validates it in-process (the ``num_workers=1`` path), so a poison shard
degrades to serial execution instead of crash-looping the pool.  If
respawning fails repeatedly (the host refuses new processes), the pool
flips to in-process execution for the rest of its life (``degraded``).
Every recovery action is counted in ``stats`` (``worker_deaths``,
``respawns``, ``requeued_shards``, ``inline_fallbacks``,
``quarantined_shards``, ``worker_timeouts``) and surfaced per-run on
:class:`~repro.discovery.stats.DiscoveryStatistics` and on ``repro
serve``'s ``/healthz``.

:class:`FaultPlan` is the test-only fault-injection hook powering the
differential suite in ``tests/validation/test_fault_tolerance.py``: it can
kill a worker before or after its *k*-th job, drop a result message (the
worker stays alive and the job recovers through the timeout path), delay a
respawn, or refuse respawns outright.
"""

from __future__ import annotations

import os
import queue as queue_module
import time as time_module
import traceback
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.backend import BackendSpec, resolve_backend
from repro.dataset.encoding import EXTEND_APPENDED
from repro.dataset.partition import PartitionCache
from repro.dataset.relation import Relation
from repro.dependencies.oc import CanonicalOC
from repro.obs import get_logger, get_metrics, get_tracer
from repro.validation.common import context_classes, removal_limit, validation_backend
from repro.validation.result import ValidationResult

_log = get_logger("validation.pool")

#: Execution modes accepted by :func:`validate_aoc_distributed`.
EXECUTION_MODES = ("simulated", "process")

#: Exit code used by injected worker faults (recognisable in test output).
_FAULT_EXIT_CODE = 86

#: Worker tracebacks are truncated to this many characters before crossing
#: the result queue: a pathological repr (huge arrays in locals) must not
#: turn an error report into a multi-megabyte pickle.
MAX_TRACEBACK_CHARS = 8192

#: Default cost floor (in ``m log m`` units, see :func:`_class_cost`) below
#: which a whole context group is validated in-process at submission instead
#: of crossing the process boundary.  Overridable per pool (constructor),
#: per pool instance (attribute), or per submit (execution planner).
DEFAULT_INLINE_GROUP_COST = 32_768

#: Default minimum shard cost: a group splits into at most ``num_workers``
#: shards of no less than this.  Same three override channels as
#: :data:`DEFAULT_INLINE_GROUP_COST`.
DEFAULT_MIN_SHARD_COST = 65_536

#: Seconds a blocked harvest waits on the result queue between liveness
#: sweeps — the upper bound on how long a worker death can go unnoticed
#: while a coordinator thread is parked waiting for results.
LIVENESS_SWEEP_INTERVAL_SECONDS = 0.1

#: Pool recovery counters mirrored per-run onto
#: :class:`~repro.discovery.stats.DiscoveryStatistics` and aggregated on
#: ``/healthz``.
RESILIENCE_COUNTERS = (
    "worker_deaths",
    "respawns",
    "requeued_shards",
    "inline_fallbacks",
    "quarantined_shards",
    "worker_timeouts",
)


@dataclass
class WorkerFault:
    """Faults injected into one spawned worker process (test-only).

    Ordinals count the ``job`` messages the worker has processed, 0-based.
    ``exit_before_job`` hard-exits the process when that job arrives (the
    job is consumed and lost — the supervision path must requeue it);
    ``exit_after_job`` exits after the job's result has been flushed to the
    coordinator (death with no lost work — the dispatch sweep path);
    ``drop_result_for_job`` computes the job but never sends its result
    while the worker stays alive (a lost message — only the per-job
    timeout can recover it).
    """

    exit_before_job: Optional[int] = None
    exit_after_job: Optional[int] = None
    drop_result_for_job: Optional[int] = None


@dataclass
class FaultPlan:
    """Test-only fault injection for :class:`ShardedValidationPool`.

    ``worker_faults`` is keyed by *spawn sequence*: the initial workers are
    0..num_workers-1 and every respawn takes the next number, so a plan can
    deterministically target "the replacement of the first casualty"
    (needed to drive a shard into quarantine).  ``fail_respawns`` makes the
    first N respawn attempts raise (the degradation ladder);
    ``respawn_delay_seconds`` sleeps before each respawn.  ``on_event`` is
    an optional observer callback ``(event, detail)`` for tests that need
    to see supervision decisions as they happen.
    """

    worker_faults: Dict[int, WorkerFault] = field(default_factory=dict)
    respawn_delay_seconds: float = 0.0
    fail_respawns: int = 0
    on_event: Optional[Callable[[str, object], None]] = None

    def fault_for(self, seq: int) -> Optional[WorkerFault]:
        return self.worker_faults.get(seq)

    def notify(self, event: str, detail: object = None) -> None:
        if self.on_event is not None:
            self.on_event(event, detail)

    def on_respawn(self, slot: int) -> None:
        """Coordinator-side hook run before every respawn attempt."""
        if self.respawn_delay_seconds:
            time_module.sleep(self.respawn_delay_seconds)
        if self.fail_respawns > 0:
            self.fail_respawns -= 1
            raise RuntimeError(
                f"fault injection: respawn of worker slot {slot} refused"
            )


class WorkerJobError(RuntimeError):
    """A validation job failed inside a worker (or its inline fallback).

    Carries the structured error report the worker shipped across the
    result queue — plane id, dataset version, shard size, candidate pair
    names, and the (truncated) worker-side traceback — so callers can log
    and route the failure without parsing a string.
    """

    def __init__(self, report: Dict[str, object]) -> None:
        self.plane_id = report.get("plane_id")
        self.dataset_version = report.get("dataset_version")
        self.num_classes = report.get("num_classes")
        self.num_rows = report.get("num_rows")
        self.pair_names = report.get("pair_names")
        self.worker_traceback = report.get("traceback", "")
        super().__init__(
            "validation worker failed "
            f"(plane={self.plane_id}, dataset_version={self.dataset_version}, "
            f"shard={self.num_classes} classes / {self.num_rows} rows, "
            f"pairs={self.pair_names}):\n{self.worker_traceback}"
        )


def _error_report(plane_id, version, shard, pair_names) -> Dict[str, object]:
    """The structured payload of an ``("error", job_id, report)`` message."""
    formatted = traceback.format_exc()
    if len(formatted) > MAX_TRACEBACK_CHARS:
        formatted = (
            f"... ({len(formatted) - MAX_TRACEBACK_CHARS} chars truncated)\n"
            + formatted[-MAX_TRACEBACK_CHARS:]
        )
    try:
        num_classes = len(shard)
        num_rows = getattr(shard, "num_rows", None)
        if num_rows is None:
            num_rows = sum(len(rows) for rows in shard)
    except Exception:  # pragma: no cover - shard itself unusable
        num_classes = num_rows = -1
    return {
        "traceback": formatted,
        "plane_id": plane_id,
        "dataset_version": version,
        "num_classes": num_classes,
        "num_rows": num_rows,
        "pair_names": [tuple(pair) for pair in pair_names],
    }


@dataclass
class WorkerReport:
    """What one worker sends back to the coordinator."""

    worker_id: int
    num_classes: int
    num_rows: int
    removal_rows: List[int] = field(default_factory=list)

    @property
    def removal_count(self) -> int:
        return len(self.removal_rows)


@dataclass
class DistributedValidationOutcome:
    """Coordinator-side result of a distributed validation."""

    result: ValidationResult
    worker_reports: List[WorkerReport]

    @property
    def num_workers(self) -> int:
        return len(self.worker_reports)

    @property
    def max_worker_share(self) -> float:
        """Largest fraction of grouped rows assigned to a single worker —
        the load-balance metric a real deployment would monitor."""
        total = sum(report.num_rows for report in self.worker_reports)
        if total == 0:
            return 0.0
        return max(report.num_rows for report in self.worker_reports) / total


def _class_cost(class_rows: Sequence[int]) -> float:
    """Validation cost estimate of one class in ``m log m`` units."""
    size = len(class_rows)
    return size * (1 + max(size, 2).bit_length())


def assign_classes_to_workers(
    classes: Sequence[Sequence[int]], num_workers: int
) -> List[List[Sequence[int]]]:
    """Greedy longest-processing-time assignment of classes to workers.

    Classes are handed out largest-first to the currently least-loaded
    worker, the standard makespan heuristic; load is measured in
    ``m log m`` validation cost units.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be at least 1")
    assignments: List[List[Sequence[int]]] = [[] for _ in range(num_workers)]
    loads = [0.0] * num_workers
    ordered = sorted(classes, key=len, reverse=True)
    for class_rows in ordered:
        target = loads.index(min(loads))
        assignments[target].append(class_rows)
        loads[target] += _class_cost(class_rows)
    return assignments


# -- worker entry points (module-level so they pickle for process pools) --------


def _worker_removal_rows(backend, assigned, a_ranks, b_ranks) -> List[int]:
    """One worker's share of Algorithm 2: removal rows of its classes."""
    removal, _ = backend.oc_optimal_removal_rows(assigned, a_ranks, b_ranks, None)
    return removal


class ClassShard:
    """Compact, picklable transport of one worker's share of classes.

    The coordinator packs a shard's equivalence classes either as plain row
    lists (reference backend) or as two flat arrays — concatenated rows plus
    per-class lengths (*class offsets*) — whose binary pickle is a fraction
    of a list-of-lists'.  On the worker the shard quacks like a class
    sequence for the row-at-a-time kernels (``len`` / iteration) and exposes
    :meth:`columnar_view` for the vectorised NumPy kernels, which consume
    the flat arrays directly without ever materialising per-class lists.
    """

    __slots__ = ("_class_lists", "_rows", "_lengths", "_view")

    def __init__(self, class_lists=None, rows=None, lengths=None) -> None:
        self._class_lists = class_lists
        self._rows = rows
        self._lengths = lengths
        self._view = None

    @classmethod
    def pack(cls, class_lists: Sequence[Sequence[int]], as_arrays: bool) -> "ClassShard":
        """Pack classes for transport (``as_arrays`` for array backends)."""
        if not as_arrays:
            return cls(class_lists=[list(rows) for rows in class_lists])
        import numpy as np

        lengths = np.fromiter(
            (len(rows) for rows in class_lists), dtype=np.int64,
            count=len(class_lists),
        )
        total = int(lengths.sum())
        rows = np.fromiter(
            chain.from_iterable(class_lists), dtype=np.int32, count=total
        )
        return cls(rows=rows, lengths=lengths)

    def __len__(self) -> int:
        if self._class_lists is not None:
            return len(self._class_lists)
        return int(self._lengths.size)

    def __iter__(self):
        if self._class_lists is None:
            import numpy as np

            offsets = np.concatenate(([0], np.cumsum(self._lengths)))
            self._class_lists = [
                self._rows[offsets[i]:offsets[i + 1]].tolist()
                for i in range(self._lengths.size)
            ]
        return iter(self._class_lists)

    def columnar_view(self):
        """``(rows, class_ids, lengths)`` int64 arrays (the NumPy backend's
        flattened class layout — see ``NumpyBackend._columnar_classes``)."""
        if self._view is None:
            import numpy as np

            if self._rows is not None:
                rows = self._rows.astype(np.int64)
                lengths = self._lengths
            else:
                lengths = np.fromiter(
                    (len(rows) for rows in self._class_lists), dtype=np.int64,
                    count=len(self._class_lists),
                )
                rows = np.fromiter(
                    chain.from_iterable(self._class_lists), dtype=np.int64,
                    count=int(lengths.sum()),
                )
            class_ids = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
            self._view = (rows, class_ids, lengths)
        return self._view

    def __getstate__(self):
        return (self._class_lists, self._rows, self._lengths)

    def __setstate__(self, state) -> None:
        self._class_lists, self._rows, self._lengths = state
        self._view = None


def _extend_resident_column(column, appended_ranks):
    """Append delta ranks to a worker-resident column (list or ndarray)."""
    if isinstance(column, list):
        return column + list(appended_ranks)
    import numpy as np

    return np.concatenate(
        [column, np.asarray(appended_ranks, dtype=column.dtype)]
    )


def _materialize_column(column):
    """Decode a shipped column to its dense kernel form on the worker.

    Run-length transport (:class:`~repro.dataset.encoding.RunLengthColumn`)
    exists only on the wire: workers expand it on receipt, so the resident
    cache, the delta-append path and every kernel see dense columns only.
    """
    decode = getattr(column, "decode", None)
    if decode is not None and hasattr(column, "starts"):
        return decode()
    return column


class TracedOutcome:
    """A shard outcome with the worker's piggybacked timing spans.

    When a job message carries ``timing=True`` the worker wraps its result
    payload in one of these: ``outcome`` is the untouched kernel result
    (so merged counts — and therefore discovery results — are byte-identical
    with timing on or off), ``spans`` the plain span dicts
    (``{"name", "start", "end", "pid", ...}``) the coordinator re-parents
    under the dispatching span at harvest (see
    :meth:`repro.obs.trace.Tracer.attach_worker_spans`).
    """

    __slots__ = ("outcome", "spans")

    def __init__(self, outcome, spans) -> None:
        self.outcome = outcome
        self.spans = spans

    def __getstate__(self):
        return (self.outcome, self.spans)

    def __setstate__(self, state):
        self.outcome, self.spans = state


def _plane_worker_main(task_queue, result_queue, backend, fault=None) -> None:
    """Message loop of one persistent pool worker process.

    The worker keeps its column cache across jobs: ``columns`` maps
    ``(plane_id, attribute)`` to ``(version, column)``.  Job messages carry
    only the columns this worker does not already hold at the job's version;
    delta messages extend cached columns in place (the appended-rows fast
    path) or drop them (remapped / stale versions, re-shipped on next use).

    ``fault`` is a test-only :class:`WorkerFault` driving the
    fault-injection harness; production workers run with ``fault=None`` and
    pay only a ``None``-check per job.
    """
    columns: Dict[Tuple[int, str], Tuple[int, object]] = {}
    ordinal = 0
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            break
        if kind == "job":
            (_, job_id, plane_id, version, shard, pair_names, limit, shipped,
             timing) = message
            drop_result = exit_after = False
            if fault is not None:
                if fault.exit_before_job == ordinal:
                    # Flush the previous job's result first: exiting with it
                    # still in the feeder thread can lose or truncate it.
                    result_queue.close()
                    result_queue.join_thread()
                    os._exit(_FAULT_EXIT_CODE)
                drop_result = fault.drop_result_for_job == ordinal
                exit_after = fault.exit_after_job == ordinal
            ordinal += 1
            try:
                if plane_id is None:
                    resolved = {
                        name: _materialize_column(column)
                        for name, column in shipped.items()
                    }
                else:
                    for name, column in shipped.items():
                        columns[(plane_id, name)] = (
                            version, _materialize_column(column)
                        )
                    resolved = {}
                    for name in set(chain.from_iterable(pair_names)):
                        entry = columns.get((plane_id, name))
                        if entry is None or entry[0] != version:
                            raise RuntimeError(
                                f"worker is missing column {name!r} at "
                                f"dataset version {version} (coordinator "
                                "bookkeeping out of sync)"
                            )
                        resolved[name] = entry[1]
                pairs = [(resolved[a], resolved[b]) for a, b in pair_names]
                kernel_started = time_module.time() if timing else 0.0
                outcome = backend.oc_optimal_removal_count_batch(
                    shard, pairs, limit
                )
                if timing:
                    outcome = TracedOutcome(outcome, [{
                        "name": "shard-kernel",
                        "start": kernel_started,
                        "end": time_module.time(),
                        "pid": os.getpid(),
                        "num_pairs": len(pair_names),
                    }])
                if not drop_result:
                    result_queue.put(("result", job_id, outcome))
            except BaseException:
                result_queue.put((
                    "error", job_id,
                    _error_report(plane_id, version, shard, pair_names),
                ))
            if exit_after:
                # Flush the feeder thread so the result actually crosses
                # before the process vanishes (the "died after finishing"
                # scenario: the coordinator must consume the result, or
                # discard-and-recompute it, without hanging either way).
                result_queue.close()
                result_queue.join_thread()
                os._exit(_FAULT_EXIT_CODE)
        elif kind == "delta":
            _, plane_id, old_version, new_version, appended, _dropped = message
            for key in [k for k in columns if k[0] == plane_id]:
                version, column = columns[key]
                name = key[1]
                if version == old_version and name in appended:
                    columns[key] = (
                        new_version,
                        _extend_resident_column(column, appended[name]),
                    )
                else:
                    del columns[key]
        elif kind == "release":
            plane_id = message[1]
            for key in [k for k in columns if k[0] == plane_id]:
                del columns[key]


class _WorkerHandle:
    """Coordinator-side handle for one persistent worker process."""

    __slots__ = ("process", "queue", "columns", "load", "slot", "seq", "dead")

    def __init__(self, ctx, backend, result_queue, slot=0, seq=0, fault=None) -> None:
        self.queue = ctx.Queue()
        self.process = ctx.Process(
            target=_plane_worker_main,
            args=(self.queue, result_queue, backend, fault),
            daemon=True,
        )
        self.process.start()
        #: ``(plane_id, attribute) -> version`` the worker holds resident.
        self.columns: Dict[Tuple[int, str], int] = {}
        #: Estimated cost of the worker's in-flight shards (load balancing).
        self.load = 0.0
        #: Position in the pool's worker list a replacement respawns into.
        self.slot = slot
        #: Spawn sequence number (never reused; fault plans key on it).
        self.seq = seq
        #: Set by the supervisor once the death has been processed, so a
        #: handle is reaped exactly once.
        self.dead = False


class _JobRecord:
    """Coordinator-side state of one dispatched shard job.

    Everything needed to *re*-dispatch (or inline-run) the shard after a
    worker death travels with the record: the packed shard, the candidate
    pair names and limit, and either the plane (columns re-resolved through
    the ordinary ship-on-miss path) or the ad-hoc column dict.  ``job_id``
    changes on every (re)dispatch — ids are never reused, so a late result
    from a presumed-dead worker can always be told apart and discarded.
    """

    __slots__ = (
        "job_id", "worker", "cost", "shard", "pair_names", "limit",
        "plane", "version", "needed_names", "columns", "deaths",
        "dispatched_at", "dispatched_wall", "trace_parent", "timeout",
    )

    def __init__(self, shard, cost, pair_names, limit, plane, version,
                 needed_names, columns, timeout) -> None:
        self.job_id = -1
        self.worker: Optional[_WorkerHandle] = None
        self.cost = cost
        self.shard = shard
        self.pair_names = pair_names
        self.limit = limit
        self.plane = plane
        self.version = version
        self.needed_names = needed_names
        self.columns = columns
        self.deaths = 0
        self.dispatched_at = 0.0
        #: Wall-clock twin of ``dispatched_at`` (monotonic drives timeouts;
        #: the wall clock lines dispatch spans up with worker-side spans).
        self.dispatched_wall = 0.0
        #: Span id active at submission — the parent for this shard's
        #: dispatch span (survives requeues; the *last* dispatch is traced).
        self.trace_parent: Optional[int] = None
        self.timeout = timeout


@dataclass
class PendingGroup:
    """One in-flight context group: harvest (or abandon) to settle it.

    ``jobs`` holds one :class:`_JobRecord` per dispatched shard; merging is
    summation per pair, so harvest order never affects results.  A group
    too small to be worth a process round-trip is validated in-process at
    submission and carries its finished ``inline`` result instead.
    """

    num_pairs: int
    limit: Optional[int]
    jobs: List[_JobRecord] = field(default_factory=list)
    inline: Optional[List[Tuple[int, bool]]] = None


class ColumnPlane:
    """Coordinator-side handle for one dataset's worker-resident columns.

    A plane names a namespace inside a pool's worker caches: columns are
    keyed by ``(plane_id, attribute)`` and stamped with the plane's current
    ``version``.  :meth:`bind` points the plane at an encoding (a no-op when
    unchanged); :meth:`apply_delta` bumps the version after a row append,
    shipping only the appended ranks; :meth:`release` frees the resident
    columns when the dataset's session closes while the (shared) pool lives
    on.
    """

    def __init__(self, pool: "ShardedValidationPool", encoded=None) -> None:
        self._pool = pool
        self.plane_id = pool._register_plane()
        self.version = 0
        self._encoded = encoded
        self._released = False

    @property
    def pool(self) -> "ShardedValidationPool":
        return self._pool

    @property
    def num_rows(self) -> int:
        return 0 if self._encoded is None else self._encoded.num_rows

    def bind(self, encoded) -> None:
        """Point the plane at ``encoded``.

        Binding the encoding object the plane already tracks is free; a
        *different* object means the resident columns describe some other
        table state, so they are invalidated wholesale (the per-row delta
        path is :meth:`apply_delta`).
        """
        if self._encoded is encoded:
            return
        if self._encoded is not None:
            self._pool.invalidate_plane(self.plane_id)
            self.version += 1
        self._encoded = encoded

    def column(self, name: str):
        """The current native rank column for ``name``."""
        if self._encoded is None:
            raise RuntimeError("ColumnPlane is not bound to an encoding")
        return self._encoded.native_ranks(name)

    def transport_column(self, name: str):
        """The column in its cheapest transport form for worker shipping.

        Low-cardinality clustered columns come back run-length encoded
        (fewer bytes on the wire); workers materialise the dense form on
        receipt.  Encodings without transport support fall back to the
        dense native column.
        """
        if self._encoded is None:
            raise RuntimeError("ColumnPlane is not bound to an encoding")
        getter = getattr(self._encoded, "transport_ranks", None)
        if getter is None:
            return self._encoded.native_ranks(name)
        return getter(name)

    def apply_delta(self, extended, modes: Dict[str, str], old_num_rows: int) -> None:
        """Advance the plane to a delta-extended encoding.

        ``extended`` / ``modes`` are :meth:`EncodedRelation.extend`'s
        outputs.  Columns the extend *appended* to ship only their appended
        ranks — each worker patches its resident copy in place; *remapped*
        columns (and columns a worker holds at the wrong version) are
        dropped and re-shipped in full on next use.
        """
        appended = {
            name: extended.ranks(name)[old_num_rows:]
            for name, mode in modes.items()
            if mode == EXTEND_APPENDED
        }
        dropped = sorted(
            name for name, mode in modes.items() if mode != EXTEND_APPENDED
        )
        old_version = self.version
        self.version += 1
        self._pool.apply_plane_delta(
            self.plane_id, old_version, self.version, appended, dropped
        )
        self._encoded = extended

    def submit(
        self, classes, pair_names, limit: Optional[int] = None,
        timeout: Optional[float] = None,
        min_shard_cost: Optional[float] = None,
        inline_group_cost: Optional[float] = None,
    ) -> PendingGroup:
        """Dispatch one context group asynchronously (see pool docs)."""
        return self._pool.submit_oc_group(self, classes, pair_names, limit,
                                          timeout=timeout,
                                          min_shard_cost=min_shard_cost,
                                          inline_group_cost=inline_group_cost)

    def harvest(self, pending: PendingGroup) -> List[Tuple[int, bool]]:
        """Block until ``pending``'s shards merged; returns per-pair counts."""
        return self._pool.harvest(pending)

    def abandon(self, pending: PendingGroup) -> None:
        """Drop an in-flight group's results (interrupted runs)."""
        self._pool.abandon(pending)

    def oc_counts_batch(
        self, classes, pair_names, limit: Optional[int] = None,
        timeout: Optional[float] = None,
        min_shard_cost: Optional[float] = None,
        inline_group_cost: Optional[float] = None,
    ) -> List[Tuple[int, bool]]:
        """Synchronous submit + harvest convenience."""
        return self.harvest(self.submit(
            classes, pair_names, limit, timeout,
            min_shard_cost=min_shard_cost,
            inline_group_cost=inline_group_cost,
        ))

    def release(self) -> None:
        """Free this plane's worker-resident columns (idempotent)."""
        if self._released:
            return
        self._released = True
        if not self._pool.closed:
            self._pool.invalidate_plane(self.plane_id)


class ShardedValidationPool:
    """Persistent worker processes sharding batched OC validation by class.

    The discovery engine (or a :class:`~repro.discovery.session.Profiler`
    session, or ``repro serve`` across *all* its datasets) feeds the pool
    whole context groups.  A group below :data:`INLINE_GROUP_COST` is
    validated in-process; a larger one is split by :meth:`_plan_shards`
    into at most ``num_workers`` contiguous, cost-balanced class shards (no
    shard below :data:`MIN_SHARD_COST`) dispatched to the currently
    least-loaded workers — :func:`assign_classes_to_workers`'s LPT
    assignment serves only the single-candidate
    :func:`validate_aoc_distributed` path.  Every shard runs the backend's
    :meth:`~repro.backend.base.ComputeBackend.oc_optimal_removal_count_batch`
    and the coordinator sums the per-shard counts.  Summation is
    order-independent, so results are identical for every worker count and
    shard composition.

    A shard that exceeds ``limit`` on its own proves the candidate invalid,
    so ``limit`` is forwarded to the workers as a per-shard early-exit
    budget; the merged count for such a candidate is then a partial value
    above ``limit`` (permitted by the batch-kernel contract in
    ``repro.backend.base``).

    Rank columns travel through :class:`ColumnPlane` namespaces and stay
    resident in the worker processes (see the module docstring); the
    ``stats`` dict counts ``columns_shipped`` vs ``column_refs`` so callers
    can observe the ship-once behaviour.  :meth:`oc_counts_batch` remains as
    the plane-less path for ad-hoc column pairs: columns ship with every
    dispatch, exactly like the pre-plane pool.

    Dispatch and bookkeeping are guarded by one coordinator-side lock, so
    multiple threads may drive the pool concurrently (``repro serve``
    shares one pool across its per-dataset handler threads); blocking
    result waits happen *outside* the lock, so one dataset's harvest never
    stalls another's dispatch.
    """

    #: A shard whose worker died this many times is quarantined: validated
    #: on the coordinator instead of being re-dispatched a third time.
    QUARANTINE_AFTER_DEATHS = 2
    #: Respawn attempts per dead worker before the pool gives up on
    #: processes entirely and degrades to in-process execution.
    MAX_RESPAWN_ATTEMPTS = 3
    #: Liveness sweep interval used by blocked harvests; class-level default
    #: is :data:`LIVENESS_SWEEP_INTERVAL_SECONDS`.
    SWEEP_INTERVAL_SECONDS = LIVENESS_SWEEP_INTERVAL_SECONDS

    def __init__(
        self,
        num_workers: int,
        backend: BackendSpec = None,
        worker_timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        inline_group_cost: Optional[float] = None,
        min_shard_cost: Optional[float] = None,
        sweep_interval: Optional[float] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        import multiprocessing
        import threading

        ctx = multiprocessing.get_context()
        self._ctx = ctx
        self.num_workers = num_workers
        self.backend = resolve_backend(backend)
        self._pack_arrays = self.backend.name == "numpy"
        #: Default per-job deadline in seconds (``None`` = wait forever); a
        #: job past it is treated as a worker death.  Overridable per
        #: dispatch, see :meth:`submit_oc_group`.
        self.worker_timeout = worker_timeout
        # Cost knobs: explicit constructor values become instance attributes
        # shadowing the class-level defaults, so both existing override
        # styles (class monkeypatch before lazy construction, instance
        # assignment after) keep working unchanged.
        if inline_group_cost is not None:
            self.INLINE_GROUP_COST = inline_group_cost
        if min_shard_cost is not None:
            self.MIN_SHARD_COST = min_shard_cost
        if sweep_interval is not None:
            self.SWEEP_INTERVAL_SECONDS = sweep_interval
        self._fault_plan = fault_plan
        self._next_worker_seq = 0
        self._result_queue = ctx.Queue()
        self._workers: Optional[List[_WorkerHandle]] = [
            self._spawn_handle(slot) for slot in range(num_workers)
        ]
        #: Buffered results for jobs harvested out of completion order.
        self._results: Dict[int, Tuple[str, object]] = {}
        #: Abandoned job ids whose results are dropped on arrival.
        self._discarded: set = set()
        #: ``job_id -> _JobRecord`` for every dispatched, unfinished job —
        #: the supervisor's view of what a dead worker owes.
        self._inflight: Dict[int, _JobRecord] = {}
        self._degraded = False
        #: Serialises dispatch bookkeeping (job ids, per-worker column
        #: sets, load accounting, queue puts) across coordinator threads.
        self._lock = threading.Lock()
        self._next_job_id = 0
        self._next_plane_id = 0
        self.stats: Dict[str, int] = {
            "groups": 0,
            "jobs": 0,
            "inline_groups": 0,
            "columns_shipped": 0,
            "columns_rle": 0,
            "column_refs": 0,
            "deltas": 0,
            "worker_deaths": 0,
            "respawns": 0,
            "requeued_shards": 0,
            "inline_fallbacks": 0,
            "quarantined_shards": 0,
            "worker_timeouts": 0,
        }

    def _spawn_handle(self, slot: int) -> _WorkerHandle:
        seq = self._next_worker_seq
        self._next_worker_seq += 1
        fault = self._fault_plan.fault_for(seq) if self._fault_plan else None
        return _WorkerHandle(
            self._ctx, self.backend, self._result_queue,
            slot=slot, seq=seq, fault=fault,
        )

    @property
    def closed(self) -> bool:
        """Whether the worker processes have been shut down."""
        return self._workers is None

    @property
    def degraded(self) -> bool:
        """Whether the pool has fallen back to in-process execution for
        the rest of its life (repeated respawn failure)."""
        return self._degraded

    def resilience_stats(self) -> Dict[str, object]:
        """Snapshot of the recovery counters plus the degraded flag —
        the block ``repro serve`` reports on ``/healthz``."""
        with self._lock:
            snapshot: Dict[str, object] = {
                key: self.stats.get(key, 0) for key in RESILIENCE_COUNTERS
            }
            snapshot["degraded"] = self._degraded
        return snapshot

    def _require_open(self) -> None:
        if self._workers is None:
            raise RuntimeError("ShardedValidationPool is closed")

    # -- column planes -----------------------------------------------------------

    def _register_plane(self) -> int:
        with self._lock:
            self._next_plane_id += 1
            return self._next_plane_id

    def new_plane(self, encoded=None) -> ColumnPlane:
        """Create a :class:`ColumnPlane` namespace over this pool."""
        self._require_open()
        return ColumnPlane(self, encoded)

    def apply_plane_delta(
        self, plane_id: int, old_version: int, new_version: int,
        appended: Dict[str, Sequence[int]], dropped: Sequence[str],
    ) -> None:
        """Ship a dataset delta to every worker (see
        :meth:`ColumnPlane.apply_delta`) and patch the coordinator's
        per-worker bookkeeping to match what each worker will hold."""
        self._require_open()
        appended = {name: list(values) for name, values in appended.items()}
        message = ("delta", plane_id, old_version, new_version, appended,
                   list(dropped))
        with self._lock:
            self.stats["deltas"] += 1
            for worker in self._workers:
                for key in [k for k in worker.columns if k[0] == plane_id]:
                    if worker.columns[key] == old_version and key[1] in appended:
                        worker.columns[key] = new_version
                    else:
                        del worker.columns[key]
                worker.queue.put(message)

    def invalidate_plane(self, plane_id: int) -> None:
        """Drop a plane's resident columns on every worker (idempotent)."""
        if self._workers is None:
            return
        with self._lock:
            for worker in self._workers:
                for key in [k for k in worker.columns if k[0] == plane_id]:
                    del worker.columns[key]
                worker.queue.put(("release", plane_id))

    # -- group dispatch ----------------------------------------------------------

    #: Context groups cheaper than this (in ``m log m`` cost units) are
    #: validated in-process at submission: the process round-trip would
    #: cost more than the kernel itself.
    INLINE_GROUP_COST = DEFAULT_INLINE_GROUP_COST
    #: Minimum shard cost: a group splits into at most ``num_workers``
    #: shards of no less than this, so modest groups stay one message and
    #: parallelism comes from having many groups in flight.
    MIN_SHARD_COST = DEFAULT_MIN_SHARD_COST

    def submit_oc_group(
        self, plane: ColumnPlane, classes, pair_names,
        limit: Optional[int] = None, timeout: Optional[float] = None,
        min_shard_cost: Optional[float] = None,
        inline_group_cost: Optional[float] = None,
    ) -> PendingGroup:
        """Dispatch one context group's shards without waiting.

        ``pair_names`` lists ``(a_attribute, b_attribute)`` per candidate;
        the columns themselves are resolved through ``plane`` and ship only
        to workers that do not already hold them at the plane's version.
        Returns immediately with a :class:`PendingGroup`;
        :meth:`harvest` joins it.  Groups below :data:`INLINE_GROUP_COST`
        are validated in-process instead and return already settled.

        ``timeout`` overrides the pool's ``worker_timeout`` for this
        group's jobs (seconds per job; ``None`` inherits the pool default);
        ``min_shard_cost`` / ``inline_group_cost`` override the pool's cost
        knobs for this group only (the execution planner's channel).
        """
        self._require_open()
        pending = PendingGroup(num_pairs=len(pair_names), limit=limit)
        if pending.num_pairs == 0:
            return pending
        inline_floor = inline_group_cost if inline_group_cost is not None \
            else self.INLINE_GROUP_COST
        shards, total_cost, needed_row = self._plan_shards(
            classes, min_shard_cost=min_shard_cost
        )
        needed_names = sorted(set(chain.from_iterable(pair_names)))
        for name in needed_names:
            # The guard runs on the transport form: a RunLengthColumn's
            # length is its *decoded* row count, so a run-encoded column
            # captured before an append is refused exactly like a short
            # dense one (and re-shipped from the refreshed encoding).
            self._assert_column_covers(
                plane.transport_column(name), needed_row, name
            )
        if not shards:
            return pending
        if self._degraded or total_cost < inline_floor:
            pairs = [
                (plane.column(a), plane.column(b)) for a, b in pair_names
            ]
            pending.inline = self.backend.oc_optimal_removal_count_batch(
                classes, pairs, limit
            )
            if self._degraded and total_cost >= inline_floor:
                with self._lock:
                    self.stats["inline_fallbacks"] += 1
            else:
                self.stats["inline_groups"] += 1
            return pending
        resolved_timeout = timeout if timeout is not None else self.worker_timeout
        records = [
            _JobRecord(
                shard, cost, list(pair_names), limit, plane, plane.version,
                needed_names, None, resolved_timeout,
            )
            for shard, cost in shards
        ]
        self._dispatch_records(pending, records)
        return pending

    def oc_counts_batch(
        self,
        classes: Sequence[Sequence[int]],
        rank_pairs: Sequence[Tuple[object, object]],
        limit: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> List[Tuple[int, bool]]:
        """Batched minimal-removal counts for ad-hoc rank columns.

        The plane-less path: columns are deduplicated within the call but
        ship with every dispatch (and every group is dispatched, however
        small).  Kept for callers outside a discovery session, and as the
        reference for the plane path's results."""
        self._require_open()
        num_pairs = len(rank_pairs)
        if num_pairs == 0:
            return []
        self._check_column_freshness(classes, rank_pairs)
        columns: Dict[str, object] = {}
        name_of: Dict[int, str] = {}
        pair_names: List[Tuple[str, str]] = []
        for a_ranks, b_ranks in rank_pairs:
            refs = []
            for ranks in (a_ranks, b_ranks):
                key = id(ranks)
                if key not in name_of:
                    name_of[key] = f"c{len(name_of)}"
                    columns[name_of[key]] = ranks
                refs.append(name_of[key])
            pair_names.append((refs[0], refs[1]))
        pending = PendingGroup(num_pairs=num_pairs, limit=limit)
        shards, _, _ = self._plan_shards(list(classes))
        resolved_timeout = timeout if timeout is not None else self.worker_timeout
        records = [
            _JobRecord(
                shard, cost, pair_names, limit, None, 0,
                sorted(columns), columns, resolved_timeout,
            )
            for shard, cost in shards
        ]
        self._dispatch_records(pending, records)
        return self.harvest(pending)

    def _plan_shards(self, classes, min_shard_cost: Optional[float] = None):
        """Pack ``classes`` into cost-balanced contiguous shards.

        Returns ``(shards, total_cost, needed_row)`` where ``shards`` is a
        list of ``(ClassShard, cost)`` pairs and ``needed_row`` the largest
        row id any class touches (``-1`` for empty groups).  Contiguous
        class ranges — rather than the LPT assignment the per-candidate
        validator uses — keep the packing a pair of array slices on the
        columnar fast path; summation merging makes the composition
        invisible in results.  ``min_shard_cost`` overrides the pool's
        shard-cost floor for this plan only; any composition yields the
        same merged counts.
        """
        shard_floor = min_shard_cost if min_shard_cost is not None \
            else self.MIN_SHARD_COST
        if self._pack_arrays:
            return self._plan_shards_arrays(classes, shard_floor)
        class_lists = classes.classes if hasattr(classes, "classes") \
            else list(classes)
        if not class_lists:
            return [], 0.0, -1
        needed_row = -1
        costs = []
        for rows in class_lists:
            costs.append(_class_cost(rows))
            if len(rows) and rows[-1] > needed_row:
                needed_row = rows[-1]
        total = float(sum(costs))
        target = max(total / self.num_workers, float(shard_floor))
        shards: List[Tuple[ClassShard, float]] = []
        chunk: List[Sequence[int]] = []
        acc = 0.0
        for rows, cost in zip(class_lists, costs):
            chunk.append(rows)
            acc += cost
            if acc >= target and len(shards) < self.num_workers - 1:
                shards.append((ClassShard.pack(chunk, False), acc))
                chunk, acc = [], 0.0
        if chunk:
            shards.append((ClassShard.pack(chunk, False), acc))
        return shards, total, needed_row

    def _plan_shards_arrays(self, classes, shard_floor: float):
        """Columnar shard planning: two array slices per shard.

        Reuses (and caches) the partition's flattened columnar view, so
        planning a group is a handful of vector operations instead of a
        Python pass over every class.
        """
        import numpy as np

        # The backend's columnar view: for a CSR Partition this is derived
        # straight from (and cached on) the flat offset arrays, for a
        # ClassShard its pre-flattened arrays — no per-class Python lists
        # on any of the engine-facing paths.
        rows, _, lengths = self.backend._columnar_classes(classes)
        if lengths.size == 0:
            return [], 0.0, -1
        needed_row = int(rows.max()) if rows.size else -1
        # Vectorised _class_cost: m * (1 + bit_length(max(m, 2))).
        costs = lengths * (np.floor(np.log2(np.maximum(lengths, 2))) + 2.0)
        cum = np.cumsum(costs)
        total = float(cum[-1])
        num_shards = min(
            self.num_workers,
            max(1, -(-int(total) // max(int(shard_floor), 1))),
        )
        if num_shards > 1:
            targets = total * np.arange(1, num_shards) / num_shards
            cuts = np.unique(np.searchsorted(cum, targets, side="left") + 1)
            edges = [0] + [c for c in cuts.tolist() if c < lengths.size] \
                + [int(lengths.size)]
        else:
            edges = [0, int(lengths.size)]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        shards: List[Tuple[ClassShard, float]] = []
        for a, b in zip(edges[:-1], edges[1:]):
            if a == b:
                continue
            shard = ClassShard(
                rows=rows[offsets[a]:offsets[b]].astype(np.int32),
                lengths=lengths[a:b].copy(),
            )
            cost = float(cum[b - 1] - (cum[a - 1] if a else 0.0))
            shards.append((shard, cost))
        return shards, total, needed_row

    def _dispatch_records(self, pending: PendingGroup, records) -> None:
        if not records:
            return
        # One critical section per group: the column bookkeeping below must
        # not interleave with another thread's dispatch, or a job could be
        # enqueued behind a "shipped" marker whose payload races it.  The
        # sweep runs first so no job is handed to an already-dead worker.
        tracer = get_tracer()
        if tracer.enabled:
            # Capture the submit-site span (oc-submit / oc-batch) as the
            # parent for every shard-dispatch span of this group.
            parent = tracer.current_span_id()
            for record in records:
                record.trace_parent = parent
        with self._lock:
            self._sweep_locked()
            self.stats["groups"] += 1
            get_metrics().counter("repro_pool_groups_total").inc()
            for record in records:
                pending.jobs.append(record)
                if self._degraded:
                    self._run_record_inline_locked(record)
                else:
                    self._dispatch_record_locked(record)

    def _dispatch_record_locked(self, record: _JobRecord) -> None:
        """Hand one shard job to the least-loaded live worker (lock held)."""
        worker = min(
            (w for w in self._workers if not w.dead), key=lambda w: w.load
        )
        if record.plane is not None:
            plane = record.plane
            plane_id = plane.plane_id
            shipped: Dict[str, object] = {}
            for name in record.needed_names:
                key = (plane_id, name)
                if worker.columns.get(key) != record.version:
                    column = plane.transport_column(name)
                    shipped[name] = column
                    worker.columns[key] = record.version
                    self.stats["columns_shipped"] += 1
                    if hasattr(column, "starts"):
                        self.stats["columns_rle"] += 1
                else:
                    self.stats["column_refs"] += 1
        else:
            plane_id = None
            shipped = record.columns
        job_id = self._next_job_id
        self._next_job_id += 1
        record.job_id = job_id
        record.worker = worker
        record.dispatched_at = time_module.monotonic()
        record.dispatched_wall = time_module.time()
        # Workers cannot see the coordinator's tracer/registry singletons
        # (no fork-state assumption), so the timing opt-in travels on the
        # job message itself.
        timing = get_tracer().enabled or get_metrics().enabled
        worker.queue.put((
            "job", job_id, plane_id, record.version, record.shard,
            record.pair_names, record.limit, shipped, timing,
        ))
        worker.load += record.cost
        self._inflight[job_id] = record
        self.stats["jobs"] += 1
        get_metrics().counter("repro_pool_jobs_total").inc()

    # -- supervision -------------------------------------------------------------

    def _sweep_locked(self) -> None:
        """Reap timed-out and dead workers; requeue their in-flight shards.

        Runs on every dispatch (the exitcode sweep) and on every idle tick
        of a result wait (the liveness check), always under the lock.
        """
        if self._workers is None:
            return
        now = time_module.monotonic()
        for record in list(self._inflight.values()):
            worker = record.worker
            if (
                record.timeout is not None
                and worker is not None
                and not worker.dead
                and now - record.dispatched_at > record.timeout
                and worker.process.is_alive()
            ):
                # A job past its deadline is indistinguishable from a
                # wedged worker (or a lost result message): retire the
                # process and let the death path below recover the shard.
                worker.process.terminate()
                worker.process.join(timeout=5.0)
                self.stats["worker_timeouts"] += 1
                get_metrics().counter("repro_pool_worker_timeouts_total").inc()
                _log.warning(
                    "pool worker seq=%s exceeded the %.1fs job timeout on "
                    "job %s; terminating it (the shard will be recovered)",
                    worker.seq, record.timeout, record.job_id,
                )
                if self._fault_plan is not None:
                    self._fault_plan.notify("timeout", record.job_id)
        for worker in list(self._workers):
            if not worker.dead and not worker.process.is_alive():
                self._handle_worker_death_locked(worker)

    def _handle_worker_death_locked(self, worker: _WorkerHandle) -> None:
        """Recover from one worker death: invalidate, respawn, requeue."""
        worker.dead = True
        worker.load = 0.0
        # The resident-column cache died with the process; a replacement
        # refills lazily through the ordinary ship-on-miss path.
        worker.columns.clear()
        self.stats["worker_deaths"] += 1
        get_metrics().counter("repro_pool_worker_deaths_total").inc()
        if self._fault_plan is not None:
            self._fault_plan.notify("worker_death", worker.seq)
        orphans = [r for r in self._inflight.values() if r.worker is worker]
        _log.warning(
            "pool worker seq=%s (slot %s) died with exitcode %s; "
            "recovering %d in-flight shard(s)",
            worker.seq, worker.slot, worker.process.exitcode, len(orphans),
        )
        for record in orphans:
            del self._inflight[record.job_id]
            # The dead worker may have flushed a result just before dying;
            # the fresh dispatch below gets a new id, so the stale one is
            # dropped on arrival exactly like an abandoned job's.
            self._discarded.add(record.job_id)
            record.worker = None
            record.deaths += 1
        if not self._degraded:
            self._respawn_locked(worker.slot)
        for record in orphans:
            if not self._degraded and record.deaths < self.QUARANTINE_AFTER_DEATHS:
                self._dispatch_record_locked(record)
                self.stats["requeued_shards"] += 1
                get_metrics().counter("repro_pool_requeued_shards_total").inc()
            else:
                self._run_record_inline_locked(
                    record,
                    quarantined=record.deaths >= self.QUARANTINE_AFTER_DEATHS,
                )

    def _respawn_locked(self, slot: int) -> Optional[_WorkerHandle]:
        """Respawn a replacement into ``slot``; degrade the pool if the
        host keeps refusing new processes."""
        for _attempt in range(self.MAX_RESPAWN_ATTEMPTS):
            try:
                if self._fault_plan is not None:
                    self._fault_plan.on_respawn(slot)
                handle = self._spawn_handle(slot)
            except BaseException:
                _log.warning(
                    "respawn attempt %d/%d for pool slot %s failed",
                    _attempt + 1, self.MAX_RESPAWN_ATTEMPTS, slot,
                )
                continue
            self._workers[slot] = handle
            self.stats["respawns"] += 1
            get_metrics().counter("repro_pool_respawns_total").inc()
            _log.info(
                "respawned pool worker into slot %s (seq=%s)",
                slot, handle.seq,
            )
            if self._fault_plan is not None:
                self._fault_plan.notify("respawn", handle.seq)
            return handle
        self._degrade_locked()
        return None

    def _degrade_locked(self) -> None:
        """Flip the pool to in-process execution for the rest of its life.

        Jobs already in flight on *surviving* workers are left to finish
        normally — only new dispatches (and the dead worker's orphans,
        handled by the caller) run on the coordinator.
        """
        if self._degraded:
            return
        self._degraded = True
        _log.warning(
            "validation pool degraded to in-process execution for the rest "
            "of its life (host kept refusing worker respawns)"
        )
        get_metrics().gauge("repro_pool_degraded").set(1)
        if self._fault_plan is not None:
            self._fault_plan.notify("degraded", None)

    def _run_record_inline_locked(
        self, record: _JobRecord, quarantined: bool = False
    ) -> None:
        """Validate one shard on the coordinator and buffer its result.

        The last rung of the recovery ladder: quarantined (twice-fatal)
        shards and every shard of a degraded pool take this path, which is
        exactly the ``num_workers=1`` computation — byte-identical results,
        just without the parallelism.
        """
        try:
            if record.plane is not None:
                resolved = {
                    name: record.plane.column(name)
                    for name in record.needed_names
                }
            else:
                resolved = {
                    name: _materialize_column(column)
                    for name, column in record.columns.items()
                }
            pairs = [(resolved[a], resolved[b]) for a, b in record.pair_names]
            outcome = self.backend.oc_optimal_removal_count_batch(
                record.shard, pairs, record.limit
            )
            payload: Tuple[str, object] = ("result", outcome)
        except BaseException:
            payload = ("error", _error_report(
                record.plane.plane_id if record.plane is not None else None,
                record.version, record.shard, record.pair_names,
            ))
        job_id = self._next_job_id
        self._next_job_id += 1
        record.job_id = job_id
        record.worker = None
        self._results[job_id] = payload
        self.stats["inline_fallbacks"] += 1
        get_metrics().counter("repro_pool_inline_fallbacks_total").inc()
        if quarantined:
            self.stats["quarantined_shards"] += 1
            get_metrics().counter("repro_pool_quarantined_shards_total").inc()
            _log.warning(
                "shard quarantined after %d worker death(s); validated on "
                "the coordinator instead of a third dispatch",
                record.deaths,
            )
            if self._fault_plan is not None:
                self._fault_plan.notify("quarantine", record.job_id)

    # -- harvesting --------------------------------------------------------------

    def harvest(self, pending: PendingGroup) -> List[Tuple[int, bool]]:
        """Merge one pending group's shard results (blocking).

        Per-pair counts are summed across shards; the exceeded flag is set
        when any shard proved the budget blown or the merged total does."""
        self._require_open()
        if pending.inline is not None:
            return pending.inline
        totals = [0] * pending.num_pairs
        exceeded = [False] * pending.num_pairs
        jobs, pending.jobs = pending.jobs, []
        for position, record in enumerate(jobs):
            try:
                payload = self._wait_result(record)
            except BaseException:
                # Settle the whole group before propagating: the failed
                # job's load, and every remaining job's load and eventual
                # result, must not leak into later runs on this pool.
                self._settle_jobs(jobs[position:])
                raise
            with self._lock:
                if record.worker is not None:
                    record.worker.load -= record.cost
                    record.worker = None
            payload = self._observe_harvest(record, payload)
            for index, (count, over) in enumerate(payload):
                totals[index] += count
                exceeded[index] = exceeded[index] or over
        if pending.limit is not None:
            exceeded = [
                over or total > pending.limit
                for total, over in zip(totals, exceeded)
            ]
        return list(zip(totals, exceeded))

    def _observe_harvest(self, record: _JobRecord, payload):
        """Unwrap piggybacked worker timing; record spans and latencies.

        Returns the bare kernel outcome either way — observability wraps
        the transport, never the numbers.  Shards recovered inline (their
        ``dispatched_wall`` is 0.0 unless a worker dispatch preceded the
        recovery) simply carry no worker spans.
        """
        spans = None
        if isinstance(payload, TracedOutcome):
            spans = payload.spans
            payload = payload.outcome
        if record.dispatched_wall:
            registry = get_metrics()
            if registry.enabled:
                registry.histogram("repro_pool_round_trip_seconds").observe(
                    time_module.monotonic() - record.dispatched_at
                )
                if spans:
                    registry.histogram(
                        "repro_pool_queue_wait_seconds"
                    ).observe(
                        max(0.0, spans[0]["start"] - record.dispatched_wall)
                    )
            tracer = get_tracer()
            if tracer.enabled:
                shard_span = tracer.record_span(
                    "shard-dispatch",
                    record.dispatched_wall, time_module.time(),
                    parent=record.trace_parent,
                    job_id=record.job_id,
                    cost=round(record.cost, 1),
                    deaths=record.deaths,
                )
                if spans:
                    tracer.attach_worker_spans(spans, shard_span)
        return payload

    def abandon(self, pending: PendingGroup) -> None:
        """Give up on a pending group (idempotent; interrupted runs).

        In-flight shard results are dropped when they arrive, so an
        abandoned level never poisons a later harvest."""
        jobs, pending.jobs = pending.jobs, []
        self._settle_jobs(jobs)

    def _settle_jobs(self, jobs) -> None:
        """Release load accounting and discard the eventual results of jobs
        that will never be (fully) harvested."""
        with self._lock:
            for record in jobs:
                if record.worker is not None:
                    record.worker.load -= record.cost
                    record.worker = None
                if record.job_id in self._results:
                    del self._results[record.job_id]
                elif record.job_id in self._inflight:
                    del self._inflight[record.job_id]
                    self._discarded.add(record.job_id)

    def _wait_result(self, record: _JobRecord):
        # Another harvesting thread may pull this job's message off the
        # shared result queue and buffer it, so the buffer is rechecked on
        # a short poll.  All buffer mutations happen under the lock, and
        # the discarded-check runs at *store* time inside it, so a result
        # arriving concurrently with abandon() is either dropped here or
        # deleted by _settle_jobs — never leaked.
        #
        # ``record.job_id`` is re-read under the lock on every pass: a
        # supervision sweep may requeue (or inline-run) the job under a
        # fresh id while this thread waits, in which case the result shows
        # up in the buffer like any out-of-order arrival.
        kind = payload = None
        found = False
        while not found:
            with self._lock:
                if record.job_id in self._results:
                    kind, payload = self._results.pop(record.job_id)
                    break
            try:
                arrived = self._result_queue.get(
                    timeout=self.SWEEP_INTERVAL_SECONDS
                )
            except queue_module.Empty:
                # Idle tick: the liveness check.  A dead worker's shards
                # are requeued (or run inline) by the sweep, so this wait
                # always terminates — through a replacement worker, the
                # coordinator itself, or a raised respawn failure.
                with self._lock:
                    self._sweep_locked()
                continue
            with self._lock:
                arrived_kind, arrived_id, arrived_payload = arrived
                self._inflight.pop(arrived_id, None)
                if arrived_id in self._discarded:
                    self._discarded.discard(arrived_id)
                elif arrived_id == record.job_id:
                    kind, payload = arrived_kind, arrived_payload
                    found = True
                else:
                    self._results[arrived_id] = (arrived_kind, arrived_payload)
        if kind == "error":
            if isinstance(payload, dict):
                raise WorkerJobError(payload)
            raise RuntimeError(f"validation worker failed:\n{payload}")
        return payload

    # -- freshness guards --------------------------------------------------------

    @staticmethod
    def _needed_row(classes) -> int:
        flat = getattr(classes, "row_indices", None)
        if flat is not None:
            # CSR partition: one pass over the flat row vector (classes are
            # first-row ordered, so the last *element* is not the maximum).
            if len(flat) == 0:
                return -1
            return int(flat.max()) if hasattr(flat, "max") else max(flat)
        needed = -1
        for rows in classes:
            if len(rows) and rows[-1] > needed:
                needed = rows[-1]
        return needed

    @staticmethod
    def _assert_column_covers(column, needed_row: int, name: str = "") -> None:
        """The single stale-column rule both dispatch paths enforce."""
        if needed_row < 0 or len(column) > needed_row:
            return
        label = f" {name!r}" if name else ""
        raise RuntimeError(
            f"stale rank column{label}: {len(column)} entries cannot "
            f"cover row {needed_row}; the encoded relation grew "
            "after this column was captured — refresh columns "
            "from the current encoding before revalidating"
        )

    @staticmethod
    def _check_column_freshness(classes, rank_pairs) -> None:
        """Refuse to ship rank columns shorter than the rows they must cover.

        A pool outlives discovery runs — and, with incremental maintenance,
        dataset *versions*: after ``Profiler.extend`` the encoded relation
        has more rows, and any stale column captured before the append
        would silently index out of range (or worse, wrap around) on the
        workers.  Class row lists are sorted, so the last row of each class
        is its maximum; every column must cover the overall maximum.
        """
        needed = ShardedValidationPool._needed_row(classes)
        for a_ranks, b_ranks in rank_pairs:
            for ranks in (a_ranks, b_ranks):
                ShardedValidationPool._assert_column_covers(ranks, needed)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker processes down (idempotent).

        Bounded by construction: stop messages are non-blocking, the
        result-queue drain and every join carry a timeout, stragglers are
        terminated (then killed), and the queues' feeder threads are
        detached — a wedged worker can never hang interpreter shutdown.
        """
        if self._workers is None:
            return
        workers, self._workers = self._workers, None
        for worker in workers:
            try:
                worker.queue.put_nowait(("stop",))
            except (OSError, ValueError, queue_module.Full):
                pass  # pragma: no cover - teardown race / wedged queue
        # Drain straggling results so worker feeder threads never block on a
        # full pipe while trying to exit (abandoned jobs still produce
        # results nobody reads).
        deadline = time_module.monotonic() + 10.0
        while any(w.process.is_alive() for w in workers):
            if time_module.monotonic() > deadline:
                break
            try:
                self._result_queue.get(timeout=0.05)
            except queue_module.Empty:
                pass
        for worker in workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - unkillable
                kill = getattr(worker.process, "kill", None)
                if kill is not None:
                    kill()
                    worker.process.join(timeout=1.0)
            worker.queue.close()
            worker.queue.cancel_join_thread()
        self._result_queue.close()
        self._result_queue.cancel_join_thread()
        self._results.clear()
        self._discarded.clear()
        self._inflight.clear()

    def __enter__(self) -> "ShardedValidationPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def validate_aoc_distributed(
    relation: Relation,
    oc: CanonicalOC,
    num_workers: int = 4,
    threshold: Optional[float] = None,
    partition_cache: Optional[PartitionCache] = None,
    backend: BackendSpec = None,
    execution: str = "simulated",
) -> DistributedValidationOutcome:
    """Validate an AOC with distributed workers; equivalent to Algorithm 2.

    Every worker runs the per-class LNDS kernel on its assigned classes and
    reports its removal rows; the coordinator merges the reports, applies
    the threshold and produces the same :class:`ValidationResult` the
    centralised validator would.

    ``backend`` selects the compute backend the workers run on; like
    :func:`~repro.validation.common.validation_backend`, it defaults to the
    supplied partition cache's backend so discovery-driven validations stay
    on one backend.  ``execution`` picks the transport: ``"simulated"``
    (in-process workers) or ``"process"`` (a real
    :class:`~concurrent.futures.ProcessPoolExecutor`); both produce
    identical outcomes.
    """
    if execution not in EXECUTION_MODES:
        raise ValueError(
            f"execution must be one of {EXECUTION_MODES}, got {execution!r}"
        )
    resolved = validation_backend(backend, partition_cache)
    encoded = relation.encoded(resolved)
    a_ranks = encoded.native_ranks(oc.a)
    b_ranks = encoded.native_ranks(oc.b)
    classes = context_classes(relation, oc.context, partition_cache, resolved)
    assignments = assign_classes_to_workers(list(classes), num_workers)

    if execution == "process":
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=num_workers) as executor:
            futures = [
                executor.submit(
                    _worker_removal_rows, resolved, assigned, a_ranks, b_ranks
                )
                for assigned in assignments
            ]
            removals = [future.result() for future in futures]
    else:
        removals = [
            _worker_removal_rows(resolved, assigned, a_ranks, b_ranks)
            for assigned in assignments
        ]

    reports = [
        WorkerReport(
            worker_id=worker_id,
            num_classes=len(assigned),
            num_rows=sum(len(c) for c in assigned),
            removal_rows=removal,
        )
        for worker_id, (assigned, removal) in enumerate(zip(assignments, removals))
    ]

    merged = frozenset(
        row for report in reports for row in report.removal_rows
    )
    limit = removal_limit(relation.num_rows, threshold)
    exceeded = limit is not None and len(merged) > limit
    result = ValidationResult(
        dependency=oc,
        num_rows=relation.num_rows,
        removal_rows=merged,
        threshold=threshold,
        exceeded_threshold=exceeded,
    )
    return DistributedValidationOutcome(result=result, worker_reports=reports)
