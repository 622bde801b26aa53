"""Partition micro-benchmarks: build / product / apply_delta on the CSR layout.

The CSR refactor's acceptance bar is measured here: single-column partition
construction, partition products and ``PartitionCache.apply_delta`` are
timed per backend, and the NumPy product is additionally raced against the
*seed* list-of-lists path (lexsort followed by per-class ``tolist()``
materialisation plus the normalising list constructor — exactly what
``_split_segments`` used to do).  NumPy ``partition_refine`` is timed with
the compiled kernel and with ``REPRO_NATIVE=0`` (identical output
asserted).  The ``partition`` record merged into
``benchmarks/results/BENCH_discovery.json`` carries the timings, the
``product_speedup_vs_list`` ratio and the ``refine_s`` pair the CI smoke
job checks.
"""

import json
import os
from itertools import combinations
from pathlib import Path

import pytest

from repro.backend import available_backends, get_backend, native
from repro.benchlib.harness import time_best_of
from repro.dataset.generators import generate_flight_like
from repro.dataset.partition import Partition, PartitionCache

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip() not in ("", "0")
NUM_ROWS = int(
    os.environ.get("REPRO_BENCH_PARTITION_ROWS", "2000" if QUICK else "16000")
)
NUM_ATTRIBUTES = 6
REPEATS = 3 if QUICK else 5
DELTA_ROWS = max(4, NUM_ROWS // 100)
BACKENDS = available_backends()

#: backend -> {"build_s": ..., "product_s": ..., "apply_delta_s": ...}
RESULTS = {}
BASELINE = {}


@pytest.fixture(scope="module")
def workload():
    base = generate_flight_like(
        NUM_ROWS, num_attributes=NUM_ATTRIBUTES, error_rate=0.08, seed=7
    ).relation
    donor = generate_flight_like(
        NUM_ROWS + DELTA_ROWS, num_attributes=NUM_ATTRIBUTES,
        error_rate=0.08, seed=13,
    ).relation
    delta = {
        name: donor.take(range(NUM_ROWS, NUM_ROWS + DELTA_ROWS)).column(name)
        for name in base.attribute_names
    }
    return base, delta


def _legacy_product(left: Partition, right: Partition) -> Partition:
    """The seed NumPy product: lexsort, then per-class Python lists.

    Byte-identical results to ``partition_product``; the difference under
    measurement is purely the representation — per-class ``tolist()``
    materialisation plus the normalising list-of-lists constructor versus
    the flat CSR gather.
    """
    import numpy as np

    backend = get_backend("numpy")
    class_of = np.full(left.num_rows, -1, dtype=np.int64)
    right_rows, right_ids, _ = backend._columnar_classes(right)
    class_of[right_rows] = right_ids
    rows, class_ids, _ = backend._columnar_classes(left)
    other = class_of[rows]
    grouped = other >= 0
    rows, class_ids, other = rows[grouped], class_ids[grouped], other[grouped]
    if rows.size == 0:
        return Partition([], left.num_rows)
    order = np.lexsort((other, class_ids))
    sorted_rows = rows[order]
    keys = (class_ids[order], other[order])
    change = np.zeros(sorted_rows.size - 1, dtype=bool)
    for key in keys:
        change |= np.diff(key) != 0
    boundaries = np.concatenate(
        ([0], np.nonzero(change)[0] + 1, [sorted_rows.size])
    )
    classes = []
    for i in range(boundaries.size - 1):
        start, end = int(boundaries[i]), int(boundaries[i + 1])
        if end - start >= 2:
            classes.append(sorted_rows[start:end].tolist())
    return Partition(classes, left.num_rows)


def _singles(backend, encoded):
    return [
        backend.partition_single(
            encoded.native_ranks_by_index(index), encoded.num_rows
        )
        for index in range(NUM_ATTRIBUTES)
    ]


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_partition_build(workload, backend_name):
    base, _ = workload
    backend = get_backend(backend_name)
    encoded = base.encoded(backend)
    encoded.native_ranks_by_index(0)  # exclude lazy column conversion

    seconds = time_best_of(lambda: _singles(backend, encoded), REPEATS)
    RESULTS.setdefault(backend_name, {})["build_s"] = round(seconds, 5)
    assert all(p.num_classes > 0 for p in _singles(backend, encoded))


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_partition_product(workload, backend_name):
    base, _ = workload
    backend = get_backend(backend_name)
    encoded = base.encoded(backend)
    singles = _singles(backend, encoded)
    pairs = list(combinations(range(NUM_ATTRIBUTES), 2))

    def products():
        return [
            backend.partition_product(singles[a], singles[b])
            for a, b in pairs
        ]

    seconds = time_best_of(products, REPEATS)
    RESULTS.setdefault(backend_name, {})["product_s"] = round(seconds, 5)

    if backend_name == "numpy":
        def legacy_products():
            return [
                _legacy_product(singles[a], singles[b]) for a, b in pairs
            ]

        legacy_seconds = time_best_of(legacy_products, REPEATS)
        BASELINE["numpy_product_list_baseline_s"] = round(legacy_seconds, 5)
        BASELINE["product_speedup_vs_list"] = round(
            legacy_seconds / seconds, 2
        ) if seconds > 0 else None
        # Parity first, speed second: the baseline must agree exactly.
        for a, b in pairs[:3]:
            assert _legacy_product(singles[a], singles[b]) == \
                backend.partition_product(singles[a], singles[b])


@pytest.mark.skipif("numpy" not in BACKENDS, reason="needs the numpy backend")
def test_partition_refine(workload, monkeypatch):
    """``partition_refine`` through the compiled kernel and through the
    NumPy lexsort fallback (``REPRO_NATIVE=0``): identical partitions."""
    base, _ = workload
    backend = get_backend("numpy")
    encoded = base.encoded(backend)
    singles = _singles(backend, encoded)
    columns = [encoded.native_ranks_by_index(i) for i in range(NUM_ATTRIBUTES)]
    pairs = list(combinations(range(NUM_ATTRIBUTES), 2))

    def refines():
        return [backend.partition_refine(singles[a], columns[b]) for a, b in pairs]

    timings, outputs = {}, {}
    for mode in ("native", "fallback"):
        if mode == "native":
            monkeypatch.delenv(native.ENV_VAR, raising=False)
            if native.kernels() is None:
                continue
        else:
            monkeypatch.setenv(native.ENV_VAR, "0")
        outputs[mode] = [
            (p.row_indices.tobytes(), p.class_offsets.tobytes()) for p in refines()
        ]
        timings[mode] = round(time_best_of(refines, REPEATS), 5)
    if "native" in outputs:
        assert outputs["native"] == outputs["fallback"]
    BASELINE["refine_s"] = {"native": timings.get("native"),
                            "fallback": timings["fallback"]}


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_partition_apply_delta(workload, backend_name):
    base, delta = workload
    backend = get_backend(backend_name)
    keys = [frozenset()]
    for size in (1, 2):
        keys.extend(frozenset(c)
                    for c in combinations(range(NUM_ATTRIBUTES), size))

    # apply_delta consumes the cache, so each repeat patches a fresh one;
    # cache construction happens outside the timed region.
    def fresh_cache():
        encoded = base.encoded(backend)
        cache = PartitionCache(encoded, backend=backend)
        for key in keys:
            cache.get(key)
        extended, _ = encoded.extend(delta)
        return cache, extended

    prepared = [fresh_cache() for _ in range(REPEATS)]
    timings = []
    import time

    for cache, extended in prepared:
        start = time.perf_counter()
        patches = cache.apply_delta(extended, NUM_ROWS)
        timings.append(time.perf_counter() - start)
        assert not patches.dropped
    RESULTS.setdefault(backend_name, {})["apply_delta_s"] = round(
        min(timings), 5
    )


@pytest.fixture(scope="module", autouse=True)
def _report(figure_report):
    yield
    if not RESULTS:
        return
    record = {
        "rows": NUM_ROWS,
        "attributes": NUM_ATTRIBUTES,
        "quick_mode": QUICK,
        "delta_rows": DELTA_ROWS,
        "backends": RESULTS,
    }
    record.update(BASELINE)

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "BENCH_discovery.json"
    payload = {}
    if path.exists():
        payload = json.loads(path.read_text(encoding="utf-8"))
    payload["partition"] = record
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    metrics = ["build_s", "product_s", "apply_delta_s"]
    figure_report(
        "Partition micro-benchmarks (CSR layout)",
        "operation",
        metrics,
        {
            f"{backend} (s)": [RESULTS[backend].get(m) for m in metrics]
            for backend in RESULTS
        },
        notes=[
            f"workload: flight-like, {NUM_ROWS} rows, "
            f"{NUM_ATTRIBUTES} attributes; delta of {DELTA_ROWS} rows",
            f"numpy product vs seed list-of-lists baseline: "
            f"{BASELINE.get('product_speedup_vs_list')}x "
            f"(baseline {BASELINE.get('numpy_product_list_baseline_s')}s)",
            f"numpy refine, compiled vs REPRO_NATIVE=0 (s): "
            f"{BASELINE.get('refine_s')}",
        ],
    )
