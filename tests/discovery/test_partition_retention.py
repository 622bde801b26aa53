"""Partition retention across lattice levels.

Level ``L + 1`` validates OFDs over contexts of size ``L`` and OCs over
contexts of size ``L - 1``.  With the two most recent levels of contexts
retained, every context the cache has to build is one ``partition_refine``
away from a cached subset; evicting one level too early makes the cache
rebuild contexts column by column from a single attribute.

Retained partitions carry only their CSR arrays: the compiled kernels read
those directly, so approximate discovery attaches no per-row class-id
array to any cached partition.
"""

import pytest

from repro.backend import get_backend, native
from repro.dataset.generators import generate_flight_like
from repro.dataset.partition import PartitionCache
from repro.discovery.api import discover_aods, discover_ods


def _counting_backend(name):
    base = type(get_backend(name))

    class Counting(base):
        refines = 0

        def partition_refine(self, partition, native_ranks):
            type(self).refines += 1
            return super().partition_refine(partition, native_ranks)

    return Counting()


@pytest.mark.parametrize("backend_name", ["python", "numpy"])
def test_one_refinement_per_cache_miss(backend_name, monkeypatch):
    if backend_name == "numpy":
        pytest.importorskip("numpy")
    relation = generate_flight_like(
        300, num_attributes=8, error_rate=0.08, seed=2
    ).relation
    backend = _counting_backend(backend_name)
    built = []
    original_build = PartitionCache._build

    def recording_build(self, key):
        built.append(len(key))
        return original_build(self, key)

    monkeypatch.setattr(PartitionCache, "_build", recording_build)
    result = discover_ods(relation, backend=backend)

    assert result.stats.levels_processed == len(relation.attribute_names)
    misses = sum(1 for size in built if size >= 2)
    assert misses > 100
    assert backend.refines == misses
    monkeypatch.setattr(PartitionCache, "_build", original_build)
    reference = discover_ods(relation, backend=backend_name)
    assert (result.ocs, result.ofds) == (reference.ocs, reference.ofds)


def test_native_approximate_discovery_caches_no_class_ids(monkeypatch):
    pytest.importorskip("numpy")
    monkeypatch.delenv(native.ENV_VAR, raising=False)
    if native.kernels() is None:
        pytest.skip("the compiled kernels are unavailable on this host")
    relation = generate_flight_like(
        2000, num_attributes=6, error_rate=0.08, seed=3
    ).relation
    served = []
    original_get = PartitionCache.get

    def recording_get(self, key):
        partition = original_get(self, key)
        served.append(partition)
        return partition

    monkeypatch.setattr(PartitionCache, "get", recording_get)
    result = discover_aods(relation, threshold=0.1, backend="numpy")

    assert result.stats.oc_candidates_validated > 0 and len(served) > 20
    assert [p for p in served if p._columnar is not None] == []
