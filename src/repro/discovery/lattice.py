"""The set-based attribute lattice traversed by the discovery framework.

Nodes are attribute sets; level ``l`` holds the sets of size ``l``.  Each
node carries two candidate sets in the spirit of TANE / FASTOD:

* ``ofd_candidates`` — attributes ``A`` for which ``X \\ {A}: [] ↦→ A`` may
  still be a *minimal* valid OFD (TANE's ``C+`` set), and
* ``oc_candidates`` — unordered attribute pairs ``{A, B} ⊆ X`` for which
  ``X \\ {A, B}: A ~ B`` may still be a minimal valid OC.

Candidate sets shrink as dependencies are found (minimality pruning) and as
axioms fire; a node whose candidate sets are both empty is removed, which
prevents any of its supersets from ever being generated — this is the
pruning that lets AOD discovery outrun exact OD discovery in Exp-5.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

AttributeSet = FrozenSet[str]
AttributePair = FrozenSet[str]


class LatticeNode:
    """State attached to one attribute set during the level-wise search."""

    __slots__ = ("attributes", "ofd_candidates", "oc_candidates")

    def __init__(
        self,
        attributes: Iterable[str],
        ofd_candidates: Optional[Set[str]] = None,
        oc_candidates: Optional[Set[AttributePair]] = None,
    ) -> None:
        self.attributes: AttributeSet = frozenset(attributes)
        self.ofd_candidates: Set[str] = set(ofd_candidates or ())
        self.oc_candidates: Set[AttributePair] = set(oc_candidates or ())

    @property
    def level(self) -> int:
        """Lattice level — the size of the attribute set."""
        return len(self.attributes)

    @property
    def is_exhausted(self) -> bool:
        """``True`` when no candidate can ever be produced through this node."""
        return not self.ofd_candidates and not self.oc_candidates

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatticeNode({sorted(self.attributes)}, "
            f"ofd_cands={sorted(self.ofd_candidates)}, "
            f"oc_cands={[sorted(p) for p in self.oc_candidates]})"
        )


def initial_level(attributes: Sequence[str]) -> Dict[AttributeSet, LatticeNode]:
    """Level-1 nodes: one singleton set per attribute.

    Every attribute starts as an OFD candidate of every node (TANE's
    ``C+(∅) = R`` convention, intersected down as levels grow); singleton
    nodes have no OC candidates because an OC needs two attributes.
    """
    nodes: Dict[AttributeSet, LatticeNode] = {}
    for attribute in attributes:
        key = frozenset({attribute})
        nodes[key] = LatticeNode(key, ofd_candidates=set(attributes))
    return nodes


def candidate_ofd_rhs(
    node_attributes: AttributeSet,
    previous_level: Dict[AttributeSet, LatticeNode],
    all_attributes: Sequence[str],
) -> Set[str]:
    """Compute ``C_s(X) = ∩_{B ∈ X} C_s(X \\ {B})`` (TANE candidate rule).

    A missing predecessor (pruned at the previous level) contributes the
    empty set, i.e. kills all candidates — consistent with node deletion
    semantics.
    """
    result: Optional[Set[str]] = None
    for attribute in node_attributes:
        predecessor = previous_level.get(node_attributes - {attribute})
        candidates = predecessor.ofd_candidates if predecessor is not None else set()
        result = set(candidates) if result is None else (result & candidates)
        if not result:
            return set()
    if result is None:  # level-1 node: no predecessors inside the loop
        return set(all_attributes)
    return result


def candidate_oc_pairs(
    node_attributes: AttributeSet,
    previous_level: Dict[AttributeSet, LatticeNode],
) -> Set[AttributePair]:
    """Compute the OC pair candidates of a node.

    A pair ``{A, B} ⊆ X`` is a candidate at ``X`` iff it is a candidate (or
    newly formed) at every predecessor ``X \\ {C}`` with ``C ∉ {A, B}``.
    At level 2 the condition is vacuous, so every pair of the node is a
    candidate; at higher levels a pair survives only if no smaller context
    already validated it (minimality) or pruned it (axioms).

    Predecessor ``X \\ {C}`` can only hold pairs without ``C``, so a pair
    meets the condition exactly when ``|X| - 2`` predecessors hold it:
    counting memberships avoids building a set per pair per predecessor.
    """
    level = len(node_attributes)
    if level == 2:
        return {frozenset(node_attributes)}
    counts = Counter(
        chain.from_iterable(
            predecessor.oc_candidates
            for predecessor in (
                previous_level.get(node_attributes - {c}) for c in node_attributes
            )
            if predecessor is not None
        )
    )
    return {pair for pair, count in counts.items() if count == level - 2}


def generate_next_level_sets(
    current_level: Dict[AttributeSet, LatticeNode]
) -> List[AttributeSet]:
    """Generate the attribute sets of the next level (TANE prefix join).

    Two sets of size ``l`` sharing their first ``l - 1`` attributes (in
    sorted order) join into a set of size ``l + 1``; the join is kept only
    if *all* of its ``l``-subsets are present (i.e. were not pruned) in the
    current level.
    """
    sorted_tuples = sorted(tuple(sorted(attrs)) for attrs in current_level)
    by_prefix: Dict[Tuple[str, ...], List[Tuple[str, ...]]] = {}
    for attrs in sorted_tuples:
        by_prefix.setdefault(attrs[:-1], []).append(attrs)

    next_sets: List[AttributeSet] = []
    for prefix_group in by_prefix.values():
        for first, second in combinations(prefix_group, 2):
            joined = frozenset(first) | frozenset(second)
            if all(
                joined - {attribute} in current_level for attribute in joined
            ):
                next_sets.append(joined)
    return sorted(set(next_sets), key=lambda s: tuple(sorted(s)))
