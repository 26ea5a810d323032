"""N-level aggregation trees: topology and the composition round.

Sharded rounds (:mod:`repro.simulation.hierarchy`) cut the Bonawitz
protocol's ``O(n^2)`` cost by running one independent SecAgg instance
per shard — but composing the shard sums *in the clear* shows the
server every intermediate aggregate, exactly the exposure Truex et al.
("A Hybrid Approach to Privacy-Preserving Federated Learning") and
DDP-SA argue breaks end-to-end distributed-DP guarantees.  This module
supplies the protocol-level pieces that close it:

* :class:`TreeTopology` — the shape of an N-level region→…→global
  aggregation tree (branching factors from the root down), with the
  recursive cohort partition that applies the one round-robin rule
  (:func:`partition_members`) at every level.
* :func:`run_composition_round` — one interior node's Bonawitz round
  over its children: :func:`~repro.secagg.bonawitz.run_bonawitz` with
  each shard (or region) coordinator as a *virtual client* whose
  private input is its subtree's modular sum.  The tree has no round
  loop of its own, so a composition round is refused, metered and
  aborted like every other in-memory round, and the node's server sees
  only *masked* child sums.

Because pairwise masks cancel over the full survivor set and every
virtual client is an in-process coordinator that never drops, the
composition round's output is bit-identical to the clear modular
composition — the tree changes *who can see what*, never the sum.
"""

from __future__ import annotations

import dataclasses
import re
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.secagg.bonawitz import run_bonawitz
from repro.secagg.wire import WireStats
from repro.telemetry.registry import MetricsRegistry

#: A Bonawitz instance needs at least two parties; a shard below this
#: size is never formed (shared with the flat partition rule).
MIN_SHARD_SIZE = 2

_TOPOLOGY_PATTERN = re.compile(r"^\d+(?:[x,]\d+)*$")


@dataclasses.dataclass(frozen=True)
class TreeNode:
    """One node of a concrete (partitioned) aggregation tree.

    Attributes:
        level: Depth from the root (root = 0).
        index: Position among this node's siblings.
        path: Sibling indices from the root down (root = ``()``).
        members: Cohort members covered by this node's subtree.
        children: Child nodes; empty for a leaf shard.
        leaf_index: Flat depth-first leaf position (``None`` for
            interior nodes) — the spawn key selecting the leaf's RNG
            stream.
    """

    level: int
    index: int
    path: tuple[int, ...]
    members: tuple[int, ...]
    children: tuple["TreeNode", ...] = ()
    leaf_index: int | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list["TreeNode"]:
        """All leaf shards of this subtree, in depth-first order."""
        if self.is_leaf:
            return [self]
        return [leaf for child in self.children for leaf in child.leaves()]

    def interior(self) -> list["TreeNode"]:
        """All interior (composing) nodes, root first, depth-first."""
        if self.is_leaf:
            return []
        out = [self]
        for child in self.children:
            out.extend(child.interior())
        return out


def partition_members(
    members: Iterable[int], groups: int
) -> list[tuple[int, ...]]:
    """Deterministically partition members into balanced groups.

    Round-robin over the sorted member list — the single partition rule,
    applied at every level of the tree: group ``i`` receives every
    ``k``-th member starting at
    offset ``i``, so group sizes differ by at most one and the
    assignment depends only on the members and ``k``.  The effective
    group count is capped so every group keeps at least
    :data:`MIN_SHARD_SIZE` members.

    Raises:
        ConfigurationError: If ``groups < 1``, the member set is empty,
            or it contains duplicates.
    """
    if groups < 1:
        raise ConfigurationError(f"shards must be >= 1, got {groups}")
    ordered = sorted(members)
    if not ordered:
        raise ConfigurationError("cannot partition an empty cohort")
    if len(set(ordered)) != len(ordered):
        raise ConfigurationError("cohort contains duplicate client indices")
    effective = max(1, min(groups, len(ordered) // MIN_SHARD_SIZE))
    return [tuple(ordered[i::effective]) for i in range(effective)]


@dataclasses.dataclass(frozen=True)
class TreeTopology:
    """The shape of an N-level aggregation tree.

    ``branching`` lists the fan-out at each aggregation level from the
    root down: ``(8,)`` is the classic 2-level shard→global tree (the
    root composes 8 leaf shards), ``(4, 4)`` a 3-level
    shard→region→global tree (the root composes 4 regions, each
    composing 4 leaf shards).  Small cohorts degrade gracefully —
    every level's partition caps its fan-out so each group keeps at
    least :data:`MIN_SHARD_SIZE` members.

    Attributes:
        branching: Requested fan-out per level, root first; every
            entry must be >= 1 (``(k,)`` is the flat ``k``-shard round).
    """

    branching: tuple[int, ...]

    def __post_init__(self) -> None:
        branching = tuple(int(b) for b in self.branching)
        object.__setattr__(self, "branching", branching)
        if not branching:
            raise ConfigurationError(
                "a tree topology needs at least one branching level"
            )
        for factor in branching:
            if factor < 1:
                raise ConfigurationError(
                    f"tree branching factors must be >= 1, got {factor}"
                )

    @classmethod
    def parse(cls, text: "str | TreeTopology") -> "TreeTopology":
        """Parse a CLI/config topology string such as ``"8"`` or ``"8x4"``.

        Accepts ``x`` or ``,`` separated positive integers, root level
        first (``"4x8"`` = 4 regions of up to 8 shards each).
        """
        if isinstance(text, TreeTopology):
            return text
        cleaned = str(text).strip().lower()
        if not _TOPOLOGY_PATTERN.match(cleaned):
            raise ConfigurationError(
                f"cannot parse tree topology {text!r}; expected positive "
                "integers joined by 'x' (e.g. '8' or '4x4')"
            )
        return cls(tuple(int(part) for part in re.split("[x,]", cleaned)))

    @property
    def levels(self) -> int:
        """Number of aggregation levels (1 = flat ``k``-shard sharding)."""
        return len(self.branching)

    def describe(self) -> str:
        """Human-readable shape, e.g. ``"4x4"``."""
        return "x".join(str(b) for b in self.branching)

    def partition(self, cohort: Iterable[int]) -> TreeNode:
        """Partition a cohort into this topology's concrete tree.

        Recursively applies :func:`partition_members` level by level;
        leaf shards receive depth-first ``leaf_index`` values.  A
        single-child interior node is kept: path determinism matters
        more than tree minimality, and composition passes one child
        straight through.
        """
        members = tuple(sorted(cohort))
        counter = {"next_leaf": 0}

        def build(
            node_members: tuple[int, ...],
            level: int,
            index: int,
            path: tuple[int, ...],
            remaining: tuple[int, ...],
        ) -> TreeNode:
            if not remaining:
                leaf_index = counter["next_leaf"]
                counter["next_leaf"] += 1
                return TreeNode(
                    level=level,
                    index=index,
                    path=path,
                    members=node_members,
                    leaf_index=leaf_index,
                )
            groups = partition_members(node_members, remaining[0])
            children = tuple(
                build(
                    group,
                    level + 1,
                    child_index,
                    path + (child_index,),
                    remaining[1:],
                )
                for child_index, group in enumerate(groups)
            )
            return TreeNode(
                level=level,
                index=index,
                path=path,
                members=node_members,
                children=children,
            )

        return build(members, 0, 0, (), self.branching)


def run_composition_round(
    child_sums: Sequence[np.ndarray],
    modulus: int,
    rng: np.random.Generator,
    metrics: MetricsRegistry | None = None,
) -> tuple[np.ndarray, WireStats]:
    """One interior tree node's Bonawitz round over its children.

    Child ``i`` (0-based) is protocol client ``i + 1`` of
    :func:`~repro.secagg.bonawitz.run_bonawitz`, its private input the
    child's modular sum, so the node's server only ever receives masked
    frames and recovers ``Σ child_sums mod m``.  The Shamir threshold is
    the full child count: coordinators are in-process and never drop,
    so any protocol defect aborts the round instead of being recovered.

    With ``metrics``, the round is metered into the same ``secagg_*``
    round families as any other (the caller adds the per-level label
    when absorbing the snapshot).

    Returns:
        ``(modular_sum, wire_stats)`` for the composition round.

    Raises:
        ConfigurationError: With fewer than two child sums (a single
            child needs no composition — callers pass it through).
        AggregationError: On any protocol failure.
    """
    if len(child_sums) < 2:
        raise ConfigurationError(
            "a composition round needs at least two child sums, got "
            f"{len(child_sums)}"
        )
    outcome = run_bonawitz(
        np.stack(child_sums),
        modulus,
        len(child_sums),
        rng,
        metrics=metrics,
    )
    return outcome.modular_sum, outcome.wire
