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
  recursive cohort partition that reuses the flat round-robin rule at
  every level, so a one-level tree is *bit-identical* to the legacy
  sharded partition.
* :func:`run_composition_round` — one interior node's Bonawitz round
  over its children.  Each shard (or region) coordinator is a *virtual
  client* of its parent's round: a sans-I/O
  :class:`~repro.secagg.statemachine.ClientSession` fed the subtree's
  modular sum as its private input.  The round is not a transport of
  its own: it goes through
  :func:`~repro.secagg.statemachine.drive_in_memory`, the in-memory
  caller of the one :class:`~repro.secagg.statemachine.RoundDriver`
  (:func:`~repro.secagg.bonawitz.run_bonawitz` is the same call), so it
  is refused, metered and aborted like every other round.  The node's
  server therefore sees only *masked* child sums and recovers exactly
  ``Σ child_sums mod m``.

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

from repro.errors import AggregationError, ConfigurationError
from repro.secagg.field import DEFAULT_FIELD, PrimeField
from repro.secagg.keys import TOY_GROUP, DhGroup
from repro.secagg.statemachine import (
    ClientSession,
    ServerSession,
    drive_in_memory,
)
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
            stream, identical to the legacy shard index for a
            one-level tree.
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

    Round-robin over the sorted member list — the single partition rule
    shared by every level of the tree (and by the legacy flat sharding
    path): group ``i`` receives every ``k``-th member starting at
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
            entry must be >= 1 and the root entry is the legacy
            ``shards`` knob for a single-level tree.
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
        """Number of aggregation levels (1 = the legacy flat sharding)."""
        return len(self.branching)

    def describe(self) -> str:
        """Human-readable shape, e.g. ``"4x4"``."""
        return "x".join(str(b) for b in self.branching)

    def partition(self, cohort: Iterable[int]) -> TreeNode:
        """Partition a cohort into this topology's concrete tree.

        Recursively applies :func:`partition_members` level by level;
        leaf shards receive depth-first ``leaf_index`` values, so a
        one-level tree reproduces the legacy flat shard indices
        exactly.
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
            if len(children) == 1 and not children[0].is_leaf:
                # A degenerate single-child interior node adds nothing;
                # keep it anyway — path determinism matters more than
                # tree minimality, and composition passes one child
                # straight through.
                pass
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
    group: DhGroup | None = None,
    field: PrimeField = DEFAULT_FIELD,
    mask_prg: str | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[np.ndarray, WireStats]:
    """One interior tree node's Bonawitz round over its children.

    Each child coordinator is a virtual client of this node: a
    :class:`~repro.secagg.statemachine.ClientSession` whose private
    input is the child's modular sum.  The node runs the complete
    four-phase round through
    :func:`~repro.secagg.statemachine.drive_in_memory` — the loop
    :func:`~repro.secagg.bonawitz.run_bonawitz` runs — so its server
    only ever receives masked frames, and the recovered aggregate
    equals ``Σ child_sums mod m`` bit-identically (all virtual clients
    survive, so every pairwise mask cancels).

    The Shamir threshold is the full child count: coordinators are
    in-process and never drop, so the round tolerates no dropout and
    fails loudly on any protocol defect instead of silently recovering.

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
    arrays = [np.asarray(child, dtype=np.int64) for child in child_sums]
    shapes = {array.shape for array in arrays}
    if len(shapes) != 1 or len(next(iter(shapes))) != 1:
        raise ConfigurationError(
            f"child sums must share one 1-d shape, got {shapes}"
        )
    dimension = arrays[0].shape[0]
    threshold = len(arrays)
    group = group if group is not None else TOY_GROUP
    # Per-child generators spawn in child order, mirroring the leaf
    # transports' sorted-index convention.
    clients = {
        position
        + 1: ClientSession(
            index=position + 1,
            vector=array,
            modulus=modulus,
            threshold=threshold,
            rng=np.random.default_rng(int(rng.integers(0, 2**63))),
            group=group,
            field=field,
            mask_prg=mask_prg,
            metrics=metrics,
        )
        for position, array in enumerate(arrays)
    }
    server = ServerSession(
        modulus,
        dimension,
        threshold,
        field,
        group,
        mask_prg,
        metrics=metrics,
    )
    drive_in_memory(server, clients, metrics=metrics)
    if server.included != frozenset(clients):
        raise AggregationError(
            "a composition round lost a virtual client — coordinators "
            "are in-process and must never drop"
        )
    return server.modular_sum, server.stats
