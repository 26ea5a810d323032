"""Durable round checkpointing: append-only JSONL journal + ledger.

The net server journals four record kinds, each one JSON object per
line, fsync'd before the round proceeds:

``round-start``
    ``{"kind": "round-start", "round": id, "cohort": [...], "params": {...}}``
    — written when the cohort is gathered, before any phase runs.
``phase``
    ``{"kind": "phase", "round": id, "phase": tag, "uploads": {client: b64}}``
    — written after a phase *commits* (its uploads were ingested and the
    server session advanced).  Because :class:`~repro.secagg.bonawitz.
    BonawitzServer` draws no randomness, replaying the committed uploads
    through a fresh :class:`~repro.secagg.statemachine.ServerSession`
    reconstructs the server state — and every emitted delivery —
    byte-identically.
``charge``
    ``{"kind": "charge", "round": id, "epsilon": x}`` — written once the
    last phase commits, *before* the round's ``round-end``, and at most
    one per round id; :class:`DurableLedger` refuses duplicates, which
    is what makes a killed-and-restarted server unable to double-charge.
``round-end``
    ``{"kind": "round-end", "round": id, "outcome": ..., "digest": ...}``
    — the round's last record.

So a completed round journals ``round-start``, its ``phase`` commits,
``charge``, ``round-end``, in that order, and an aborted one the same
without the ``charge``.  A crash between ``charge`` and ``round-end``
leaves an interrupted round whose replayed charge the ledger refuses:
no round is ever recorded completed without its charge, and the worst
a crash can do is charge a round that then aborts.

Recovery (:func:`recover_journal`) scans the file, tolerates a torn
final line (the crash may have landed mid-write; an uncommitted suffix
is discarded), and reports the interrupted round — if any — with its
committed phase uploads so the server can resume it or cleanly abort
without re-charging.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigurationError

__all__ = [
    "DurableLedger",
    "InterruptedRound",
    "JournalRecovery",
    "RoundJournal",
    "recover_journal",
]


class RoundJournal:
    """Append-only JSONL writer with per-record flush + fsync."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, record: Mapping[str, Any]) -> None:
        if self._handle.closed:
            raise ConfigurationError("journal is closed")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def round_start(
        self,
        round_id: int,
        cohort: list[int],
        params: Mapping[str, Any],
    ) -> None:
        self.append(
            {
                "kind": "round-start",
                "round": round_id,
                "cohort": sorted(cohort),
                "params": dict(params),
            }
        )

    def phase_commit(
        self, round_id: int, phase: str, uploads: Mapping[int, bytes]
    ) -> None:
        encoded = {
            str(client): base64.b64encode(data).decode("ascii")
            for client, data in sorted(uploads.items())
        }
        self.append(
            {
                "kind": "phase",
                "round": round_id,
                "phase": phase,
                "uploads": encoded,
            }
        )

    def charge(self, round_id: int, epsilon: float) -> None:
        self.append({"kind": "charge", "round": round_id, "epsilon": epsilon})

    def round_end(
        self, round_id: int, outcome: str, digest: str | None = None
    ) -> None:
        self.append(
            {
                "kind": "round-end",
                "round": round_id,
                "outcome": outcome,
                "digest": digest,
            }
        )

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RoundJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass(frozen=True)
class InterruptedRound:
    """A round that started but never reached ``round-end``."""

    round_id: int
    cohort: tuple[int, ...]
    params: dict[str, Any]
    #: Committed phases in journal order: ``(phase_tag, {client: datagram})``.
    phases: tuple[tuple[str, dict[int, bytes]], ...]


@dataclass(frozen=True)
class JournalRecovery:
    """Everything a restarted server needs from a prior journal."""

    next_round_id: int
    charged: dict[int, float] = field(default_factory=dict)
    completed: tuple[int, ...] = ()
    aborted: tuple[int, ...] = ()
    interrupted: InterruptedRound | None = None

    @property
    def cumulative_epsilon(self) -> float:
        return float(sum(self.charged.values()))


def recover_journal(path: str | os.PathLike[str]) -> JournalRecovery:
    """Parse a journal, tolerating a torn trailing line."""
    journal_path = Path(path)
    if not journal_path.exists():
        return JournalRecovery(next_round_id=0)

    records: list[dict[str, Any]] = []
    with open(journal_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines) - 1:
                break  # torn final write from the crash; discard
            raise ConfigurationError(
                f"corrupt journal record at {journal_path}:{lineno + 1}"
            )
        records.append(record)

    charged: dict[int, float] = {}
    completed: list[int] = []
    aborted: list[int] = []
    open_rounds: dict[int, dict[str, Any]] = {}
    max_round = -1
    for record in records:
        round_id = int(record["round"])
        max_round = max(max_round, round_id)
        kind = record["kind"]
        if kind == "round-start":
            open_rounds[round_id] = {
                "cohort": tuple(int(c) for c in record["cohort"]),
                "params": dict(record["params"]),
                "phases": [],
            }
        elif kind == "phase":
            state = open_rounds.get(round_id)
            if state is not None:
                uploads = {
                    int(client): base64.b64decode(data)
                    for client, data in record["uploads"].items()
                }
                state["phases"].append((str(record["phase"]), uploads))
        elif kind == "charge":
            # Idempotent by round id: the first charge wins; replays of
            # the same id (which a correct server never writes) are
            # ignored rather than summed.
            charged.setdefault(round_id, float(record["epsilon"]))
        elif kind == "round-end":
            open_rounds.pop(round_id, None)
            if record["outcome"] == "completed":
                completed.append(round_id)
            else:
                aborted.append(round_id)

    interrupted: InterruptedRound | None = None
    if open_rounds:
        # At most one round is in flight at a time; if a corrupt journal
        # claims several, recover the latest and treat the rest as lost.
        round_id = max(open_rounds)
        state = open_rounds[round_id]
        interrupted = InterruptedRound(
            round_id=round_id,
            cohort=state["cohort"],
            params=state["params"],
            phases=tuple(
                (tag, dict(uploads)) for tag, uploads in state["phases"]
            ),
        )

    return JournalRecovery(
        next_round_id=max_round + 1,
        charged=charged,
        completed=tuple(completed),
        aborted=tuple(aborted),
        interrupted=interrupted,
    )


class DurableLedger:
    """Epsilon ledger whose charges are idempotent by round id.

    Wraps a :class:`RoundJournal` (optional — ``None`` keeps the ledger
    purely in memory, used by tests and the simulated engine's chaos
    checks) and refuses to charge the same round twice, which is the
    property that makes a kill-and-restart unable to double-spend the
    privacy budget.

    A server charges round ids in increasing order, and a restart
    replays only the interrupted round, the journal's highest id.  So
    the ledger keeps the running total and the highest charged id, not
    one entry a round: a charge at or below that id is a replay.
    """

    def __init__(
        self,
        journal: RoundJournal | None = None,
        charged: Mapping[int, float] | None = None,
    ) -> None:
        self._journal = journal
        charged = charged or {}
        self._last = max(charged, default=-1)
        self._epsilon = float(sum(charged.values()))

    def charge(self, round_id: int, epsilon: float) -> bool:
        """Charge ``epsilon`` for ``round_id``; False if already charged."""
        if epsilon < 0:
            raise ConfigurationError("epsilon charge must be >= 0")
        if round_id <= self._last:
            return False
        if self._journal is not None:
            self._journal.charge(round_id, epsilon)
        self._last = round_id
        self._epsilon += float(epsilon)
        return True

    @property
    def epsilon(self) -> float:
        return self._epsilon
