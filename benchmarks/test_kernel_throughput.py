"""Kernel micro-benchmarks: mask PRG, Shamir and key-agreement throughput.

Measures the vectorised SecAgg kernels — masks/sec for the SHAKE-256
mask PRG, cold and replayed from its memo; shares/sec for batched
Shamir split/reconstruct vs the per-coefficient Python loops; and the
scalar-``pow`` / window-table crossovers that
``repro.secagg.keys.SCALAR_BATCH_MAX`` and ``TABLE_POWER_MIN`` record.  Rows are printed, not
persisted: the committed performance ledger is ``bench/`` (``python3
bench/run.py``).

The smoke assertions run in tier 1: they only require the vectorised
kernels not to be *slower* than the scalar baselines (with generous
slack for timer noise), guarding against a regression that silently
reroutes the hot paths through scalar code, and the memo not to be
slower than expanding afresh.
"""

from __future__ import annotations

import time

import numpy as np

from repro.secagg.bonawitz import _key_limbs
from repro.secagg.field import DEFAULT_FIELD
from repro.secagg.kernels import MaskPrg
from repro.secagg.keys import (
    SCALAR_BATCH_MAX,
    TABLE_POWER_MIN,
    TOY_GROUP,
    _KeyTables,
    generate_keypair,
)
from repro.secagg.shamir import (
    Share,
    reconstruct_quorum,
    reconstruct_secrets,
    split_large_secret,
    split_secrets,
)
from tests.secagg_reference import (
    reconstruct_secret_scalar,
    split_secret_scalar,
)

MASK_DIMENSION = 512
MASK_BATCH = 48
MODULUS = 2**16
SHAMIR_THRESHOLD = 48
SHAMIR_SHARES = 96
SHAMIR_BATCH = 6
#: What one client of ``bench``'s ``secagg_quadratic`` splits in its
#: share-keys leg: a seed and the toy group's one key digit, over 128
#: clients at threshold 77.
ROUND_SPLIT_SHARES = 128
ROUND_SPLIT_THRESHOLD = 77
#: What one unmask phase of ``bench``'s ``secagg_recovery`` reconstructs:
#: 96 clients, 28 silent after sharing keys, a quorum of 58.
ROUND_CLIENTS = 96
ROUND_DROPOUTS = 28
ROUND_QUORUM = 58


def _interleaved_best_of(repeats: int, *funcs) -> list[float]:
    """Best wall time per function — robust to scheduler noise — with
    the functions taking turns, so all see the same machine."""
    best = [float("inf")] * len(funcs)
    for _ in range(repeats):
        for position, func in enumerate(funcs):
            started = time.perf_counter()
            func()
            best[position] = min(best[position], time.perf_counter() - started)
    return best


def _best_of(repeats: int, func) -> float:
    return _interleaved_best_of(repeats, func)[0]


def test_mask_prg_throughput(emit):
    """Masks/sec: SHAKE-256 cold and replayed from the memo."""
    seeds = [bytes([i & 255, i >> 8]) * 16 for i in range(MASK_BATCH)]

    def cold():
        # Fresh instance per repetition: measures the hash loop itself,
        # not the per-instance word memo.
        MaskPrg().expand_batch(seeds, MASK_DIMENSION, MODULUS)

    prg = MaskPrg()
    prg.expand_batch(seeds, MASK_DIMENSION, MODULUS)  # fill the memo

    def warm():
        prg.expand_batch(seeds, MASK_DIMENSION, MODULUS)

    shake_time, shake_cached = _interleaved_best_of(5, cold, warm)
    for name, elapsed in [
        ("shake256-batch", shake_time),
        ("shake256-cached", shake_cached),
    ]:
        emit(
            f"kernel_masks backend={name:17s} dimension={MASK_DIMENSION} "
            f"batch={MASK_BATCH} masks_per_sec={MASK_BATCH / elapsed:10.1f}",
        )
    # The memo makes re-expansion of the same seeds nearly free.
    assert shake_cached <= shake_time


def test_key_agreement_crossover(emit, bench_rng):
    """Scalar ``pow`` per peer vs window tables, by lane count.

    The measurement ``SCALAR_BATCH_MAX`` is set from.  ``batch`` prices
    one batch of table-less peers either way: ``lanes`` scalar ``pow``
    calls against building the tables of the peers and the caller's own
    key, then evaluating the batch from them.  ``roster`` prices what
    such a batch opens: a roster of ``lanes + 1`` parties agreeing
    pairwise through the pair memo (party ``i`` raises the keys of the
    parties after it), all on scalar ``pow`` against one build and an
    evaluation a party.
    """
    prime = TOY_GROUP.prime
    for lanes in (
        SCALAR_BATCH_MAX // 4, SCALAR_BATCH_MAX, 4 * SCALAR_BATCH_MAX
    ):
        keys = [generate_keypair(bench_rng, TOY_GROUP) for _ in range(lanes + 1)]
        publics = [key.public for key in keys]
        private = keys[0].private

        def batch_scalar():
            return [pow(peer, private, prime) for peer in publics[1:]]

        def batch_tables():
            tables = _KeyTables(prime)
            tables.add(publics)
            return tables.power(publics[1:], private).tolist()

        def roster_scalar():
            return [
                [pow(peer, key.private, prime) for peer in publics[i + 1 :]]
                for i, key in enumerate(keys[:-1])
            ]

        def roster_tables():
            tables = _KeyTables(prime)
            tables.add(publics)
            return [
                tables.power(publics[i + 1 :], key.private).tolist()
                for i, key in enumerate(keys[:-1])
            ]

        assert batch_scalar() == batch_tables()
        assert roster_scalar() == roster_tables()
        timings = _interleaved_best_of(
            9, batch_scalar, batch_tables, roster_scalar, roster_tables
        )
        emit(
            f"kernel_dh lanes={lanes:4d} "
            f"scalar_pow_us={1e6 * timings[0] / lanes:6.2f} "
            f"batch_scalar_us={1e6 * timings[0]:8.1f} "
            f"batch_tables_us={1e6 * timings[1]:8.1f} "
            f"roster_scalar_us={1e6 * timings[2]:9.1f} "
            f"roster_tables_us={1e6 * timings[3]:8.1f} "
            f"(SCALAR_BATCH_MAX={SCALAR_BATCH_MAX})",
        )
        # A factor of four to either side of the constant the roster's
        # choice must be clear, or the constant (or a kernel) has gone
        # stale.
        if lanes < SCALAR_BATCH_MAX:
            assert timings[2] < timings[3]
        elif lanes > SCALAR_BATCH_MAX:
            assert timings[3] < timings[2]


def test_held_table_crossover(emit, bench_rng):
    """Scalar ``pow`` per peer vs one evaluation from tables already
    held, by lane count: the measurement ``TABLE_POWER_MIN`` is set
    from.  An evaluation costs about the same at any lane count, so
    below a handful of lanes ``lanes`` scalar ``pow`` calls are cheaper.
    """
    prime = TOY_GROUP.prime
    keys = [generate_keypair(bench_rng, TOY_GROUP) for _ in range(17)]
    publics = [key.public for key in keys]
    private = keys[0].private
    tables = _KeyTables(prime)
    tables.add(publics)
    for lanes in (1, 2, TABLE_POWER_MIN - 1, TABLE_POWER_MIN, 16):
        peers = publics[1 : lanes + 1]

        def scalar():
            return [pow(peer, private, prime) for peer in peers]

        def held():
            return tables.power(peers, private).tolist()

        assert scalar() == held()
        timings = _interleaved_best_of(9, scalar, held)
        emit(
            f"kernel_dh_held lanes={lanes:3d} "
            f"scalar_us={1e6 * timings[0]:7.1f} "
            f"tables_us={1e6 * timings[1]:7.1f} "
            f"(TABLE_POWER_MIN={TABLE_POWER_MIN})",
        )
        # A factor of two or more to either side of the constant the
        # choice must be clear, or the constant has gone stale.
        if 2 * lanes <= TABLE_POWER_MIN:
            assert timings[0] < timings[1]
        elif lanes >= 2 * TABLE_POWER_MIN:
            assert timings[1] < timings[0]


def test_shamir_throughput(emit, bench_rng):
    """Shares/sec: scalar split/reconstruct loops vs the matrix kernels.

    The ``path=batched`` rows (t = 48, n = 96, six secrets) compare the
    kernels — one exact modular matrix product each way — with the
    per-coefficient Python loops.  The ``path=round`` rows are the
    shapes a round really runs and the ones README "Performance"
    quotes: the split one client makes on ``secagg_quadratic``
    (3 secrets, t = 77, n = 128) and the reconstruction one unmask phase
    makes on ``secagg_recovery``.  Regenerate them with ``PYTHONPATH=src
    python -m pytest -q -s benchmarks/test_kernel_throughput.py -k
    shamir``.
    """
    field = DEFAULT_FIELD
    secrets = [
        int(bench_rng.integers(0, field.prime)) for _ in range(SHAMIR_BATCH)
    ]

    def scalar_split():
        for secret in secrets:
            split_secret_scalar(
                secret, SHAMIR_THRESHOLD, SHAMIR_SHARES, bench_rng, field
            )

    def batched_split_call():
        split_secrets(
            secrets, SHAMIR_THRESHOLD, SHAMIR_SHARES, bench_rng, field
        )

    scalar_split_time = _best_of(5, scalar_split)
    batched_split_time = _best_of(5, batched_split_call)
    total_shares = SHAMIR_BATCH * SHAMIR_SHARES
    emit(
        f"kernel_shamir op=split     path=scalar    t={SHAMIR_THRESHOLD} "
        f"n={SHAMIR_SHARES} batch={SHAMIR_BATCH} "
        f"shares_per_sec={total_shares / scalar_split_time:10.1f}",
    )
    emit(
        f"kernel_shamir op=split     path=batched   t={SHAMIR_THRESHOLD} "
        f"n={SHAMIR_SHARES} batch={SHAMIR_BATCH} "
        f"shares_per_sec={total_shares / batched_split_time:10.1f}",
    )
    assert batched_split_time <= scalar_split_time * 1.5

    round_secrets = secrets[: 1 + _key_limbs(TOY_GROUP, field)]
    round_split_time = _best_of(
        50,
        lambda: split_secrets(
            round_secrets,
            ROUND_SPLIT_THRESHOLD,
            ROUND_SPLIT_SHARES,
            bench_rng,
            field,
        ),
    )
    emit(
        f"kernel_shamir op=split     path=round     "
        f"t={ROUND_SPLIT_THRESHOLD} n={ROUND_SPLIT_SHARES} "
        f"secrets={len(round_secrets)} "
        f"us_per_call={round_split_time * 1e6:7.1f} "
        f"shares_per_sec="
        f"{len(round_secrets) * ROUND_SPLIT_SHARES / round_split_time:10.1f}",
    )

    share_matrix = split_secrets(
        secrets, SHAMIR_THRESHOLD, SHAMIR_SHARES, bench_rng, field
    )
    xs = list(range(1, SHAMIR_THRESHOLD + 1))
    rows = [
        [int(share_matrix[i, j]) for j in range(SHAMIR_THRESHOLD)]
        for i in range(SHAMIR_BATCH)
    ]
    share_objects = [
        [Share(x=x, y=y) for x, y in zip(xs, row)] for row in rows
    ]

    def scalar_reconstruct():
        for shares in share_objects:
            reconstruct_secret_scalar(shares, field)

    scalar_rec_time = _best_of(5, scalar_reconstruct)
    batched_rec_time = _best_of(
        5, lambda: reconstruct_secrets(xs, rows, field)
    )
    recovered = reconstruct_secrets(xs, rows, field)
    assert recovered == secrets  # exactness, not just speed
    total = SHAMIR_BATCH * SHAMIR_THRESHOLD
    emit(
        f"kernel_shamir op=reconstruct path=scalar  t={SHAMIR_THRESHOLD} "
        f"n={SHAMIR_SHARES} batch={SHAMIR_BATCH} "
        f"shares_per_sec={total / scalar_rec_time:10.1f}",
    )
    emit(
        f"kernel_shamir op=reconstruct path=batched t={SHAMIR_THRESHOLD} "
        f"n={SHAMIR_SHARES} batch={SHAMIR_BATCH} "
        f"shares_per_sec={total / batched_rec_time:10.1f}",
    )
    assert batched_rec_time <= scalar_rec_time * 1.5

    # The row above reconstructs one secret set per call, which is not
    # what a round does.  The round-shaped case: every survivor's seed
    # and every digit of every dropout's key, one quorum, one call.
    limbs = _key_limbs(TOY_GROUP, field)
    seeds = [
        int(bench_rng.integers(0, field.prime))
        for _ in range(ROUND_CLIENTS - ROUND_DROPOUTS)
    ]
    # Toy-group private keys, [2, p - 2].
    keys = [
        int(bench_rng.integers(2, TOY_GROUP.prime - 1))
        for _ in range(ROUND_DROPOUTS)
    ]
    seed_matrix = split_secrets(
        seeds, ROUND_QUORUM, ROUND_CLIENTS, bench_rng, field
    )
    round_xs = list(range(1, ROUND_QUORUM + 1))
    seed_rows = seed_matrix[:, :ROUND_QUORUM].tolist()
    key_sets = [
        split_large_secret(
            key, ROUND_QUORUM, ROUND_CLIENTS, bench_rng, field
        )[:ROUND_QUORUM]
        for key in keys
    ]

    def round_reconstruct():
        return reconstruct_quorum(round_xs, seed_rows, key_sets, field)

    round_time = _best_of(5, round_reconstruct)
    assert round_reconstruct() == (seeds, keys)
    round_rows = len(seeds) + ROUND_DROPOUTS * limbs
    emit(
        f"kernel_shamir op=reconstruct path=round   t={ROUND_QUORUM} "
        f"n={ROUND_CLIENTS} seeds={len(seeds)} dropouts={ROUND_DROPOUTS} "
        f"limbs={limbs} ms_per_phase={round_time * 1e3:7.2f} "
        f"shares_per_sec={round_rows * ROUND_QUORUM / round_time:10.1f}",
    )
