"""Importing the package pays only for code that runs.

Every process imports ``repro`` — ``repro serve`` included, which never
draws noise — so work done at import time is paid on every start.
``scipy`` (``scipy.special`` pulls in ``numpy.f2py``, ``numpy.testing``
and ``charset_normalizer``) costs about 0.3 s and 17 MiB after numpy,
and building the 1024-bit Oakley group runs a Miller-Rabin test.  The
first test imports the entry points in a fresh interpreter and checks
that neither happened; the runtime probes run one round of each SecAgg
driver in a fresh interpreter and check that scipy still is not loaded,
while the calibration probe records where it is: the Skellam pmf and the
subsampled RDP sum.  The last test checks that the ``group=None``
defaults still mean Oakley-2.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.secagg.bonawitz import BonawitzServer
from repro.secagg.keys import (
    OAKLEY_GROUP_2_PRIME,
    DhGroup,
    generate_keypair,
    oakley_group,
)
from repro.secagg.statemachine import ServerSession

SRC = pathlib.Path(repro.__file__).resolve().parent.parent

#: Prints whether any ``scipy`` module was imported, how many groups the
#: Oakley accessor holds, and the bit length of every ``DhGroup`` validated
#: while importing (a profile hook sees each ``DhGroup.__post_init__`` call).
PROBE = """
import sys
built = []
def watch(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "__post_init__":
        group = frame.f_locals["self"]
        if type(group).__name__ == "DhGroup":
            built.append(group.prime.bit_length())
sys.setprofile(watch)
import repro.cli, repro.net, repro.simulation
sys.setprofile(None)
from repro.secagg.keys import oakley_group
print("scipy" in sys.modules, oakley_group.cache_info().currsize, built)
"""


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter on ``src/``; returns stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_entry_points_import_no_scipy_and_build_no_oakley_group():
    # Only TOY_GROUP, the 61-bit module constant, is built at import.
    assert run_fresh(PROBE).split() == ["False", "0", "[61]"]


#: One round of each driver that runs SecAgg and nothing else.
ROUNDS = {
    "run_bonawitz": """
from repro.secagg import run_bonawitz
rng = np.random.default_rng(0)
inputs = rng.integers(0, 2**16, size=(6, 8), dtype=np.int64)
outcome = run_bonawitz(inputs, 2**16, 4, rng)
assert np.array_equal(outcome.modular_sum, inputs.sum(axis=0) % 2**16)
""",
    "async_with_dropout": """
from repro.secagg.bonawitz import ROUND_MASKED_INPUT
from repro.simulation import AsyncSecAggRound, ClientPlan, SimulatedClock
rng = np.random.default_rng(0)
vectors = {u: rng.integers(0, 2**16, size=8) for u in range(1, 7)}
clock = SimulatedClock()
outcome = clock.run(AsyncSecAggRound(
    vectors, 2**16, 4, clock, rng,
    plans={3: ClientPlan(drop_phase=ROUND_MASKED_INPUT)},
).run())
assert outcome.included == {1, 2, 4, 5, 6}
""",
    "hierarchical_secagg": """
from repro.simulation import HierarchicalSecAggRound, SimulatedClock
rng = np.random.default_rng(0)
vectors = {u: rng.integers(0, 2**16, size=8) for u in range(1, 17)}
outcome = HierarchicalSecAggRound(
    vectors=vectors, modulus=2**16, clock=SimulatedClock(), rng=rng,
    topology="2x2", threshold_fraction=0.6, composer="secagg",
).execute()
assert outcome.composer == "secagg" and len(outcome.included) == 16
""",
    "server_and_swarm": """
import asyncio
from repro.net import (
    SecAggServer, ServerConfig, SwarmConfig, expected_digest, run_swarm,
)
config = SwarmConfig(clients=6, threshold=3, dimension=8, dropouts=1, seed=1)
async def scenario():
    server = SecAggServer(ServerConfig(
        cohort_size=6, threshold=3, dimension=8, metrics_port=None,
    ))
    async with server:
        swarm = asyncio.ensure_future(
            run_swarm("127.0.0.1", server.port, config)
        )
        (result,) = await asyncio.wait_for(server.serve_rounds(), 60)
        await swarm
    return result
assert asyncio.run(scenario()).digest == expected_digest(config)
""",
}


@pytest.mark.parametrize("name", sorted(ROUNDS))
def test_secagg_rounds_load_no_scipy(name):
    code = "import sys\nimport numpy as np\n" + ROUNDS[name]
    assert run_fresh(code + 'print("scipy" in sys.modules)').split() == [
        "False"
    ]


def test_calibration_loads_scipy():
    # Subsampled accounting (the paper's FL regime) sums the RDP series
    # with gammaln/logsumexp, and the noise table evaluates the pmf.
    calibrate = """
import sys
from repro.config import CompressionConfig, PrivacyBudget
from repro.core.calibration import AccountingSpec
from repro.mechanisms import InputSpec, SkellamMixtureMechanism
mechanism = SkellamMixtureMechanism(CompressionConfig(modulus=2**8, gamma=32.0))
print("scipy" in sys.modules)
mechanism.calibrate(InputSpec(100, 64), AccountingSpec(
    budget=PrivacyBudget(epsilon=3.0, delta=1e-5),
    rounds=8, sampling_rate=0.01,
))
print("scipy" in sys.modules)
"""
    assert run_fresh(calibrate).split() == ["False", "True"]
    noise = """
import sys
import numpy as np
from repro.sampling.fast import skellam_noise
print("scipy" in sys.modules)
skellam_noise(100.0, 16, np.random.default_rng(0))
print("scipy" in sys.modules)
"""
    assert run_fresh(noise).split() == ["False", "True"]


def test_group_defaults_resolve_to_oakley_2():
    group = oakley_group()
    assert isinstance(group, DhGroup)
    assert group.prime == OAKLEY_GROUP_2_PRIME
    assert oakley_group() is group
    assert BonawitzServer(2**8, 4, 2)._group is group
    assert ServerSession(2**8, 4, 2)._crypto._group is group
    pair = generate_keypair(np.random.default_rng(0))
    assert pair.group is group
    assert 1 < pair.public < OAKLEY_GROUP_2_PRIME
