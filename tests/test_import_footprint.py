"""Importing the package pays only for code that runs.

Every process imports ``repro`` — ``repro serve`` included, which never
draws noise — so work done at import time is paid on every start:
``scipy.stats`` costs about 0.6 s and 46 MiB, and building the 1024-bit
Oakley group runs a Miller-Rabin test.  The first test imports the entry
points in a fresh interpreter and checks that neither happened; the
second checks that the ``group=None`` defaults still mean Oakley-2.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np

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

#: Prints whether ``scipy.stats`` was imported, how many groups the Oakley
#: accessor holds, and the bit length of every ``DhGroup`` validated while
#: importing (a profile hook sees each ``DhGroup.__post_init__`` call).
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
print("scipy.stats" in sys.modules, oakley_group.cache_info().currsize, built)
"""


def test_entry_points_import_no_scipy_stats_and_build_no_oakley_group():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    # Only TOY_GROUP, the 61-bit module constant, is built at import.
    assert result.stdout.split() == ["False", "0", "[61]"]


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
