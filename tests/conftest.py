"""Shared fixtures: small grids, stacks and benchmark cases.

Tests run on reduced footprints (21x21 or smaller) so the whole suite stays
fast; physics invariants (conservation laws, monotonicity, model agreement)
are scale-free and hold at any size.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Callable, List

import numpy as np
import pytest

from repro.constants import CELL_WIDTH
from repro.geometry import build_contest_stack
from repro.iccad2015 import load_case
from repro.materials import WATER
from repro.networks import plan_tree_bands, straight_network
from repro.optimize import parallel


@pytest.fixture(autouse=True)
def _cold_scorers():
    """Start every test with an empty process scorer LRU, as in a new
    process: a memo left by an earlier test would skip the simulations
    a counter assertion expects."""
    parallel._contexts.clear()
    yield


def fork_while_busy(
    busy: Callable[[], object],
    child: Callable[[], object],
    n_children: int = 20,
    timeout: float = 5.0,
) -> List[str]:
    """Fork ``n_children`` children while a thread loops ``busy``; each
    child runs ``child`` once and exits.

    Returns one line per child that failed or still ran ``timeout`` seconds
    after the last fork (it is killed): a child that inherited a lock
    ``busy`` held at the fork waits for it forever.
    """
    stop = threading.Event()

    def loop():
        while not stop.is_set():
            busy()

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    children = []
    try:
        for _ in range(n_children):
            pid = os.fork()
            if pid == 0:  # the child: run once, then leave
                try:
                    child()
                except BaseException:
                    os._exit(1)
                os._exit(0)
            children.append(pid)
    finally:
        stop.set()
        thread.join()
    deadline = time.monotonic() + timeout
    problems = []
    for pid in children:
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                if os.waitstatus_to_exitcode(status) != 0:
                    problems.append(f"child {pid} failed")
                break
            if time.monotonic() > deadline:
                problems.append(f"child {pid} hung")
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)
    return problems


@pytest.fixture
def straight_grid():
    """A 21x21 straight-channel network (west to east)."""
    return straight_network(21, 21)


@pytest.fixture
def tree_grid():
    """A 21x21 tree-like network."""
    return plan_tree_bands(21, 21).build()


@pytest.fixture
def uniform_power():
    """A 2 W uniform power map on the 21x21 footprint."""
    return np.full((21, 21), 2.0 / (21 * 21))


@pytest.fixture
def small_stack(straight_grid, uniform_power):
    """A 2-die stack with straight channels and uniform power."""
    return build_contest_stack(
        n_dies=2,
        channel_height=200e-6,
        power_maps=[uniform_power, uniform_power],
        grid_factory=lambda die: straight_grid.copy(),
        nrows=21,
        ncols=21,
        cell_width=CELL_WIDTH,
    )


@pytest.fixture
def tree_stack(tree_grid, uniform_power):
    """A 2-die stack with a tree network and uniform power."""
    return build_contest_stack(
        n_dies=2,
        channel_height=200e-6,
        power_maps=[uniform_power, uniform_power],
        grid_factory=lambda die: tree_grid.copy(),
        nrows=21,
        ncols=21,
        cell_width=CELL_WIDTH,
    )


@pytest.fixture
def coolant():
    return WATER


@pytest.fixture
def case1_small():
    """Benchmark case 1 at a 21x21 footprint."""
    return load_case(1, grid_size=21)


@pytest.fixture
def case3_small():
    """Benchmark case 3 (restricted area) at a 31x31 footprint."""
    return load_case(3, grid_size=31)
