"""Shared fixtures for the test suite.

The fixtures centralise the small codes, noise models and compute budgets
used across tests so that individual test modules stay focused on behaviour
rather than setup.  Everything is sized to keep the full suite fast.
"""

from __future__ import annotations

import pytest

from repro.codes import (
    bb_code_72_12_6,
    five_qubit_code,
    hexagonal_color_code,
    repetition_code,
    rotated_surface_code,
    steane_code,
    toric_code,
)
from repro.core import MCTSConfig
from repro.api.registries import decoders
from repro.noise import NoiseModel, brisbane_noise
from repro.scheduling import google_surface_schedule, lowest_depth_schedule, trivial_schedule


@pytest.fixture(scope="session")
def steane():
    return steane_code()


@pytest.fixture(scope="session")
def surface_d3():
    return rotated_surface_code(3)


@pytest.fixture(scope="session")
def surface_d5():
    return rotated_surface_code(5)


@pytest.fixture(scope="session")
def color_d5():
    return hexagonal_color_code(5)


@pytest.fixture(scope="session")
def five_qubit():
    return five_qubit_code()


@pytest.fixture(scope="session")
def repetition_5():
    return repetition_code(5)


@pytest.fixture(scope="session")
def toric_d3():
    return toric_code(3)


@pytest.fixture(scope="session")
def bb_code():
    return bb_code_72_12_6()


@pytest.fixture(scope="session")
def brisbane():
    return brisbane_noise()


@pytest.fixture(scope="session")
def light_noise():
    """A lighter uniform noise model that keeps sampled error rates small."""
    return NoiseModel(two_qubit_error=0.002, idle_error=0.001)


@pytest.fixture(scope="session")
def surface_d3_google(surface_d3):
    return google_surface_schedule(surface_d3)


@pytest.fixture(scope="session")
def surface_d3_lowest(surface_d3):
    return lowest_depth_schedule(surface_d3)


@pytest.fixture(scope="session")
def surface_d3_trivial(surface_d3):
    return trivial_schedule(surface_d3)


@pytest.fixture(scope="session")
def tiny_mcts_config():
    """A minuscule MCTS budget that keeps synthesis tests to a few seconds."""
    return MCTSConfig(iterations_per_step=2, seed=0, max_total_evaluations=6)


@pytest.fixture(scope="session")
def lookup_factory():
    return decoders.build("lookup")


@pytest.fixture(scope="session")
def mwpm_factory():
    return decoders.build("mwpm")


@pytest.fixture(scope="session")
def unionfind_factory():
    return decoders.build("unionfind")


@pytest.fixture(scope="session")
def bposd_factory():
    return decoders.build("bposd")
