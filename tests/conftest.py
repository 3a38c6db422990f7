import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from torus_hartree import GaussianPotential, TorusLattice

# Property tests draw the same examples on every run and store none, so two
# runs of the suite differ only by the code under test.  A test's own
# @settings still sets its max_examples.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
# Hypothesis still caches the literals it mines from the source; keep that
# cache in a directory removed at exit rather than in .hypothesis/.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture(scope="session")
def gaussian():
    return GaussianPotential()


@pytest.fixture
def small_lattice():
    return TorusLattice(4.0, 2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
