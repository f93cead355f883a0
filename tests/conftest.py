import math

import pytest

from juliazeta.dynamics import AffinePair, MapSpec, Mode, build_orbit_catalog
from juliazeta.zeros import leading_real_zero
from juliazeta.zeta import FredholmEvaluator

GOLDEN_DELTA = math.log2((1.0 + math.sqrt(5.0)) / 2.0)  # model (2,4) dimension


@pytest.fixture(scope="session")
def spec6():
    return MapSpec(c=-6)


@pytest.fixture(scope="session")
def cat12(spec6):
    return build_orbit_catalog(spec6, 12)


@pytest.fixture(scope="session")
def cat16():
    # the per-iterate separation guard at depth 16 needs the slightly
    # tighter point tolerance; located residuals are ~1e-15 regardless
    return build_orbit_catalog(MapSpec(c=-6, tol_point=5e-13), 16)


@pytest.fixture(scope="session")
def complex_cat8():
    return build_orbit_catalog(MapSpec(c=-6.0 + 0.3j, mode=Mode.COMPLEX_2D), 8)


@pytest.fixture(scope="session")
def fredholm6(spec6):
    return FredholmEvaluator(spec6, level=2)


@pytest.fixture(scope="session")
def fredholm6_l3(spec6):
    return FredholmEvaluator(spec6, level=3)


@pytest.fixture(scope="session")
def delta6(fredholm6):
    return leading_real_zero(fredholm6, (0.05, 0.95)).s.real


@pytest.fixture(scope="session")
def affine24():
    return AffinePair((2.0, 4.0))


@pytest.fixture(scope="session")
def affine24_cat(affine24):
    return affine24.orbit_catalog(14)


@pytest.fixture(scope="session")
def middle_thirds():
    return AffinePair((3.0, 3.0))
