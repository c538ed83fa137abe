import pytest

from oracles import occupancy_field
from poissonpolymer.environment import SpaceTimeBox, sample_poisson
from poissonpolymer.geometry import unit_ball_radius
from poissonpolymer.polymer import (
    bounding_box_for,
    build_ensemble,
    sample_paths,
)
from poissonpolymer.streams import substream


def random_gibbs_ensemble(seed, d=1, beta=0.7, nu=1.5, t=2.0, n_steps=32, n_paths=24):
    """Small ensemble on a covering window, for invariant tests."""
    positions = sample_paths(t, n_steps, d, n_paths, substream(seed, "paths", 0))
    lo, hi = bounding_box_for(positions)
    box = SpaceTimeBox(t_max=t, lo=lo, hi=hi)
    cloud = sample_poisson(box, nu, substream(seed, "cloud", 0))
    return build_ensemble(positions, t, cloud, beta)


def random_ensemble(seed, d=1, beta=0.7, nu=1.5, t=2.0, n_steps=32,
                    n_paths=24, h=None):
    """``random_gibbs_ensemble`` and its whole field at h (default r_d / 4)."""
    ensemble = random_gibbs_ensemble(seed, d, beta, nu, t, n_steps, n_paths)
    fld = occupancy_field(ensemble, h if h is not None else unit_ball_radius(d) / 4)
    return ensemble, fld


@pytest.fixture
def small_ensemble():
    return random_ensemble(seed=11)
