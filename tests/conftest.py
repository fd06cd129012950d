import numpy as np
import pytest

import vps.cli
import vps.core
import vps.mesolver
import vps.profiles


@pytest.fixture()
def spectral_radius_calls(monkeypatch):
    """Record every spectral radius call, through both names it is reached
    by: `vps.profiles.spectral_radius` and the CLI's `vps.cli.spectral_radius`."""
    calls = []
    original = vps.profiles.spectral_radius

    def counted(profile, *args, **kwargs):
        calls.append(profile)
        return original(profile, *args, **kwargs)

    monkeypatch.setattr(vps.profiles, "spectral_radius", counted)
    monkeypatch.setattr(vps.cli, "spectral_radius", counted)
    return calls


@pytest.fixture()
def svd_calls(monkeypatch):
    """Record the outputs of every `np.linalg.svd` call, so a test can count
    them and check what the program keeps of them."""
    calls = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.fixture()
def pair_classes_calls(monkeypatch):
    """Record the matrix of every `vps.core._pair_classes` call, the scan
    behind `VarianceProfile.pair_classes`."""
    calls = []
    original = vps.core._pair_classes

    def counted(V):
        calls.append(V)
        return original(V)

    monkeypatch.setattr(vps.core, "_pair_classes", counted)
    return calls


@pytest.fixture()
def rank_one_off(monkeypatch):
    """Make every profile of the test find no rank-one factors, so
    `solve_curve` runs the fixed-point kernel on each."""
    monkeypatch.setattr(vps.core, "_rank_one", lambda V: None)


@pytest.fixture(scope="session")
def kernel_only():
    """A function that makes a profile skip the rank-one route of
    `solve_curve`, so its curve comes from the fixed-point kernel (on the
    pair-class quotient, where it has one).  It returns `solve_route` of
    the profile, for the test to assert the route it got."""
    def force(profile):
        vars(profile)["rank_one_factors"] = None
        return vps.mesolver.solve_route(profile)

    return force


@pytest.fixture(scope="session")
def full_n(kernel_only):
    """A function that makes a profile skip the rank-one route and its
    pair-class quotient, so the kernel works on all n indices and the
    derivative runs the dense LU.  It returns `solve_route` of the
    profile, for the test to assert the route it got."""
    def force(profile):
        kernel_only(profile)
        vars(profile)["pair_classes"] = None
        return vps.mesolver.solve_route(profile)

    return force
