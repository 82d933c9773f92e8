import pytest

import edgewatch as ew


@pytest.fixture(scope="session")
def V03():
    return ew.PeriodicPotential.from_values([0.0, 3.0])


@pytest.fixture(scope="session")
def bs03(V03):
    return ew.band_structure(V03)


@pytest.fixture(scope="session")
def sd400(V03, bs03):
    sd = ew.eigensystem(ew.assemble(V03, 400))
    return ew.band_enumerate(sd, bs03)


@pytest.fixture(scope="session")
def sd800(V03, bs03):
    sd = ew.eigensystem(ew.assemble(V03, 800))
    return ew.band_enumerate(sd, bs03)


@pytest.fixture(scope="session")
def edge_m1_j0(V03, bs03):
    return ew.classify_edge(V03, bs03, -1.0, 0)


@pytest.fixture(scope="session")
def sweep400(sd400, edge_m1_j0):
    return ew.sweep_band_edge(sd400, edge_m1_j0, eps=0.2, C1=10.0)


@pytest.fixture(scope="session")
def free_chain():
    V = ew.PeriodicPotential.from_values([0.0])
    return V, ew.band_structure(V)

