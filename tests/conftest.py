import pytest

from groupcolor.graphs import EdgeSet, enumerate_poset


def low_positions(masks: list[int]) -> list[int]:
    """The masks with the edge positions they use squeezed onto the lowest
    ones, in order. Inclusion among them is unchanged, so an interval of a
    poset becomes input for ``down_sets_of``, which takes only such masks."""
    top = 0
    for mask in masks:
        top |= mask
    places = [n for n in range(top.bit_length()) if (top >> n) & 1]
    return [sum(1 << k for k, n in enumerate(places) if (mask >> n) & 1) for mask in masks]


@pytest.fixture(scope="session")
def p3():
    return enumerate_poset(3)


@pytest.fixture(scope="session")
def p4():
    return enumerate_poset(4)


@pytest.fixture(scope="session")
def p5():
    return enumerate_poset(5)


@pytest.fixture(scope="session")
def p6():
    # the one P_6 of the session: 13,667 members, 1,614,537 comparable pairs
    return enumerate_poset(6)


@pytest.fixture(scope="session")
def k3_v3():
    return EdgeSet.from_edges(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture(scope="session")
def c4_v4():
    return EdgeSet.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture(scope="session")
def k4_v4():
    return EdgeSet.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
