import pytest

from dualmem import Permutation, build_v_universe, dual_structure, scramble


def members(rel, x):
    """The members of x in rel as a set, built from its member tuples."""
    return frozenset(rel.member_tuples()[x])


@pytest.fixture(scope="session")
def v3():
    return build_v_universe(3)


@pytest.fixture(scope="session")
def v4():
    return build_v_universe(4)


@pytest.fixture(scope="session")
def scrambled_v3():
    return scramble(build_v_universe(3), Permutation((0, 2, 1, 3)))


@pytest.fixture(scope="session")
def scrambled_v4():
    return scramble(build_v_universe(4), Permutation.random(16, 7))


@pytest.fixture(scope="session")
def chain3():
    return dual_structure(3, [(0, 1), (1, 2)], [(0, 1), (1, 2)])


@pytest.fixture(scope="session")
def two_cycles():
    # e1: from 0, the members 1, 3, 6 lead to the cycle 3>4>5>3 (met first when
    # members are walked in ascending id) and to the cycle 6>7>6; e2 is acyclic.
    return dual_structure(
        8,
        [(1, 0), (3, 0), (6, 0), (2, 1), (2, 3), (4, 3), (5, 4), (1, 5), (3, 5), (7, 6), (6, 7)],
        [(0, 1), (1, 2)],
    )
