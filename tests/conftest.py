"""Shared fixtures: the splittings are built once per session.  Each keeps
the memo of its A-infinity operations, so tests that read the same
reports and m_n tables share the work."""

import pytest

from arckit import build_splitting


@pytest.fixture(scope="session")
def split_21_generic():
    return build_splitting(2, 1, "generic")


@pytest.fixture(scope="session")
def split_31_generic():
    return build_splitting(3, 1, "generic")


@pytest.fixture(scope="session")
def split_41_generic():
    return build_splitting(4, 1, "generic")


@pytest.fixture(scope="session")
def split_22_canonical():
    return build_splitting(2, 2, "canonical-n2")


@pytest.fixture(scope="session")
def split_32_canonical():
    return build_splitting(3, 2, "canonical-n2")


@pytest.fixture(scope="session")
def split_22_generic():
    return build_splitting(2, 2, "generic")


@pytest.fixture(scope="session")
def split_32_generic():
    return build_splitting(3, 2, "generic")


@pytest.fixture(scope="session")
def split_23_generic():
    return build_splitting(2, 3, "generic")
