"""Shared fixtures: expensive splittings, and the A-infinity data that
several test modules assert on, are built once per session."""

import pytest

from arckit import build_splitting, lambda_n, stasheff_check, vanishing_report
from arckit.ainfty import composable_tuples


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


def _once_per_splitting(compute):
    """``compute(split, *args)``, computed once per splitting and arguments."""
    results = {}

    def lookup(split, *args):
        key = (split.block, split.mode, *args)
        if key not in results:
            results[key] = compute(split, *args)
        return results[key]

    return lookup


@pytest.fixture(scope="session")
def vanishing_reports():
    """``vanishing_report(split, arity)`` for every test that reads it."""
    return _once_per_splitting(vanishing_report)


@pytest.fixture(scope="session")
def stasheff_reports():
    """``stasheff_check(split, arity)`` for every test that reads it."""
    return _once_per_splitting(stasheff_check)


@pytest.fixture(scope="session")
def m3_coefficients():
    """``[(chain, pi_coefficients(lambda_3(chain)))]`` over the composable
    triples of ``split.all_h_classes()``."""
    return _once_per_splitting(
        lambda split: [
            (chain, split.pi_coefficients(lambda_n(split, chain)))
            for chain in composable_tuples(split.all_h_classes(), 3)
        ]
    )
