"""Shared fixtures: expensive splittings, and the A-infinity data that
several test modules assert on, are built once per session."""

import pytest

from arckit import build_splitting, lambda_n, vanishing_report
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


@pytest.fixture(scope="session")
def vanishing_reports():
    """``vanishing_report(split, arity)``, computed once per splitting and
    arity for every test that reads it."""
    reports = {}

    def report(split, arity):
        key = (split.block, split.mode, arity)
        if key not in reports:
            reports[key] = vanishing_report(split, arity)
        return reports[key]

    return report


@pytest.fixture(scope="session")
def m3_coefficients():
    """``[(chain, pi_coefficients(lambda_3(chain)))]`` over the composable
    triples of ``split.all_h_classes()``, computed once per splitting."""
    tables = {}

    def table(split):
        key = (split.block, split.mode)
        if key not in tables:
            tables[key] = [
                (chain, split.pi_coefficients(lambda_n(split, chain)))
                for chain in composable_tuples(split.all_h_classes(), 3)
            ]
        return tables[key]

    return table
