"""Shared fixtures: the heavy per-theory objects (modular data, W-matrix,
fingerprint data) are built once per session and reused everywhere.
`dense_traces` is the one place where the tests densify trace rows."""

import numpy as np
import pytest

from stw import modular
from stw.braid import sparse_trace_counts
from stw.cocycle import CocycleParams
from stw.group import GroupSpec


def dense_traces(ctx, word, colorings, shifts=None) -> np.ndarray:
    """The traces of `sparse_trace_counts` as (C, N) int64 histograms:
    row c holds the count of each of its nonzero bins at its exponent."""
    indptr, exps, counts = sparse_trace_counts(ctx, word, colorings, shifts)
    out = np.zeros((len(indptr) - 1, ctx.root_order), dtype=np.int64)
    out[np.arange(len(out)).repeat(np.diff(indptr)), exps] = counts
    return out


@pytest.fixture(scope="session")
def spec():
    return GroupSpec(11, 5, 4)


@pytest.fixture(scope="session")
def params_u(spec):
    def get(u: int) -> CocycleParams:
        return CocycleParams(spec, u)

    return get


@pytest.fixture(scope="session")
def md_u(params_u):
    cache = {}

    def get(u: int) -> modular.ModularData:
        if u not in cache:
            cache[u] = modular.modular_data(params_u(u))
        return cache[u]

    return get


@pytest.fixture(scope="session")
def wm_u(params_u):
    cache = {}

    def get(u: int) -> modular.WMatrix:
        if u not in cache:
            cache[u] = modular.w_matrix(params_u(u))
        return cache[u]

    return get


@pytest.fixture(scope="session")
def theory_u(md_u, wm_u):
    cache = {}

    def get(u: int, with_w: bool) -> modular.TheoryData:
        key = (u, with_w)
        if key not in cache:
            cache[key] = modular.theory_data(
                md_u(u), wm_u(u) if with_w else None
            )
        return cache[key]

    return get
