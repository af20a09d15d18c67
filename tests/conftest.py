"""Shared fixtures: the heavy per-theory objects (modular data, W-matrix,
fingerprint data) are built once per session and reused everywhere.
`dense_traces` is the one place where the tests densify trace rows.
`reference_phases` builds theory u's own phase table from theta and pi
at u, as a reference for the group's one table and its shifts."""

import copy

import numpy as np
import pytest

from stw import modular
from stw.braid import sparse_trace_counts
from stw.cocycle import CocycleParams, theta_exponent_table
from stw.group import GroupSpec


def dense_traces(ctx, word, colorings, shifts=None) -> np.ndarray:
    """The traces of `sparse_trace_counts` as (C, N) int64 histograms:
    row c holds the count of each of its nonzero bins at its exponent."""
    indptr, exps, counts = sparse_trace_counts(ctx, word, colorings, shifts)
    out = np.zeros((len(indptr) - 1, ctx.root_order), dtype=np.int64)
    out[np.arange(len(out)).repeat(np.diff(indptr)), exps] = counts
    return out


def reference_phases(group, u: int) -> np.ndarray:
    """The (2|G|, size) int64 phase table of theory u of the group, built
    for that theory alone: y takes the vector (coset i, internal v) of an
    object of flux class t with the phase of theta_t'(y, r_i) /
    theta_t'(r_j, s) pi(s), where y r_i = r_j s and pi(s) is theory u's
    character (zeta_(p^2)^((s p + u k) l) on b^l for B_k_s), and y^-1
    with that of its inverse lowered by theta_t(y, y^-1); mod N."""
    spec, ne, b = group.spec, group.root_order, group.gdata.b_part
    theta_zp = theta_exponent_table(CocycleParams(spec, u))
    g_inv = group.gdata.inv_table
    table = np.empty((2 * spec.order, group.size), dtype=np.int64)
    for run in group.runs:
        _, chars, ci = run
        k = group.classes[ci].representative.m
        _, reps, cent, j, cent_s = group._coset_action(group.classes[ci])
        theta = theta_zp[k] * (ne // spec.p)
        coset_exp = theta[b[:, None], b[reps][None, :]] - theta[b[reps[j]], b[cent[cent_s]]]
        pi_exp = group._pi(ci, chars, cent)[1] + u * k * b[cent][:, None] * (ne // spec.p**2)
        exp = group._columns(table, run)
        exp[0] = (coset_exp[:, None, :, None] + pi_exp[:, cent_s].transpose(1, 0, 2, 3)) % ne
        exp[1] = (exp[0][g_inv] - theta[b, b[g_inv]][:, None, None, None]) % ne
    return table


def reference_context(ctx):
    """A copy of the context whose walks read theory u's own phase table
    (`reference_phases`) with no shift, in place of the group's table of
    theory 0 shifted by u sigma."""
    ref = copy.copy(ctx)
    ref.crossing_exp = reference_phases(ctx.group, ctx.params.u)
    ref.shift_exp = np.zeros_like(ctx.shift_exp)
    ref.shift_rows = ref.shift_exp.tolist()
    return ref


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
