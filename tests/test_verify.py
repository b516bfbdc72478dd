import json
import math
import os
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from fbl import cli, fblnorm, homfun, kernels, lemma44, spaces, verify
from fbl.fblnorm import SearchConfig, fbl_lower_bound, tuple_constraint
from fbl.homfun import Abs, Add, BuiltinF, BuiltinH, Delta, LiftParams, Scale, eval_batch, eval_terms
from fbl.lifting import LiftingSystem, T_apply, beta_apply
from fbl.lemma44 import lemma_unconditional_batch
from fbl.spaces import (
    BasisIndexError,
    ConfigError,
    DimensionMismatch,
    InputError,
    Space,
    parse_space,
)
from fbl.verify import (
    CheckReport,
    check_beta_section,
    check_biorthogonal,
    check_disjoint,
    check_freenorm,
    check_freenorms,
    check_lemma44,
    check_normspan,
)

SEARCH = SearchConfig(k=3, restarts=8, seed=0)


def test_lemma_instance_single_basis_functional():
    sp = Space.lp(2, 2)
    lhs, rhs = lemma_unconditional_batch(sp, [[1]], [[[1.0, 0.0]]])
    assert lhs.tolist() == [1.0] and rhs.tolist() == [1.0]


def test_lemma_instance_hand_computed():
    # two copies of (e1*+e2*)/sqrt(2) with indices (1,2):
    # LHS = ||(1/sqrt2, 1/sqrt2)||_2 = 1, RHS = ||(2/sqrt2, 2/sqrt2)||_2 = 2
    sp = Space.lp(2, 2)
    u = np.array([1.0, 1.0]) / math.sqrt(2)
    lhs, rhs = lemma_unconditional_batch(sp, [[1, 2]], [[u, u]])
    assert lhs[0] == pytest.approx(1.0, rel=1e-14)
    assert rhs[0] == pytest.approx(2.0, rel=1e-14)


def test_lemma_instance_requires_unit_ball():
    sp = Space.lp(2, 2)
    with pytest.raises(ValueError):
        lemma_unconditional_batch(sp, [[1]], [[[3.0, 0.0]]])
    # NaN > 1 + SLACK_TOL is false: a NaN functional must not pass the
    # unit-ball check and come back as (nan, nan)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="finite"):
            lemma_unconditional_batch(sp, [[1, 2]], [[[0.5, 0.0], [bad, 0.0]]])
    with pytest.raises(BasisIndexError, match="integers"):
        lemma_unconditional_batch(sp, [[1.0]], [[[0.5, 0.0]]])


def test_lemma_batch_of_no_instances():
    # np.maximum.reduceat refuses empty offsets: no instances, no sides
    for p in (1.0, 2.0, 1.0000001, math.inf):
        lhs, rhs = lemma_unconditional_batch(Space.lp(p, 3), np.empty((0, 4), dtype=int),
                                             np.empty((0, 4, 3)))
        assert lhs.shape == rhs.shape == (0,)
        assert lhs.dtype == rhs.dtype == np.float64


def test_lemma44_random_suite():
    report = check_lemma44(instances=2000, max_l=6, seed=0)
    assert report.passed
    assert report.worst_slack >= 0.0
    assert report.instances == 2000


def test_lemma44_fixed_space():
    report = check_lemma44(Space.lp(1, 5), instances=500, max_l=4, seed=1)
    assert report.passed


def _per_instance_lemma44(space, instances, max_l, seed):
    """The lemma44 report built one instance at a time, with Space.dual_norm
    and tuple_constraint."""
    report = CheckReport(check="lemma44", instances=instances, seed=seed,
                         config={"max_l": max_l, "space": str(space) if space else None})
    ps, (d_lo, d_hi) = lemma44.LEMMA44_PS, lemma44.LEMMA44_DIMS
    # one stream per drawn quantity: exponent, dimension, tuple size,
    # normals, basis indices
    exponents, dims, sizes, normals, indices = (
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, j))) for j in range(5))
    for i in range(instances):
        sp = space or Space.lp(ps[exponents.integers(len(ps))], int(dims.integers(d_lo, d_hi + 1)))
        l = int(sizes.integers(1, max_l + 1))
        X = normals.standard_normal((l, sp.dim))
        for row in X:
            row /= max(1.0, sp.dual_norm(row))
        ms = indices.integers(1, sp.dim + 1, size=l)
        z = np.zeros(sp.dim)
        for m, row in zip(ms, X):
            z[m - 1] += abs(row[m - 1])
        lhs = sp.dual_norm(z)
        rhs, _ = tuple_constraint(sp, X)
        report.merge_slack(rhs - lhs)
        if lhs > rhs + verify.SLACK_TOL:
            report.failures.append(
                {"instance": i, "space": str(sp), "lhs": lhs, "rhs": rhs,
                 "ms": [int(m) for m in ms], "functionals": X.tolist()})
        if sp.p == 1.0:
            oracle = float(np.abs(X).sum(axis=0).max())
            if abs(rhs - oracle) > l * 2.0**-52 * oracle:
                report.failures.append(
                    {"instance": i, "space": str(sp), "constraint": rhs,
                     "extreme_point_oracle": oracle, "kind": "oracle-mismatch"})
    return report


# l2:1: numpy takes no word for the one-value index range
LEMMA44_SPACES = [None, "l1:5", "l2:3", "linf:8", "lp:1.0000001:3", "l2:1", "lp:1.5:4"]


@pytest.mark.parametrize("space", LEMMA44_SPACES)
def test_lemma44_batched_equals_per_instance_loop(space):
    sp = parse_space(space) if space else None
    for seed in range(4):
        for max_l in (1, 2, 3, 6):
            got = check_lemma44(sp, instances=60, max_l=max_l, seed=seed).to_json()
            assert got == _per_instance_lemma44(sp, 60, max_l, seed).to_json()


def _halve_constraints(monkeypatch):
    # check_lemma44 takes its right sides from pattern_norms, and so does
    # the per-instance oracle through tuple_constraint: halving every
    # pattern norm halves each instance's right side to the same bits
    kernel = kernels.pattern_norms
    monkeypatch.setattr(kernels, "pattern_norms", lambda *args: 0.5 * kernel(*args))


def test_lemma44_blocks_do_not_change_the_report(monkeypatch):
    # halved constraints fail most instances, so each report lists their
    # draws: a block that drew from the wrong streams changes it
    _halve_constraints(monkeypatch)
    whole = {space: check_lemma44(parse_space(space) if space else None,
                                  instances=7, seed=2).to_json()
             for space in (None, "l1:5")}
    assert all(json.loads(report)["failures"] for report in whole.values())
    blocks = []
    draws = lemma44._lemma44_draws
    monkeypatch.setattr(lemma44, "_lemma44_draws",
                        lambda space, seed, lo, hi, *rest:
                        blocks.append(hi - lo) or draws(space, seed, lo, hi, *rest))
    # one element short of three instances' count leaves blocks of two
    for per_block, short, sizes in ((1, 0, [1] * 7), (2, 0, [2, 2, 2, 1]), (3, 0, [3, 3, 1]),
                                    (3, 1, [2, 2, 2, 1])):
        for space, d_max in ((None, 8), ("l1:5", 5)):
            sp = parse_space(space) if space else None
            # --l 6 takes 4 * 6 * 2^5 elements for the sign patterns, and
            # one instance (4 * d + 2) * 2^5 for the sign-cube pass, 6 * d for
            # its normals and 4 * 6 * d for their instance-order and
            # evaluation copies, and a record of 8 * 6 + 4 * d + 12
            assert kernels.PATTERN_ARRAYS == 4
            monkeypatch.setattr(spaces, "SIGN_TENSOR_CAP", (4 * 6 << 5) - short + per_block * (
                ((4 * d_max + 2) << 5) + 5 * 6 * d_max + 8 * 6 + 4 * d_max + 12))
            blocks.clear()
            got = check_lemma44(sp, instances=7, seed=2).to_json()
            assert got == whole[space]
            assert blocks == sizes
            # the oracle draws one instance at a time from numpy's streams:
            # a block that did not go on where the last one left them would
            # differ
            assert got == _per_instance_lemma44(sp, 7, 6, 2).to_json()
    # with the real cap, --space l2:8 --l 20 still passes the up-front check
    monkeypatch.undo()
    assert check_lemma44(Space.lp(2, 8), instances=0, max_l=20).instances == 0
    with pytest.raises(ConfigError, match="lower --l"):
        check_lemma44(Space.lp(2, 8), instances=0, max_l=24)


# (space, --l, instances) of the bit-identity check: 10,000 instances
LEMMA44_BITS = [(None, 6, 3000), ("l1:5", 6, 1000), ("l2:3", 6, 1000), ("linf:8", 6, 1000),
                ("lp:1.0000001:3", 6, 1000), ("lp:1.5:4", 6, 1000), ("l2:1", 6, 1000),
                (None, 1, 1000)]


def test_lemma44_blocks_match_each_group_alone(monkeypatch):
    # the report keeps only min(rhs - lhs), which is often 0.0: compare
    # every instance's (lhs, rhs), evaluated in its d block with every
    # exponent's part, bit for bit with lemma_unconditional_batch on its
    # (p, d, l) group alone and with the left side built by adding the
    # tuple's terms in order
    runs = []
    sides = lemma44._lemma_sides

    def recording(rows, ms, ls, parts):
        out = sides(rows, ms, ls, parts)
        runs.append((ms.copy(), [(sp, [S.copy() for S in stacks]) for sp, _, stacks in parts],
                     out))
        return out

    monkeypatch.setattr(lemma44, "_lemma_sides", recording)
    for space, max_l, instances in LEMMA44_BITS:
        check_lemma44(parse_space(space) if space else None, instances=instances,
                      max_l=max_l, seed=9)
    monkeypatch.undo()
    checked = 0
    for ms, parts, (lhs, rhs) in runs:
        at = row = 0
        for sp, X in ((sp, X) for sp, stacks in parts for X in stacks):
            n, l, d = X.shape
            m = ms[row:row + n * l].reshape(n, l)
            want_lhs, want_rhs = lemma_unconditional_batch(sp, m, X)
            assert lhs[at:at + n].tobytes() == want_lhs.tobytes()
            assert rhs[at:at + n].tobytes() == want_rhs.tobytes()
            z = np.zeros((n, d))
            t = np.arange(n)
            for i in range(l):
                z[t, m[:, i] - 1] += np.abs(X[t, i, m[:, i] - 1])
            assert want_lhs.tobytes() == np.array([sp.dual_norm(zt) for zt in z]).tobytes()
            at += n
            row += n * l
        assert at == len(lhs) == len(rhs)
        checked += at
    assert checked == sum(instances for *_, instances in LEMMA44_BITS)


def test_lemma44_measures_once_per_block(monkeypatch):
    # one _dual_norms call normalises a (p, d) part's rows, one takes its
    # left sides: the per-group loop took 3 per (p, d, l) group.  The
    # sign-cube passes' own calls are not counted
    calls = []

    def counting(name):
        f = getattr(kernels, name)
        return lambda *args, **kw: calls.append(name) or f(*args, **kw)

    for name in ("_dual_norms", "pattern_norms"):
        monkeypatch.setattr(kernels, name, counting(name))
    blocks = []
    draws = lemma44._lemma44_draws

    def recording(*args):
        # the draws yield their blocks: keep them for check_lemma44 too
        out = list(draws(*args))
        blocks.extend(sp for *_, parts in out for sp, *_ in parts)
        return out

    monkeypatch.setattr(lemma44, "_lemma44_draws", recording)
    check_lemma44(instances=3000, seed=4)
    assert len(blocks) == len(set(blocks)) == len(lemma44.LEMMA44_PS) * 7
    norm_calls = calls.count("_dual_norms") - calls.count("pattern_norms")
    assert 0 < norm_calls <= 2 * len(blocks)


def test_lemma44_evaluates_one_dimension_at_a_time(monkeypatch):
    # the default draw block holds all 7 dimensions; each takes one
    # _lemma_sides call over one part per exponent, where one call per
    # (p, d) block took 35
    calls = []
    sides = lemma44._lemma_sides
    monkeypatch.setattr(lemma44, "_lemma_sides",
                        lambda *args: calls.append(args) or sides(*args))
    check_lemma44(instances=3000, seed=4)
    assert len(calls) == 7
    dims = []
    for rows, ms, ls, parts in calls:
        assert len(ls) == sum(len(X) for *_, stacks in parts for X in stacks)
        assert {sp.dim for sp, *_ in parts} == {rows.shape[1]}
        assert sorted(sp.p for sp, *_ in parts) == list(lemma44.LEMMA44_PS)
        dims.append(rows.shape[1])
    assert sorted(dims) == list(range(lemma44.LEMMA44_DIMS[0], lemma44.LEMMA44_DIMS[1] + 1))


def test_lemma44_one_constraint_pass_per_block(monkeypatch):
    # the default report is one draw block of 35 (p, d) blocks; each takes
    # its right sides from one pattern_norms call over all its (p, d, l)
    # groups, where one call per group took 210
    calls = []
    kernel = kernels.pattern_norms
    monkeypatch.setattr(kernels, "pattern_norms",
                        lambda stacks, q: calls.append(len(stacks)) or kernel(stacks, q))
    report = check_lemma44(instances=10_000, seed=0)
    assert report.passed
    assert len(calls) == len(lemma44.LEMMA44_PS) * 7
    assert sum(calls) == len(lemma44.LEMMA44_PS) * 7 * 6


@pytest.mark.parametrize("space, max_l", [(None, 6), (None, 1), ("l1:1", 1),
                                          ("lp:1.0000001:3", 3), ("l2:12", 2)])
def test_lemma44_peak_memory_within_the_cap(space, max_l, monkeypatch):
    # the block count covers every array a block holds: the sign patterns,
    # the draws and their records, the stream seeds and the block pass
    monkeypatch.setattr(spaces, "SIGN_TENSOR_CAP", 1 << 16)
    sp = parse_space(space) if space else None
    blocks = []
    draws = lemma44._lemma44_draws
    monkeypatch.setattr(lemma44, "_lemma44_draws",
                        lambda space, seed, lo, hi, *rest:
                        blocks.append(hi - lo) or draws(space, seed, lo, hi, *rest))
    kernels.sign_patterns.cache_clear()
    tracemalloc.start()
    try:
        check_lemma44(sp, instances=5000, max_l=max_l, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) > 1
    # about 12 KB of report and Python objects whatever the block
    assert peak <= 8 * spaces.SIGN_TENSOR_CAP + 16384


def test_lemma44_failures_come_in_instance_order(monkeypatch):
    # halved constraints break the inequality and, on ell_1, the oracle
    # agreement; both code paths see the same halved right sides
    _halve_constraints(monkeypatch)
    report = check_lemma44(instances=120, max_l=6, seed=3)
    assert report.to_json() == _per_instance_lemma44(None, 120, 6, 3).to_json()
    keys = [(f["instance"], "kind" in f) for f in report.failures]
    assert keys == sorted(keys)
    kinds = {kind for _, kind in keys}
    assert kinds == {False, True}
    # an ell_1 instance that fails both lists the inequality first
    both = [i for i, kind in keys if kind and (i, False) in keys]
    assert both
    # the oracle alone: only mismatch entries, in instance order
    monkeypatch.undo()
    monkeypatch.setattr(lemma44, "l1_extreme_point_constraint",
                        lambda X: 2.0 * np.abs(X).sum(axis=-2).max(axis=-1))
    report = check_lemma44(parse_space("l1:3"), instances=40, max_l=3, seed=1)
    assert [f["instance"] for f in report.failures] == list(range(40))
    assert all(f["kind"] == "oracle-mismatch" for f in report.failures)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf, 1.0000001],
                         ids=["p=1", "p=1.5", "p=2", "p=3", "p=inf", "p=1+1e-7"])
def test_tuple_constraints_match_each_group_alone(p, rng):
    # the right sides of a (p, d) block, each tuple's maximum over its run
    # of the block's pattern norms, have the bits of the maximum over the
    # norms taken on its group alone; p = 1 + 1e-7 takes _dual_norms'
    # scaled branch
    for d in range(1, 9):
        sp = Space.lp(p, d)
        # tuple sizes 1-9 mixed in one block, with one-tuple and empty groups
        ks = rng.permutation(np.arange(1, 10))
        ns = (1, 4, 0, 7, 1, 3, 0, 2, 5)
        stacks = [rng.standard_normal((n, k, d)) for k, n in zip(ks, ns)]
        ls = np.repeat(ks, ns)
        rows = np.concatenate([X.reshape(-1, d) for X in stacks])
        ms = rng.integers(1, d + 1, size=len(rows))
        want = [kernels._dual_norms(kernels.sign_patterns(k) @ X, sp.q).max(axis=-1)
                for X, k in zip(stacks, ks)]
        rhs = lemma44._lemma_sides(rows, ms, ls, [(sp, slice(None), stacks)])[1]
        assert rhs.tobytes() == np.concatenate(want).tobytes()
        # no tuples at all: reduceat takes no empty offsets
        lhs, rhs = lemma44._lemma_sides(rows[:0], ms[:0], ls[:0],
                                        [(sp, slice(None), [stacks[ns.index(0)]])])
        assert lhs.shape == rhs.shape == (0,)
        assert lhs.dtype == rhs.dtype == np.float64


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, np.inf, 1e7],
                         ids=["q=1", "q=2", "q=3", "q=inf", "q=1e7"])
def test_tuple_constraints_peak_memory(q, rng):
    # the count of lemma44's cap check: the sides of a (p, d) block, its
    # left sides and its one sign-cube pass, hold no more than
    # pattern_norms holds for each of its stacks, added up
    p = np.inf if q == 1.0 else 1.0 if q == np.inf else q / (q - 1)
    for d in (1, 3, 8):
        sp = Space.lp(p, d)
        stacks = [rng.standard_normal((n, k, d)) for k, n in ((1, 40), (5, 1), (11, 40), (2, 7))]
        ls = np.concatenate([np.full(len(X), X.shape[1]) for X in stacks])
        rows = np.concatenate([X.reshape(-1, d) for X in stacks])
        ms = rng.integers(1, d + 1, size=len(rows))
        kernels.sign_patterns.cache_clear()
        tracemalloc.start()
        try:
            lemma44._lemma_sides(rows, ms, ls, [(sp, slice(None), stacks)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * sum(kernels.pattern_elements(n, k, d) for n, k, _ in
                               (X.shape for X in stacks)) + 4096


def test_lemma_instance_is_a_stack_of_one(rng):
    sp = Space.lp(3.0, 4)
    X = rng.standard_normal((5, 3, 4))
    # ell_1 norms below 1 put every functional in every dual unit ball
    X /= 1.0 + np.abs(X).sum(axis=-1, keepdims=True)
    ms = rng.integers(1, 5, size=(5, 3))
    lhs, rhs = lemma_unconditional_batch(sp, ms, X)
    alone = [lemma_unconditional_batch(sp, m[None], x[None]) for m, x in zip(ms, X)]
    assert [(float(a[0]), float(b[0])) for a, b in alone] == \
        list(zip(lhs.tolist(), rhs.tolist()))
    with pytest.raises(BasisIndexError):
        lemma_unconditional_batch(sp, [[5]], X[:1, :1])
    with pytest.raises(DimensionMismatch):
        lemma_unconditional_batch(sp, ms[:, :2], X)


def test_biorthogonal_identity_matrix():
    for p in (1.0, 2.0, math.inf):
        report = check_biorthogonal(LiftingSystem(Space.lp(p, 6)))
        assert report.passed and report.worst_slack == 0.0


def test_disjoint_zero_failures():
    report = check_disjoint(LiftingSystem(Space.lp(2, 8)), samples=2000, seed=0)
    assert report.passed and report.worst_slack == 0.0


def test_beta_section_report(monkeypatch):
    monkeypatch.setattr(verify, "CHECK_SAMPLES", 200)
    report = check_beta_section(LiftingSystem(Space.lp(2, 6)), seed=0)
    assert report.passed


def _per_sample_beta_section(system, samples, seed, tol):
    """The beta-section report built one sample and one lift at a time."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    slacks, failures = [], []
    for i in range(samples):
        x = rng.standard_normal(system.space.dim)
        err = float(np.abs(beta_apply(T_apply(system, x), system.space) - x).max())
        slacks.append(tol - err)
        if err > tol:
            failures.append({"instance": i, "x": x.tolist(), "error": err})
    return {"check": "beta_section", "instances": samples, "failures": failures,
            "worst_slack": min(slacks) if slacks else None, "seed": seed,
            "config": {"space": str(system.space), "tol": tol}}


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["l1", "l2", "linf"])
def test_beta_section_matches_per_sample_lift(p, monkeypatch):
    custom = LiftParams(m_values=(1.0, 3.0, 9.0, 27.0, 81.0, 243.0))
    monkeypatch.setattr(verify, "CHECK_SAMPLES", 300)
    for d in (1, 3, 6):
        for params in (LiftParams(), custom):
            system = LiftingSystem(Space.lp(p, d), params)
            got = check_beta_section(system, seed=d).to_dict()
            assert got == _per_sample_beta_section(system, 300, d, 1e-12)
            assert got["failures"] == []
    # a negative tolerance fails every sample, each with the oracle's entry
    monkeypatch.setattr(verify, "CHECK_SAMPLES", 50)
    monkeypatch.setattr(verify, "BETA_TOL", -1.0)
    system = LiftingSystem(Space.lp(p, 6))
    got = check_beta_section(system, seed=4)
    assert len(got.failures) == 50
    assert got.to_dict() == _per_sample_beta_section(system, 50, 4, -1.0)


@pytest.mark.parametrize("tol", [1e-12, -1.0])
def test_beta_section_fails_exactly_the_rows_over_the_tolerance(tol, monkeypatch):
    # generators scaled by 1 + 2^-40 miss the identity by |x_n| 2^-40 in
    # coordinate n: at 1e-12 the rows with some |x_n| above about 1.1 fail,
    # at -1 every row; each failing row once, in order, with its largest error
    monkeypatch.setattr(verify, "BETA_TOL", tol)
    space = Space.lp(2, 4)
    scaled = tuple(Scale(1 + 2.0**-40, g) for g in LiftingSystem(space).generators)
    system = Mutant(space, mutant=scaled)
    got = check_beta_section(system, seed=2).to_dict()
    assert got == _per_sample_beta_section(system, verify.CHECK_SAMPLES, 2, tol)
    assert 0 < len(got["failures"]) <= verify.CHECK_SAMPLES
    assert (len(got["failures"]) == verify.CHECK_SAMPLES) == (tol < 0)


@pytest.mark.parametrize("space", ["l2:1", "l2:6", "linf:12"])
@pytest.mark.parametrize("check", ["disjoint", "beta_section", "freenorm"])
def test_sampled_check_peak_memory_within_the_checked_count(check, space, monkeypatch):
    # a sampled check holds at its peak no more floats than its refusal
    # counts, up to a few small arrays; the free-norm pairs (n, d - n) are
    # all checked at samples, none searched
    system = LiftingSystem(parse_space(space))
    d = system.space.dim
    monkeypatch.setattr(verify, "CHECK_SAMPLES", 20_000)
    run = {"disjoint": lambda: check_disjoint(system, samples=20_000),
           "beta_section": lambda: check_beta_section(system),
           "freenorm": lambda: check_freenorms(
               system, [(n, d - n) for n in range(1, d + 1)], SEARCH)}[check]
    run()  # caches built
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the count lift_verify books for the check's samples
    assert peak <= 8 * verify._sample_floats(check, 20_000, d) + 65536


def test_normspan_basis_coefficients():
    system = LiftingSystem(Space.lp(2, 4))
    a = np.array([1.0, 0.0, 0.0, 0.0])
    report = check_normspan(system, a[None], SearchConfig(k=2, restarts=30, seed=0))
    assert report.passed
    # the explicit tuple (e1*) gives ratio 1, so the bound is nearly attained
    assert report.worst_slack == pytest.approx(0.0, abs=1e-3)


def test_normspan_zero_coefficients_guarded():
    # the all-zero combination has norm 0; every visited ratio is 0/C = 0
    system = LiftingSystem(Space.lp(2, 4))
    report = check_normspan(system, np.zeros((1, 4)), SearchConfig(k=2, restarts=4, seed=0))
    assert report.passed and report.worst_slack >= -1e-9


def test_normspan_random_coefficients():
    rng = np.random.default_rng(5)
    for p in (1.0, 2.0, math.inf):
        system = LiftingSystem(Space.lp(p, 6))
        for _ in range(5):
            report = check_normspan(system, rng.standard_normal((1, 6)), SEARCH)
            assert report.passed, report.failures


def test_normspan_batch_matches_single_vectors():
    system = LiftingSystem(Space.lp(2, 4))
    A = np.random.default_rng(8).standard_normal((4, 4))
    batch = check_normspan(system, A, SEARCH)
    singles = [check_normspan(system, a[None], SEARCH) for a in A]
    assert batch.instances == 4 and batch.passed
    assert batch.worst_slack == min(r.worst_slack for r in singles)
    assert batch.config["coefficients"] == A.tolist()
    empty = check_normspan(system, np.empty((0, 4)), SEARCH)
    assert (empty.instances, empty.worst_slack, empty.seed) == (0, None, None)


def test_normspan_evaluates_only_the_changed_moved_rows(monkeypatch):
    # the default lift-verify --space l2:6 span search: a neighbourhood
    # evaluates only the moved rows of the functionals whose row or step
    # changed, 2,307,240 generator rows against the 5,532,840 of scoring
    # every move afresh
    rows = []

    def counting(terms, space, X):
        rows.append(len(terms) * len(X))
        return eval_terms(terms, space, X)

    monkeypatch.setattr(fblnorm, "eval_terms", counting)
    system = LiftingSystem(Space.lp(2.0, 6))
    rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(9,)))
    report = verify.check_normspan(system, rng.standard_normal((20, 6)),
                                   SearchConfig(k=3, restarts=8, seed=0))
    assert report.passed
    assert sum(rows) == 2_307_240 < 5_532_840 // 2
    # one call per row batch for all six generators: the start, 160
    # neighbourhoods and one objective for all 20 searches' witnesses
    assert len(rows) == 162


def test_normspan_coefficient_shape_is_an_input_error():
    system = LiftingSystem(Space.lp(2, 4))
    # one vector alone is refused too: the coefficients are (E, d)
    for bad in (np.zeros(4), np.zeros(3), np.zeros((2, 5)), np.zeros((1, 1, 4)), 1.0):
        with pytest.raises(DimensionMismatch, match=r"shape \(E, 4\), got"):
            check_normspan(system, bad, SEARCH)
    # a scalar is not a vector, not even in dimension 1
    with pytest.raises(DimensionMismatch):
        check_normspan(LiftingSystem(Space.lp(2, 1)), 1.0, SEARCH)


def test_freenorm_tail_bound():
    system = LiftingSystem(Space.lp(2, 6))
    report = check_freenorm(system, 1, 1, SEARCH)
    assert report.passed
    assert report.config["tail_bound"] == 0.25
    report = check_freenorm(system, 2, 3, SEARCH)
    assert report.passed
    assert report.config["tail_bound"] == 2.0**-5


def test_freenorm_identically_zero_beyond_dimension(monkeypatch):
    monkeypatch.setattr(verify, "CHECK_SAMPLES", 500)
    system = LiftingSystem(Space.lp(2, 6))
    report = check_freenorm(system, 3, 3, SEARCH)
    # the difference is zero at every sample: the slack is the whole bound
    assert report.passed and report.worst_slack == report.config["tail_bound"] == 2.0**-6
    assert report.instances == 500


def _separate_freenorm(system, n, k, search):
    """The report of one searched pair, from its own fbl_lower_bound."""
    params, d = system.params, system.space.dim
    diff = Add([BuiltinH(n, k, params), Scale(-1.0, BuiltinF(n, params))])
    est = fbl_lower_bound(diff, system.space, search)
    bound = params.tail_bound(n + k, d)
    failures = []
    if est.lower_bound > bound + 1e-9:
        failures.append({"n": n, "k": k, "ratio": est.lower_bound, "tail_bound": bound,
                         "witness": est.witness.tolist()})
    return {"check": "freenorm", "instances": 1, "failures": failures,
            "worst_slack": bound - est.lower_bound, "seed": search.seed,
            "config": {"space": str(system.space), "n": n, "k": k, "tail_bound": bound}}


@pytest.mark.parametrize("p, d", [(2.0, 6), (math.inf, 4)], ids=["l2:6", "linf:4"])
def test_freenorms_match_separate_searches(p, d, monkeypatch):
    system = LiftingSystem(Space.lp(p, d))
    search = SearchConfig(k=2, restarts=4, seed=5)
    pairs = [(n, k) for n in range(1, d + 1) for k in range(d - n + 1)]
    monkeypatch.setattr(verify, "CHECK_SAMPLES", 200)
    reports = check_freenorms(system, pairs, search)
    assert len(reports) == len(pairs)
    for (n, k), rep in zip(pairs, reports):
        if n + k < d:
            assert rep.to_dict() == _separate_freenorm(system, n, k, search)
        else:
            assert (rep.instances, rep.failures, rep.worst_slack) == (200, [], 2.0 ** -(n + k))
            assert rep.to_dict() == check_freenorm(system, n, k, search).to_dict()
    # no pair, or only exact-zero pairs: no search runs
    monkeypatch.setattr(verify, "fbl_lower_bounds", lambda *a: pytest.fail("searched"))
    assert check_freenorms(system, [], search) == []
    zero_pairs = [(d, 0), (1, d - 1)]
    monkeypatch.setattr(verify, "CHECK_SAMPLES", 10)
    assert [r.instances for r in check_freenorms(system, zero_pairs, search)] == [10, 10]


def test_freenorms_draw_no_samples_for_searched_pairs(monkeypatch):
    # only pairs with n + k >= d draw, each from its stream _rng(seed, 4, n, k)
    keys, rng = [], verify._rng
    monkeypatch.setattr(verify, "_rng", lambda seed, *key: keys.append(key) or rng(seed, *key))
    system = LiftingSystem(Space.lp(2, 6))
    reports = check_freenorms(system, [(1, 1), (2, 1)], SEARCH)
    assert keys == [] and [r.instances for r in reports] == [1, 1]
    check_freenorms(system, [(1, 1), (3, 3), (2, 1)], SEARCH)
    assert keys == [(4, 3, 3)]


# ---------------------------------------------------------------------------
# mutants: each check must flag a broken lifting system


@dataclass(frozen=True)
class Mutant(LiftingSystem):
    """A lifting system with the given generators in place of the f(n)."""

    mutant: tuple = ()

    @property
    def generators(self):
        return self.mutant


def _abs_deltas(space):
    """|delta_{e_n}|, n = 1..d: beta of each is e_n, but they are not disjoint."""
    return Mutant(space, mutant=tuple(Abs(Delta(e)) for e in np.eye(space.dim)))


def test_biorthogonality_flags_permuted_generators():
    gens = LiftingSystem(Space.lp(2, 3)).generators
    report = check_biorthogonal(Mutant(Space.lp(2, 3), mutant=gens[1:] + gens[:1]))
    # generator n is f(n + 1 mod 3): f_n(e_j*) = 1 where j = n + 1 mod 3
    assert report.worst_slack == -1.0
    assert report.failures == [
        {"n": 1, "j": 1, "value": 0.0}, {"n": 1, "j": 2, "value": 1.0},
        {"n": 2, "j": 2, "value": 0.0}, {"n": 2, "j": 3, "value": 1.0},
        {"n": 3, "j": 1, "value": 1.0}, {"n": 3, "j": 3, "value": 0.0}]


def test_disjointness_flags_absolute_deltas():
    report = check_disjoint(_abs_deltas(Space.lp(2, 2)), samples=5, seed=3)
    X = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(2,))).standard_normal((5, 2))
    low = np.abs(X).min(axis=1)
    assert report.failures == [{"n": 1, "l": 2, "xstar": x.tolist(), "min_value": float(m)}
                               for x, m in zip(X, low)]
    assert report.worst_slack == -low.max()


def test_span_norm_flags_absolute_deltas():
    # T(a) = |x1| + |x2| for a = (1, 1) on l2:2: the stored tuple
    # {(1, 1), (1, -1)} has objective 4 and constraint 2, ratio 2 > ||a|| = sqrt 2
    system, a = _abs_deltas(Space.lp(2, 2)), np.array([1.0, 1.0])
    witness = np.array([[1.0, 1.0], [1.0, -1.0]])
    C, _ = tuple_constraint(system.space, witness)
    objective = np.abs(eval_batch(T_apply(system, a), system.space, witness)).sum()
    assert (objective, C) == (4.0, 2.0)
    report = check_normspan(system, a[None], SEARCH)
    failure, = report.failures
    assert failure["norm"] == math.sqrt(2) < failure["ratio"] <= objective / C
    assert report.worst_slack == failure["norm"] - failure["ratio"] < 0.0
    # the failure's own witness certifies its ratio
    W = np.array(failure["witness"])
    got = np.abs(eval_batch(T_apply(system, a), system.space, W)).sum()
    assert got / tuple_constraint(system.space, W)[0] == pytest.approx(failure["ratio"],
                                                                        rel=1e-12)


def test_free_norm_flags_a_tail_bound_too_small(monkeypatch):
    # the searched pair (1, 1) on l2:4 against a hundredth of its bound
    bound = LiftParams.tail_bound
    monkeypatch.setattr(LiftParams, "tail_bound", lambda self, t, dim: bound(self, t, dim) / 100)
    system = LiftingSystem(Space.lp(2, 4))
    report = check_freenorm(system, 1, 1, SEARCH)
    failure, = report.failures
    assert failure["tail_bound"] == report.config["tail_bound"] == 0.0025
    assert failure["ratio"] > 0.0025 + 1e-9
    assert report.worst_slack == 0.0025 - failure["ratio"]
    W = np.array(failure["witness"])
    diff = Add([BuiltinH(1, 1), Scale(-1.0, BuiltinF(1))])
    got = np.abs(eval_batch(diff, system.space, W)).sum() / tuple_constraint(system.space, W)[0]
    assert got == pytest.approx(failure["ratio"], rel=1e-12)


def _short_truncations(monkeypatch):
    """Drop the last ramp of every h(n,k) leaf: h(n,k) then differs from
    f(n) where n + k >= d, and is unchanged where n + k < d."""
    span = homfun._span
    monkeypatch.setattr(homfun, "_span", lambda leaf, dim: span(
        leaf, dim - 1 if isinstance(leaf, BuiltinH) else dim))


def test_free_norm_flags_an_identity_pair_that_differs(monkeypatch):
    _short_truncations(monkeypatch)
    monkeypatch.setattr(verify, "CHECK_SAMPLES", 200)
    system = LiftingSystem(Space.lp(2, 2))
    report = check_freenorm(system, 1, 1, SEARCH)
    X = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(4, 1, 1))).standard_normal(
        (200, 2))
    # h(1,1) is now |x1| without the ramp g_2(|x2| / |x1|), below 1 past M_2 = 4
    diff = np.abs(X[:, 0]) - eval_batch(BuiltinF(1), system.space, X)
    rows = diff.nonzero()[0]
    assert rows.size and np.all(np.abs(X[rows, 1]) > 4 * np.abs(X[rows, 0]))
    assert report.failures == [{"xstar": X[i].tolist(), "difference": float(diff[i])}
                               for i in rows]
    ratios = np.abs(diff[rows]) / np.sqrt((X[rows] ** 2).sum(axis=1))
    assert report.worst_slack == pytest.approx(0.25 - ratios.max(), rel=1e-12)


def test_lift_verify_flags_a_mutant_on_both_paths(monkeypatch, capsys):
    # the patch reaches the forked child, which runs the free-norm checks
    _short_truncations(monkeypatch)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    system = LiftingSystem(Space.lp(2, 2))
    runs = []
    for cpus in (2, 1):
        # one usable CPU selects the serial path
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        runs.append([r.to_dict() for r in verify.lift_verify(system, SEARCH, 100, 2)])
        assert cli.run(["lift-verify", "--space", "l2:2", "--instances", "100",
                        "--coeff-vectors", "2"]) == 1
        assert len(forks) == (2 if cpus == 2 else 0)
        forks.clear()
        # the command's defaults are SEARCH
        assert json.loads(capsys.readouterr().out)["checks"] == runs[-1]
    assert runs[0] == runs[1]
    assert [bool(r["failures"]) for r in runs[0]] == [False, False, False, False, True]


def test_beta_section_refuses_a_non_finite_value(monkeypatch):
    # generators scaled by 1e308 overflow beta(T(x)) for |x_n| > 1.8; numpy's
    # warning is silenced here, as the refusal, not the warning, is under test
    space = Space.lp(2, 3)
    huge = Mutant(space, mutant=tuple(Scale(1e308, g) for g in LiftingSystem(space).generators))
    monkeypatch.setattr(verify, "CHECK_SAMPLES", 50)
    with np.errstate(over="ignore"), pytest.raises(InputError, match="non-finite"):
        check_beta_section(huge)


def test_sampled_checks_refuse_a_negative_seed():
    system = LiftingSystem(Space.lp(2, 3))
    for check in (lambda: check_disjoint(system, samples=10, seed=-1),
                  lambda: check_beta_section(system, seed=-1)):
        with pytest.raises(ConfigError, match="seed must be nonnegative, got -1"):
            check()


def test_lemma_batch_refuses_bad_shapes_and_tuple_sizes():
    sp = Space.lp(2, 2)
    with pytest.raises(DimensionMismatch, match=r"\(n, l, 2\)"):
        lemma_unconditional_batch(sp, [[1]], [[0.5, 0.0]])
    for l in (0, 25):
        with pytest.raises(ConfigError, match=f"tuple size must be in 1..24, got {l}"):
            lemma_unconditional_batch(sp, np.ones((1, l), dtype=int), np.zeros((1, l, 2)))


def test_error_contract_leftovers_are_typed():
    with pytest.raises(ConfigError) as exc:
        lemma_unconditional_batch(Space.lp(2, 2), [[1]], [[[3.0, 0.0]]])
    assert exc.type is ConfigError
    with pytest.raises(ConfigError) as exc:
        LiftParams().g(2, -1.0)
    assert exc.type is ConfigError
    with pytest.raises(BasisIndexError) as exc:
        lemma_unconditional_batch(Space.lp(2, 3), [[4]], [[[0.5, 0.0, 0.0]]])
    assert issubclass(exc.type, InputError) and issubclass(exc.type, IndexError)


def test_report_json_roundtrip():
    report = check_lemma44(instances=10, seed=0)
    blob = report.to_json()
    data = json.loads(blob)
    assert data["check"] == "lemma44"
    assert data["failures"] == []
    assert data["seed"] == 0
    # deterministic serialization
    assert check_lemma44(instances=10, seed=0).to_json() == blob


def test_report_passed_iff_no_failures():
    r = CheckReport(check="x", instances=1)
    assert r.passed
    r.failures.append({"bad": 1})
    assert not r.passed
