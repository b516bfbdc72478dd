import json
import math

import numpy as np
import pytest

from fbl import fblnorm, kernels, verify
from fbl.fblnorm import SIGN_TENSOR_CAP, SearchConfig, fbl_lower_bound, tuple_constraint
from fbl.homfun import Add, BuiltinF, BuiltinH, LiftParams, Scale, eval_batch
from fbl.lifting import LiftingSystem, T_apply, beta_apply
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
    lemma_unconditional_instance,
)

SEARCH = SearchConfig(k=3, restarts=8, seed=0)


def test_lemma_instance_single_basis_functional():
    sp = Space.lp(2, 2)
    lhs, rhs = lemma_unconditional_instance(sp, [1], [[1.0, 0.0]])
    assert lhs == 1.0 and rhs == 1.0


def test_lemma_instance_hand_computed():
    # two copies of (e1*+e2*)/sqrt(2) with indices (1,2):
    # LHS = ||(1/sqrt2, 1/sqrt2)||_2 = 1, RHS = ||(2/sqrt2, 2/sqrt2)||_2 = 2
    sp = Space.lp(2, 2)
    u = np.array([1.0, 1.0]) / math.sqrt(2)
    lhs, rhs = lemma_unconditional_instance(sp, [1, 2], [u, u])
    assert lhs == pytest.approx(1.0, rel=1e-14)
    assert rhs == pytest.approx(2.0, rel=1e-14)


def test_lemma_instance_requires_unit_ball():
    sp = Space.lp(2, 2)
    with pytest.raises(ValueError):
        lemma_unconditional_instance(sp, [1], [[3.0, 0.0]])


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
    ps, (d_lo, d_hi) = verify.LEMMA44_PS, verify.LEMMA44_DIMS
    for i in range(instances):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, i)))
        sp = space or Space.lp(ps[rng.integers(len(ps))], int(rng.integers(d_lo, d_hi + 1)))
        l = int(rng.integers(1, max_l + 1))
        X = rng.standard_normal((l, sp.dim))
        for row in X:
            row /= max(1.0, sp.dual_norm(row))
        ms = rng.integers(1, sp.dim + 1, size=l)
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


LEMMA44_SPACES = [None, "l1:5", "l2:3", "linf:8", "lp:1.0000001:3"]


@pytest.mark.parametrize("space", LEMMA44_SPACES)
def test_lemma44_batched_equals_per_instance_loop(space):
    sp = parse_space(space) if space else None
    for seed in range(4):
        for max_l in (1, 6):
            got = check_lemma44(sp, instances=60, max_l=max_l, seed=seed).to_json()
            assert got == _per_instance_lemma44(sp, 60, max_l, seed).to_json()


def test_lemma44_blocks_do_not_change_the_report(monkeypatch):
    # halved pattern norms fail most instances, so each report lists their
    # draws: a block that drew from the wrong streams changes it
    pattern_norms = kernels.pattern_norms
    monkeypatch.setattr(kernels, "pattern_norms", lambda X, S, q: 0.5 * pattern_norms(X, S, q))
    whole = {space: check_lemma44(parse_space(space) if space else None,
                                  instances=7, seed=2).to_json()
             for space in (None, "l1:5")}
    assert all(json.loads(report)["failures"] for report in whole.values())
    blocks = []
    draws = verify._lemma44_draws
    monkeypatch.setattr(verify, "_lemma44_draws",
                        lambda space, seed, lo, hi, *rest:
                        blocks.append(hi - lo) or draws(space, seed, lo, hi, *rest))
    for per_block, sizes in ((1, [1] * 7), (2, [2, 2, 2, 1]), (3, [3, 3, 1])):
        for space, d_max in ((None, 8), ("l1:5", 5)):
            sp = parse_space(space) if space else None
            # one instance of --l 6 takes max(6, d) * 2^5 elements, a
            # record of 6 + 8 and the words that seed its stream
            monkeypatch.setattr(verify, "SIGN_TENSOR_CAP", per_block * (
                (max(6, d_max) << 5) + 6 + 8 + kernels.SIBLING_WORDS))
            blocks.clear()
            got = check_lemma44(sp, instances=7, seed=2).to_json()
            assert got == whole[space]
            assert blocks == sizes
            # the oracle seeds each instance with numpy: a block whose
            # streams started at the wrong index would differ
            assert got == _per_instance_lemma44(sp, 7, 6, 2).to_json()
    # with the real cap, --space l2:8 --l 20 still passes the up-front check
    monkeypatch.undo()
    assert check_lemma44(Space.lp(2, 8), instances=0, max_l=20).instances == 0
    with pytest.raises(ConfigError, match="lower --l"):
        check_lemma44(Space.lp(2, 8), instances=0, max_l=24)


def test_lemma44_failures_come_in_instance_order(monkeypatch):
    # halved pattern norms break the inequality and, on ell_1, the oracle
    # agreement; both code paths see the same halved kernel
    pattern_norms = kernels.pattern_norms
    monkeypatch.setattr(kernels, "pattern_norms", lambda X, S, q: 0.5 * pattern_norms(X, S, q))
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
    monkeypatch.setattr(verify, "l1_extreme_point_constraint",
                        lambda X: 2.0 * np.abs(X).sum(axis=-2).max(axis=-1))
    report = check_lemma44(parse_space("l1:3"), instances=40, max_l=3, seed=1)
    assert [f["instance"] for f in report.failures] == list(range(40))
    assert all(f["kind"] == "oracle-mismatch" for f in report.failures)


def test_lemma_instance_is_a_stack_of_one(rng):
    sp = Space.lp(3.0, 4)
    X = rng.standard_normal((5, 3, 4))
    # ell_1 norms below 1 put every functional in every dual unit ball
    X /= 1.0 + np.abs(X).sum(axis=-1, keepdims=True)
    ms = rng.integers(1, 5, size=(5, 3))
    lhs, rhs = verify.lemma_unconditional_batch(sp, ms, X)
    assert [lemma_unconditional_instance(sp, m, x) for m, x in zip(ms, X)] == \
        list(zip(lhs.tolist(), rhs.tolist()))
    with pytest.raises(BasisIndexError):
        lemma_unconditional_instance(sp, [5], X[0, :1])
    with pytest.raises(DimensionMismatch):
        verify.lemma_unconditional_batch(sp, ms[:, :2], X)


def test_biorthogonal_identity_matrix():
    for p in (1.0, 2.0, math.inf):
        report = check_biorthogonal(LiftingSystem(Space.lp(p, 6)))
        assert report.passed and report.worst_slack == 0.0


def test_disjoint_zero_failures():
    report = check_disjoint(LiftingSystem(Space.lp(2, 8)), samples=2000, seed=0)
    assert report.passed and report.worst_slack == 0.0


def test_beta_section_report():
    report = check_beta_section(LiftingSystem(Space.lp(2, 6)), samples=200, seed=0)
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
def test_beta_section_matches_per_sample_lift(p):
    custom = LiftParams(kind="custom", m_values=(1.0, 3.0, 9.0, 27.0, 81.0, 243.0))
    for d in (1, 3, 6):
        for params in (LiftParams(), custom):
            system = LiftingSystem(Space.lp(p, d), params)
            got = check_beta_section(system, samples=300, seed=d).to_dict()
            assert got == _per_sample_beta_section(system, 300, d, 1e-12)
            assert got["failures"] == []
    # a negative tolerance fails every sample, each with the oracle's entry
    system = LiftingSystem(Space.lp(p, 6))
    got = check_beta_section(system, samples=50, seed=4, tol=-1.0)
    assert len(got.failures) == 50
    assert got.to_dict() == _per_sample_beta_section(system, 50, 4, -1.0)
    empty = check_beta_section(system, samples=0, seed=4)
    assert (empty.instances, empty.failures, empty.worst_slack) == (0, [], None)


def test_beta_section_refuses_bad_sample_counts_before_drawing(monkeypatch):
    monkeypatch.setattr(verify, "_rng", lambda *a: pytest.fail("drew samples"))
    system = LiftingSystem(Space.lp(2, 6))
    with pytest.raises(ConfigError, match="samples must be >= 0"):
        check_beta_section(system, samples=-1)
    # 6 * (cap // 6 + 1) floats is just over the cap
    with pytest.raises(ConfigError, match="over the cap"):
        check_beta_section(system, samples=SIGN_TENSOR_CAP // 6 + 1)


def test_normspan_basis_coefficients():
    system = LiftingSystem(Space.lp(2, 4))
    a = np.array([1.0, 0.0, 0.0, 0.0])
    report = check_normspan(system, a, SearchConfig(k=2, restarts=30, seed=0))
    assert report.passed
    # the explicit tuple (e1*) gives ratio 1, so the bound is nearly attained
    assert report.worst_slack == pytest.approx(0.0, abs=1e-3)


def test_normspan_zero_coefficients_guarded():
    # the all-zero combination has norm 0; every visited ratio is 0/C = 0
    system = LiftingSystem(Space.lp(2, 4))
    report = check_normspan(system, np.zeros(4), SearchConfig(k=2, restarts=4, seed=0))
    assert report.passed and report.worst_slack >= -1e-9


def test_normspan_random_coefficients():
    rng = np.random.default_rng(5)
    for p in (1.0, 2.0, math.inf):
        system = LiftingSystem(Space.lp(p, 6))
        for _ in range(5):
            report = check_normspan(system, rng.standard_normal(6), SEARCH)
            assert report.passed, report.failures


def test_normspan_batch_matches_single_vectors():
    system = LiftingSystem(Space.lp(2, 4))
    A = np.random.default_rng(8).standard_normal((4, 4))
    batch = check_normspan(system, A, SEARCH)
    singles = [check_normspan(system, a, SEARCH) for a in A]
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

    def counting(term, space, X):
        rows.append(len(X))
        return eval_batch(term, space, X)

    monkeypatch.setattr(fblnorm, "eval_batch", counting)
    system = LiftingSystem(Space.lp(2.0, 6))
    rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(9,)))
    report = verify.check_normspan(system, rng.standard_normal((20, 6)),
                                   SearchConfig(k=3, restarts=8, seed=0))
    assert report.passed
    assert sum(rows) == 2_307_240 < 5_532_840 // 2
    assert len(rows) == 1086  # the same calls as before


def test_normspan_coefficient_shape_is_an_input_error():
    system = LiftingSystem(Space.lp(2, 4))
    for bad in (np.zeros(3), np.zeros((2, 5)), np.zeros((1, 1, 4)), 1.0):
        with pytest.raises(DimensionMismatch):
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


def test_freenorm_identically_zero_beyond_dimension():
    system = LiftingSystem(Space.lp(2, 6))
    report = check_freenorm(system, 3, 3, SEARCH, samples=500)
    assert report.passed and report.worst_slack == 0.0
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
    reports = check_freenorms(system, pairs, search, samples=200)
    assert len(reports) == len(pairs)
    for (n, k), rep in zip(pairs, reports):
        if n + k < d:
            assert rep.to_dict() == _separate_freenorm(system, n, k, search)
        else:
            assert (rep.instances, rep.failures, rep.worst_slack) == (200, [], 0.0)
            assert rep.to_dict() == check_freenorm(system, n, k, search, samples=200).to_dict()
    # no pair, or only exact-zero pairs: no search runs
    monkeypatch.setattr(verify, "fbl_lower_bounds", lambda *a: pytest.fail("searched"))
    assert check_freenorms(system, [], search) == []
    zero_pairs = [(d, 0), (1, d - 1)]
    assert [r.instances for r in check_freenorms(system, zero_pairs, search, 10)] == [10, 10]


def test_error_contract_leftovers_are_typed():
    with pytest.raises(ConfigError) as exc:
        lemma_unconditional_instance(Space.lp(2, 2), [1], [[3.0, 0.0]])
    assert exc.type is ConfigError
    with pytest.raises(ConfigError) as exc:
        LiftParams().g(2, -1.0)
    assert exc.type is ConfigError
    with pytest.raises(BasisIndexError) as exc:
        Space.lp(2, 3).basis_vector(4)
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
