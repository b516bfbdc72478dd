import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import signal
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbl import fblnorm, spaces, verify
from fbl.cli import _build_parser, _parse_mseq, run
from fbl.homfun import ExprSyntaxError, GeneratorIndexError, parse, to_text
from fbl.lifting import LiftingSystem
from fbl.spaces import ConfigError, DimensionMismatch, InputError, SpaceSyntaxError


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_norm_join_example(capsys):
    code, out, err = run_cli(
        capsys, "norm", "--space", "l1:2", "--expr", "|d(1,0)| v |d(0,1)|",
        "--k", "2", "--restarts", "200", "--seed", "0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["lower_bound"] >= 1.999
    assert report["seed"] == 0
    assert len(report["witness"]) == 2
    assert "lower bound" in err


def test_norm_delta_isometry(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "--space", "l2:3", "--expr", "d(1,0,0)",
        "--k", "2", "--restarts", "60",
    )
    assert code == 0
    report = json.loads(out)
    assert report["lower_bound"] == pytest.approx(1.0, abs=5e-3)
    assert report["lower_bound"] <= 1.0 + 1e-9


def test_norm_malformed_expr_exits_2(capsys):
    code, out, _ = run_cli(capsys, "norm", "--space", "l1:2", "--expr", "d(1,")
    assert code == 2
    report = json.loads(out)
    assert report["error"]["position"] == 4


def test_norm_bad_space_exits_2(capsys):
    code, _, _ = run_cli(capsys, "norm", "--space", "l7:x", "--expr", "d(1,0)")
    assert code == 2


def test_norm_generator_index_out_of_range_exits_2(capsys):
    code, out, _ = run_cli(capsys, "norm", "--space", "l2:2", "--expr", "f(9)")
    assert code == 2
    assert "generator index 9" in json.loads(out)["error"]["message"]


def test_norm_bad_k_exits_3(capsys):
    code, _, _ = run_cli(capsys, "norm", "--space", "l1:2", "--expr", "d(1,0)", "--k", "30")
    assert code == 3


def test_lift_verify_passes(capsys):
    code, out, _ = run_cli(
        capsys, "lift-verify", "--space", "l2:4", "--seed", "0",
        "--instances", "500", "--coeff-vectors", "5",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    names = {c["check"] for c in report["checks"]}
    assert names == {"biorthogonal", "disjoint", "beta_section", "normspan", "freenorm"}


def test_lift_verify_zero_coeff_vectors_runs_no_search(monkeypatch, capsys):
    # on l2:1 every free-norm check is exact, so no check needs a search
    def no_search(*args):
        raise AssertionError("a search ran")

    monkeypatch.setattr(fblnorm, "_lockstep", no_search)
    code, out, _ = run_cli(capsys, "lift-verify", "--space", "l2:1", "--instances", "50",
                           "--coeff-vectors", "0")
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    span, = [c for c in report["checks"] if c["check"] == "normspan"]
    assert span == {"check": "normspan", "config": {}, "failures": [], "instances": 0,
                    "seed": None, "worst_slack": None}


def test_search_start_tuples_share_no_stream_with_the_checks(monkeypatch, capsys):
    # the start tuples of a 12-restart search are drawn from a stream that
    # no other draw of lift-verify uses: none of their values is among the
    # sample draws of check_disjoint, check_beta_section or --coeff-vectors
    starts, lockstep = [], fblnorm._lockstep

    def spy(terms, W, space, config, X0):
        starts.append(X0.copy())
        return lockstep(terms, W, space, config, X0)

    monkeypatch.setattr(fblnorm, "_lockstep", spy)
    code, _, _ = run_cli(capsys, "lift-verify", "--space", "l2:4", "--k", "4",
                         "--restarts", "12", "--instances", "200", "--coeff-vectors", "40",
                         "--seed", "1")
    assert code == 0 and starts
    assert all(X0.shape == (4, 12, 4) for X0 in starts)
    for key, n in [((2,), 200), ((3,), 1000), ((9,), 40)]:
        draw = np.random.default_rng(np.random.SeedSequence(1, spawn_key=key))
        draw = draw.standard_normal((n, 4))
        for X0 in starts:
            assert np.intersect1d(X0, draw).size == 0, key


def test_lift_verify_rejects_divergent_mseq(capsys):
    code, out, _ = run_cli(capsys, "lift-verify", "--space", "l2:6", "--mseq", "harmonic")
    assert code == 3
    assert "diverges" in json.loads(out)["error"]["message"]


def test_lift_verify_short_mseq_exits_3(capsys):
    code, out, _ = run_cli(capsys, "lift-verify", "--space", "l2:3", "--mseq", "custom:1,2")
    assert code == 3
    assert "no term 3" in json.loads(out)["error"]["message"]


def test_lift_verify_custom_mseq(capsys):
    code, out, _ = run_cli(
        capsys, "lift-verify", "--space", "l2:3", "--mseq", "custom:[3,9,27]",
        "--instances", "200", "--coeff-vectors", "3",
    )
    assert code == 0
    assert json.loads(out)["passed"]


def test_lemma44_batch(capsys):
    code, out, _ = run_cli(capsys, "lemma44", "--instances", "300", "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == [] and report["instances"] == 300


def test_lemma44_zero_instances(capsys):
    code, out, _ = run_cli(capsys, "lemma44", "--instances", "0")
    assert code == 0
    assert json.loads(out)["instances"] == 0


def test_lemma44_tuple_cap_exits_3(capsys):
    code, _, _ = run_cli(capsys, "lemma44", "--l", "30")
    assert code == 3


def test_out_file_and_determinism(tmp_path, capsys):
    args = ["norm", "--space", "l2:2", "--expr", "|d(1,0)| ^ |d(0,1)|",
            "--k", "2", "--restarts", "30", "--seed", "0"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, *args, "--out", str(p1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# the error contract: InputError exits 2, ConfigError exits 3, always with a
# JSON error on stdout and never with a traceback

NESTED_PARENS = "(" * 400 + "d(1)" + ")" * 400
NESTED_ABS = "|" * 600 + "d(1)" + "|" * 600
JOIN_CHAIN = " v ".join(["d(1,0)"] * 150)

ERROR_TABLE = [
    # (argv, exit code, message fragment)
    (["norm", "--space", "l2:3", "--expr", "d(1,0)"], 2, "3-dimensional space"),
    (["norm", "--space", "lp:.:4", "--expr", "d(1,0,0,0)"], 2, "cannot parse space"),
    (["norm", "--space", "l2:2", "--expr", "1e309*d(1,0)"], 2, "overflows float64"),
    (["norm", "--space", "l2:1", "--expr", NESTED_PARENS], 2, "nested deeper"),
    (["norm", "--space", "l2:1", "--expr", NESTED_ABS], 2, "nested deeper"),
    (["norm", "--space", "l2:2", "--expr", JOIN_CHAIN], 2, "nested deeper"),
    (["norm", "--space", "l2:2", "--expr", "f(9)"], 2, "generator index 9"),
    (["norm", "--space", "l2:2", "--expr", "h(1,-1)"], 2, "expected an integer"),
    (["norm", "--space", "l2:2", "--expr", "1e300*d(1e300,0)"], 2, "non-finite"),
    (["norm", "--space", "l2:2", "--expr", "-1*d(1,0)"], 2, "expected one argument"),
    (["norm", "--space", "l2:2", "--expr", "d(1,0)", "--k", "x"], 2, "invalid int"),
    (["norm", "--space", "l2:2", "--expr", "d(1,0)", "--mseq", "custom:1,nan"], 3, "finite"),
    (["norm", "--space", "l2:2", "--expr", "d(1,0)", "--mseq", "custom:1,inf"], 3, "finite"),
    # N = 2M overflows, so the ramps would be NaN
    (["lift-verify", "--space", "l2:2", "--mseq", "custom:1,1e308"], 3, "N = 2M finite"),
    (["norm", "--space", "l2:2", "--expr", "d(1,0)", "--k", "20"], 3, "--k or --restarts"),
    (["norm", "--space", "l2:2", "--expr", "d(1,0)", "--out", "{missing}"], 3, "cannot write"),
    (["norm", "--space", "l2:3", "--expr", "d(1,0)", "--out", "{missing}"], 2, "3-dimensional"),
    (["norm", "--space", "l2:2", "--expr", "d(1,0)", "--k", "30"], 3, "1..24"),
    (["norm", "--space", "l2:0", "--expr", "d(1)"], 3, "positive integer"),
    (["norm", "--space", "wlp:2:[1,nan]", "--expr", "d(1,0)"], 2, "cannot parse space"),
    (["norm", "--space", "l2:1100", "--expr", "f(1)"], 3, "no float64 term 1023"),
    (["lemma44", "--instances", "-3"], 3, "instances"),
    (["lemma44", "--instances", str(2**32 + 1)], 3, "at most 2^32"),
    (["lemma44", "--l", "0"], 3, "1..24"),
    (["lemma44", "--l", "30"], 3, "1..24"),
    (["lemma44", "--seed", "-1"], 3, "seed"),
    (["lemma44", "--instances", "1", "--mseq", "pow2"], 2, "unrecognized arguments"),
    (["lemma44", "--space", "l2:50", "--l", "24"], 3, "lower --l"),
    (["lemma44", "--l", "21"], 3, "lower --l"),
    # the sign-cube norms of one instance fit, but not the rest of its count
    (["lemma44", "--space", "l2:10000000", "--l", "1"], 3, "lower --l"),
    (["lift-verify", "--space", "l2:3", "--instances", "-5"], 3, "samples"),
    (["lift-verify", "--space", "l2:3", "--coeff-vectors", "-1"], 3, "--coeff-vectors"),
    # refused before the (10^9, 6) coefficient draw
    (["lift-verify", "--space", "l2:6", "--coeff-vectors", "1000000000"], 3,
     "lower --coeff-vectors"),
    (["lift-verify", "--space", "l2:3", "--mseq", "custom:1,2"], 3, "no term 3"),
    (["lift-verify", "--space", "l2:3", "--mseq", "harmonic"], 3, "diverges"),
    # the search's live temporaries, not one tensor, are over the cap
    (["lift-verify", "--space", "l2:2", "--k", "20"], 3, "--k or --restarts"),
    # a search under the cap whose witness certificate is not
    (["norm", "--space", "l2:1", "--expr", "d(1)", "--k", "22", "--restarts", "1"], 3,
     "--k or --restarts"),
]


@pytest.mark.parametrize("argv,code,fragment", ERROR_TABLE,
                         ids=[" ".join(row[0])[:60] for row in ERROR_TABLE])
def test_error_contract(argv, code, fragment, tmp_path, capsys):
    argv = [a.replace("{missing}", str(tmp_path / "missing" / "x.json")) for a in argv]
    start = time.perf_counter()
    got, out, err = run_cli(capsys, *argv)
    # every refusal comes before any heavy work (the --k 20 search would
    # otherwise ask for a 67 GB sign tensor)
    assert time.perf_counter() - start < 1.0
    assert got == code
    assert fragment in json.loads(out)["error"]["message"]
    assert "Traceback" not in err


# sha256 of the stdout of fixed-seed commands.  The searches' start tuples
# are one draw from the stream of key (0,), whose first row is restart 0's
# tuple: the two --restarts 1 rows were taken while each restart had a
# stream of its own, and hold as they were; the rows with more restarts
# were taken after the one draw.  The lemma44 rows were taken before its
# bounded draws were decoded from raw PCG64 words; --l 1 and the
# one-dimensional space have one-value ranges, for which numpy takes no
# word.  The lift-verify rows were taken again when the free-norm pairs
# with n + k >= d began to report their slack on the scale of the tail
# bound; the merged free-norm worst_slack was the only value that changed.
# The digests hold for this numpy and BLAS build; a float64 library whose
# rounding differs changes them.
PINNED_REPORTS = [
    (["norm", "--space", "l2:4", "--expr", "d(0.1,0.9,0.2,0.3)", "--k", "4",
      "--restarts", "20", "--seed", "5"],
     "87c039ff3003efb374a8b88decefa4023b4104598cba933524eedc3f532b6fd2"),
    (["norm", "--space", "l2:4", "--expr", "f(1) v 0.5*h(2,1) - f(3)", "--k", "3",
      "--restarts", "10", "--seed", "2"],
     "2e9fb11efed1a0cca8c4f8883a2f4afb4dca1728e4a387e7ee3cef52eda78ece"),
    (["lift-verify", "--space", "l2:4", "--k", "4", "--instances", "500",
      "--coeff-vectors", "5", "--seed", "1"],
     "1f04bb23d4277594df980a47191cc351253c9e9a11f738da2989b5253701ad7b"),
    (["lift-verify", "--space", "lp:3:4", "--k", "4", "--mseq", "custom:2,5,11,23,47",
      "--instances", "500", "--coeff-vectors", "5", "--seed", "3"],
     "e55b42ccd38432926993c1c5803866dd670f637ef184de37157e925a67ef127a"),
    (["norm", "--space", "l2:4", "--expr", "d(0.1,0.9,0.2,0.3)", "--k", "4",
      "--restarts", "1", "--seed", "5"],
     "7bef2995b1320ec6a60e7a77503a4979dcf46a69b497b3136bb9c1915f21f21a"),
    (["lift-verify", "--space", "l2:4", "--k", "4", "--restarts", "1", "--instances", "500",
      "--coeff-vectors", "5", "--seed", "1"],
     "f374ccd2252d7b8faf8e89d732664d3f7930adca4f81a48763ea74c395064af5"),
    (["lemma44", "--instances", "3000", "--seed", "4"],
     "347326bbb21f365148e0b7b30db43b05c697698aa86067bca2d47f560057eefa"),
    (["lemma44", "--space", "l1:5", "--l", "4", "--instances", "2000", "--seed", "6"],
     "9f96dd2cacf7aed0a4d568b1ac369aa5a8a8571d99a4ad8acf8b00f4073a5854"),
    (["lemma44", "--l", "1", "--instances", "2000", "--seed", "7"],
     "8c843ae466cba90381a96d5b7b2ca4482a78c1eda4ec52677a210bd0dc4611f2"),
    (["lemma44", "--space", "l2:1", "--instances", "2000", "--seed", "8"],
     "6b3696b476da2474bf199d989335a552dc7cba6f68425315cb64cb8951a49f69"),
    # at d = 6 the positive parts of the late generators vanish on most or
    # all rows of a search
    (["lift-verify", "--space", "l1:6", "--instances", "500", "--coeff-vectors", "4",
      "--seed", "6"],
     "72596b985c09098dd8fc886070837615dbee4ed90b07278345c5e311810981df"),
    (["lift-verify", "--space", "linf:6", "--instances", "500", "--coeff-vectors", "4",
      "--seed", "7"],
     "3cfcd4c0b6974d671b67af7bdcf7d75b382b12dfe5338c5da044cfb63c83928e"),
]


@pytest.mark.parametrize("argv,digest", PINNED_REPORTS,
                         ids=["norm-delta", "norm-f-h", "lift-verify-l2", "lift-verify-lp3",
                              "norm-delta-1-restart", "lift-verify-l2-1-restart",
                              "lemma44-random", "lemma44-l1", "lemma44-l-1", "lemma44-dim-1",
                              "lift-verify-l1-6", "lift-verify-linf-6"])
def test_reports_are_pinned(argv, digest, capsys):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# one tiny valid command per subcommand
EVERY_COMMAND = [
    ["norm", "--space", "l2:2", "--expr", "d(1,0)", "--restarts", "1"],
    ["lift-verify", "--space", "l1:1", "--instances", "2", "--coeff-vectors", "1",
     "--restarts", "1"],
    ["lemma44", "--instances", "1"],
]


def test_every_flag_reaches_its_command(capsys):
    # a flag that its command never reads is accepted and then ignored
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parser = _build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(commands) == sorted(argv[0] for argv in EVERY_COMMAND)
    for argv in EVERY_COMMAND:
        args = parser.parse_args(argv, namespace=Recording())
        reads.clear()
        assert args.func(args) == 0
        capsys.readouterr()
        dests = {a.dest for a in commands[argv[0]]._actions if a.dest != "help"}
        assert dests - reads == set(), argv[0]


def test_expression_errors_report_their_offset(capsys):
    _, out, _ = run_cli(capsys, "norm", "--space", "l2:2", "--expr", "d(1,0) + 1e309*d(0,1)")
    assert json.loads(out)["error"]["position"] == 9


def test_error_types():
    for cls in (DimensionMismatch, SpaceSyntaxError, ExprSyntaxError, GeneratorIndexError):
        assert issubclass(cls, InputError)
    assert issubclass(GeneratorIndexError, IndexError)
    assert fblnorm.ConfigError is ConfigError


def test_norm_near_one_p_is_certified(capsys):
    # q ~ 1e7 overflows (or, from inside the unit cube, underflows) the
    # power sums of the constraint; the rescaled dual norm still certifies
    # ||delta_x|| = ||x|| = 1
    for seed in ("0", "4"):
        code, out, _ = run_cli(capsys, "norm", "--space", "lp:1.0000001:1", "--expr", "d(1)",
                               "--k", "1", "--restarts", "1", "--seed", seed)
        assert code == 0
        assert json.loads(out)["lower_bound"] == pytest.approx(1.0, rel=1e-9)


def test_overflow_leaves_no_runtime_warning(capsys):
    # the search checks finiteness itself, so numpy's overflow warnings
    # would only print noise ahead of the result or the JSON error
    for argv, code in [
        (["norm", "--space", "l2:2", "--expr", "1e300*d(1e300,0)"], 2),
        (["norm", "--space", "lp:1.0000001:1", "--expr", "d(1)", "--k", "1",
          "--restarts", "1", "--seed", "4"], 0),
    ]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, _, err = run_cli(capsys, *argv)
        assert got == code
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "RuntimeWarning" not in err


def test_lift_verify_huge_instances_exits_3(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "lift-verify", "--space", "l2:3",
                             "--instances", "1000000000")
    # refused before the (10^9, 3) draw
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "lower --instances" in json.loads(out)["error"]["message"]
    assert "Traceback" not in err


def test_all_zero_search_exits_3(monkeypatch, capsys):
    # a search whose best tuple has constraint 0 has no ratio to report
    monkeypatch.setattr(fblnorm, "tuple_constraint",
                        lambda space, X: (0.0, np.ones(len(X))))
    code, out, err = run_cli(capsys, "norm", "--space", "l2:2", "--expr", "d(1,0)",
                             "--k", "2", "--restarts", "2", "--seed", "5")
    assert code == 3
    message = json.loads(out)["error"]["message"]
    assert "all-zero tuple" in message
    assert all(part in message for part in ("l2:2", "k=2", "seed=5"))
    assert "Traceback" not in err


# token soup and grammar-shaped text, so the search also runs on valid input
NUMBERS = ["0", "1", "-1", "0.5", "2", "-0.25", "1e3", "1e309", "1e-300", "1e300", "."]
TOKENS = NUMBERS + ["d(", "f(", "h(", "pos(", "(", ")", "|", ",", "v", "^", "+", "-", "*",
                    " ", "x", "#", "9"]
_atoms = st.one_of(
    st.lists(st.sampled_from(NUMBERS), min_size=1, max_size=3).map(
        lambda c: "d(" + ",".join(c) + ")"),
    st.integers(-1, 4).map(lambda n: f"f({n})"),
    st.tuples(st.integers(0, 4), st.integers(-1, 3)).map(lambda t: "h(%d,%d)" % t),
)
EXPRS = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=20).map("".join),
    st.recursive(_atoms, lambda e: st.one_of(
        st.tuples(e, st.sampled_from([" v ", " ^ ", " + ", " - "]), e).map("".join),
        e.map(lambda s: f"|{s}|"),
        e.map(lambda s: f"pos({s})"),
        e.map(lambda s: f"({s})"),
        st.tuples(st.sampled_from(NUMBERS), e).map(lambda t: f"{t[0]}*({t[1]})"),
    ), max_leaves=6),
)
_P = st.one_of(st.sampled_from(["1", "1.5", "2", "3", "inf", "1.0000001", "0.5", ".", ""]),
               st.from_regex(r"\A\d{1,2}(\.\d{0,8})?\Z"))
_WEIGHTS = st.lists(st.sampled_from(["1", "0.5", "0", "-1", "nan", "inf", "1e400", "a", ""]),
                    max_size=4)
SPACES = st.one_of(
    st.tuples(st.sampled_from(["l1", "l2", "linf", "l3"]), st.integers(0, 4)).map(
        lambda t: f"{t[0]}:{t[1]}"),
    st.tuples(_P, st.integers(0, 4)).map(lambda t: f"lp:{t[0]}:{t[1]}"),
    st.tuples(_P, _WEIGHTS).map(lambda t: f"wlp:{t[0]}:[{','.join(t[1])}]"),
    st.text(alphabet="lpinfw:.[],-0123456789", max_size=12),
)
MSEQS = st.sampled_from(["pow2", "harmonic", "custom:1,2,3,4", "custom:[3,9,27,81]",
                         "custom:1,nan", "custom:2,1", "custom:", "custom:x", "bogus"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["norm", "lift-verify", "lemma44"]))
    seed = str(draw(st.integers(-1, 3)))
    if command == "lemma44":
        argv = ["lemma44", "--instances", str(draw(st.integers(-2, 20))),
                "--l", str(draw(st.integers(0, 4))), "--seed", seed]
        return argv + (["--space", draw(SPACES)] if draw(st.booleans()) else [])
    argv = [command, "--space", draw(SPACES), "--mseq", draw(MSEQS), "--seed", seed,
            "--k", str(draw(st.integers(0, 3))), "--restarts", str(draw(st.integers(0, 2))),
            "--local-steps", "1"]
    if command == "norm":
        return argv + ["--expr", draw(EXPRS)]
    return argv + ["--instances", str(draw(st.integers(-2, 20))),
                   "--coeff-vectors", str(draw(st.integers(-1, 2)))]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(argv=_argv())
def test_fuzzed_command_lines_keep_the_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)  # any exception escaping run() fails the test
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert "message" in json.loads(out.getvalue())["error"]
    assert "Traceback" not in err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(text=EXPRS)
def test_fuzzed_expressions_round_trip(text):
    try:
        expr = parse(text)
    except InputError:
        return
    assert parse(to_text(expr)) == expr


# ---------------------------------------------------------------------------
# lift-verify runs its free-norm searches in a forked child when it can;
# the path must not change a report, an exit code or a JSON error


def _cpus(monkeypatch, n):
    # the CPUs lift-verify sees as usable: one forces the serial path
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _count_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@contextlib.contextmanager
def _deadline(seconds):
    # a parent that waits on a child for good fails the test instead
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _digest(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("space", ["l1:6", "l2:6", "linf:6", "lp:3:5"])
def test_lift_verify_forked_and_serial_reports_match(space, monkeypatch, capsys):
    forks = _count_forks(monkeypatch)
    for seed in ("0", "1", "2"):
        argv = ["lift-verify", "--space", space, "--seed", seed]
        _cpus(monkeypatch, 2)
        forked = _digest(capsys, argv)
        assert len(forks) == 1
        _cpus(monkeypatch, 1)
        assert _digest(capsys, argv) == forked
        assert len(forks) == 1 and forked[0] == 0
        forks.clear()
    _no_child_left()


@pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "serial"])
def test_lift_verify_is_one_library_call(cpus, monkeypatch, capsys):
    # the command's checks are verify.lift_verify's reports on the inputs
    # that its flags build, here the lift-verify-l2 pinned report's
    argv, _ = PINNED_REPORTS[2]
    _cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    args = _build_parser().parse_args(argv)
    system = LiftingSystem(spaces.parse_space(args.space), _parse_mseq(args.mseq))
    search = fblnorm.SearchConfig(k=args.k, restarts=args.restarts,
                                  local_steps=args.local_steps, seed=args.seed)
    reports = verify.lift_verify(system, search, args.instances, args.coeff_vectors)
    assert [r.to_dict() for r in reports] == json.loads(out)["checks"]
    assert len(forks) == (2 if cpus == 2 else 0)
    _no_child_left()


def test_lift_verify_forks_only_when_both_searches_fit_the_cap(monkeypatch, capsys):
    argv = ["lift-verify", "--space", "l2:6", "--seed", "4"]
    _cpus(monkeypatch, 2)
    expected = _digest(capsys, argv)

    # the default span batch and the other side's largest count, the
    # free-norm batch or the disjointness sample, as the command counts them
    space, search = spaces.parse_space("l2:6"), fblnorm.SearchConfig(k=3, restarts=8)
    span = fblnorm.search_elements(space, search, 20) + 20 * (5 * 6 + 8)
    free = max(fblnorm.search_elements(space, search, 15), 10_000 * (3 * 6 + 3))

    # each batch still runs as one search chunk, so the report is unchanged
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(spaces, "SIGN_TENSOR_CAP", span + free)
    assert _digest(capsys, argv) == expected and len(forks) == 1
    # each search fits alone, but not both at once
    monkeypatch.setattr(spaces, "SIGN_TENSOR_CAP", max(span, free))
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked over the cap"))
    assert _digest(capsys, argv) == expected
    _no_child_left()


@pytest.mark.parametrize("check,error", [
    ("check_freenorms", ConfigError("no free-norm report")),
    ("check_freenorms", ExprSyntaxError("bad truncation", 3)),
    ("check_disjoint", ConfigError("no disjointness report")),
    ("check_disjoint", ExprSyntaxError("bad generator", 2)),
], ids=["config", "syntax", "disjoint-config", "disjoint-syntax"])
def test_lift_verify_child_errors_match_the_serial_run(check, error, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error

    # the patch reaches the child through the fork
    monkeypatch.setattr(verify, check, fail)
    argv = ["lift-verify", "--space", "l2:3", "--instances", "100", "--coeff-vectors", "2"]
    results = []
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        with _deadline(30):
            code, out, err = run_cli(capsys, *argv)
        results.append((code, out))
        assert "Traceback" not in err
    assert results[0] == results[1]
    assert results[0][0] == (3 if isinstance(error, ConfigError) else 2)
    _no_child_left()


def test_lift_verify_runs_only_the_span_check_in_its_own_process(monkeypatch, capsys):
    # with 2 CPUs the parent runs the span-norm searches alone; every other
    # check, the free-norm batch too, runs in the forked child
    parent, span_pids = os.getpid(), []
    for name in ("check_biorthogonal", "check_disjoint", "check_beta_section",
                 "check_freenorms"):
        def in_child(*args, _real=getattr(verify, name), _name=name, **kwargs):
            if os.getpid() == parent:
                raise AssertionError(f"{_name} ran in the parent")
            return _real(*args, **kwargs)

        monkeypatch.setattr(verify, name, in_child)
    real_span = verify.check_normspan

    def span(*args, **kwargs):
        span_pids.append(os.getpid())
        return real_span(*args, **kwargs)

    monkeypatch.setattr(verify, "check_normspan", span)
    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    with _deadline(30):
        code, out, _ = run_cli(capsys, "lift-verify", "--space", "l2:3", "--instances", "100",
                               "--coeff-vectors", "2")
    assert (code, len(forks), span_pids) == (0, 1, [parent])
    assert [c["check"] for c in json.loads(out)["checks"]] == [
        "biorthogonal", "disjoint", "beta_section", "normspan", "freenorm"]
    _no_child_left()


@pytest.mark.parametrize("partial", [False, True], ids=["no-result", "part-result"])
def test_lift_verify_child_exit_without_result_is_an_error(partial, monkeypatch, capsys):
    if partial:
        def dump_half(result, pipe):
            # the child dies half-way through sending its reports
            pipe.write(pickle.dumps(result)[:20])
            pipe.flush()
            os._exit(9)

        monkeypatch.setattr(pickle, "dump", dump_half)
    else:
        monkeypatch.setattr(verify, "check_freenorms", lambda *args: os._exit(9))
    _cpus(monkeypatch, 2)
    with _deadline(30), pytest.raises(ChildProcessError, match=r"wait status 2304"):
        run(["lift-verify", "--space", "l2:3", "--instances", "100", "--coeff-vectors", "2"])
    capsys.readouterr()
    _no_child_left()


def test_lift_verify_parent_error_kills_the_child(monkeypatch, capsys):
    # a child that would run for a minute is killed, not waited for
    monkeypatch.setattr(verify, "check_freenorms", lambda *args: time.sleep(60))

    def fail(*args, **kwargs):
        raise ConfigError("no span report")

    monkeypatch.setattr(verify, "check_normspan", fail)
    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    start = time.perf_counter()
    with _deadline(30):
        code, out, _ = run_cli(capsys, "lift-verify", "--space", "l2:3", "--instances", "100")
    assert time.perf_counter() - start < 10.0
    assert (code, len(forks)) == (3, 1)
    assert json.loads(out)["error"]["message"] == "no span report"
    _no_child_left()

    # a sample count over the cap is refused before any fork and any search,
    # on either path, and before an over-the-cap --coeff-vectors
    monkeypatch.undo()
    forks = _count_forks(monkeypatch)

    def no_search(*args):
        raise AssertionError("a search ran")

    for module in (fblnorm, verify):
        monkeypatch.setattr(module, "fbl_lower_bounds", no_search)
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        for extra in ([], ["--coeff-vectors", "1000000000"]):
            code, out, _ = run_cli(capsys, "lift-verify", "--space", "l2:3",
                                   "--instances", "1000000000", *extra)
            assert (code, len(forks)) == (3, 0)
            assert "lower --instances" in json.loads(out)["error"]["message"]
        code, out, _ = run_cli(capsys, "lift-verify", "--space", "l2:3",
                               "--coeff-vectors", "1000000000")
        assert (code, len(forks)) == (3, 0)
        assert "lower --coeff-vectors" in json.loads(out)["error"]["message"]
    _no_child_left()
