import io
import math
from fractions import Fraction

import numpy as np
import pytest

from qsum import boolfn, bounds, cli, closedform, simulator
from qsum.cli import main
from qsum.closedform import distribution
from qsum.suites import SUITE_NAMES

EIGHT_OVER_PI_SQ = 8 / math.pi**2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_allocation(monkeypatch):
    """Fail the test if the simulator allocates amplitudes or a Fourier matrix."""
    class NoAllocation:
        def __getattr__(self, name):
            return getattr(np, name)

        def zeros(self, *args, **kwargs):
            pytest.fail("the simulator allocated amplitudes for a refused run")

        def outer(self, *args, **kwargs):
            pytest.fail("the simulator built a Fourier matrix for a refused run")

    monkeypatch.setattr(simulator, "np", NoAllocation())


@pytest.fixture
def no_sweep(monkeypatch):
    """Fail the test if a command starts a sweep or a law, or if the closed
    form, the bounds or the class weights touch numpy at all."""
    class NoNumpy:
        def __getattr__(self, name):
            pytest.fail(f"np.{name} was used by a refused command")

    def no_call(*args, **kwargs):
        pytest.fail("a refused command started its computation")

    for module in (boolfn, bounds, closedform):
        monkeypatch.setattr(module, "np", NoNumpy())
    for name in ("distribution", "worst_probabilistic_error", "worst_probabilistic_errors",
                 "avg_probabilistic_error", "avg_probabilistic_errors"):
        monkeypatch.setattr(cli, name, no_call)


class TestDist:
    def test_zero_mean_exact_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--m", "4", "--n", "2", "--k", "0")
        assert code == 0
        assert out == "j,prob,abar\n0,1,0\n1,0,0.5\n2,0,1\n3,0,0.5\n"

    def test_half_mean_prob_column(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--m", "4", "--n", "3", "--k", "4")
        assert code == 0
        probs = [line.split(",")[1] for line in out.strip().split("\n")[1:]]
        assert probs == ["0", "0.5", "0", "0.5"]

    def test_rows_match_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--m", "3", "--n", "3", "--k", "3")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        dist = distribution(Fraction(3, 8), 3)
        for j, row in enumerate(rows):
            assert int(row[0]) == j
            assert float(row[1]) == dist.probs[j]
            assert float(row[2]) == dist.outputs[j]

    def test_rejects_bad_k(self, capsys):
        code, _, err = run_cli(capsys, "dist", "--m", "4", "--n", "2", "--k", "5")
        assert code == 2
        assert "error" in err

    def test_oversized_law_is_refused_before_any_work(self, capsys, no_sweep):
        code, out, err = run_cli(capsys, "dist", "--m", "1000000000", "--n", "1", "--k", "1")
        assert code == 2 and out == ""
        assert err == "error: M=1000000000 is above the limit of 1048576 outcomes\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "dist.csv"
        code, out, _ = run_cli(capsys, "dist", "--m", "4", "--n", "2", "--k", "0",
                               "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_bytes() == b"j,prob,abar\n0,1,0\n1,0,0.5\n2,0,1\n3,0,0.5\n"


class TestSimulate:
    def test_zero_function(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--m", "4", "--n", "3",
                               "--f", "00", "--seed", "7")
        assert code == 0
        lines = dict(line.split(": ") for line in out.strip().split("\n"))
        assert lines["outcome"] == "0"
        assert lines["output"] == "0"
        assert lines["probability"] == "1"
        assert lines["queries"] == "3"
        assert lines["qubits"] == "5"

    def test_half_mean_hex_table(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--m", "4", "--n", "3",
                               "--f", "0x0F", "--seed", "3")
        assert code == 0
        lines = dict(line.split(": ") for line in out.strip().split("\n"))
        assert lines["outcome"] in ("1", "3")
        assert lines["output"] == "0.5"

    def test_seed_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "simulate", "--m", "8", "--n", "4",
                             "--f", "beef", "--seed", "42")
        _, out2, _ = run_cli(capsys, "simulate", "--m", "8", "--n", "4",
                             "--f", "beef", "--seed", "42")
        assert out1 == out2

    def test_table_from_stdin_equals_inline(self, capsys, monkeypatch):
        table = "9e" * 32
        _, inline, _ = run_cli(capsys, "simulate", "--m", "16", "--n", "8",
                               "--f", table, "--seed", "5")
        monkeypatch.setattr("sys.stdin", io.StringIO(table + "\n"))
        code, piped, _ = run_cli(capsys, "simulate", "--m", "16", "--n", "8",
                                 "--f", "-", "--seed", "5")
        assert code == 0 and piped == inline

    def test_table_too_long_for_a_command_line_reads_from_stdin(self, capsys, monkeypatch):
        # n = 20 takes a 262144-digit table; mean 1/2 at M = 4 has sigma = 1,
        # so the output is exactly 1/2
        monkeypatch.setattr("sys.stdin", io.StringIO("f" * (1 << 17) + "0" * (1 << 17)))
        code, out, _ = run_cli(capsys, "simulate", "--m", "4", "--n", "20",
                               "--f", "-", "--seed", "3")
        assert code == 0
        lines = dict(line.split(": ") for line in out.strip().split("\n"))
        assert lines["output"] == "0.5" and lines["probability"] == "0.5"
        assert lines["queries"] == "3" and lines["qubits"] == "22"

    def test_malformed_hex_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--m", "4", "--n", "3",
                               "--f", "xyz", "--seed", "0")
        assert code == 2
        assert "error" in err

    def test_signed_hex_exits_two(self, capsys):
        # int(..., 16) reads "-1"; the table must not become all ones
        code, out, err = run_cli(capsys, "simulate", "--n", "3", "--m", "4", "--f=-1")
        assert code == 2 and out == ""
        assert err == "error: malformed hex table: '-' is not a hex digit\n"

    @pytest.mark.parametrize("seed,outcome", [(0, 131), (2, 105)])
    def test_output_is_the_dist_abar_bytes(self, capsys, seed, outcome):
        # at M = 236 the reported output must be the abar that dist lists for
        # the same outcome, to the last printed digit
        _, out, _ = run_cli(capsys, "simulate", "--m", "236", "--n", "8",
                            "--f", "f" * 62 + "00", "--seed", str(seed))
        lines = dict(line.split(": ") for line in out.strip().split("\n"))
        assert lines["outcome"] == str(outcome)
        _, dist_out, _ = run_cli(capsys, "dist", "--m", "236", "--n", "8", "--k", "248")
        row = dist_out.split("\n")[1 + outcome].split(",")
        assert row[0] == str(outcome)
        assert lines["output"] == row[2]

    def test_oversized_run_is_refused_before_allocating(self, capsys, no_allocation):
        code, out, err = run_cli(capsys, "simulate", "--n", "20", "--m", "1024",
                                 "--f", "0" * (1 << 18))
        assert code == 2 and out == ""
        assert err == ("error: 1 run(s) at n=20, M=1024 need 1073741824 amplitudes; "
                       "the simulator's limit is 16777216 (256 MiB)\n")

    def test_oversized_run_is_refused_before_reading_its_table(self, capsys, monkeypatch):
        # a valid n = 23 table is 2^21 hex digits; parsing it would take
        # about 120 MB before the simulator refused the run
        class NoRead:
            def read(self):
                pytest.fail("the table of a refused run was read")

        monkeypatch.setattr("sys.stdin", NoRead())
        code, out, err = run_cli(capsys, "simulate", "--n", "23", "--m", "4", "--f", "-")
        assert code == 2 and out == ""
        assert err == ("error: 1 run(s) at n=23, M=4 need 33554432 amplitudes; "
                       "the simulator's limit is 16777216 (256 MiB)\n")

    @pytest.mark.parametrize("n,M,message", [
        # few amplitudes, but a 2**26-entry Fourier matrix
        (0, 8192, "the Fourier block at M=8192 has 67108864 entries; "
                  "the simulator's limit is 16777216 (256 MiB)"),
        # exactly 2**24 amplitudes and Fourier entries, but 2**36 multiply-adds
        (12, 4096, "1 run(s) at n=12, M=4096 need 68719476736 multiply-adds per "
                   "Fourier transform; the simulator's limit is 17179869184"),
    ])
    def test_fourier_cost_is_refused_before_allocating(self, capsys, no_allocation,
                                                       n, M, message):
        table = "1" if n == 0 else "0" * ((1 << n) // 4)
        code, out, err = run_cli(capsys, "simulate", "--n", str(n), "--m", str(M),
                                 "--f", table, "--seed", "1")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestError:
    def test_worst_row_with_improved_bound(self, capsys):
        code, out, _ = run_cli(capsys, "error", "--setting", "worst", "--m", "8",
                               "--n", "6", "--p", "8/pi2")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "M,N,p,setting,measure,value,bound,bound_ref"
        fields = row.split(",")
        assert fields[0] == "8" and fields[1] == "64"
        assert float(fields[2]) == EIGHT_OVER_PI_SQ
        assert fields[3] == "worst" and fields[4] == ""
        assert float(fields[5]) <= float(fields[6])
        assert fields[7] == "ImprovedCor"

    def test_avg_row_with_wa4_bound(self, capsys):
        code, out, _ = run_cli(capsys, "error", "--setting", "avg", "--m", "32",
                               "--n", "12", "--p", "0.75", "--measure", "p1")
        assert code == 0
        fields = out.strip().split("\n")[1].split(",")
        assert fields[3] == "avg" and fields[4] == "p1"
        assert float(fields[5]) <= float(fields[6])
        assert fields[7] == "WA4"

    def test_avg_row_with_wan4_bound(self, capsys):
        code, out, _ = run_cli(capsys, "error", "--setting", "avg", "--m", "6",
                               "--n", "12", "--p", "0.75", "--measure", "p1",
                               "--beta", "2")
        assert code == 0
        fields = out.strip().split("\n")[1].split(",")
        assert fields[7] == "WAn4"
        assert float(fields[5]) >= float(fields[6]) > 0.0

    def test_nan_beta_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "error", "--setting", "avg", "--m", "6",
                                 "--n", "12", "--p", "0.75", "--beta", "nan")
        assert code == 2 and out == ""
        assert err == "error: beta must exceed 1, got nan\n"

    @pytest.mark.parametrize("argv,shown", [
        # at 4 | M no record carries WAn4, and the worst case never does
        (["error", "--setting", "avg", "--m", "8", "--beta", "nan"], "nan"),
        (["error", "--setting", "worst", "--m", "8", "--beta", "-3"], "-3.0"),
        # refused before the sweep at M = 8, not once it reaches M = 6
        (["curve", "--setting", "avg", "--m-values", "8,6", "--beta", "0.5"], "0.5"),
    ])
    def test_beta_of_at_most_one_is_refused_before_any_work(self, capsys, no_sweep, argv,
                                                            shown):
        code, out, err = run_cli(capsys, *argv, "--n", "12", "--p", "0.75")
        assert code == 2 and out == ""
        assert err == f"error: beta must exceed 1, got {shown}\n"

    @pytest.mark.parametrize("M", ["4", "8"])
    def test_avg_at_one_point_takes_the_global_bound(self, capsys, M):
        # WA4 needs N >= 2; at N = 1 both means are exact, so the error is 0
        code, out, _ = run_cli(capsys, "error", "--setting", "avg", "--m", M,
                               "--n", "0", "--p", "0.7")
        assert code == 0
        fields = out.strip().split("\n")[1].split(",")
        assert fields[0] == M and fields[1] == "1"
        assert fields[5] == "0" and fields[7] == "GlobalCor"

    @pytest.mark.parametrize("argv,message", [
        (["error", "--setting", "worst", "--m", "8", "--n", "40", "--p", "0.75"],
         "a sweep at n=40 needs N+1 = 2^40+1 means; the limit is 2^30+1 means for a "
         "screened worst case (n <= 30)"),
        (["error", "--setting", "avg", "--m", "8", "--n", "29", "--p", "0.75"],
         "a sweep at n=29 needs N+1 = 2^29+1 means and 8(2^29+1) bytes of class weights; "
         "the limit is 2^24+1 means (n <= 24)"),
        (["error", "--setting", "worst", "--m", "2000000", "--n", "4", "--p", "0.75"],
         "M=2000000 is above the limit of 1048576 outcomes"),
        # the M = 4 sweep is refused too, since the last M cannot run
        (["curve", "--setting", "avg", "--n", "12", "--p", "0.75", "--m-values", "4,2000000"],
         "M=2000000 is above the limit of 1048576 outcomes"),
        # a worst-case curve at n = 25 is screened, and accepted, below
        (["curve", "--setting", "avg", "--n", "25", "--m", "8", "--p-values", "0.6,0.75"],
         "a sweep at n=25 needs N+1 = 2^25+1 means and 8(2^25+1) bytes of class weights; "
         "the limit is 2^24+1 means (n <= 24)"),
        # within the mean limit, but all 4096 outcomes of every mean, which
        # level 1 needs, would take hours
        (["error", "--setting", "worst", "--m", "4096", "--n", "24", "--p", "1"],
         "a sweep at n=24, M=4096 and p=1 needs (2^24+1) x 4096 outcome cells; "
         "the limit is 2^28 cells"),
        # the highest level sets the cells per mean for every level: at 0.99
        # and M = 64, 4W cells for W values per side would outgrow the 33
        # values, so all M cells
        (["curve", "--setting", "avg", "--n", "24", "--m", "64", "--p-values", "0.6,0.99"],
         "a sweep at n=24, M=64 and p=0.99 needs (2^24+1) x 64 outcome cells; "
         "the limit is 2^28 cells"),
        # each M of an M sweep is one sweep: at 0.9 (W = 4 values per side)
        # M = 8 has only 5 values, so all 8 cells per mean, within the limit,
        # and M = 64 16 cells per mean, above it
        (["curve", "--setting", "worst", "--n", "24", "--p", "0.9", "--m-values", "8,64"],
         "a sweep at n=24, M=64 and p=0.9 needs (2^24+1) x 16 outcome cells; "
         "the limit is 2^28 cells"),
        # a screened worst case reaches n = 30; M = 3 of an M sweep stays dense
        (["error", "--setting", "worst", "--m", "64", "--n", "31", "--p", "0.75"],
         "a sweep at n=31 needs N+1 = 2^31+1 means; the limit is 2^30+1 means for a "
         "screened worst case (n <= 30)"),
        (["curve", "--setting", "worst", "--n", "25", "--p", "0.75", "--m-values", "64,3"],
         "a sweep at n=25 needs N+1 = 2^25+1 means; the limit is 2^24+1 means (n <= 24)"),
        # past both limits, an M sweep with a dense M cites the dense one
        (["curve", "--setting", "worst", "--n", "31", "--p", "0.75", "--m-values", "64,3"],
         "a sweep at n=31 needs N+1 = 2^31+1 means; the limit is 2^24+1 means (n <= 24)"),
        # an M below 1 comes before 128 MiB of p2 class weights, and before
        # the sweep of the M ahead of it
        (["error", "--setting", "avg", "--m", "-3", "--n", "24", "--p", "0.5",
          "--measure", "p2"], "M must be >= 1, got -3"),
        (["curve", "--setting", "worst", "--n", "12", "--p", "0.5", "--m-values", "4,0"],
         "M must be >= 1, got 0"),
    ])
    def test_oversized_sweep_is_refused_before_any_work(self, capsys, no_sweep, argv,
                                                        message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("setting", ["worst", "avg"])
    def test_largest_sweep_is_accepted(self, capsys, monkeypatch, setting):
        # N = 2^24 and M = 2^20 are within the limits; the sweep itself is
        # replaced, since it takes seconds
        asked = []
        for name in ("worst_probabilistic_error", "avg_probabilistic_error"):
            monkeypatch.setattr(cli, name, lambda M, N, p, *a, **kw: asked.append((M, N))
                                or bounds._record(bounds.Setting(setting), None, M, N, p, 0.0))
        code, _, _ = run_cli(capsys, "error", "--setting", setting, "--m", str(1 << 20),
                             "--n", "24", "--p", "0.75")
        assert code == 0 and asked == [(1 << 20, 1 << 24)]

    def test_screened_sweep_reaches_two_to_the_thirty(self, capsys):
        # up to 8/pi^2 at 4 <= M <= 4096 the worst case is screened, so n may
        # pass the dense limit of 24; the value is the library's
        code, out, err = run_cli(capsys, "curve", "--setting", "worst", "--m", "64",
                                 "--n", "30", "--p-values", "0.6,0.75")
        values = [float(line.split(",")[5]) for line in out.strip().split("\n")[1:]]
        records = bounds.worst_probabilistic_errors(64, 1 << 30, [0.6, 0.75])
        assert (code, err) == (0, "") and values == [r.value for r in records]

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 64, 1 << 20])
    @pytest.mark.parametrize("p", ["0.51", "0.75", "8/pi2"])
    def test_sweeps_up_to_eight_over_pi_sq_fit_the_cell_limit(self, capsys, monkeypatch,
                                                                M, p):
        # N = 2^24 at every M <= 2^20: the estimate is at most 4 cells per
        # mean up to 8/pi^2; the sweep itself is replaced
        asked = []
        monkeypatch.setattr(cli, "worst_probabilistic_errors", lambda M, N, ps: asked.append(
            (M, N)) or [bounds._record(bounds.Setting.WORST_PROBABILISTIC, None, M, N, p, 0.0)
                        for p in ps])
        code, _, err = run_cli(capsys, "curve", "--setting", "worst", "--m", str(M),
                               "--n", "24", "--p-values", f"0.3,{p}")
        assert (code, err, asked) == (0, "", [(M, 1 << 24)])

    def test_a_screen_past_its_estimate_exits_two(self, capsys, monkeypatch):
        # a search that finds no side flip leaves the screen to fill past
        # its own estimate of means; it raises instead, and the command ends
        # in one error line
        monkeypatch.setattr(bounds, "_flips", lambda short, ks: (np.empty(0, np.int64),) * 3)
        code, out, err = run_cli(capsys, "error", "--setting", "worst", "--m", "64",
                                 "--n", "16", "--p", "0.75")
        assert (code, out) == (2, "")
        assert err.startswith("error: the worst-case screen at M=64, N=65536 would fill ")
        assert err.endswith(" means, more than its estimate of 495\n") and err.count("\n") == 1

    def test_symbolic_p_values(self, capsys):
        code, out, _ = run_cli(capsys, "error", "--setting", "worst", "--m", "4",
                               "--n", "4", "--p", "4/pi2")
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[2]) == 4 / math.pi**2


class TestCurve:
    def test_m_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--setting", "worst", "--n", "12",
                               "--p", "8/pi2", "--m-values", "4,8,16,32,64")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == ["4", "8", "16", "32", "64"]
        for r in rows:
            fields = r.split(",")
            assert float(fields[5]) <= float(fields[6])
            assert fields[7] == "ImprovedCor"

    def test_p_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--setting", "worst", "--n", "6",
                               "--m", "8", "--p-values", "0.51,0.6,0.75")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 3
        values = [float(r.split(",")[5]) for r in rows]
        assert values == sorted(values)  # nondecreasing in p

    @pytest.mark.parametrize("setting,measure", [("worst", "p1"), ("avg", "p1"),
                                                  ("avg", "p2")])
    def test_p_sweep_is_one_driver_call_with_the_error_rows(self, capsys, monkeypatch,
                                                            setting, measure):
        levels = ["0.51", "4/pi2", "8/pi2", "0.9"]
        rows = []
        for p in levels:
            _, out, _ = run_cli(capsys, "error", "--setting", setting, "--n", "8",
                                "--m", "12", "--p", p, "--measure", measure)
            rows.append(out.split("\n")[1])
        calls = []
        for name in ("worst_probabilistic_errors", "avg_probabilistic_errors"):
            original = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, _f=original, **kw:
                                calls.append(1) or _f(*a, **kw))
        code, out, _ = run_cli(capsys, "curve", "--setting", setting, "--n", "8",
                               "--m", "12", "--p-values", ",".join(levels),
                               "--measure", measure)
        assert code == 0 and calls == [1]
        assert out.split("\n")[1:-1] == rows

    def test_requires_exactly_one_sweep(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--setting", "worst", "--n", "6")
        assert code == 2 and "error" in err
        code, _, err = run_cli(capsys, "curve", "--setting", "worst", "--n", "6",
                               "--m-values", "4", "--p-values", "0.6")
        assert code == 2

    def test_byte_determinism(self, capsys):
        args = ("curve", "--setting", "avg", "--n", "8", "--m", "12",
                "--p-values", "0.6,0.75", "--measure", "p2")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestVerify:
    def test_calculus_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "calculus")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_oracle_equivalence_suite_passes_within_a_minute(self, suite_runs):
        run = suite_runs["oracle-equivalence"]
        assert all(r.passed for r in run.results)
        assert run.seconds <= 60.0

    def test_all_suites_pass(self, capsys, monkeypatch, suite_runs):
        results = [r for name in SUITE_NAMES for r in suite_runs[name].results]
        asked = []
        monkeypatch.setattr(cli, "run_suite", lambda name: asked.append(name) or results)
        code, out, _ = run_cli(capsys, "verify", "--suite", "all")
        assert code == 0 and asked == ["all"]
        lines = out.strip().split("\n")
        assert len(lines) == len(results) + 1
        for line, r in zip(lines, results):
            assert line.startswith(f"PASS  {r.suite}: {r.name}") and line.endswith(r.detail)
        assert lines[-1] == f"{len(results)}/{len(results)} checks passed"

    def test_unknown_suite_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["dist", "--m", "4", "--k", "0"],
    ["simulate", "--m", "4", "--f", "0"],
    ["error", "--setting", "worst", "--m", "4", "--p", "0.75"],
    ["curve", "--setting", "worst", "--p", "0.75", "--m-values", "4"],
])
def test_negative_n_exits_two_with_a_plain_message(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--n", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --n: must be >= 0, got -1" in err
    assert "shift" not in err


@pytest.mark.parametrize("argv", [
    ["dist", "--m", "4", "--n", "2", "--k", "1"],
    ["error", "--setting", "worst", "--m", "4", "--n", "2", "--p", "0.75"],
    ["verify", "--suite", "calculus"],
    ["verify", "--suite", "bounds"],
    ["error", "--setting", "worst", "--m", "236", "--n", "21", "--p", "0.99"],
])
@pytest.mark.parametrize("target", ["directory", "missing directory"])
def test_unwritable_out_exits_two_with_a_plain_message(capsys, monkeypatch, tmp_path,
                                                       no_sweep, argv, target):
    # refused before any work: no suite, law or sweep starts
    def no_suite(name):
        pytest.fail("a refused command ran its suite")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    out_path = tmp_path if target == "directory" else tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(out_path) in err


def test_failed_command_leaves_an_existing_out_file(capsys, no_sweep, tmp_path):
    # the check of --out passes, the sweep is refused, and the file is
    # written only at the end, so it keeps its bytes
    out_path = tmp_path / "x.csv"
    out_path.write_text("kept\n")
    code, _, err = run_cli(capsys, "error", "--setting", "worst", "--m", "8", "--n", "40",
                           "--p", "0.75", "--out", str(out_path))
    assert code == 2 and err.startswith("error: ")
    assert out_path.read_text() == "kept\n"
