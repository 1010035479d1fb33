"""Acceptance suite: every contract criterion at its stated tolerance.

Each criterion is one or more named checks of `qsum.suites`, which carry the
oracle and the tolerance; the suites run once per session (see conftest.py).
Each test prints one pass/fail line with the checks' details (visible with
`pytest -s` or in the captured output of a failure) and asserts the criterion.
"""

UNITARITY = "unitarity"
ORACLE = "oracle-equivalence"
BOUNDS = "bounds"
CALCULUS = "calculus"
AVERAGE = "average-case"


def _accept(suite_runs, criterion: str, *checks: tuple[str, str]) -> None:
    results = [suite_runs[suite].check(name) for suite, name in checks]
    passed = all(r.passed for r in results)
    detail = "; ".join(r.detail for r in results)
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_01_oracle_equivalence(suite_runs):
    _accept(suite_runs, "01 gate-level marginals equal the closed form (n<=6, M<=16)",
            (ORACLE, "gate marginal equals closed form on the full grid"),
            (ORACLE, "outcomes beyond M-1 carry no mass"))


def test_02_query_and_qubit_accounting(suite_runs):
    _accept(suite_runs, "02 runs report M-1 queries and n+ceil(log2 M) qubits",
            (ORACLE, "every run reports M-1 queries and n+ceil(log2 M) qubits"))


def test_03_exact_output_cases(suite_runs):
    _accept(suite_runs, "03 integral sigma outputs the exact mean with probability 1",
            (ORACLE, "integral sigma puts all mass on the exact output"))


def test_04_improved_worst_case_bound(suite_runs):
    _accept(suite_runs, "04 worst error at p=8/pi^2 is at most (3/4) pi / M for M=2..64",
            (BOUNDS, "worst error at p = 8/pi^2 stays below (3/4) pi / M"))


def test_05_sharpness_window_at_scale(suite_runs):
    _accept(suite_runs, "05 worst error at M=64, N=2^20 lies in [0.85, 1.0] of the sharp rate",
            (BOUNDS, "worst error at M=64, N=2^20 sits in [0.85, 1.0] of the sharp rate"))


def test_06_v_calculus_anchors(suite_runs):
    _accept(suite_runs, "06 v-calculus anchors and the linear approximation residual",
            (CALCULUS, "v inverse hits both interval endpoints"),
            (CALCULUS, "sharp constants at the common probability levels"),
            (CALCULUS, "linear approximation of 1 - v^-1(p) within 0.0085"))


def test_07_first_moment_identities(suite_runs):
    _accept(suite_runs,
            "07 first-moment closed forms, scaling 1/sqrt(2 pi N), and the 1/4 limit",
            (AVERAGE, "closed-form first moment equals the direct sum for N <= 24"),
            (AVERAGE, "uniform-function moment decays like 1/sqrt(2 pi N)"),
            (AVERAGE, "uniform-mean moment approaches 1/4"))


def test_08_average_case_dichotomy(suite_runs):
    _accept(suite_runs, "08 average error: upper bound when 4 | M, lower bound otherwise",
            (AVERAGE, "divisible-by-4 average error obeys its upper bound"),
            (AVERAGE, "non-divisible average error obeys its lower bound"))


def test_09_subset_oracle_equivalence(suite_runs):
    _accept(suite_runs, "09 greedy level error equals exhaustive subset minimization (M<=10)",
            (BOUNDS, "greedy level error equals exhaustive subset minimum"))


def test_10_property_suite(suite_runs):
    _accept(suite_runs,
            "10 property suite: unitarity, invariant plane, decomposition, kernel, symmetry",
            (UNITARITY, "norm preservation across all operators"),
            (UNITARITY, "Grover action on the invariant plane matches its 2x2 matrix"),
            (UNITARITY, "uniform state decomposes over the eigenvectors"),
            (CALCULUS, "kernel matches the direct complex sum"),
            (ORACLE, "distributions are normalized"),
            (ORACLE, "probabilities and outputs are symmetric under j -> M-j"))


def test_11_bracketing_output_distance(suite_runs):
    _accept(suite_runs, "11 outputs at floor/ceil of sigma lie within pi |j - sigma| / M of a",
            (BOUNDS, "bracketing outputs lie within pi |j - sigma| / M of the mean"))


def test_12_every_attached_bound_holds_with_positive_lower_bounds(suite_runs):
    # the check fails when no WAn4 record has a positive bound, since a
    # non-positive lower bound holds for any value
    _accept(suite_runs, "12 every attached bound holds at p <= 0.99, WAn4 non-vacuously",
            (BOUNDS, "every attached bound holds at p <= 0.99"))


def test_13_bhmt_theorem_12_at_every_mean(suite_runs):
    _accept(suite_runs, "13 level errors within BHMT's 2 pi k sqrt(a(1-a))/M + k^2 pi^2/M^2",
            (BOUNDS, "BHMT Theorem 12 holds at every mean"))


def test_14_level_errors_are_the_full_sort_bits(suite_runs):
    _accept(suite_runs, "14 the pair pass and the walk give the full sort's bits (M<=236)",
            (BOUNDS, "level errors equal the full sort bit for bit"))
