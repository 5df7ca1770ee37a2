import json

import numpy as np
import pytest

from riskbudget.allocation import (
    AllocationProblem,
    InfeasibleAllocation,
    SolverFailure,
    build_program,
    expected_stats,
    problem_from_json,
    problem_to_json,
    solve_allocation,
)
from riskbudget.backtest import DEFAULT_SOLVER_OPTIONS
from riskbudget.budgeting import solve_vanilla
from riskbudget.cones import NonNeg, SecondOrder
from riskbudget.solver import SolverOptions, SolveStatus


def random_pd(n, rng, scale=0.03):
    a = rng.standard_normal((n, n))
    c = (a.T @ a / n + 0.1 * np.eye(n)) * scale**2
    return 0.5 * (c + c.T)


BASE = {"cov": np.eye(2) * 0.04, "budgets": [0.4, 0.1]}


class TestProblemValidation:
    @pytest.mark.parametrize("fields, message", [
        ({"cov": np.ones((2, 3))}, r"cov shape \(2, 3\) does not match 2 budgets"),
        ({"budgets": [0.4]}, r"cov shape \(2, 2\) does not match 1 budgets"),
        ({"forecasts": [0.0]}, "forecasts has 1 entries, expected 2"),
        ({"prev_weights": [0.0] * 3}, "prev_weights has 3 entries, expected 2"),
        ({"lower": [0.0]}, "lower has 1 entries, expected 2"),
        ({"upper": [1.0]}, "upper has 1 entries, expected 2"),
        ({"assets": ("A",)}, "assets has 1 names, expected 2"),
        ({"cov": [[0.04, np.nan], [np.nan, 0.01]]}, "cov has non-finite entries"),
        ({"budgets": [0.4, np.nan]}, "budgets has non-finite entries"),
        ({"forecasts": [np.inf, 0.0]}, "forecasts has non-finite entries"),
        ({"prev_weights": [np.nan, 0.0]}, "prev_weights has non-finite entries"),
        ({"lower": [0.0, -np.inf]}, "lower has non-finite entries"),
        ({"upper": [np.nan, 1.0]}, "upper has NaN entries"),
        ({"cov": [[0.04, 0.001], [0.0, 0.01]]}, "cov must be symmetric"),
        ({"budgets": [0.4, -0.1]}, "budgets must be nonnegative"),
        ({"budgets": [0.6, 0.5]}, "budgets sum to 1.1 > 1"),
        ({"lower": [-0.1, 0.0]}, "bounds must satisfy 0 <= lower <= upper"),
        ({"lower": [0.5, 0.0], "upper": [0.4, 1.0]}, "bounds must satisfy 0 <= lower <= upper"),
        ({"lam": -1.0}, "lambda must be a finite number >= 0, got -1.0"),
        ({"lam": np.nan}, "lambda must be a finite number >= 0, got nan"),
        ({"lam": np.inf}, "lambda must be a finite number >= 0, got inf"),
        ({"mu": -0.001}, "mu must be a finite number >= 0"),
        ({"mu": np.nan}, "mu must be a finite number >= 0"),
        ({"assets": ("SPY", "SPY")}, "^assets: name 'SPY' is repeated$"),
        ({"assets": ("A", "")}, "^assets: name '' is empty$"),
    ])
    def test_construction_rejects(self, fields, message):
        with pytest.raises(ValueError, match=message):
            AllocationProblem(**{**BASE, **fields})

    def test_infinite_upper_and_defaults_accepted(self):
        p = AllocationProblem(**BASE, upper=[np.inf, 1.0], lam=0, mu=np.float64(0.001))
        assert np.array_equal(p.lower, [0.0, 0.0]) and np.array_equal(p.forecasts, [0.0, 0.0])


class TestBuildProgram:
    def test_block_structure_two_assets(self):
        p = AllocationProblem(cov=np.eye(2) * 0.04, budgets=[0.5, 0.5], lam=1.0, mu=0.0)
        prog = build_program(p)
        socs = [b for b in prog.cones if isinstance(b, SecondOrder)]
        assert [b.dim for b in socs] == [3, 4, 4]
        assert sum(b.dim for b in prog.cones) == prog.b.size
        # no turnover columns when mu = 0: variables are (x1, x2, t)
        assert prog.A.shape[1] == 3

    def test_turnover_columns_when_mu_positive(self):
        p = AllocationProblem(cov=np.eye(2) * 0.04, budgets=[0.4, 0.4], mu=0.001,
                              prev_weights=[0.5, 0.5])
        prog = build_program(p)
        assert prog.A.shape[1] == 3 + 4
        assert np.count_nonzero(prog.c[3:]) == 4

    def test_zero_budget_block_still_emitted(self):
        p = AllocationProblem(cov=np.eye(2) * 0.04, budgets=[0.5, 0.0])
        prog = build_program(p)
        socs = [b for b in prog.cones if isinstance(b, SecondOrder)]
        assert [b.dim for b in socs] == [3, 4, 4]
        res = solve_allocation(p)
        assert res.solver_stats.status is SolveStatus.Optimal

    def test_no_epigraph_when_lam_zero(self):
        p = AllocationProblem(cov=np.eye(2) * 0.04, budgets=[0.3, 0.3],
                              forecasts=[0.01, 0.0], lam=0.0)
        prog = build_program(p)
        socs = [b for b in prog.cones if isinstance(b, SecondOrder)]
        assert [b.dim for b in socs] == [4, 4]
        assert prog.A.shape[1] == 2

    def test_infinite_upper_bounds_skipped(self):
        p = AllocationProblem(cov=np.eye(2) * 0.04, budgets=[0.5, 0.5],
                              upper=[np.inf, np.inf])
        prog = build_program(p)
        nn = sum(b.dim for b in prog.cones if isinstance(b, NonNeg))
        assert nn == 2  # only the two lower-bound rows


class TestSolveAllocation:
    def test_matches_vanilla_when_budgets_sum_to_one(self):
        rng = np.random.default_rng(1)
        for n in (2, 5, 10):
            c = random_pd(n, rng)
            b = rng.dirichlet(np.ones(n))
            res = solve_allocation(AllocationProblem(cov=c, budgets=b))
            xv = solve_vanilla(c, b)
            assert np.abs(res.weights - xv).max() <= 1e-5
            assert res.binding_budgets.all()

    def test_two_asset_tilt_vs_grid_oracle(self):
        c = np.eye(2)
        b = np.array([0.4, 0.1])
        r = np.array([0.1, 0.0])
        res = solve_allocation(AllocationProblem(cov=c, budgets=b, forecasts=r, lam=1.0))
        assert res.risk_contribs[0] >= 0.4 - 1e-6
        assert res.risk_contribs[1] >= 0.1 - 1e-6
        assert res.weights[0] > res.weights[1]

        ws = np.arange(0.0, 1.0 + 1e-12, 1e-4)
        best, best_w = np.inf, None
        for w in ws:
            x = np.array([w, 1.0 - w])
            var = x @ x
            if var <= 0:
                continue
            rc = x * x / var
            if rc[0] < 0.4 - 1e-9 or rc[1] < 0.1 - 1e-9:
                continue
            val = -r @ x + np.sqrt(var)
            if val < best:
                best, best_w = val, w
        assert abs(res.weights[0] - best_w) <= 2e-4
        assert abs(res.objective - best) <= 1e-6

    def test_min_risk_floor_honored_with_slack_budgets(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            c = random_pd(n, rng)
            b = rng.dirichlet(np.ones(n)) * rng.uniform(0.3, 0.95)
            r = rng.standard_normal(n) * 0.01
            res = solve_allocation(AllocationProblem(cov=c, budgets=b, forecasts=r))
            assert np.all(res.risk_contribs >= b - 1e-6)
            assert abs(res.weights.sum() - 1.0) <= 1e-7

    def test_infeasible_bounds_report(self):
        p = AllocationProblem(cov=np.eye(2) * 0.04, budgets=[0.9, 0.05],
                              upper=[0.01, 1.0])
        with pytest.raises(InfeasibleAllocation) as exc:
            solve_allocation(p)
        assert exc.value.report

    def test_upper_bound_hints(self):
        # the second asset may not be held but has a floor; the caps sum to 0.5
        p = AllocationProblem(cov=np.eye(2) * 0.04, budgets=[0.3, 0.3], upper=[0.5, 0.0],
                              assets=("SPY", "AGG"))
        with pytest.raises(InfeasibleAllocation) as exc:
            solve_allocation(p)
        assert exc.value.report == ["upper bounds sum to 0.5 < 1",
                                    "AGG: positive budget with zero upper bound"]

    def test_unreachable_budget_hint(self):
        # held at its cap of 0.2 beside a whole unit of B, A carries about
        # 0.14 of the risk, more than 0.5 short of its budget of 0.9
        p = AllocationProblem(cov=np.diag([0.04, 0.01]), budgets=[0.9, 0.1], upper=[0.2, 1.0],
                              assets=("A", "B"))
        with pytest.raises(InfeasibleAllocation) as exc:
            solve_allocation(p)
        assert exc.value.report == ["A: budget 0.9 looks unreachable under the upper bounds"]

    def test_infeasible_without_a_hint_says_so(self):
        # caps sum past 1 and no budget lies beyond reach by the 0.5 margin
        # of the hints, yet asset 1's cap of 0.05 holds its share near 0.003
        p = AllocationProblem(cov=np.eye(2) * 0.04, budgets=[0.5, 0.5], upper=[1.0, 0.05])
        with pytest.raises(InfeasibleAllocation) as exc:
            solve_allocation(p)
        assert exc.value.report == ["budgets and bounds jointly admit no portfolio"]

    def test_lower_bounds_sum_above_one_is_infeasible(self):
        p = AllocationProblem(cov=np.eye(2) * 0.04, budgets=[0.2, 0.2],
                              lower=[0.8, 0.8], upper=[1.0, 1.0])
        with pytest.raises(InfeasibleAllocation) as exc:
            solve_allocation(p)
        assert any("lower bounds" in msg for msg in exc.value.report)

    def test_solver_failure_carries_the_solution_it_stopped_with(self):
        p = AllocationProblem(cov=[[0.04, 0.001], [0.001, 0.0025]], budgets=[0.4, 0.1])
        with pytest.raises(SolverFailure) as exc:
            solve_allocation(p, SolverOptions(tol=1e-7, max_iters=3))
        sol = exc.value.solution
        assert exc.value.status is sol.status is SolveStatus.MaxIters and sol.iterations == 3
        assert str(exc.value) == (f"solver stopped with status max_iters (pres {sol.primal_residual:.1e} "
                                  f"dres {sol.dual_residual:.1e} gap {sol.gap:.1e} after 3 iterations)")

    def test_risk_parity_limit(self):
        rng = np.random.default_rng(3)
        for n in (3, 10):
            c = random_pd(n, rng)
            res = solve_allocation(AllocationProblem(cov=c, budgets=np.full(n, 1.0 / n)))
            erc = solve_vanilla(c, np.full(n, 1.0 / n))
            assert np.abs(res.weights - erc).max() <= 1e-5

    def test_lambda_monotone_in_exante_stdev(self):
        rng = np.random.default_rng(4)
        c = random_pd(4, rng)
        b = np.full(4, 0.1)
        r = np.array([0.02, -0.01, 0.015, 0.0])
        sds = []
        for lam in (0.1, 1.0, 10.0):
            p = AllocationProblem(cov=c, budgets=b, forecasts=r, lam=lam)
            res = solve_allocation(p)
            sds.append(expected_stats(p, res.weights)[1])
        assert sds[1] <= sds[0] + 1e-8
        assert sds[2] <= sds[1] + 1e-8

    def test_negligible_floors_do_not_skew_equilibration(self):
        # floors near 1e-204 make the floor blocks' R rows about 1e-104 of
        # their other rows; counted in a block's row scale they dragged it
        # to about 1e-62 and the solve ended NumericalFailure after 158
        # iterations, where zero floors solve in 11
        rng = np.random.default_rng(0)
        loadings = rng.normal(0.0, 0.02, (3, 2))
        cov = loadings @ loadings.T + np.diag(rng.uniform(0.01, 0.03, 3) ** 2)
        budgets = 1e-204 * rng.dirichlet(np.ones(3))
        problem = dict(cov=0.5 * (cov + cov.T), forecasts=rng.normal(0.001, 0.002, 3), lam=0.0)
        tiny = solve_allocation(AllocationProblem(budgets=budgets, **problem), DEFAULT_SOLVER_OPTIONS)
        zero = solve_allocation(AllocationProblem(budgets=np.zeros(3), **problem), DEFAULT_SOLVER_OPTIONS)
        assert tiny.solver_stats.iterations <= 20
        assert np.abs(tiny.weights - zero.weights).max() <= 1e-9

    def test_mu_monotone_in_turnover(self):
        rng = np.random.default_rng(5)
        c = random_pd(3, rng)
        x0 = np.array([0.6, 0.3, 0.1])
        r = np.array([0.0, 0.02, 0.01])
        turns = []
        for mu in (0.0, 0.002, 0.02):
            p = AllocationProblem(cov=c, budgets=np.full(3, 0.05), forecasts=r,
                                  mu=mu, prev_weights=x0)
            res = solve_allocation(p)
            turns.append(np.abs(res.weights - x0).sum())
        assert turns[1] <= turns[0] + 1e-7
        assert turns[2] <= turns[1] + 1e-7


class TestExpectedStats:
    def test_single_asset_unit_weight(self):
        p = AllocationProblem(cov=np.diag([0.04, 0.01]), budgets=[0.5, 0.5],
                              forecasts=[0.02, 0.0])
        assert expected_stats(p, [1.0, 0.0]) == (pytest.approx(0.02), pytest.approx(0.2))

    def test_zero_weights(self):
        p = AllocationProblem(cov=np.eye(2), budgets=[0.5, 0.5])
        assert expected_stats(p, np.zeros(2)) == (0.0, 0.0)

    @pytest.mark.parametrize("weights", [[1.0], [0.5, 0.25, 0.25]])
    def test_wrong_number_of_weights_is_named(self, weights):
        p = AllocationProblem(cov=np.eye(2), budgets=[0.5, 0.5])
        with pytest.raises(ValueError, match=f"^weights have {len(weights)} entries, expected 2$"):
            expected_stats(p, weights)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        c = random_pd(4, rng)
        r = rng.standard_normal(4) * 0.01
        w = rng.dirichlet(np.ones(4))
        p = AllocationProblem(cov=c, budgets=np.full(4, 0.1), forecasts=r)
        ret, sd = expected_stats(p, w)
        oret = sum(r[i] * w[i] for i in range(4))
        ovar = sum(w[i] * c[i, j] * w[j] for i in range(4) for j in range(4))
        assert ret == pytest.approx(oret, abs=1e-15)
        assert sd == pytest.approx(np.sqrt(ovar), abs=1e-15)


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        p = AllocationProblem(cov=random_pd(3, rng), budgets=[0.2, 0.3, 0.1],
                              forecasts=[0.01, 0.0, -0.005], lam=2.0, mu=0.001,
                              prev_weights=[0.4, 0.3, 0.3], assets=("A", "B", "C"))
        q = problem_from_json(problem_to_json(p))
        assert np.array_equal(q.cov, p.cov)
        assert np.array_equal(q.budgets, p.budgets)
        assert q.lam == p.lam and q.mu == p.mu
        assert q.assets == p.assets

    # the text problem_to_json has always written, key order and
    # indentation included
    FULL_TEXT = """{
  "cov": [
    [
      0.04,
      0.002
    ],
    [
      0.002,
      0.0025
    ]
  ],
  "budgets": [
    0.4,
    0.1
  ],
  "forecasts": [
    0.004,
    0.0005
  ],
  "lambda": 2.0,
  "mu": 0.001,
  "prev_weights": [
    0.5,
    0.5
  ],
  "lower": [
    0.0,
    0.1
  ],
  "upper": [
    Infinity,
    1.0
  ],
  "assets": [
    "SPY",
    "AGG"
  ]
}"""
    DEFAULTS_TEXT = """{
  "cov": [
    [
      0.04
    ]
  ],
  "budgets": [
    0.5
  ],
  "forecasts": [
    0.0
  ],
  "lambda": 1.0,
  "mu": 0.0,
  "prev_weights": [
    0.0
  ],
  "lower": [
    0.0
  ],
  "upper": [
    1.0
  ]
}"""

    def test_written_text_is_stable(self):
        full = AllocationProblem(cov=[[0.04, 0.002], [0.002, 0.0025]], budgets=[0.4, 0.1],
                                 forecasts=[0.004, 0.0005], lam=2.0, mu=0.001, prev_weights=[0.5, 0.5],
                                 lower=[0.0, 0.1], upper=[np.inf, 1.0], assets=("SPY", "AGG"))
        assert problem_to_json(full) == self.FULL_TEXT
        assert problem_to_json(AllocationProblem(cov=[[0.04]], budgets=[0.5])) == self.DEFAULTS_TEXT

    def test_missing_required_field_path(self):
        with pytest.raises(ValueError, match="budgets"):
            problem_from_json(json.dumps({"cov": [[1.0]]}))

    def test_ragged_cov_names_row(self):
        with pytest.raises(ValueError, match=r"cov\[1\]"):
            problem_from_json(json.dumps({"cov": [[1.0, 0.0], [0.0]], "budgets": [0.5, 0.5]}))

    def test_wrong_length_vector_named(self):
        doc = {"cov": [[1.0, 0.0], [0.0, 1.0]], "budgets": [0.5, 0.5], "forecasts": [1.0]}
        with pytest.raises(ValueError, match="forecasts"):
            problem_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field, value, message", [
        ("lambda", float("nan"), "lambda must be a finite number >= 0, got nan"),
        ("mu", float("inf"), "mu must be a finite number >= 0, got inf"),
        ("lambda", None, "lambda must be a finite number"),
        ("mu", True, "mu must be a finite number"),
        ("forecasts", [0.0, "x"], "forecasts: entries must be numbers"),
        ("upper", 1.0, "upper: expected a list"),
        ("assets", ["A"], "assets: expected a list of 2 strings"),
        ("budgets", [0.8, 0.8], "budgets sum to 1.6 > 1"),
        ("lamda", 5.0, "^lamda: unknown key$"),
        ("cov", [[1.0, "x"], ["x", 1.0]], "^cov: entries must be numbers$"),
        ("budgets", ["0.5", "0.5"], "^budgets: entries must be numbers$"),
        ("upper", [1.0, True], "^upper: entries must be numbers$"),
        ("cov", 5, "^cov: expected a non-empty list of rows$"),
        # two weights of one name would collapse into one key of the output
        ("assets", ["SPY", "SPY"], "^assets: name 'SPY' is repeated$"),
        # no field: the value is the whole document
        (None, [[1.0, 0.0], [0.0, 1.0]], "^problem: expected a JSON object$"),
    ])
    def test_bad_field_named(self, field, value, message):
        doc = value if field is None else {"cov": [[1.0, 0.0], [0.0, 1.0]], "budgets": [0.5, 0.5],
                                           field: value}
        with pytest.raises(ValueError, match=message):
            problem_from_json(json.dumps(doc))

    def test_defaults_applied(self):
        p = problem_from_json(json.dumps({"cov": [[0.04, 0.0], [0.0, 0.01]],
                                          "budgets": [0.4, 0.1]}))
        assert p.lam == 1.0 and p.mu == 0.0
        assert np.array_equal(p.lower, [0.0, 0.0])
        assert np.array_equal(p.upper, [1.0, 1.0])


def test_binding_flags_partial():
    # sum of budgets < 1 with a strong tilt: the tilted asset's floor is
    # slack, the rest can bind or not, but flags must match contributions
    c = np.eye(2) * 0.04
    p = AllocationProblem(cov=c, budgets=[0.4, 0.1], forecasts=[0.1, 0.0], lam=1.0)
    res = solve_allocation(p)
    gap = np.abs(res.risk_contribs - p.budgets)
    assert np.array_equal(res.binding_budgets, gap <= 1e-6)
