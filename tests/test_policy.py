"""Tests for the fitted value-iteration policy solver.

The solver is cross-checked against tests/dp_oracle.py, a deliberately
independent plain-Python dynamic-programming implementation.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dp_oracle import oracle_solve

from adaptive_force_control import (
    ContactModel,
    CostParams,
    GridSpec,
    default_references,
    get_zone,
    load_policy,
    policy_basename,
    save_policy,
    solve_policy,
    solve_policy_tabular,
    stage_cost,
    step_dynamics,
)
from adaptive_force_control.pipeline import SolveConfig, solve_policies

ZONE = ContactModel(a=2.0, b=-100.0, c=-2.0)


def tiny_instance():
    x = np.linspace(0.0, 0.02, 5)
    return x, 500.0 * x, np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def random_instance(rng):
    n = int(rng.integers(5, 16))
    m = int(rng.integers(2, 11))
    x = np.linspace(0.0, float(rng.uniform(0.005, 0.03)), n)
    kind = rng.integers(0, 3)
    if kind == 0:
        forces = np.sort(rng.uniform(0.0, 30.0, n))
    elif kind == 1:
        forces = rng.uniform(-2.0, 30.0, n)  # deliberately non-monotone
    else:
        forces = 25.0 * (np.exp(rng.uniform(50.0, 200.0) * x) - 1.0) / np.e
    kp = np.linspace(0.0, float(rng.uniform(0.5, 1.5)), m)
    reference = float(rng.uniform(-2.0, 25.0))
    return x, forces, kp, reference


def assert_matches_oracle(x, forces, kp, reference, gamma, max_sweeps=400, cost_b=40.0):
    table = solve_policy_tabular(
        x, forces, kp, reference, 0.03,
        CostParams(a=1.0, b=cost_b), gamma=gamma, tol=1e-6, max_sweeps=max_sweeps,
    )
    values, policy, sweeps, converged = oracle_solve(
        list(x), list(kp), list(forces), reference, 0.03, 1.0, cost_b,
        gamma, 1e-6, max_sweeps,
    )
    assert np.array_equal(table.value_function, np.asarray(values))
    assert np.array_equal(table.kp_values, np.asarray(policy))
    assert table.sweeps == sweeps
    assert table.converged == converged
    return table


class TestStepDynamics:
    def test_equilibrium_is_fixed_point(self):
        r = ZONE.force_at(0.01)
        assert step_dynamics(ZONE, 0.01, 0.7, r, 0.03) == 0.01

    def test_zero_gain_holds_position(self):
        assert step_dynamics(ZONE, 0.0123, 0.0, 25.0, 0.03) == 0.0123

    def test_upper_clamp(self):
        # Raw update 0.03 * 0.5 * 3.43656 = 0.0515 m overshoots the grid.
        assert step_dynamics(ZONE, 0.0, 0.5, 3.43656, 0.03) == 0.02

    def test_lower_clamp(self):
        assert step_dynamics(ZONE, 0.0, 1.0, -1.0, 0.03) == 0.0

    def test_interior_update_is_linear(self):
        x, kp, r, dt = 0.004, 0.3, 1.0, 0.03
        expected = x + dt * kp * (r - ZONE.force_at(x))
        assert step_dynamics(ZONE, x, kp, r, dt) == expected

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            step_dynamics(ZONE, 0.0, 0.5, 5.0, 0.0)


class TestStageCost:
    def test_zero_at_equilibrium_with_zero_gain(self):
        r = ZONE.force_at(0.01)
        assert stage_cost(CostParams(), ZONE, 0.01, 0.0, r, 0.03) == 0.0

    def test_hand_arithmetic(self):
        # error 2 N at zero depth, kp 0.5: 0.03 * (4 + 40 * 0.25) = 0.42
        c = stage_cost(CostParams(a=1.0, b=40.0), ZONE, 0.0, 0.5, 2.0, 0.03)
        assert c == pytest.approx(0.42, rel=1e-12)

    def test_even_in_error(self):
        plus = stage_cost(CostParams(), ZONE, 0.0, 0.3, 2.0, 0.03)
        minus = stage_cost(CostParams(), ZONE, 0.0, 0.3, -2.0, 0.03)
        assert plus == minus

    def test_gain_penalty_alone(self):
        r = ZONE.force_at(0.005)
        c = stage_cost(CostParams(a=1.0, b=40.0), ZONE, 0.005, 1.0, r, 0.03)
        assert c == pytest.approx(1.2, rel=1e-12)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            stage_cost(CostParams(), ZONE, 0.0, 0.5, 5.0, -0.01)


class TestConfigTypes:
    @pytest.mark.parametrize("kwargs", [
        {"x_min": 0.02, "x_max": 0.02},
        {"x_min": 0.03, "x_max": 0.02},
        {"u_min": 1.0, "u_max": 0.5},
        {"x_steps": 1},
        {"u_steps": 0},
        {"dt": 0.0},
        {"dt": -1.0},
    ])
    def test_grid_validation(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)

    def test_grid_arrays(self):
        g = GridSpec()
        x = g.x_grid()
        u = g.u_grid()
        assert x.size == 1001 and x[0] == 0.0 and x[-1] == 0.02
        assert u.size == 1000 and u[0] == 0.0 and u[-1] == 1.0

    def test_grid_dict_roundtrip(self):
        g = GridSpec(x_max=0.05, x_steps=301, dt=0.01)
        assert GridSpec.from_dict(g.to_dict()) == g

    @pytest.mark.parametrize("kwargs", [{"a": 0.0}, {"a": -1.0}, {"b": -0.1}])
    def test_cost_validation(self, kwargs):
        with pytest.raises(ValueError):
            CostParams(**kwargs)

    def test_cost_defaults(self):
        c = CostParams()
        assert c.a == 1.0 and c.b == 40.0


class TestTinyInstance:
    def test_matches_oracle_undiscounted(self):
        # gamma = 1 with no zero-cost absorbing path never meets the sweep
        # tolerance; both solvers must agree at the cap anyway.
        x, forces, kp = tiny_instance()
        table = assert_matches_oracle(x, forces, kp, 5.0, gamma=1.0, max_sweeps=300)
        assert not table.converged
        assert table.monotone

    def test_matches_oracle_discounted(self):
        x, forces, kp = tiny_instance()
        table = assert_matches_oracle(x, forces, kp, 5.0, gamma=0.995, max_sweeps=10_000)
        assert table.converged

    def test_equilibrium_node_picks_smallest_gain(self):
        # Node x=0.01 sits exactly at force = reference; moving costs gain
        # penalty for no error reduction.
        x, forces, kp = tiny_instance()
        table = solve_policy_tabular(x, forces, kp, 5.0, 0.03, gamma=0.995)
        assert table.kp_values[2] == 0.0

    def test_values_nonnegative_and_gains_on_grid(self):
        x, forces, kp = tiny_instance()
        table = solve_policy_tabular(x, forces, kp, 5.0, 0.03, gamma=0.995)
        assert np.all(table.value_function >= 0.0)
        assert np.all(np.isin(table.kp_values, kp))


class TestNegativeReference:
    def test_above_target_everywhere(self):
        # Reference -1 N cannot be reached by a nonnegative-force zone; the
        # policy must stay feasible with a finite value function.
        x = np.linspace(0.0, 0.02, 11)
        forces = ZONE.force_at(x)
        kp = np.linspace(0.0, 1.0, 6)
        table = assert_matches_oracle(x, forces, kp, -1.0, gamma=0.995, max_sweeps=10_000)
        assert table.converged
        assert np.all(np.isfinite(table.value_function))
        assert np.all((table.kp_values >= 0.0) & (table.kp_values <= 1.0))


class TestOracleFuzz:
    def test_random_instances_match_exactly(self):
        rng = np.random.default_rng(12345)
        gammas = [1.0, 0.995, 0.9]
        for trial in range(24):
            x, forces, kp, reference = random_instance(rng)
            cost_b = 0.0 if trial % 6 == 5 else 40.0
            assert_matches_oracle(
                x, forces, kp, reference,
                gamma=gammas[trial % 3], cost_b=cost_b,
            )


# Gains drawn from a small set so that duplicates, zero and negative gains
# come up often; the grid is short enough that large gains clamp at the
# upper edge while zero and negative gains land on the lower edge.  A gain
# of 1e-9 costs so little that its q rounds to the q of kp = 0.
GAIN = st.sampled_from([-1.5, -0.5, 0.0, 0.0, 1e-9, 0.25, 0.5, 1.0, 1.5])

# Unsorted gains with duplicates: every row's kp = 1 clamps at the upper
# edge and kp = -0.5 at the lower one, where row 0's kp = 0 also lands
# exactly, unclamped.
EDGE_CASE = (*tiny_instance()[:2], np.array([1.0, 0.0, 1.0, -0.5, 0.0]), 25.0)
# At the last row every gain clamps at the upper edge, and kp = 1e-9 ties
# with the cheaper kp = 0 after rounding: the first of the two must win.
ROUNDING_TIE = (*tiny_instance()[:2], np.array([1e-9, 0.0, 0.5]), 25.0)


@st.composite
def odd_instances(draw):
    n = draw(st.integers(2, 12))
    x = np.linspace(0.0, draw(st.sampled_from([0.002, 0.01, 0.03])), n)
    forces = np.asarray(draw(st.lists(st.floats(-5.0, 30.0), min_size=n, max_size=n)))
    kp = np.asarray(draw(st.lists(GAIN, min_size=2, max_size=8)))
    return x, forces, kp, draw(st.floats(-3.0, 30.0))


class TestOracleProperty:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        odd_instances(),
        st.sampled_from([1.0, 0.995, 0.9]),
        st.sampled_from([0.0, 40.0]),
    )
    @example(EDGE_CASE, 0.9, 40.0)
    @example(EDGE_CASE, 0.995, 0.0)
    @example(ROUNDING_TIE, 0.995, 40.0)
    def test_matches_oracle(self, instance, gamma, cost_b):
        x, forces, kp, reference = instance
        assert_matches_oracle(
            x, forces, kp, reference, gamma=gamma, max_sweeps=200, cost_b=cost_b
        )

    def test_edge_case_clamps_at_both_edges(self):
        x, forces, kp, reference = EDGE_CASE
        nx = x[:, None] + 0.03 * kp[None, :] * (reference - forces)[:, None]
        assert np.all(nx[:, 0] > x[-1])
        assert np.all(nx[:, 3] < x[0])
        assert nx[0, 1] == x[0]


class TestSolverFlags:
    def test_sweep_cap_reports_unconverged(self):
        x, forces, kp = tiny_instance()
        table = solve_policy_tabular(x, forces, kp, 5.0, 0.03, max_sweeps=1)
        assert table.sweeps == 1
        assert not table.converged

    def test_tie_breaks_toward_smaller_gain(self):
        # With zero gain penalty every action at the equilibrium node has
        # identical cost; the first grid entry must win.
        x, forces, kp = tiny_instance()
        table = solve_policy_tabular(
            x, forces, kp, 5.0, 0.03, CostParams(a=1.0, b=0.0), gamma=0.995
        )
        assert table.kp_values[2] == kp[0]

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(x=np.array([0.0, 1e-3, 3e-3, 6e-3, 7e-3])),
        lambda d: d.update(x=np.linspace(0.02, 0.0, 5)),
        lambda d: d.update(forces=np.zeros(4)),
        lambda d: d.update(kp=np.array([0.5])),
        lambda d: d.update(forces=np.array([0.0, np.nan, 5.0, 7.5, 10.0])),
        lambda d: d.update(kp=np.array([0.0, np.inf])),
        lambda d: d.update(dt=0.0),
        lambda d: d.update(gamma=0.0),
        lambda d: d.update(gamma=1.2),
        lambda d: d.update(tol=0.0),
        lambda d: d.update(max_sweeps=0),
        lambda d: d.update(reference=float("nan")),
    ])
    def test_input_validation(self, mutate):
        x, forces, kp = tiny_instance()
        args = {
            "x": x, "forces": forces, "kp": kp, "reference": 5.0,
            "dt": 0.03, "gamma": 0.995, "tol": 1e-6, "max_sweeps": 100,
        }
        mutate(args)
        with pytest.raises(ValueError):
            solve_policy_tabular(
                args["x"], args["forces"], args["kp"], args["reference"],
                args["dt"], gamma=args["gamma"], tol=args["tol"],
                max_sweeps=args["max_sweeps"],
            )


class TestSolvePolicyWrapper:
    GRID = GridSpec(x_steps=201, u_steps=101)

    def test_wrapper_matches_tabular(self):
        table = solve_policy(ZONE, 8.0, self.GRID)
        x = self.GRID.x_grid()
        direct = solve_policy_tabular(
            x, ZONE.force_at(x), self.GRID.u_grid(), 8.0, self.GRID.dt
        )
        assert np.array_equal(table.kp_values, direct.kp_values)
        assert np.array_equal(table.value_function, direct.value_function)

    @pytest.mark.parametrize("reference", [5.0, 20.0])
    def test_closed_loop_settles(self, reference):
        # Rolling the solved gain schedule through the model dynamics from
        # the surface must regulate force to within 5% of the target.  Uses
        # a bundled zone; the example model above saturates below 20 N.
        zone = get_zone("zone1")
        table = solve_policy(zone, reference, self.GRID)
        assert table.converged
        x = 0.0
        for _ in range(600):
            x = step_dynamics(zone, x, float(table.kp_at(x)), reference, self.GRID.dt)
        assert abs(zone.force_at(x) - reference) < 0.05 * reference

    def test_sweep_of_one_equals_single_solve(self, tmp_path):
        cost = CostParams()
        [table] = solve_policies(
            ZONE, SolveConfig(references=(5.0,)), self.GRID, cost, tmp_path / "sweep"
        )
        single = solve_policy(ZONE, 5.0, self.GRID)
        assert np.array_equal(table.kp_values, single.kp_values)
        assert np.array_equal(table.value_function, single.value_function)
        # The pair it writes is the one save_policy writes for a single solve.
        save_policy(tmp_path / "single", single, self.GRID, cost)
        for suffix in (".csv", ".json"):
            written = (tmp_path / "sweep" / f"policy_r5{suffix}").read_bytes()
            assert written == (tmp_path / "single" / f"policy_r5{suffix}").read_bytes()

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="solve.references"):
            SolveConfig(references=())

    def test_default_references(self):
        refs = default_references()
        assert len(refs) == 41
        assert refs[0] == 4.0 and refs[-1] == 24.0
        assert all(b - a == 0.5 for a, b in zip(refs, refs[1:]))


class TestPolicyIO:
    def make_table(self):
        x, forces, kp = tiny_instance()
        return solve_policy_tabular(x, forces, kp, 4.5, 0.03)

    def test_roundtrip_is_exact(self, tmp_path):
        table = self.make_table()
        grid = GridSpec(x_steps=5, u_steps=5)
        path = save_policy(tmp_path, table, grid, CostParams(), gamma=0.995)
        loaded, sidecar = load_policy(path)
        assert np.array_equal(loaded.x_grid, table.x_grid)
        assert np.array_equal(loaded.kp_values, table.kp_values)
        assert np.array_equal(loaded.value_function, table.value_function)
        assert loaded.reference == 4.5
        assert loaded.sweeps == table.sweeps
        assert loaded.converged == table.converged
        assert sidecar["gamma"] == 0.995
        assert sidecar["cost"] == {"a": 1.0, "b": 40.0}
        assert GridSpec.from_dict(sidecar["grid"]) == grid

    @pytest.mark.parametrize("reference,stem", [
        (5.0, "policy_r5"),
        (4.5, "policy_r4.5"),
        (20.0, "policy_r20"),
    ])
    def test_basename(self, reference, stem):
        assert policy_basename(reference) == stem

    def test_bad_header_rejected(self, tmp_path):
        bad = tmp_path / "policy_r5.csv"
        bad.write_text("depth,gain\n0.0,0.1\n")
        with pytest.raises(ValueError, match="header"):
            load_policy(bad)

    def test_missing_sidecar_rejected(self, tmp_path):
        table = self.make_table()
        path = save_policy(tmp_path, table, GridSpec(x_steps=5, u_steps=5), CostParams())
        path.with_suffix(".json").unlink()
        with pytest.raises(ValueError, match="sidecar"):
            load_policy(path)

    def test_bad_row_rejected(self, tmp_path):
        bad = tmp_path / "policy_r5.csv"
        bad.write_text("x_m,kp,value\n0.0,oops,1.0\n")
        with pytest.raises(ValueError, match="row"):
            load_policy(bad)

    def test_truncated_csv_rejected(self, tmp_path):
        table = self.make_table()
        path = save_policy(tmp_path, table, GridSpec(x_steps=5, u_steps=5), CostParams())
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(ValueError, match="4 rows do not match the 5-node depth grid"):
            load_policy(path)

    @pytest.mark.parametrize("edit,match", [
        (lambda sidecar: sidecar["grid"].update(x_max=0.04), "5-node depth grid"),
        (lambda sidecar: sidecar.pop("grid"), "missing or malformed grid"),
    ], ids=["depths-off-grid", "no-grid"])
    def test_bad_sidecar_grid_rejected(self, tmp_path, edit, match):
        table = self.make_table()
        path = save_policy(tmp_path, table, GridSpec(x_steps=5, u_steps=5), CostParams())
        sidecar = json.loads(path.with_suffix(".json").read_text())
        edit(sidecar)
        path.with_suffix(".json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match=match):
            load_policy(path)

    def test_kp_at_interpolates_and_clamps(self):
        table = self.make_table()
        mid = 0.5 * (table.kp_values[0] + table.kp_values[1])
        assert table.kp_at(0.0025) == pytest.approx(mid)
        assert table.kp_at(-1.0) == table.kp_values[0]
        assert table.kp_at(1.0) == table.kp_values[-1]
