"""Property tests: invariants that must hold on any valid input, and clear
rejection of any invalid one."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qest.linalg import sld_residual, solve_sld  # noqa: E402
from qest.measurements import pvm_from_observable, randomize  # noqa: E402
from qest.simulate import RunConfig, monte_carlo  # noqa: E402
from qest.states import PAULIS, qubit_bures, qubit_state  # noqa: E402

# few deterministic examples, so the suite's wall time and outcome stay fixed
FEW = settings(max_examples=40, deadline=None, derandomize=True, database=None)

coords = st.floats(-1.0, 1.0, allow_nan=False)
triples = st.lists(coords, min_size=3, max_size=3).map(np.array)


def inside(v, margin=1e-9):
    assume(float(v @ v) < (1.0 - margin) ** 2)
    return v


@FEW
@given(triples, triples)
def test_qubit_bures_symmetric_bounded_and_zero_on_equal_states(x, y):
    x, y = inside(x), inside(y)
    forward, backward = qubit_bures(x, y), qubit_bures(y, x)
    assert 0.0 <= forward <= 4.0
    assert abs(forward - backward) <= 1e-9 * max(forward, backward) + 1e-14
    assert qubit_bures(x, x) == 0.0


@FEW
@given(triples, triples)
def test_solve_sld_satisfies_its_equation(x, dx):
    x = inside(x, margin=1e-3)
    drho = sum(d * s for d, s in zip(dx, PAULIS)) / 2
    rho = qubit_state(x)
    assert sld_residual(rho, drho, solve_sld(rho, drho)) <= 1e-9


@FEW
@given(st.lists(st.tuples(st.floats(0.01, 1.0), triples), min_size=1, max_size=4))
def test_randomized_pvms_stay_complete(parts):
    weights = np.array([w for w, _ in parts])
    branches = []
    for p, axis in zip(weights / weights.sum(), (a for _, a in parts)):
        assume(np.linalg.norm(axis) > 1e-3)
        observable = sum(a * s for a, s in zip(axis, PAULIS))
        branches.append((p, pvm_from_observable(observable)))
    # the sum of branch probabilities is 1 only up to rounding
    branches[-1] = (1.0 - sum(p for p, _ in branches[:-1]), branches[-1][1])
    povm = randomize(branches)
    assert np.max(np.abs(povm.ops.sum(axis=0) - np.eye(2))) <= 1e-12


ball_points = triples.map(lambda v: v / max(1.0, 1.001 * float(np.linalg.norm(v))))


valid_configs = st.fixed_dictionaries({
    "x0": ball_points,
    "weight": st.sampled_from(["identity", "qfi", "tomography"]),
    "m_max": st.integers(1, 25),
    "reps": st.integers(1, 3),
    "seed": st.integers(0, 2 ** 32),
    "eps_ball": st.floats(1e-9, 0.5),
})


# any value of each field, most of them invalid
any_triples = triples | st.lists(st.floats(), min_size=3, max_size=3).map(np.array)
ANY_VALUE = {
    "x0": any_triples,
    "m_max": st.integers(-2, 25),
    "reps": st.integers(-1, 3),
    "seed": st.integers(-2, 2 ** 32),
    "eps_ball": st.floats(-0.5, 1.5, allow_nan=False),
    "weight": st.lists(st.floats(), min_size=9, max_size=9).map(
        lambda v: np.array(v).reshape(3, 3)),
}


def one_field_replaced(fields):
    return st.sampled_from(sorted(ANY_VALUE)).flatmap(
        lambda key: ANY_VALUE[key].map(lambda value: {**fields, key: value}))


run_configs = valid_configs.flatmap(lambda f: st.just(f) | one_field_replaced(f))


@FEW
@given(run_configs)
def test_run_config_is_rejected_or_gives_finite_merits(fields):
    try:
        cfg = RunConfig(**fields)
    except ValueError as exc:
        assert str(exc)
        return
    for summary in monte_carlo(cfg, threads=1).values():
        for values in (summary.mean_bures, summary.se_bures,
                       summary.mean_sq, summary.se_sq):
            assert np.all(np.isfinite(values))
