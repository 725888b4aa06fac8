"""The lemma and bound suites double as library-level property tests."""

import numpy as np
import pytest

from qest import bounds as bd
from qest import measurements as ms
from qest import states as st
from qest import verify as vf
from qest.verify import bound_suite, lemma_suite


def test_lemma_suite_all_pass():
    results = lemma_suite(seed=1)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, "\n".join(failures)


def test_bound_suite_all_pass():
    results = bound_suite(seed=1)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, "\n".join(failures)


# The checks as they were before their random POVMs were scored in stacks:
# one random_povm and one classical_fisher call per POVM, kept as oracles.

def _per_povm_info_trace_bound(rng, povms_per_dim=100):
    worst_excess = -np.inf
    for q in (2, 3, 4):
        family = ms.mub_bases(q) if q > 2 else None
        points = []
        for _ in range(10):
            if q == 2:
                points.append(st.qubit_slds(vf._random_interior_point(rng)))
            else:
                coords = vf._random_mub_point(q, family, rng)
                points.append(st.mub_derivatives(coords, family))
        qfis = np.stack([st.model_qfi(derivs) for derivs in points])
        gs = [bd.classical_fisher(points[i % len(points)],
                                  ms.random_povm(q, int(rng.integers(2, 2 * q + 2)), rng))
              for i in range(povms_per_dim)]
        ghat = bd.hat_fisher(np.reshape(gs, (-1,) + qfis.shape), qfis)
        worst_excess = max(worst_excess,
                           float(np.max(np.trace(ghat, axis1=-2, axis2=-1))) - (q - 1))
    return vf.CheckResult("info-trace-bound", worst_excess <= 1e-9,
                          f"max (Tr ghat - (q-1)) = {worst_excess:.3e} (tol 1e-09)")


def _per_case_bound_ordering(rng, cases=40):
    min_gap1 = np.inf
    min_gap2 = np.inf
    for _ in range(cases):
        x = vf._random_interior_point(rng)
        derivs = st.qubit_slds(x)
        j = st.qubit_qfi(x)
        a = rng.standard_normal((3, 3))
        h = a @ a.T + 0.2 * np.eye(3)
        povm = ms.random_povm(2, int(rng.integers(4, 8)), rng)
        g = bd.classical_fisher(derivs, povm)
        if float(np.linalg.eigvalsh(g)[0]) < 1e-10:
            continue
        bound = bd.qcr_min_trace(j, h).bound
        min_gap1 = min(min_gap1, float(np.trace(h @ np.linalg.inv(g))) - bound)
        min_gap2 = min(min_gap2, bound - float(np.trace(h @ np.linalg.inv(j))))
    passed = min_gap1 >= -1e-8 and min_gap2 >= -1e-8
    return vf.CheckResult("bound-ordering", passed,
                          f"min gaps = {min_gap1:.3e}, {min_gap2:.3e}")


@pytest.mark.parametrize("stacked, per_povm", [
    (vf.check_info_trace_bound, _per_povm_info_trace_bound),
    (vf.check_bound_ordering, _per_case_bound_ordering),
], ids=["info-trace-bound", "bound-ordering"])
def test_stacked_check_reports_the_per_povm_line(stacked, per_povm):
    for seed in range(1, 21):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        assert stacked(new).line() == per_povm(old).line()
        # the draws are the same, in the same order
        assert new.random() == old.random()


def test_stacked_fishers_have_the_per_povm_bits():
    rng = np.random.default_rng(5)
    xs = np.array([vf._random_interior_point(rng) for _ in range(30)])
    parts = [ms.random_povm_parts(2, int(n), rng) for n in rng.integers(2, 6, size=30)]
    gs = vf._random_povm_fishers(st.qubit_slds(xs), np.arange(30), parts)

    class Replay:
        """A generator stand-in that hands random_povm a recorded draw."""

        def __init__(self, draw):
            self.draw = draw

        def standard_normal(self, shape):
            assert shape == self.draw.shape
            return self.draw

    for x, part, g in zip(xs, parts, gs):
        povm = ms.random_povm(2, len(part), Replay(part))
        assert np.array_equal(g, bd.classical_fisher(st.qubit_slds(x), povm))
