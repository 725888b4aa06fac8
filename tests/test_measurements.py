import dataclasses

import numpy as np
import pytest

from qest.linalg import NotHermitianError
from qest.measurements import (
    BadDistributionError,
    DimMismatchError,
    InvalidPovmError,
    MubFamily,
    Povm,
    UnsupportedDimensionError,
    mub_bases,
    mub_tomography_povm,
    outcome_distribution,
    pvm_from_observable,
    qubit_tomography_povm,
    random_povm,
    randomize,
)
from qest.states import PAULIS, SIGMA_1, SIGMA_3, qubit_state


class TestPvmFromObservable:
    def test_sigma3(self):
        pvm = pvm_from_observable(SIGMA_3)
        assert pvm.labels == ("-1", "+1")
        assert np.allclose(pvm.ops[1], (np.eye(2) + SIGMA_3) / 2)
        assert np.allclose(pvm.ops[0], (np.eye(2) - SIGMA_3) / 2)

    def test_identity_single_cluster(self):
        pvm = pvm_from_observable(np.eye(2))
        assert len(pvm) == 1
        assert np.allclose(pvm.ops[0], np.eye(2))

    def test_sigma1(self):
        pvm = pvm_from_observable(SIGMA_1)
        assert np.allclose(pvm.ops[1], (np.eye(2) + SIGMA_1) / 2)

    def test_projectors_idempotent_orthogonal(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a = (a + a.conj().T) / 2
            pvm = pvm_from_observable(a)
            for i in range(len(pvm)):
                assert np.max(np.abs(pvm.ops[i] @ pvm.ops[i] - pvm.ops[i])) <= 1e-9
                for k in range(i + 1, len(pvm)):
                    assert np.max(np.abs(pvm.ops[i] @ pvm.ops[k])) <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            pvm_from_observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRandomize:
    def test_single_part_unchanged(self):
        pvm = pvm_from_observable(SIGMA_3)
        out = randomize([(1.0, pvm)])
        assert np.allclose(out.ops, pvm.ops)
        assert out.provenance == ((0, 1.0), (0, 1.0))

    def test_uniform_pauli_mix(self):
        parts = [(1 / 3, pvm_from_observable(s)) for s in PAULIS]
        out = randomize(parts)
        assert len(out) == 6
        for op in out.ops:
            assert np.trace(op).real == pytest.approx(1 / 3)

    def test_identical_pvm_mix_keeps_distribution(self):
        pvm = pvm_from_observable(SIGMA_3)
        mixed = randomize([(0.5, pvm), (0.5, pvm)])
        rho = qubit_state([0.2, 0.0, 0.4])
        base = outcome_distribution(rho, pvm)
        combined = outcome_distribution(rho, mixed)
        # duplicated labels: probabilities split in half per branch
        assert np.allclose(combined, np.concatenate([base, base]) / 2)

    def test_associative_in_distribution(self):
        rng = np.random.default_rng(1)
        rho = qubit_state([0.1, -0.3, 0.2])
        m1, m2, m3 = (pvm_from_observable(s) for s in PAULIS)
        nested = randomize([(0.5, randomize([(0.4, m1), (0.6, m2)])), (0.5, m3)])
        flat = randomize([(0.2, m1), (0.3, m2), (0.5, m3)])
        assert np.allclose(outcome_distribution(rho, nested),
                           outcome_distribution(rho, flat), atol=1e-12)

    def test_rejects_bad_distribution(self):
        pvm = pvm_from_observable(SIGMA_3)
        with pytest.raises(BadDistributionError):
            randomize([(0.7, pvm), (0.7, pvm)])
        with pytest.raises(BadDistributionError):
            randomize([(-0.5, pvm), (1.5, pvm)])


class TestQubitTomographyPovm:
    def test_uniform_at_origin(self):
        povm = qubit_tomography_povm()
        probs = outcome_distribution(np.eye(2) / 2, povm)
        assert np.allclose(probs, np.full(6, 1 / 6))

    def test_reference_point(self):
        povm = qubit_tomography_povm()
        probs = outcome_distribution(qubit_state([0.55, 0.55, 0.55]), povm)
        assert np.allclose(probs, [0.45 / 6, 1.55 / 6] * 3)

    def test_distribution_formula_random_points(self):
        povm = qubit_tomography_povm()
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.standard_normal(3)
            x *= rng.random() * 0.95 / np.linalg.norm(x)
            probs = outcome_distribution(qubit_state(x), povm)
            expected = np.array([[(1 - x[mu]) / 6, (1 + x[mu]) / 6]
                                 for mu in range(3)]).ravel()
            assert np.max(np.abs(probs - expected)) <= 1e-12

    def test_labels_axis_sign(self):
        assert qubit_tomography_povm().labels == ("1-", "1+", "2-", "2+", "3-", "3+")

    def test_matches_the_pauli_spectral_projectors(self):
        weight = 1.0 / 3.0
        ops = np.concatenate([weight * pvm_from_observable(s).ops for s in PAULIS])
        povm = qubit_tomography_povm()
        assert np.max(np.abs(povm.ops - ops)) <= 1e-15
        assert povm.labels == tuple(f"{axis}{sign}" for axis in range(1, 4) for sign in "-+")
        assert povm.provenance == tuple((mu, weight) for mu in range(3) for _ in "-+")


class TestMubBases:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_overlap_condition(self, q):
        fam = mub_bases(q)
        assert fam.max_overlap_defect() <= 1e-9

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            mub_bases(7)

    def test_q2_matches_qubit_tomography(self):
        fam = mub_bases(2)
        mub_povm = mub_tomography_povm(fam)
        qubit_povm = qubit_tomography_povm()
        # same element set up to ordering
        for op in mub_povm.ops:
            assert any(np.allclose(op, ref, atol=1e-12) for ref in qubit_povm.ops)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_povm_counts_and_completeness(self, q):
        povm = mub_tomography_povm(mub_bases(q))
        assert len(povm) == q * (q + 1)
        for op in povm.ops:
            assert np.trace(op).real == pytest.approx(1 / (q + 1))
        assert np.max(np.abs(povm.ops.sum(axis=0) - np.eye(q))) <= 1e-9

    def test_rejects_invalid_family(self):
        bad = np.stack([np.eye(2, dtype=complex)] * 3)
        with pytest.raises(ValueError):
            MubFamily(q=2, bases=bad)


class TestFrozenRecords:
    """Povm and MubFamily are checked once and hold read-only copies."""

    def test_fields_cannot_be_assigned(self):
        povm, family = qubit_tomography_povm(), mub_bases(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            povm.ops = 2.0 * povm.ops
        with pytest.raises(dataclasses.FrozenInstanceError):
            family.bases = family.bases[::-1]

    def test_arrays_cannot_be_written(self):
        povm, family = qubit_tomography_povm(), mub_bases(3)
        with pytest.raises(ValueError, match="read-only"):
            povm.ops[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            family.bases[0] = 0

    def test_callers_array_is_copied(self):
        ref_povm, ref_family = qubit_tomography_povm(), mub_bases(3)
        ops, bases = ref_povm.ops.copy(), ref_family.bases.copy()
        povm = Povm(dim=2, labels=ref_povm.labels, ops=ops)
        family = MubFamily(q=3, bases=bases)
        ops[0] *= 3.0
        bases[0] = 0
        assert np.array_equal(povm.ops, ref_povm.ops)
        assert np.array_equal(family.bases, ref_family.bases)

    def test_replace_checks_again(self):
        povm, family = qubit_tomography_povm(), mub_bases(3)
        with pytest.raises(InvalidPovmError, match="sum to identity"):
            dataclasses.replace(povm, ops=2.0 * povm.ops)
        with pytest.raises(ValueError, match="not orthonormal"):
            dataclasses.replace(family, bases=2.0 * family.bases)
        assert dataclasses.replace(family, name="copy").bases is not family.bases


class TestOutcomeDistribution:
    def test_maximally_mixed_uniform(self):
        probs = outcome_distribution(np.eye(2) / 2, qubit_tomography_povm())
        assert np.allclose(probs, 1 / 6)

    def test_eigenstate_deterministic(self):
        probs = outcome_distribution(np.diag([1.0, 0.0]), pvm_from_observable(SIGMA_3))
        assert np.allclose(probs, [0.0, 1.0])

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            outcome_distribution(np.eye(3) / 3, qubit_tomography_povm())


class TestSerialization:
    def test_json_roundtrip(self):
        povm = qubit_tomography_povm()
        doc = povm.to_json_dict()
        back = Povm.from_json_dict(doc)
        assert back.labels == povm.labels
        assert np.allclose(back.ops, povm.ops)
        assert back.provenance == povm.provenance


class TestRandomPovm:
    def test_valid_povm(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3, 4):
            povm = random_povm(dim, 5, rng)  # validation happens in __post_init__
            assert len(povm) == 5
            assert povm.dim == dim


def _loop_random_povm_ops(dim, n_outcomes, rng):
    """random_povm's elements drawn and mapped one outcome at a time."""
    from qest.linalg import hermitian_eig, hermitize
    raw = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raw.append(g @ g.conj().T)
    values, vectors = hermitian_eig(hermitize(np.sum(raw, axis=0)))
    inv_root = (vectors / np.sqrt(values)) @ vectors.conj().T
    return np.array([hermitize(inv_root @ a @ inv_root) for a in raw])


def _loop_validation_error(ops):
    """The message of the first failing element, checked one at a time."""
    for idx, op in enumerate(ops):
        if float(np.max(np.abs(op - op.conj().T))) > 1e-9:
            return f"element {idx} not Hermitian"
        min_eig = float(np.linalg.eigvalsh((op + op.conj().T) / 2)[0])
        if min_eig < -1e-10:
            return f"element {idx} has eigenvalue {min_eig:.3e}"
    return None


class TestStackedKernels:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_random_povm_draws_the_same_stream(self, dim):
        for n in (1, 2, 5, 2 * dim + 1):
            new, old = np.random.default_rng((dim, n)), np.random.default_rng((dim, n))
            povm = random_povm(dim, n, new)
            assert np.array_equal(povm.ops, _loop_random_povm_ops(dim, n, old))
            assert new.random() == old.random()

    def test_validate_names_the_first_bad_element(self):
        ok = 0.3 * np.eye(2)
        negative = np.diag([-0.1, 0.1])
        skew = np.array([[0.1, 0.05], [0.0, 0.1]])
        for middle in ([negative, skew], [skew, negative]):
            ops = np.array([ok, *middle, np.eye(2) - ok - sum(middle)], dtype=complex)
            want = _loop_validation_error(ops)
            assert want is not None and want.startswith("element 1 ")
            with pytest.raises(InvalidPovmError) as got:
                Povm(dim=2, labels=("0", "1", "2", "3"), ops=ops)
            assert str(got.value) == want
