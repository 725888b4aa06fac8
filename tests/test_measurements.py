import dataclasses
import warnings

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
    check_povm_ops,
    mub_bases,
    mub_tomography_povm,
    outcome_distribution,
    pvm_from_observable,
    qubit_tomography_povm,
    random_povm,
    random_povm_parts,
    randomize,
    wishart_ops,
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

    def test_equal_records_compare_and_hash_equal(self):
        povm, family = qubit_tomography_povm(), mub_bases(3)
        same_povm = Povm(dim=2, labels=povm.labels, ops=povm.ops.copy(),
                         provenance=povm.provenance)
        assert povm == same_povm and hash(povm) == hash(same_povm)
        assert family == mub_bases(3) and hash(family) == hash(mub_bases(3))
        # -0.0 and +0.0 compare equal, so they hash equal
        flipped = np.where(family.bases == 0, -0.0, family.bases)
        assert hash(MubFamily(q=3, bases=flipped, name=family.name)) == hash(family)
        assert len({povm, same_povm, family, mub_bases(3)}) == 2

    def test_replace_with_a_changed_array_compares_unequal(self):
        povm, family = qubit_tomography_povm(), mub_bases(2)
        swapped = dataclasses.replace(povm, ops=povm.ops[[1, 0, 2, 3, 4, 5]])
        assert swapped != povm and povm != swapped
        assert dataclasses.replace(povm, labels=tuple("abcdef")) != povm
        assert dataclasses.replace(family, bases=family.bases[:, ::-1]) != family
        assert dataclasses.replace(family, name="other") != family
        assert povm != family


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

    @pytest.mark.parametrize("dim, n, message", [
        (0, 2, "need dimension at least 1, got 0"),
        (-1, 2, "need dimension at least 1, got -1"),
        (2.0, 2, "dim must be an integer, got 2.0"),
        (True, 2, "dim must be an integer, got True"),
        (2, 0, "need at least one outcome"),
        (2, 2.5, "n_outcomes must be an integer, got 2.5"),
    ])
    def test_bad_sizes_are_named(self, dim, n, message):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_povm(dim, n, rng)
        # nothing was drawn
        assert rng.random() == np.random.default_rng(4).random()


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

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_wishart_stack_gives_each_povm_its_own_bits(self, dim):
        """Ragged groups: draws of one outcome count, stacked, map to the
        elements random_povm makes of each alone."""
        rng = np.random.default_rng((91, dim))
        for n in range(1, 2 * dim + 2):
            seeds = rng.integers(0, 2**32, size=int(rng.integers(1, 7)))
            parts = np.stack([random_povm_parts(dim, n, np.random.default_rng(s)) for s in seeds])
            ops = wishart_ops(parts)
            assert ops.shape == (len(seeds), n, dim, dim)
            check_povm_ops(ops)
            for got, s in zip(ops, seeds):
                assert np.array_equal(got, random_povm(dim, n, np.random.default_rng(s)).ops)
            square = wishart_ops(parts[:1].reshape((1, 1) + parts.shape[1:]))
            assert np.array_equal(square[0, 0], ops[0])

    def test_stacked_check_names_the_first_bad_povm(self):
        ok = 0.3 * np.eye(2)
        negative, skew = np.diag([-0.1, 0.1]), np.array([[0.1, 0.05], [0.0, 0.1]])
        povms = {
            "good": np.array([ok, 0.5 * ok, np.eye(2) - 1.5 * ok]),
            "incomplete": np.array([ok, ok, ok]),
            "negative": np.array([ok, negative, np.eye(2) - ok - negative]),
            "skew": np.array([ok, skew, np.eye(2) - ok - skew]),
        }
        for order in (("good", "negative", "skew", "incomplete"),
                      ("good", "good", "incomplete", "negative"),
                      ("good", "skew", "negative", "good")):
            stack = np.array([povms[name] for name in order], dtype=complex)
            first = next(i for i, name in enumerate(order) if name != "good")
            want = _loop_validation_error(stack[first])
            if want is None:  # incomplete: the completeness test names it
                with pytest.raises(InvalidPovmError) as alone:
                    Povm(dim=2, labels="abc", ops=stack[first])
                want = str(alone.value)
            with pytest.raises(InvalidPovmError) as got:
                check_povm_ops(stack)
            assert str(got.value) == f"POVM {first}: {want}"
            with pytest.raises(InvalidPovmError) as grid:
                check_povm_ops(stack.reshape(2, 2, 3, 2, 2))
            assert str(grid.value) == f"POVM {first // 2}, {first % 2}: {want}"
        check_povm_ops(np.array([povms["good"]] * 3))


class TestNonFiniteInputNamed:
    """A NaN fails every comparison, so each check is written to pass only
    finite values; the non-finite input is named, without numpy warnings."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
    def test_povm_element(self, bad):
        ops = np.array([[[0.5, 0], [0, 0.5]], [[0.5, 0], [0, 0.5]]], dtype=complex)
        ops[0, 0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidPovmError, match="^elements have non-finite entries$"):
                Povm(dim=2, labels="ab", ops=ops)
            stack = np.array([qubit_tomography_povm().ops, qubit_tomography_povm().ops])
            stack[1, 3, 0, 1] = bad
            with pytest.raises(InvalidPovmError, match="^POVM 1: elements have non-finite"):
                check_povm_ops(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_mub_basis(self, bad):
        bases = mub_bases(2).bases.copy()
        bases[1, 0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^basis 1 has non-finite entries$"):
                MubFamily(q=2, bases=bases)
            with pytest.raises(ValueError, match="^basis 0 has non-finite entries$"):
                MubFamily(q=2, bases=np.full((3, 2, 2), bad))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_branch_probability(self, bad):
        tomo = qubit_tomography_povm()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadDistributionError,
                               match=f"^branch probabilities sum to {bad}$"):
                randomize([(bad, tomo), (1.0, tomo)])

    def test_state_of_an_outcome_distribution(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^state has non-finite entries$"):
                outcome_distribution(np.full((2, 2), np.nan), qubit_tomography_povm())
