"""POVM construction and algebra.

Covers projection-valued measurements from observables, randomized
combinations (apply one branch PVM drawn at random), the 6-outcome qubit
tomography measurement, full sets of mutually unbiased bases for dimensions
2..5, and outcome distributions.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .linalg import ValueRecord, hermitian_eig, hermitize, read_only
from .states import bloch_operator

COMPLETENESS_TOL = 1e-9
POSITIVITY_TOL = 1e-10
CLUSTER_GAP = 1e-9


class BadDistributionError(ValueError):
    """Branch probabilities are negative or do not sum to one."""


class DimMismatchError(ValueError):
    """State and measurement act on different Hilbert spaces."""


class UnsupportedDimensionError(ValueError):
    """No mutually unbiased bases table for this dimension."""


class InvalidPovmError(ValueError):
    """Elements fail positivity or completeness."""


def check_povm_ops(ops: np.ndarray) -> None:
    """Check that POVM elements (n, d, d), or each POVM of a stack
    (..., n, d, d), sum to the identity and are Hermitian and PSD.

    The first POVM, in row-major order, that fails raises InvalidPovmError
    for a non-finite entry, for its completeness defect or else for its
    first bad element; in a stack the message is prefixed with that POVM's
    index.
    """
    ops = np.asarray(ops)
    # a NaN fails each test below; inf - inf is named without numpy's warning
    with np.errstate(invalid="ignore"):
        defects = np.max(np.abs(ops.sum(axis=-3) - np.eye(ops.shape[-1])), axis=(-2, -1))
        adjoints = ops.conj().swapaxes(-1, -2)
        skews = np.abs(ops - adjoints).max(axis=(-2, -1))
        min_eigs = np.linalg.eigvalsh((ops + adjoints) / 2)[..., 0]
    bad_elements = ~((skews <= COMPLETENESS_TOL) & (min_eigs >= -POSITIVITY_TOL))
    bad = np.flatnonzero(~(defects <= COMPLETENESS_TOL) | bad_elements.any(axis=-1))
    if not bad.size:
        return
    first = np.unravel_index(bad[0], defects.shape)
    where = f"POVM {', '.join(str(int(i)) for i in first)}: " if first else ""
    if not np.isfinite(ops[first]).all():
        raise InvalidPovmError(f"{where}elements have non-finite entries")
    if defects[first] > COMPLETENESS_TOL:
        raise InvalidPovmError(f"{where}elements sum to identity with defect {defects[first]:.3e}")
    idx = int(np.flatnonzero(bad_elements[first])[0])
    if skews[first][idx] > COMPLETENESS_TOL:
        raise InvalidPovmError(f"{where}element {idx} not Hermitian")
    raise InvalidPovmError(f"{where}element {idx} has eigenvalue {min_eigs[first][idx]:.3e}")


@dataclass(frozen=True, eq=False)
class Povm(ValueRecord):
    """A labeled finite POVM.

    ops is a read-only (n, dim, dim) complex copy of PSD elements summing to
    the identity.  provenance optionally records, per element, which PVM
    branch of a randomized combination it came from and its probability.
    Records compare and hash by value.
    """

    dim: int
    labels: tuple
    ops: np.ndarray
    provenance: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "ops", read_only(self.ops, complex))
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        if self.ops.ndim != 3 or self.ops.shape[1:] != (self.dim, self.dim):
            raise InvalidPovmError(f"ops shape {self.ops.shape} unusable for dim {self.dim}")
        if len(self.labels) != self.ops.shape[0]:
            raise InvalidPovmError("one label per element required")
        if self.provenance is not None:
            object.__setattr__(self, "provenance",
                               tuple((int(b), float(p)) for b, p in self.provenance))
            if len(self.provenance) != len(self.labels):
                raise InvalidPovmError("one provenance entry per element required")
        check_povm_ops(self.ops)

    def __len__(self) -> int:
        return self.ops.shape[0]

    def to_json_dict(self) -> dict:
        """Row-major complex entries as [re, im] pairs, per element."""
        elements = []
        for label, op in zip(self.labels, self.ops):
            entries = [[[float(z.real), float(z.imag)] for z in row] for row in op]
            elements.append({"label": label, "op": entries})
        doc = {"dim": self.dim, "elements": elements}
        if self.provenance is not None:
            doc["provenance"] = [[b, p] for b, p in self.provenance]
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Povm":
        elements = doc["elements"]
        ops = [[[complex(re, im) for re, im in row] for row in e["op"]] for e in elements]
        # __post_init__ turns the provenance pairs back into (int, float)
        return cls(dim=int(doc["dim"]), labels=tuple(e["label"] for e in elements),
                   ops=ops, provenance=doc.get("provenance"))


@dataclass(frozen=True, eq=False)
class MubFamily(ValueRecord):
    """A full set of q+1 mutually unbiased orthonormal bases in dimension q.

    bases[a, i] is the i-th unit vector of basis a, in a read-only copy;
    any two vectors from different bases have squared overlap 1/q.
    Records compare and hash by value.
    """

    q: int
    bases: np.ndarray
    name: str = field(default="")

    def __post_init__(self):
        object.__setattr__(self, "bases", read_only(self.bases, complex))
        if self.bases.shape != (self.q + 1, self.q, self.q):
            raise ValueError(f"expected bases of shape {(self.q + 1, self.q, self.q)}")
        with np.errstate(invalid="ignore"):  # inf - inf is named below
            gram = self.bases @ self.bases.conj().transpose(0, 2, 1)
        bad = np.flatnonzero(~(np.max(np.abs(gram - np.eye(self.q)), axis=(1, 2)) <= 1e-10))
        if bad.size:
            if not np.isfinite(self.bases[bad[0]]).all():
                raise ValueError(f"basis {bad[0]} has non-finite entries")
            raise ValueError(f"basis {bad[0]} is not orthonormal")
        first, second, defects = self._overlap_defects()
        bad = np.flatnonzero(~(defects <= 1e-9))
        if bad.size:
            raise ValueError(f"bases {first[bad[0]]},{second[bad[0]]} are not mutually unbiased")

    def _overlap_defects(self) -> tuple:
        """Pairs a < b of bases in row-major order, and for each the worst
        |overlap^2 - 1/q| across their vectors."""
        first, second = np.triu_indices(self.q + 1, k=1)
        overlaps = np.abs(self.bases[first] @ self.bases[second].conj().transpose(0, 2, 1)) ** 2
        return first, second, np.max(np.abs(overlaps - 1.0 / self.q), axis=(1, 2))

    def max_overlap_defect(self) -> float:
        """Worst |overlap^2 - 1/q| across all cross-basis vector pairs."""
        return float(self._overlap_defects()[2].max())


def pvm_from_observable(a: np.ndarray) -> Povm:
    """PVM from the spectral decomposition of a Hermitian observable.

    Eigenvalues closer than CLUSTER_GAP are merged into one cluster; each cluster
    contributes the projector onto its eigenspace, labeled by the (mean)
    eigenvalue, in ascending eigenvalue order.  Downstream code must not
    depend on the basis chosen inside a degenerate cluster.
    """
    values, vectors = hermitian_eig(a)
    ascending = values.tolist()
    starts = [0] + [i for i in range(1, len(ascending))
                    if ascending[i] - ascending[i - 1] > CLUSTER_GAP]
    ops = []
    labels = []
    for start, stop in zip(starts, starts[1:] + [len(ascending)]):
        cols = vectors[:, start:stop]
        ops.append(hermitize(cols @ cols.conj().T))
        labels.append(f"{float(values[start:stop].sum()) / (stop - start):+.10g}")
    return Povm(dim=len(ascending), labels=labels, ops=np.array(ops))


def randomize(parts) -> Povm:
    """Randomized combination of POVMs: concatenate p_i-scaled elements.

    `parts` is a sequence of (probability, Povm).  Applying the result means
    drawing branch i with probability p_i and applying that POVM; provenance
    records (branch index, branch probability) per element.
    """
    parts = list(parts)
    if not parts:
        raise BadDistributionError("empty combination")
    probs = np.array([float(p) for p, _ in parts])
    if np.any(probs < 0.0):
        raise BadDistributionError("negative branch probability")
    # a NaN or infinite probability fails this test and is named in the sum
    if not abs(float(probs.sum()) - 1.0) <= 1e-12:
        raise BadDistributionError(f"branch probabilities sum to {probs.sum():.15f}")
    dim = parts[0][1].dim
    if any(povm.dim != dim for _, povm in parts):
        raise DimMismatchError("branch POVMs act on different dimensions")
    return Povm(dim=dim, labels=tuple(lab for _, povm in parts for lab in povm.labels),
                ops=np.concatenate([float(p) * povm.ops for p, povm in parts]),
                provenance=tuple((branch, float(p)) for branch, (p, povm) in enumerate(parts)
                                 for _ in povm.labels))


def bloch_pvm_mixture(probs, axes) -> Povm:
    """Randomized combination of qubit PVMs given in Bloch form.

    Branch i, drawn with probability probs[i], measures along the unit
    Bloch vector axes[i]: its elements are probs[i] (I -/+ axes[i] . sigma)
    / 2, the - projector first, labeled "<branch><sign>" with branches
    counted from 1.  Provenance records (branch index, probability).
    """
    probs = np.asarray(probs, dtype=float)
    signed = np.asarray(axes, dtype=float)[:, None, :] * np.array([[-1.0], [1.0]])
    ops = probs[:, None, None, None] * bloch_operator(1.0, signed)
    return Povm(dim=2, labels=tuple(f"{i + 1}{sign}" for i in range(len(probs)) for sign in "-+"),
                ops=ops.reshape(-1, 2, 2),
                provenance=tuple((i, float(p)) for i, p in enumerate(probs) for _ in "-+"))


def qubit_tomography_povm() -> Povm:
    """Uniform randomization of the three Pauli PVMs (6 elements).

    Outcomes are labeled "<axis><sign>" with axis in 1..3, e.g. "1+";
    at a state with Stokes vector x the outcome probabilities are
    (1 +/- x^mu) / 6.
    """
    return bloch_pvm_mixture(np.full(3, 1.0 / 3.0), np.eye(3))


def _mub_bases_odd_prime(p: int) -> np.ndarray:
    """Standard quadratic-phase construction for odd prime dimension.

    Basis 0 is computational; basis a+1 has vectors with components
    omega^(a k^2 + b k) / sqrt(p), whose cross-basis Gauss sums have
    modulus sqrt(p).
    """
    omega = np.exp(2j * np.pi / p)
    bases = np.empty((p + 1, p, p), dtype=complex)
    bases[0] = np.eye(p)
    a, b, k = np.ix_(np.arange(p), np.arange(p), np.arange(p))
    bases[1:] = omega ** ((a * k * k + b * k) % p) / np.sqrt(p)
    return bases


def _mub_bases_dim4() -> np.ndarray:
    """Known table of five mutually unbiased bases in dimension 4.

    Built from the five commuting classes partitioning the two-qubit Pauli
    operators; entries lie in {1, -1, i, -i} / 2 except the computational
    basis.
    """
    i = 1j
    raw = [
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        [(1, 1, 1, 1), (1, 1, -1, -1), (1, -1, -1, 1), (1, -1, 1, -1)],
        [(1, -1, -i, -i), (1, -1, i, i), (1, 1, i, -i), (1, 1, -i, i)],
        [(1, -i, -i, -1), (1, -i, i, 1), (1, i, i, -1), (1, i, -i, 1)],
        [(1, -i, -1, -i), (1, -i, 1, i), (1, i, 1, -i), (1, i, -1, i)],
    ]
    bases = np.array(raw, dtype=complex)
    bases[1:] /= 2.0
    return bases


def mub_bases(q: int) -> MubFamily:
    """Full set of q+1 mutually unbiased bases for q in {2, 3, 4, 5}.

    q=2 uses the Pauli eigenbases (sigma_3, sigma_1, sigma_2 order); odd
    primes use the quadratic-phase construction; q=4 is a fixed table.
    """
    if q == 2:
        s3 = np.eye(2, dtype=complex)
        s1 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        s2 = np.array([[1, 1j], [1, -1j]], dtype=complex) / np.sqrt(2)
        return MubFamily(q=2, bases=np.stack([s3, s1, s2]), name="pauli")
    if q in (3, 5):
        return MubFamily(q=q, bases=_mub_bases_odd_prime(q), name=f"odd-prime-{q}")
    if q == 4:
        return MubFamily(q=4, bases=_mub_bases_dim4(), name="galois-4")
    raise UnsupportedDimensionError(f"no mutually unbiased bases table for q={q}")


def mub_tomography_povm(family: MubFamily) -> Povm:
    """Uniform randomization of the q+1 basis PVMs: q(q+1) rank-one elements.

    Element (a, i) is |e_i^(a)><e_i^(a)| / (q+1), labeled "a:i".
    """
    q = family.q
    weight = 1.0 / (q + 1)
    vecs = family.bases.reshape(-1, q)
    return Povm(dim=q, labels=tuple(f"{a}:{i}" for a in range(q + 1) for i in range(q)),
                ops=weight * (vecs[:, :, None] * vecs[:, None, :].conj()),
                provenance=tuple((a, weight) for a in range(q + 1) for _ in range(q)))


def random_povm_parts(dim: int, n_outcomes: int, rng: np.random.Generator) -> np.ndarray:
    """The Gaussian draw (n_outcomes, 2, dim, dim) behind random_povm: per
    outcome, the real then the imaginary part of G_i."""
    for name, value in (("dim", dim), ("n_outcomes", n_outcomes)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if dim < 1:
        raise ValueError(f"need dimension at least 1, got {dim}")
    if n_outcomes < 1:
        raise ValueError("need at least one outcome")
    return rng.standard_normal((n_outcomes, 2, dim, dim))


def wishart_ops(parts: np.ndarray) -> np.ndarray:
    """Complete PSD elements (..., n, d, d) from Gaussian parts (..., n, 2, d, d).

    Forms A_i = G_i G_i^dagger, G_i = parts[i, 0] + 1j parts[i, 1], and maps
    M_i = S^(-1/2) A_i S^(-1/2) with S the sum, which is complete by
    construction.  Each POVM of a stack gets the bits it gets alone.
    """
    g = parts[..., 0, :, :] + 1j * parts[..., 1, :, :]
    raw = g @ g.conj().swapaxes(-1, -2)
    values, vectors = hermitian_eig(hermitize(np.sum(raw, axis=-3)))
    inv_root = ((vectors / np.sqrt(values)[..., None, :]) @ vectors.conj().swapaxes(-1, -2))
    inv_root = inv_root[..., None, :, :]
    return hermitize(inv_root @ raw @ inv_root)


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> Povm:
    """Haar-ish random POVM: Wishart elements renormalized to completeness,
    wishart_ops of one draw of random_povm_parts."""
    ops = wishart_ops(random_povm_parts(dim, n_outcomes, rng))
    return Povm(dim=dim, labels=tuple(str(i) for i in range(n_outcomes)), ops=ops)


def outcome_distribution(rho: np.ndarray, povm: Povm) -> np.ndarray:
    """Outcome probabilities p_n = Tr rho M_n, in label order.

    Rounding noise up to 1e-12 outside [0, 1] is clamped.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (povm.dim, povm.dim):
        raise DimMismatchError(f"state shape {rho.shape} vs measurement dim {povm.dim}")
    if not np.isfinite(rho).all():
        raise ValueError("state has non-finite entries")
    probs = np.einsum("ij,nji->n", rho, povm.ops).real
    if np.any(probs < -1e-12) or np.any(probs > 1 + 1e-12):
        raise InvalidPovmError("outcome probabilities outside [0,1] beyond rounding noise")
    probs = np.clip(probs, 0.0, 1.0)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-10:
        raise InvalidPovmError(f"outcome probabilities sum to {total:.12f}")
    return probs
