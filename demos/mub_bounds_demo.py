#!/usr/bin/env python3
"""Beyond qubits: tomography with mutually unbiased bases in dim 3 and 4.

A full set of q+1 mutually unbiased bases generalizes the three Pauli
measurements; mixing their PVMs uniformly generalizes tomography.  Along
one affine coordinate direction we compare

    cT  = Tr J g(M_T)^-1            the tomography merit, and
    cGM = (Tr R)^2 / (q - 1)        a lower bound valid for every POVM
                                    (its attainability for q >= 3 is open),

both with the Fisher-matrix weight.  The qualitative picture matches the
qubit case: the tomography curve departs from the bound and diverges at
the model boundary.
"""

import numpy as np

from qest.bounds import mub_tomography_sweep
from qest.measurements import mub_bases


def sweep(q: int) -> None:
    family = mub_bases(q)
    print(f"\ndim {q}: {q + 1} bases ({family.name}), "
          f"overlap defect {family.max_overlap_defect():.1e}")
    print(f"{'r':>6} {'cGM (bound)':>12} {'cT (tomography)':>16} {'ratio':>8}")
    for r, cgm, ct in mub_tomography_sweep(family, np.arange(0.1, 0.91, 0.1)):
        print(f"{r:6.2f} {cgm:12.2f} {ct:16.2f} {ct / cgm:8.3f}")


def main() -> None:
    print("uniform measurement over mutually unbiased bases vs the generic bound")
    for q in (3, 4):
        sweep(q)
    print("\nAt the origin the ratio is 1; toward the boundary cT grows without")
    print("bound, so uniform basis sampling is again inefficient in the")
    print("geometry-respecting merit.")


if __name__ == "__main__":
    main()
