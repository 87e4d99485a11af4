#!/usr/bin/env python3
"""The unitary between N-particle states and excitation layers, exercised.

Shows the map sending the pure condensate to the vacuum, the exact round
trip, and then runs the dense identity suite: the conjugated-Hamiltonian
identity and its relatives are matrix equalities here, at machine precision.
"""

import numpy as np

from bogofluct import (
    ExcitationFrame,
    FockVector,
    SectorVector,
    apply_u_n,
    apply_u_n_star,
    enumerate_basis,
    hartree_block,
    verify_algebra,
)

basis = enumerate_basis(3, 4)
rng = np.random.default_rng(0)
u = rng.normal(size=3) + 1j * rng.normal(size=3)
u /= np.linalg.norm(u)
N = 4
frame = ExcitationFrame(u, N)

# the pure condensate a+(u)^N vac / sqrt(N!) maps to the vacuum
psi = hartree_block(u, FockVector.vacuum(basis), N)
phi = apply_u_n(frame, psi)
print(f"condensate power -> vacuum amplitude: {phi.amplitudes[0]:.12f}")
print(f"residual weight elsewhere: {np.linalg.norm(phi.amplitudes[1:]):.2e}")

# a random sector state maps isometrically and returns exactly
psi = SectorVector(basis, N, rng.normal(size=basis.sector_dim(N))
                   + 1j * rng.normal(size=basis.sector_dim(N)))
psi = SectorVector(basis, N, psi.amplitudes / psi.norm())
phi = apply_u_n(frame, psi)
back = apply_u_n_star(frame, phi)
print(f"\nisometry defect:   {abs(phi.norm() - 1.0):.2e}")
print(f"round-trip defect: {np.max(np.abs(back.amplitudes - psi.amplitudes)):.2e}")
print(f"layer profile of the image: "
      + " ".join(f"{x:.3f}" for x in phi.sector_norms()))

# the full dense identity suite
print("\nidentity suite at two sizes:")
for check in verify_algebra():
    mark = "pass" if check.ok else "FAIL"
    print(f"  [{mark}] {check.name:<44} {check.context:<16} residual {check.residual:.2e}")
