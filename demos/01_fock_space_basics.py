#!/usr/bin/env python3
"""Tour of the truncated Fock space machinery.

Builds a small periodic lattice, enumerates the occupation basis, and checks
the ladder-operator algebra numerically: canonical commutators, bosonic
enhancement factors, and the norms of two-quantum states.
"""

import numpy as np

from bogofluct import (
    FockVector,
    annihilate_op,
    build_laplacian,
    build_lattice,
    create_op,
    dgamma,
    enumerate_basis,
    number_op,
)

lattice = build_lattice(M=3, spacing=1.0)
basis = enumerate_basis(lattice.M, n_max=4)
print(f"lattice: {lattice}")
print(f"basis:   {basis}")
print(f"sector sizes: {[basis.sector_dim(n) for n in range(5)]}")
print(f"first states of sector 2: {[tuple(s) for s in basis.states[basis.sector_slice(2)][:3]]}")

# mode 0 creation acting twice on the vacuum picks up the sqrt(2) enhancement
e0 = np.eye(3)[0]
vac = FockVector.vacuum(basis)
one = FockVector(vac.basis, create_op(e0, basis) @ vac.amplitudes)
two = FockVector(one.basis, create_op(e0, basis) @ one.amplitudes)
print(f"\n<2,0,0| a+(e0)^2 |vac> = {two.amplitudes[basis.index((2, 0, 0))]:.6f}  (expect sqrt(2))")

# canonical commutation relations on the truncation-safe sectors
rng = np.random.default_rng(1)
f = rng.normal(size=3) + 1j * rng.normal(size=3)
g = rng.normal(size=3) + 1j * rng.normal(size=3)
af, cg = annihilate_op(f, basis), create_op(g, basis)
comm = (af @ cg - cg @ af).toarray()
safe = basis.sector_offsets[basis.n_max]
dev = np.max(np.abs(comm[:safe, :safe] - np.vdot(f, g) * np.eye(basis.size)[:safe, :safe]))
print(f"[a(f), a+(g)] - <f,g>: max deviation {dev:.2e} on sectors below the truncation")

# second quantization of the kinetic operator, and the number operator
h0 = build_laplacian(lattice)
kin = dgamma(h0, basis)
print(f"\nkinetic operator: size={kin.shape[0]}, nnz={kin.nnz}")
counted = number_op(basis) @ two.amplitudes
idx = basis.index((2, 0, 0))
print(f"number operator on the (2,0,0) component: {counted[idx]/two.amplitudes[idx]:.1f} quanta")

# two quanta in one mode carry the bosonic sqrt(2): a+(u)^2 vac has norm
# sqrt(2), while quanta in orthogonal modes keep unit norm
u = rng.normal(size=3) + 1j * rng.normal(size=3)
u /= np.linalg.norm(u)
v = rng.normal(size=3) + 1j * rng.normal(size=3)
v -= u * np.vdot(u, v)
v /= np.linalg.norm(v)
cu = create_op(u, basis)
uu = cu @ (cu @ vac.amplitudes)
uv = cu @ (create_op(v, basis) @ vac.amplitudes)
print(f"\n|a+(u)^2 vac|     = {np.linalg.norm(uu):.6f}   (sqrt(2) = {np.sqrt(2):.6f})")
print(f"|a+(u) a+(v) vac| = {np.linalg.norm(uv):.6f}   for v orthogonal to u")
