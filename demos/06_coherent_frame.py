#!/usr/bin/env python3
"""Displacement operators and the coherent-state fluctuation frame.

A coherent state is a displaced vacuum; its occupation statistics follow the
closed-form series. Fluctuations around a coherent state obey a quadratic
generator whose kernels keep their condensate components, so the two frames
(product-state and coherent-state) genuinely disagree once the interaction is
switched on.
"""

import numpy as np
from scipy.sparse.linalg import expm_multiply

from bogofluct import (
    FockVector,
    annihilate_op,
    bogoliubov_hamiltonian,
    build_interaction,
    build_kernels,
    build_laplacian,
    build_lattice,
    create_op,
    enumerate_basis,
    number_op,
    solve_bogoliubov,
    solve_hartree,
)
from bogofluct.bogoliubov import mean_field_hamiltonian
from bogofluct.fock import quadratic_op
from bogofluct.model import gaussian_profile

lattice = build_lattice(M=3, spacing=1.0)
h0 = build_laplacian(lattice)
W = build_interaction(lattice, gaussian_profile(strength=1.0, rng=1.0))

# displaced vacuum exp(a+(f) - a(f)) vac vs the closed-form amplitudes
# exp(-|f|^2/2) prod_i f_i^s_i / sqrt(s_i!)
basis = enumerate_basis(3, n_max=20)
rng = np.random.default_rng(0)
f = 0.8 * (rng.normal(size=3) + 1j * rng.normal(size=3))
f /= np.linalg.norm(f) / 0.9
displaced = expm_multiply(create_op(f, basis) - annihilate_op(f, basis),
                          FockVector.vacuum(basis).amplitudes)
factorials = np.concatenate([basis.sector_factorials(n) for n in range(basis.n_max + 1)])
series = (np.exp(-np.linalg.norm(f) ** 2 / 2) * np.prod(f ** basis.states, axis=1)
          / np.sqrt(factorials.astype(float)))
nexp = np.real(np.vdot(displaced, number_op(basis) @ displaced))
print(f"displacement size |f|^2 = {np.linalg.norm(f)**2:.4f}")
print(f"displaced vacuum vs series: max deviation {np.max(np.abs(displaced - series)):.2e}")
print(f"mean quanta of the coherent state: {nexp:.6f}")

# the two quadratic generators differ exactly on the condensate directions:
# the coherent frame keeps the bare kernels k1_bare, k2_bare
d = np.minimum(lattice.positions, lattice.M - lattice.positions)
u0 = np.exp(-(d**2) / 1.28).astype(complex)
u0 /= np.linalg.norm(u0)
small = enumerate_basis(3, n_max=8)
a = bogoliubov_hamiltonian(u0, h0, W, small).toarray()
kern = build_kernels(u0, W)
b = quadratic_op(mean_field_hamiltonian(u0, h0, W) + kern.k1_bare, kern.k2_bare, small).toarray()
print(f"\n|projected - bare| generator difference: {np.max(np.abs(a - b)):.4f}")

traj = solve_hartree(u0, h0, W, T=1.0, dt=0.001)
vac = FockVector.vacuum(small)
proj = solve_bogoliubov(vac.copy(), traj, h0, W, dt=0.002, t_grid=[0.25, 0.5, 1.0])
bare = solve_bogoliubov(vac.copy(), traj, h0, W, dt=0.002, t_grid=[0.25, 0.5, 1.0],
                        projected=False)
print("\nvacuum evolved in both frames (each quasi-free, cut at n_max = 8):")
for k, t in enumerate(proj.times):
    gap = np.linalg.norm(proj.states[k].amplitudes - bare.states[k].amplitudes)
    cut = 1.0 - bare.states[k].norm() ** 2
    print(f"  t={t:4.2f}: |product-frame - coherent-frame| = {gap:.4e}, "
          f"coherent-frame weight above the cut {cut:.2e}")
print("the frames agree at t=0 and separate as the pairing kernels act")
