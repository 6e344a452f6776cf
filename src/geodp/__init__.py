"""Numerical toolkit for recursive optimal control of diffusions on compact
embedded manifolds: projected simulation, backward SDE solvers, dynamic
programming on meshes, an explicit PDE solver, hypothesis spot checks, and a
reproducible experiment harness."""
