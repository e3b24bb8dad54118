"""Benchmark structural models on structured grids.

Load and support placement follows the conventions of the standard
educational 2-D/3-D topology-optimization codes, so published node and
dof indices carry over unchanged.
"""

from __future__ import annotations

import numpy as np

from .fem import Material, Mesh, StructuralModel

__all__ = [
    "build_mbb",
    "build_cantilever2d",
    "build_cantilever3d",
    "PROBLEMS",
]


def build_mbb(nelx, nely, load=1.0, material=None):
    """Half MBB beam: unit downward point load at the top-left node,
    symmetry rollers (x fixed) on the left edge, vertical support at the
    bottom-right corner node."""
    if nelx < 2 or nely < 2:
        raise ValueError("MBB needs nelx, nely >= 2")
    mesh = Mesh((nelx, nely))
    node = mesh.node_ids()
    f = np.zeros(mesh.n_dofs)
    f[2 * node[0, 0] + 1] = -float(load)
    fixed = np.append(2 * node[0], 2 * node[nelx, nely] + 1)
    return StructuralModel(mesh, material or Material(), fixed, f)


def build_cantilever2d(nelx, nely, load=1.0, material=None):
    """Long cantilever: left edge fully clamped, unit downward load at the
    bottom-right corner node."""
    mesh = Mesh((nelx, nely))
    node = mesh.node_ids()
    f = np.zeros(mesh.n_dofs)
    f[2 * node[nelx, nely] + 1] = -float(load)
    fixed = np.append(2 * node[0], 2 * node[0] + 1)
    return StructuralModel(mesh, material or Material(), fixed, f)


def build_cantilever3d(nelx, nely, nelz, load=1.0, material=None):
    """3-D cantilever: the x = 0 face fully clamped; a line load of unit
    total magnitude spread along the lower free edge (nodes with i = nelx,
    j = nely, all k), acting in -y."""
    mesh = Mesh((nelx, nely, nelz))
    node = mesh.node_ids()
    f = np.zeros(mesh.n_dofs)
    f[3 * node[nelx, nely] + 1] = -float(load) / (nelz + 1)
    face = 3 * node[0]
    fixed = np.concatenate([face, face + 1, face + 2], axis=None)
    return StructuralModel(mesh, material or Material(), fixed, f)


# `cdtopt run --problem` name -> builder(*dims, load=..., material=...)
PROBLEMS = {
    "mbb": build_mbb,
    "cantilever": build_cantilever2d,
    "cantilever3d": build_cantilever3d,
}
