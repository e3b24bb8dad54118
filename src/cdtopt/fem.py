"""Linear-elastic finite elements on structured grids of unit squares/cubes.

Conventions (matching the widely used educational topology-optimization
codes so published load/support indices transfer directly).  The global
numbers are stated once, by :meth:`Mesh.node_ids` and
:meth:`Mesh.element_ids`; every other module reads them from there.

* 2-D: nodes are numbered column-wise, top to bottom, left to right;
  node (i, j) has index ``i*(nely+1) + j`` with j increasing downward.
  Each node carries dofs (2*id, 2*id + 1) = (x, y).  Element (ei, ej) has
  index ``ei*nely + ej`` and its 8 dofs are ordered
  [lower-left, lower-right, upper-right, upper-left] x (x, y).
* 3-D: the 2-D layout is repeated per z-layer; node (i, j, k) has index
  ``k*(nelx+1)*(nely+1) + i*(nely+1) + j`` and three dofs (x, y, z), and
  element (ei, ej, ek) has index ``ek*nelx*nely + ei*nely + ej``.
  Element dofs list the k-layer quad first, then the k+1 layer.
* Geometry for analytic checks: node (i, j[, k]) sits at physical
  coordinates (i, -j[, k]), i.e. the y axis of the stored grid points
  downward on screen.

All elements are unit-sized; element volumes are normalized to 1/n so the
design domain always has unit volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
# spla stays bound: the benchmark's tracer swaps fem.spla by name
import scipy.sparse.linalg as spla  # noqa: F401
from scipy.linalg import cho_solve_banded, cholesky_banded

__all__ = [
    "FemError",
    "SolverBreakdown",
    "Mesh",
    "Material",
    "StructuralModel",
    "Displacement",
    "element_stiffness_2d",
    "element_stiffness_3d",
    "moduli",
    "assemble",
    "free_dofs",
    "solve_equilibrium",
    "element_energies",
    "compliance",
    "strain_energy",
]

RESIDUAL_TOL = 1e-10  # relative residual |f - K u| / |f| on free dofs a solve must meet


class FemError(Exception):
    """Base class for finite-element failures."""


class SolverBreakdown(FemError):
    """The linear solve failed or left an unacceptable residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class Mesh:
    """Structured grid of unit square (2-D) or cube (3-D) elements."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) not in (2, 3) or any(d < 1 for d in dims):
            raise ValueError("dims must be 2 or 3 positive element counts")

    @property
    def ndim(self):
        return len(self.dims)

    @property
    def n_elements(self):
        return int(np.prod(self.dims))

    @property
    def n_nodes(self):
        return int(np.prod([d + 1 for d in self.dims]))

    @property
    def n_dofs(self):
        return self.ndim * self.n_nodes

    def element_volumes(self):
        n = self.n_elements
        return np.full(n, 1.0 / n)

    def node_ids(self):
        """Global node numbers indexed by grid position (i, j[, k])."""
        return _grid_numbers(tuple(d + 1 for d in self.dims))

    def element_ids(self):
        """Global element numbers indexed by grid position (ei, ej[, ek])."""
        return _grid_numbers(self.dims)

    @cached_property
    def element_dofs(self):
        """(n_elements, dofs-per-element) global dof indices; built on first use."""
        ndim = self.ndim
        corners = _CORNERS[:2 ** ndim, :ndim].T
        # grid position (ei, ej[, ek]) of each element, in element-number order
        at = np.unravel_index(np.argsort(self.element_ids(), axis=None), self.dims)
        nodes = self.node_ids()[tuple(p[:, None] + c for p, c in zip(at, corners))]
        edof = (ndim * nodes[:, :, None] + np.arange(ndim)).reshape(self.n_elements, -1)
        edof.flags.writeable = False
        return edof


def _grid_numbers(shape):
    # x-major then y within a z-layer; the z-layer is outermost
    ids = np.arange(np.prod(shape), dtype=np.int64).reshape(shape[2:] + shape[:2])
    return np.moveaxis(ids, 0, -1) if len(shape) == 3 else ids


# Element corners as node offsets (di, dj, dk) from its grid position:
# lower-left, lower-right, upper-right, upper-left (j grows downward), then
# the same quad one z-layer up.  A 2-D element uses the first quad's (di, dj).
_CORNERS = np.array([(0, 1, 0), (1, 1, 0), (1, 0, 0), (0, 0, 0),
                     (0, 1, 1), (1, 1, 1), (1, 0, 1), (0, 0, 1)])


@dataclass(frozen=True)
class Material:
    """Isotropic material with an ersatz modulus for void elements."""

    E: float = 1.0
    nu: float = 0.3
    E_min: float = 1e-9

    def __post_init__(self):
        if not (np.inf > self.E > self.E_min > 0.0):
            raise ValueError("need finite E > E_min > 0")
        if not (0.0 <= self.nu < 0.5):
            raise ValueError("need 0 <= nu < 0.5")


@dataclass(frozen=True)
class StructuralModel:
    """Mesh, material, supports and loads of one boundary-value problem."""

    mesh: Mesh
    material: Material
    fixed_dofs: np.ndarray
    load: np.ndarray

    def __post_init__(self):
        fixed = np.unique(np.asarray(self.fixed_dofs, dtype=int))
        load = np.array(self.load, dtype=float)
        load.flags.writeable = False
        fixed.flags.writeable = False
        object.__setattr__(self, "fixed_dofs", fixed)
        object.__setattr__(self, "load", load)
        ndof = self.mesh.n_dofs
        if fixed.size == 0:
            raise ValueError("at least one dof must be fixed")
        if fixed.min() < 0 or fixed.max() >= ndof:
            raise ValueError("fixed dof index out of range")
        if load.shape != (ndof,) or not np.all(np.isfinite(load)):
            raise ValueError("load must be a finite vector over all dofs")
        if np.any(load[fixed] != 0.0):
            raise ValueError("load must vanish on fixed dofs")

    @property
    def n_elements(self):
        return self.mesh.n_elements

    @cached_property
    def ke(self):
        """Unit-modulus element stiffness; built on first use."""
        ke = (element_stiffness_2d if self.mesh.ndim == 2 else element_stiffness_3d)(self.material)
        ke.flags.writeable = False
        return ke

    @cached_property
    def band_layout(self):
        """Free dofs in band order and the scatter maps into LAPACK band
        storage; built on the first solve and kept for the model's life.

        ``free[p]`` is the global dof at band position p.  ``pos`` maps each
        element dof to its band position, or to the spare slot ``free.size``
        for a fixed dof.  ``band_index`` sends the upper-triangle entries
        ``ke[pairs]`` of every element into the flattened column-major upper
        band of half-width ``width``, or to a spare slot past its end.
        """
        # Number the nodes with the longest axis outermost (ties keep x
        # before y before z) and the components innermost: neighbouring
        # nodes then lie at most one slab of the shorter axes apart, which
        # bounds the band half-width.  A 2-D mesh with nelx >= nely keeps its
        # natural numbering.
        mesh = self.mesh
        dims, ndim = mesh.dims, mesh.ndim
        outer_first = sorted(range(ndim), key=lambda a: -dims[a])
        nodes = np.transpose(mesh.node_ids(), outer_first).ravel()
        order = (ndim * nodes[:, None] + np.arange(ndim)).ravel()
        is_fixed = np.zeros(order.size, dtype=bool)
        is_fixed[self.fixed_dofs] = True
        free = order[~is_fixed[order]]
        n = free.size
        where = np.full(order.size, n, dtype=np.int64)
        where[free] = np.arange(n)
        pos = where[mesh.element_dofs]
        a, b = np.triu_indices(pos.shape[1])
        pa, pb = pos[:, a], pos[:, b]
        lo, hi = np.minimum(pa, pb), np.maximum(pa, pb)
        both = hi < n
        width = int((hi - lo)[both].max(initial=0))
        band_index = np.where(both, width + lo - hi + (width + 1) * hi, (width + 1) * n)
        for arr in (free, pos, a, b, band_index):
            arr.flags.writeable = False
        return SimpleNamespace(free=free, pos=pos, pairs=(a, b), band_index=band_index.ravel(),
                               width=width)


@dataclass(frozen=True)
class Displacement:
    """Nodal displacement vector, zero at fixed dofs."""

    u: np.ndarray
    residual: float = 0.0

    def __post_init__(self):
        u = np.array(self.u, dtype=float)
        u.flags.writeable = False
        object.__setattr__(self, "u", u)


def element_stiffness_2d(material):
    """8x8 plane-stress stiffness of a unit Q4 element at unit modulus.

    Closed form for the bilinear quadrilateral; symmetric, PSD, rank 5.
    """
    nu = material.nu
    k = np.array([
        0.5 - nu / 6.0, 0.125 + nu / 8.0, -0.25 - nu / 12.0, -0.125 + 3.0 * nu / 8.0,
        -0.25 + nu / 12.0, -0.125 - nu / 8.0, nu / 6.0, 0.125 - 3.0 * nu / 8.0,
    ])
    idx = np.array([
        [0, 1, 2, 3, 4, 5, 6, 7],
        [1, 0, 7, 6, 5, 4, 3, 2],
        [2, 7, 0, 5, 6, 3, 4, 1],
        [3, 6, 5, 0, 7, 2, 1, 4],
        [4, 5, 6, 7, 0, 1, 2, 3],
        [5, 4, 3, 2, 1, 0, 7, 6],
        [6, 3, 4, 1, 2, 7, 0, 5],
        [7, 2, 1, 4, 3, 6, 5, 0],
    ])
    return k[idx] / (1.0 - nu * nu)


def _h8_local_nodes():
    # the element's corners at physical coordinates (i, 1 - j, k): bottom
    # quad counterclockwise, then top quad
    i, j, k = _CORNERS.T
    return np.column_stack([i, 1 - j, k]).astype(float)


def elasticity_matrix_3d(nu):
    """6x6 isotropic elasticity matrix at unit modulus (Voigt order
    xx, yy, zz, yz, xz, xy)."""
    lam = nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = 0.5 / (1.0 + nu)
    D = np.zeros((6, 6))
    D[:3, :3] = lam
    D[np.arange(3), np.arange(3)] += 2.0 * mu
    D[np.arange(3, 6), np.arange(3, 6)] = mu
    return D


def element_stiffness_3d(material):
    """24x24 stiffness of a unit H8 element at unit modulus.

    2x2x2 Gauss integration, exact for the trilinear brick; symmetric,
    PSD, rank 18.
    """
    nu = material.nu
    D = elasticity_matrix_3d(nu)
    nodes = _h8_local_nodes()
    g = 0.5 + np.array([-1.0, 1.0]) / (2.0 * np.sqrt(3.0))
    K = np.zeros((24, 24))
    for gx in g:
        for gy in g:
            for gz in g:
                dN = _h8_shape_gradients(gx, gy, gz, nodes)
                B = np.zeros((6, 24))
                B[0, 0::3] = dN[:, 0]
                B[1, 1::3] = dN[:, 1]
                B[2, 2::3] = dN[:, 2]
                B[3, 1::3] = dN[:, 2]
                B[3, 2::3] = dN[:, 1]
                B[4, 0::3] = dN[:, 2]
                B[4, 2::3] = dN[:, 0]
                B[5, 0::3] = dN[:, 1]
                B[5, 1::3] = dN[:, 0]
                K += 0.125 * B.T @ D @ B
    return 0.5 * (K + K.T)


def _h8_shape_gradients(x, y, z, nodes):
    # trilinear shape-function gradients on the unit cube at point (x, y, z)
    s = nodes
    dN = np.empty((8, 3))
    for a in range(8):
        fx = s[a, 0] * x + (1.0 - s[a, 0]) * (1.0 - x)
        fy = s[a, 1] * y + (1.0 - s[a, 1]) * (1.0 - y)
        fz = s[a, 2] * z + (1.0 - s[a, 2]) * (1.0 - z)
        gx = 2.0 * s[a, 0] - 1.0
        gy = 2.0 * s[a, 1] - 1.0
        gz = 2.0 * s[a, 2] - 1.0
        dN[a] = [gx * fy * fz, fx * gy * fz, fx * fy * gz]
    return dN


def moduli(model, rho, penal):
    """Element moduli E_min + (E - E_min) rho^penal after checking rho."""
    mesh, mat = model.mesh, model.material
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (mesh.n_elements,):
        raise ValueError(
            f"rho has shape {rho.shape}, expected ({mesh.n_elements},)"
        )
    if not np.all((rho >= -1e-12) & (rho <= 1.0 + 1e-12)):
        raise ValueError("rho values must lie in [0, 1]")
    return mat.E_min + (mat.E - mat.E_min) * rho ** penal


def assemble(model, rho, penal=1.0):
    """Sparse symmetric stiffness with modulus E_min + (E - E_min) rho^penal.

    Returns the full-dof matrix; boundary conditions are applied by
    reduction to free dofs at solve time (no penalty terms).
    """
    mesh = model.mesh
    scale = moduli(model, rho, penal)
    ke, edof = model.ke, mesh.element_dofs
    m = ke.shape[0]
    data = (scale[:, None, None] * ke[None, :, :]).ravel()
    rows = np.repeat(edof, m, axis=1).ravel()
    cols = np.tile(edof, (1, m)).ravel()
    K = sp.coo_matrix((data, (rows, cols)), shape=(mesh.n_dofs, mesh.n_dofs))
    return K.tocsc()


def free_dofs(model):
    return np.setdiff1d(np.arange(model.mesh.n_dofs), model.fixed_dofs)


def _stiffness_product(layout, scale, ke, x):
    """K_ff x element by element, in band order."""
    n = x.size
    xe = np.append(x, 0.0)[layout.pos]
    y = np.bincount(layout.pos.ravel(), (scale[:, None] * (xe @ ke)).ravel(), minlength=n + 1)
    return y[:n]


def solve_equilibrium(model, rho, penal=1.0, strict=True):
    """Displacement with K(rho) u = f on the free dofs.

    Banded Cholesky factorization, refined only while the relative residual
    on free dofs exceeds :data:`RESIDUAL_TOL` and each step lowers it; the
    band layout is built once per model, on its first solve.  A failed factor,
    or a residual still above the bound, raises :class:`SolverBreakdown`.

    ``strict=False`` returns the refined solution whatever its residual:
    transient designs during optimization can contain corner-hinged
    chains whose near-mechanism modes push the attainable residual above
    the bound; the caller inspects ``Displacement.residual``.  A failed
    factor raises either way.
    """
    scale = moduli(model, rho, penal)
    layout = model.band_layout
    free, width = layout.free, layout.width
    n = free.size
    u = np.zeros(model.mesh.n_dofs)
    f_free = model.load[free]
    # norms of vectors scaled by a power of two: exact, and |f|^2 cannot overflow
    unit = np.ldexp(1.0, -np.frexp(np.abs(f_free).max())[1])
    fnorm = float(np.linalg.norm(unit * f_free))
    if fnorm == 0.0:
        return Displacement(u, 0.0)
    ke = model.ke
    weights = (scale[:, None] * ke[layout.pairs][None, :]).ravel()
    band = np.bincount(layout.band_index, weights, minlength=(width + 1) * n + 1)
    band = band[:-1].reshape((width + 1, n), order="F")

    def residual(x):
        return f_free - _stiffness_product(layout, scale, ke, x)

    try:
        # the residual is formed element by element, so the factor may
        # overwrite the band
        factor = (cholesky_banded(band, overwrite_ab=True, check_finite=False), False)
    except np.linalg.LinAlgError as exc:
        raise SolverBreakdown(f"banded Cholesky factor failed: {exc}") from exc
    u_free = cho_solve_banded(factor, f_free, check_finite=False)
    # refine while the residual misses the bound and still falls: the huge
    # solid/ersatz stiffness contrast of nearly binary designs costs accuracy
    r = residual(u_free)
    res = float(np.linalg.norm(unit * r)) / fnorm
    for _ in range(8):
        if res <= RESIDUAL_TOL:
            break
        u_try = u_free + cho_solve_banded(factor, r, check_finite=False)
        r_try = residual(u_try)
        res_try = float(np.linalg.norm(unit * r_try)) / fnorm
        if not res_try < res:
            break
        u_free, r, res = u_try, r_try, res_try
    if strict and not res <= RESIDUAL_TOL:  # a nan residual fails too
        raise SolverBreakdown(f"linear solve residual {res:.3e} exceeds {RESIDUAL_TOL}", res)
    u[free] = u_free
    return Displacement(u, res)


def element_energies(model, u):
    """Per-element gains w_e = 1/2 E u_e . K_e u_e at full modulus.

    The gain measures what each element would store under the current
    displacement field, independent of its present density.
    """
    uvec = u.u if isinstance(u, Displacement) else np.asarray(u, dtype=float)
    ue = uvec[model.mesh.element_dofs]
    w = 0.5 * model.material.E * np.einsum("ni,ij,nj->n", ue, model.ke, ue)
    return np.maximum(w, 0.0)


def compliance(u, f):
    """Work of the applied load at equilibrium, 1/2 f.u."""
    uvec = u.u if isinstance(u, Displacement) else np.asarray(u, dtype=float)
    return 0.5 * float(np.dot(np.asarray(f, dtype=float), uvec))


def strain_energy(u, K):
    """Stored energy 1/2 u.K u for a (sparse) stiffness K."""
    uvec = u.u if isinstance(u, Displacement) else np.asarray(u, dtype=float)
    return 0.5 * float(uvec @ (K @ uvec))
