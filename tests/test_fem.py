import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from cdtopt import fem
from cdtopt.driver import CdtConfig, run_cdt
from cdtopt.problems import PROBLEMS, build_cantilever2d, build_cantilever3d, build_mbb


def q4_quadrature_oracle(nu):
    # independent derivation: 2x2 Gauss integration of B' D B on the unit
    # square with nodes counterclockwise from the local origin
    D = np.array([[1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2]]) / (1 - nu * nu)
    nodes = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
    g = 0.5 + np.array([-1, 1]) / (2 * np.sqrt(3))
    K = np.zeros((8, 8))
    for gx in g:
        for gy in g:
            dN = np.empty((4, 2))
            for a, (sx, sy) in enumerate(nodes):
                fx = sx * gx + (1 - sx) * (1 - gx)
                fy = sy * gy + (1 - sy) * (1 - gy)
                dN[a] = [(2 * sx - 1) * fy, fx * (2 * sy - 1)]
            B = np.zeros((3, 8))
            B[0, 0::2] = dN[:, 0]
            B[1, 1::2] = dN[:, 1]
            B[2, 0::2] = dN[:, 1]
            B[2, 1::2] = dN[:, 0]
            K += 0.25 * B.T @ D @ B
    return K


H8_NODES = np.array([
    [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
    [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
], float)


# ---------------------------------------------------------------------------
# element stiffness
# ---------------------------------------------------------------------------

def test_q4_matches_quadrature_oracle():
    ke = fem.element_stiffness_2d(fem.Material())
    assert np.abs(ke - q4_quadrature_oracle(0.3)).max() < 1e-14


def test_q4_corner_entry_closed_form():
    nu = 0.3
    ke = fem.element_stiffness_2d(fem.Material(nu=nu))
    assert ke[0, 0] == pytest.approx((0.5 - nu / 6) / (1 - nu * nu))
    assert ke[0, 0] == pytest.approx(0.494505, abs=1e-6)


def test_q4_rigid_modes():
    ke = fem.element_stiffness_2d(fem.Material())
    tx = np.tile([1.0, 0.0], 4)
    ty = np.tile([0.0, 1.0], 4)
    assert np.abs(ke @ tx).max() < 1e-14
    assert np.abs(ke @ ty).max() < 1e-14
    ev = np.linalg.eigvalsh(ke)
    assert int(np.sum(np.abs(ev) < 1e-12)) == 3
    assert int(np.sum(ev > 1e-12)) == 5


def test_q4_affine_energy_oracle():
    # for u = A x the stored energy is 1/2 eps : D : eps times unit area
    nu = 0.3
    ke = fem.element_stiffness_2d(fem.Material(nu=nu))
    D = np.array([[1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2]]) / (1 - nu * nu)
    nodes = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
    rng = np.random.default_rng(0)
    for _ in range(5):
        A = 0.1 * rng.normal(size=(2, 2))
        u = (nodes @ A.T).ravel()
        eps = 0.5 * (A + A.T)
        voigt = np.array([eps[0, 0], eps[1, 1], 2 * eps[0, 1]])
        assert 0.5 * u @ ke @ u == pytest.approx(0.5 * voigt @ D @ voigt, abs=1e-14)


def test_h8_symmetry_and_rank():
    k3 = fem.element_stiffness_3d(fem.Material())
    assert np.abs(k3 - k3.T).max() == 0.0
    ev = np.linalg.eigvalsh(k3)
    assert int(np.sum(np.abs(ev) < 1e-12)) == 6
    assert int(np.sum(ev > 1e-12)) == 18


def test_h8_rigid_rotation():
    k3 = fem.element_stiffness_3d(fem.Material())
    omega = np.array([0.3, -0.2, 0.5])
    u = np.cross(np.broadcast_to(omega, (8, 3)), H8_NODES).ravel()
    assert np.abs(k3 @ u).max() < 1e-12


def test_h8_affine_energy_oracle():
    k3 = fem.element_stiffness_3d(fem.Material())
    D = fem.elasticity_matrix_3d(0.3)
    rng = np.random.default_rng(1)
    for _ in range(5):
        A = 0.1 * rng.normal(size=(3, 3))
        u = (H8_NODES @ A.T).ravel()
        eps = 0.5 * (A + A.T)
        voigt = np.array([eps[0, 0], eps[1, 1], eps[2, 2],
                          2 * eps[1, 2], 2 * eps[0, 2], 2 * eps[0, 1]])
        assert 0.5 * u @ k3 @ u == pytest.approx(0.5 * voigt @ D @ voigt, abs=1e-14)


def test_h8_quadrature_order_invariance():
    # the integrand is exactly integrated already; a denser rule agrees
    k2 = fem.element_stiffness_3d(fem.Material())
    D = fem.elasticity_matrix_3d(0.3)
    pts, wts = np.polynomial.legendre.leggauss(3)
    pts = 0.5 * (pts + 1.0)
    wts = 0.5 * wts
    K = np.zeros((24, 24))
    for gx, wx in zip(pts, wts):
        for gy, wy in zip(pts, wts):
            for gz, wz in zip(pts, wts):
                dN = fem._h8_shape_gradients(gx, gy, gz, H8_NODES)
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
                K += wx * wy * wz * B.T @ D @ B
    assert np.abs(K - k2).max() < 1e-13


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def small_model(nelx=4, nely=3):
    return build_cantilever2d(nelx, nely)


def test_assemble_full_density_equals_unit_sum():
    model = small_model()
    K1 = fem.assemble(model, np.ones(model.n_elements)).toarray()
    # manual scatter at modulus E
    ke = fem.element_stiffness_2d(model.material)
    edof = model.mesh.element_dofs
    ref = np.zeros_like(K1)
    for e in range(model.n_elements):
        ref[np.ix_(edof[e], edof[e])] += model.material.E * ke
    assert np.abs(K1 - ref).max() <= 1e-9 * np.abs(ref).max()


def test_assemble_zero_density_scales_by_emin():
    model = small_model()
    K0 = fem.assemble(model, np.zeros(model.n_elements))
    K1 = fem.assemble(model, np.ones(model.n_elements))
    ratio = model.material.E_min / (model.material.E_min +
                                    (model.material.E - model.material.E_min))
    assert np.abs(K0.toarray() - ratio * K1.toarray()).max() < 1e-18


def test_assemble_affine_in_rho():
    model = small_model()
    rng = np.random.default_rng(2)
    r1 = rng.uniform(0, 0.5, model.n_elements)
    r2 = rng.uniform(0, 0.5, model.n_elements)
    lhs = (fem.assemble(model, r1) + fem.assemble(model, r2)).toarray()
    rhs = (fem.assemble(model, r1 + r2) + fem.assemble(model, np.zeros_like(r1))).toarray()
    assert np.abs(lhs - rhs).max() < 1e-12


def test_assemble_rejects_bad_rho():
    model = small_model()
    with pytest.raises(ValueError):
        fem.assemble(model, np.ones(model.n_elements + 1))
    with pytest.raises(ValueError):
        fem.assemble(model, np.full(model.n_elements, 1.5))


def test_reduced_stiffness_spd_single_element():
    model = build_cantilever2d(1, 1)
    K = fem.assemble(model, np.ones(1))
    free = fem.free_dofs(model)
    Kff = K[free][:, free].toarray()
    np.linalg.cholesky(Kff)  # raises if not SPD


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------

def test_zero_load_zero_displacement():
    mesh = fem.Mesh((2, 2))
    model = fem.StructuralModel(mesh, fem.Material(),
                                np.arange(2 * (2 + 1)), np.zeros(mesh.n_dofs))
    u = fem.solve_equilibrium(model, np.ones(4))
    assert np.all(u.u == 0.0)


def uniaxial_patch_model(nelx=2, nely=2, traction=1.0):
    # tension along x: tributary nodal loads on the right edge, rollers on
    # the left edge, one vertical support at the bottom-left node
    mesh = fem.Mesh((nelx, nely))
    f = np.zeros(mesh.n_dofs)
    for j in range(nely + 1):
        node = nelx * (nely + 1) + j
        share = 0.5 if j in (0, nely) else 1.0
        f[2 * node] = traction * share
    fixed = [2 * j for j in range(nely + 1)] + [2 * nely + 1]
    return fem.StructuralModel(mesh, fem.Material(), np.array(fixed), f)


def test_patch_test_constant_strain():
    nelx = nely = 2
    model = uniaxial_patch_model(nelx, nely)
    u = fem.solve_equilibrium(model, np.ones(model.n_elements))
    E, nu = model.material.E, model.material.nu
    err = 0.0
    for i in range(nelx + 1):
        for j in range(nely + 1):
            node = i * (nely + 1) + j
            ux = 1.0 / E * i                      # eps_xx = sigma/E = 1
            uy = -nu / E * (-j + nely)            # eps_yy = -nu, zero at j = nely
            err = max(err, abs(u.u[2 * node] - ux), abs(u.u[2 * node + 1] - uy))
    assert err < 1e-10
    # element strains are constant: every element stores the same energy
    w = fem.element_energies(model, u)
    assert np.abs(w - w[0]).max() < 1e-12


def test_equilibrium_linearity_in_load():
    model = build_mbb(8, 4)
    u1 = fem.solve_equilibrium(model, np.ones(model.n_elements))
    doubled = fem.StructuralModel(model.mesh, model.material, model.fixed_dofs,
                                  2.0 * model.load)
    u2 = fem.solve_equilibrium(doubled, np.ones(model.n_elements))
    assert np.abs(u2.u - 2.0 * u1.u).max() < 1e-9 * np.abs(u1.u).max()


def test_equilibrium_residual_invariant():
    model = build_mbb(12, 6)
    rng = np.random.default_rng(3)
    for _ in range(3):
        rho = np.ones(model.n_elements)
        holes = rng.choice(np.arange(12, 60), size=8, replace=False)
        rho[holes] = 0.0
        u = fem.solve_equilibrium(model, rho)
        assert u.residual <= 1e-10


@pytest.mark.parametrize("load", [1e160, 1e300])
def test_strict_solve_measures_the_residual_of_a_huge_load(load):
    # |f|^2 overflows past |f| ~ 1e154: the residual must still be measured
    unit = fem.solve_equilibrium(build_mbb(12, 4), np.ones(48))
    disp = fem.solve_equilibrium(build_mbb(12, 4, load=load), np.ones(48))
    assert 0.0 < disp.residual <= fem.RESIDUAL_TOL
    assert np.abs(disp.u / load - unit.u).max() <= 1e-12 * np.abs(unit.u).max()


def test_strict_solve_raises_on_a_nan_residual():
    # the displacement of a 1e307 load overflows, and so does its residual
    model = build_mbb(12, 4, load=1e307)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(fem.solve_equilibrium(model, np.ones(48), strict=False).residual)
        with pytest.raises(fem.SolverBreakdown, match="nan"):
            fem.solve_equilibrium(model, np.ones(48))


def test_solver_breakdown_on_unsupported(monkeypatch):
    # every dof free except one: singular reduced system
    mesh = fem.Mesh((2, 1))
    f = np.zeros(mesh.n_dofs)
    f[3] = -1.0
    model = fem.StructuralModel(mesh, fem.Material(), np.array([0]), f)
    monkeypatch.setattr(fem.spla, "cg", lambda *a, **k: pytest.fail("CG ran"))
    with pytest.raises(fem.SolverBreakdown):
        fem.solve_equilibrium(model, np.ones(2))


@pytest.mark.parametrize("model", [
    build_cantilever2d(12, 5), build_cantilever2d(5, 12), build_cantilever3d(4, 3, 2),
], ids=["12x5", "5x12", "4x3x2"])
@pytest.mark.parametrize("penal", [1.0, 3.0])
def test_banded_solve_matches_sparse_direct_oracle(model, penal):
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.0, 1.0, model.n_elements)
    disp = fem.solve_equilibrium(model, rho, penal)
    free = fem.free_dofs(model)
    K = fem.assemble(model, rho, penal)
    ref = spla.spsolve(K[free][:, free].tocsc(), model.load[free])
    assert disp.residual <= 1e-10
    assert np.linalg.norm(disp.u[free] - ref) <= 1e-9 * np.linalg.norm(ref)
    assert np.all(np.delete(disp.u, free) == 0.0)


def edge_clamped_model(nelx, nely, axis):
    # both dofs fixed on the edge where the given axis coordinate is 0;
    # downward load at the opposite corner node (nelx, nely)
    mesh = fem.Mesh((nelx, nely))
    i, j = np.indices((nelx + 1, nely + 1)).reshape(2, -1)
    edge = np.flatnonzero((i, j)[axis] == 0)
    f = np.zeros(mesh.n_dofs)
    f[2 * (nelx * (nely + 1) + nely) + 1] = -1.0
    return fem.StructuralModel(mesh, fem.Material(), np.concatenate([2 * edge, 2 * edge + 1]), f)


def test_band_ordering_follows_longest_axis():
    # the transposed problem gets the same band; numbering x outermost on
    # the tall mesh would need 2 * (12 + 2) + 1 = 29
    wide = edge_clamped_model(12, 5, axis=0).band_layout.width
    tall = edge_clamped_model(5, 12, axis=1).band_layout.width
    assert wide == tall == 2 * (5 + 2) + 1


def test_failed_factor_raises_without_cg(monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(fem, "cholesky_banded", broken)
    monkeypatch.setattr(fem.spla, "cg", lambda *a, **k: pytest.fail("CG ran"))
    model = build_mbb(12, 6)
    rho = np.random.default_rng(8).uniform(0.5, 1.0, model.n_elements)
    for strict in (True, False):
        with pytest.raises(fem.SolverBreakdown, match="factor failed"):
            fem.solve_equilibrium(model, rho, strict=strict)


def counted_triangular_solves(monkeypatch):
    # every solution returned by fem.cho_solve_banded, in call order
    solutions = []
    solve = fem.cho_solve_banded

    def counting(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(fem, "cho_solve_banded", counting)
    return solutions


def test_strict_solve_raises_with_the_refined_residual(monkeypatch):
    # a transient CDT design (cantilever 16x6, vf 0.5, mu 0.95, step 12)
    # whose first residual misses 1e-10, so refinement runs, and whose
    # refined residual misses it too
    model = build_cantilever2d(16, 6)
    rho = np.ones(model.n_elements)
    rho[[2, 3, 8, 9, 14, 15, 20, 27, 31, 33, 37, 38, 44, 46, 49, 51, 55, 56, 58, 61, 63,
         64, 68, 69, 70, 72, 74, 75, 76, 78, 79, 81, 82, 84, 85, 86, 88, 89, 90, 91, 92,
         93]] = 0.0
    monkeypatch.setattr(fem.spla, "cg", lambda *a, **k: pytest.fail("CG ran"))
    solutions = counted_triangular_solves(monkeypatch)
    disp = fem.solve_equilibrium(model, rho, strict=False)
    assert len(solutions) > 1
    assert disp.residual == pytest.approx(8.3e-8, rel=0.02)
    with pytest.raises(fem.SolverBreakdown) as info:
        fem.solve_equilibrium(model, rho)
    assert info.value.residual == disp.residual


def hole_layout(model):
    rho = np.ones(model.n_elements)
    rho[model.mesh.element_ids()[10:20, 3:7].ravel()] = 0.0
    return rho


@pytest.mark.parametrize("layout,penal", [
    (lambda m: np.ones(m.n_elements), 1.0),
    (lambda m: np.random.default_rng(5).uniform(0.0, 1.0, m.n_elements), 3.0),
    (hole_layout, 1.0),
], ids=["solid", "random-penal3", "void-hole"])
def test_solve_meeting_the_bound_first_is_one_triangular_solve(monkeypatch, layout, penal):
    model = build_cantilever2d(30, 10)
    rho = layout(model)
    solutions = counted_triangular_solves(monkeypatch)
    disp = fem.solve_equilibrium(model, rho, penal)
    # first residual from the sparse assembly oracle, in band order
    free = model.band_layout.free
    K = fem.assemble(model, rho, penal)[free][:, free]
    f = model.load[free]
    first = np.linalg.norm(f - K @ solutions[0]) / np.linalg.norm(f)
    assert first <= fem.RESIDUAL_TOL
    assert len(solutions) == 1
    assert disp.residual == pytest.approx(first, rel=0.1)


def patch_builder(monkeypatch, cls, name, wrap):
    # the cached property cls.name computes wrap(builder)(obj) from now on
    prop = vars(cls)[name]
    monkeypatch.setattr(prop, "func", wrap(prop.func))


def test_band_layout_built_once_per_model(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solve_equilibrium must not assemble or re-derive free dofs")

    monkeypatch.setattr(fem, "assemble", forbidden)
    monkeypatch.setattr(fem, "free_dofs", forbidden)
    built = []

    def counting(build):
        return lambda model: built.append(model) or build(model)

    patch_builder(monkeypatch, fem.StructuralModel, "band_layout", counting)
    model = build_mbb(16, 6)
    _, _, record = run_cdt(model, CdtConfig(volfrac=0.5, mu=0.95))
    assert record.converged and record.outer_iterations > 1
    assert len(built) == 1 and built[0] is model
    # a second model of the same mesh and supports builds its own
    twin = build_mbb(16, 6)
    fem.solve_equilibrium(twin, np.ones(twin.n_elements))
    assert len(built) == 2 and built[1] is twin


def test_dropped_model_frees_its_band_layout():
    model = build_mbb(16, 6)
    fem.solve_equilibrium(model, np.ones(model.n_elements))
    layout = model.band_layout
    arrays = [weakref.ref(a) for a in (layout.free, layout.pos, layout.band_index)]
    del model, layout
    gc.collect()
    assert [ref() for ref in arrays] == [None, None, None]


def test_building_a_model_computes_no_mesh_or_model_arrays(monkeypatch):
    # setup_s in the benchmark times the model build: it must stay cheap
    def failing(build):
        return lambda obj: pytest.fail(f"{type(obj).__name__} built an array eagerly")

    for cls, name in [(fem.Mesh, "element_dofs"), (fem.StructuralModel, "ke"),
                      (fem.StructuralModel, "band_layout")]:
        patch_builder(monkeypatch, cls, name, failing)
    dims = {"mbb": [(60, 20)], "cantilever": [(120, 40)],
            "cantilever3d": [(24, 8, 4), (48, 16, 8)]}
    for name, build in PROBLEMS.items():
        for d in dims[name]:
            model = build(*d)
            assert model.n_elements == model.mesh.n_elements == np.prod(d)


# ---------------------------------------------------------------------------
# energies, compliance
# ---------------------------------------------------------------------------

def test_element_energies_zero_displacement():
    model = small_model()
    w = fem.element_energies(model, np.zeros(model.mesh.n_dofs))
    assert np.all(w == 0.0)


def test_element_energies_patch_closed_form():
    model = uniaxial_patch_model(1, 1)
    u = fem.solve_equilibrium(model, np.ones(1))
    w = fem.element_energies(model, u)
    # uniaxial stress sigma = 1 on a unit element: energy = sigma^2/(2E)
    assert w[0] == pytest.approx(0.5, rel=1e-10)


def test_element_energies_total_matches_strain_energy():
    model = build_mbb(10, 10)
    rng = np.random.default_rng(4)
    rho = np.ones(model.n_elements)
    rho[rng.choice(model.n_elements, 30, replace=False)] = 0.0
    # keep the load and support corners attached for a clean solve
    rho[:10] = 1.0
    rho[-10:] = 1.0
    u = fem.solve_equilibrium(model, rho, strict=False)
    w = fem.element_energies(model, u)
    total = fem.strain_energy(u, fem.assemble(model, rho))
    assert abs(float(np.dot(rho, w)) - total) <= 1e-6 * abs(total)


def test_compliance_equals_strain_energy_at_equilibrium():
    model = build_mbb(16, 8)
    rho = np.ones(model.n_elements)
    u = fem.solve_equilibrium(model, rho)
    c = fem.compliance(u, model.load)
    s = fem.strain_energy(u, fem.assemble(model, rho))
    assert abs(c - s) <= 1e-8 * abs(c)
    assert fem.compliance(np.zeros(model.mesh.n_dofs), model.load) == 0.0


def test_mbb_full_density_compliance_regression():
    model = build_mbb(60, 20)
    u = fem.solve_equilibrium(model, np.ones(model.n_elements))
    c = fem.compliance(u, model.load)
    assert np.isfinite(c) and c > 0.0
    assert c == pytest.approx(62.938881737, rel=1e-6)


def test_removing_material_never_decreases_compliance():
    model = build_cantilever2d(5, 5)
    rho = np.ones(model.n_elements)
    base = fem.compliance(fem.solve_equilibrium(model, rho), model.load)
    for e in range(model.n_elements):
        flipped = rho.copy()
        flipped[e] = 0.0
        c = fem.compliance(fem.solve_equilibrium(model, flipped, strict=False),
                           model.load)
        assert c >= base * (1.0 - 1e-9)


# ---------------------------------------------------------------------------
# numbering: the formulas of the module docstring, written out per index
# ---------------------------------------------------------------------------

NUMBERING_DIMS = [(1, 1), (3, 2), (5, 7), (1, 1, 1), (2, 2, 2), (4, 3, 2), (3, 5, 6)]


def docstring_node(dims, i, j, k=0):
    nelx, nely = dims[:2]
    return k * (nelx + 1) * (nely + 1) + i * (nely + 1) + j


def docstring_element(dims, ei, ej, ek=0):
    nelx, nely = dims[:2]
    return ek * nelx * nely + ei * nely + ej


def docstring_dof_map(dims):
    ndim = len(dims)
    edof = np.empty((int(np.prod(dims)), ndim * 2 ** ndim), dtype=np.int64)
    for ei, ej, *ek in np.ndindex(*dims):
        # lower-left, lower-right, upper-right, upper-left; j grows downward
        quad = [(ei, ej + 1), (ei + 1, ej + 1), (ei + 1, ej), (ei, ej)]
        layers = [ek[0], ek[0] + 1] if ek else [0]
        nodes = [docstring_node(dims, i, j, k) for k in layers for i, j in quad]
        edof[docstring_element(dims, ei, ej, *ek)] = [
            ndim * n + c for n in nodes for c in range(ndim)]
    return edof


@pytest.mark.parametrize("dims", NUMBERING_DIMS)
def test_element_dof_map_matches_docstring_formulas(dims):
    edof = fem.Mesh(dims).element_dofs
    assert edof.dtype == np.int64
    assert np.array_equal(edof, docstring_dof_map(dims))


@pytest.mark.parametrize("dims", NUMBERING_DIMS)
def test_node_and_element_ids_match_docstring_formulas(dims):
    mesh = fem.Mesh(dims)
    node, element = mesh.node_ids(), mesh.element_ids()
    assert node.shape == tuple(d + 1 for d in dims) and element.shape == dims
    assert all(node[p] == docstring_node(dims, *p) for p in np.ndindex(*node.shape))
    assert all(element[p] == docstring_element(dims, *p) for p in np.ndindex(*dims))


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_mesh_volumes_normalized():
    mesh = fem.Mesh((6, 4))
    v = mesh.element_volumes()
    assert v.shape == (24,)
    assert float(v.sum()) == pytest.approx(1.0)


def test_mesh_validation():
    with pytest.raises(ValueError):
        fem.Mesh((0, 4))
    with pytest.raises(ValueError):
        fem.Mesh((2,))


def test_material_validation():
    with pytest.raises(ValueError):
        fem.Material(E=1e-10, E_min=1e-9)
    with pytest.raises(ValueError):
        fem.Material(nu=0.5)


def test_model_validation():
    mesh = fem.Mesh((2, 2))
    load = np.zeros(mesh.n_dofs)
    with pytest.raises(ValueError):
        fem.StructuralModel(mesh, fem.Material(), np.array([], dtype=int), load)
    bad = load.copy()
    bad[0] = 1.0
    with pytest.raises(ValueError):
        fem.StructuralModel(mesh, fem.Material(), np.array([0]), bad)
