import numpy as np
import pytest

from cdtopt import cli, fem
from cdtopt.problems import (
    PROBLEMS,
    build_cantilever2d,
    build_cantilever3d,
    build_mbb,
)


def reduced_spd(model):
    K = fem.assemble(model, np.ones(model.n_elements))
    free = fem.free_dofs(model)
    np.linalg.cholesky(K[free][:, free].toarray())


def test_mbb_load_and_supports():
    nelx, nely = 12, 4
    model = build_mbb(nelx, nely)
    nz = np.flatnonzero(model.load)
    assert nz.tolist() == [1] and model.load[1] == -1.0
    assert model.fixed_dofs.size == nely + 2
    reduced_spd(model)


def test_mbb_dims_match_published_domain():
    model = build_mbb(180, 60)
    assert model.mesh.dims == (180, 60)
    assert model.mesh.n_elements == 180 * 60


def test_cantilever2d_load_and_supports():
    nelx, nely = 10, 6
    model = build_cantilever2d(nelx, nely)
    nz = np.flatnonzero(model.load)
    tip = nelx * (nely + 1) + nely
    assert nz.tolist() == [2 * tip + 1]
    assert model.fixed_dofs.size == 2 * (nely + 1)
    reduced_spd(model)


def test_cantilever3d_load_normalized_and_supports():
    nelx, nely, nelz = 4, 2, 3
    model = build_cantilever3d(nelx, nely, nelz)
    assert model.load.sum() == pytest.approx(-1.0)
    assert model.fixed_dofs.size == 3 * (nely + 1) * (nelz + 1)
    reduced_spd(model)


@pytest.mark.parametrize("dims", [(4, 2, 3), (3, 5, 1), (1, 1, 1)])
def test_cantilever3d_clamps_x0_face_and_loads_tip_edge(dims):
    # node (i, j, k) is k*(nelx+1)*(nely+1) + i*(nely+1) + j (fem docstring)
    nelx, nely, nelz = dims
    model = build_cantilever3d(*dims)
    layer = (nelx + 1) * (nely + 1)
    face = [k * layer + j for k in range(nelz + 1) for j in range(nely + 1)]
    assert model.fixed_dofs.tolist() == sorted(3 * n + c for n in face for c in range(3))
    edge = [k * layer + nelx * (nely + 1) + nely for k in range(nelz + 1)]
    expected = np.zeros(model.mesh.n_dofs)
    expected[[3 * n + 1 for n in edge]] = -1.0 / (nelz + 1)
    assert np.array_equal(model.load, expected)


def test_cantilever3d_small_beam_solvable():
    model = build_cantilever3d(4, 1, 1)
    u = fem.solve_equilibrium(model, np.ones(model.n_elements))
    assert u.residual <= 1e-10
    c = fem.compliance(u, model.load)
    assert np.isfinite(c) and c > 0.0


def test_problem_table_dispatch(tmp_path):
    assert PROBLEMS["mbb"](8, 4).mesh.dims == (8, 4)
    assert PROBLEMS["cantilever3d"](4, 2, 2).mesh.ndim == 3
    # every table entry is a `run --problem` choice, built with its own dims
    for name in PROBLEMS:
        code = cli.main(["run", "--problem", name, "--nelx", "6", "--nely", "3",
                         "--nelz", "2", "--volfrac", "1", "--method", "beso",
                         "--out", str(tmp_path)])
        assert code == 0
    assert len(list(tmp_path.glob("cantilever3d_beso_density_z*.pgm"))) == 2


def test_problem_table_validation(capsys):
    assert cli.main(["run", "--problem", "bridge"]) == 1
    assert "bridge" in capsys.readouterr().err
    assert cli.main(["run", "--problem", "mbb", "--nelx", "1", "--nely", "1"]) == 1
    with pytest.raises(ValueError):
        build_mbb(1, 1)
