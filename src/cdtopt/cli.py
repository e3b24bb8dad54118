"""Command-line interface and output serialization.

Subcommands: ``run`` (a benchmark with one method), ``demo`` (the
closed-form studies), ``probe`` (wall time per method across cantilever
sizes).  Densities are written as portable graymaps, convergence logs as
CSV.  A plain ``key = value`` config file can seed any flag; explicit flags
win.  Exit codes: 0 success, 1 usage error (nothing runs and no output
directory is created), 2 solver error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import analytic, knapsack
from .baselines import METHODS, method_config, run_method
from .driver import DriverError
from .fem import FemError, Material
from .problems import PROBLEMS, build_cantilever2d

__all__ = [
    "UsageError",
    "parse_cli",
    "write_density_pgm",
    "write_runrecord_csv",
    "main",
]

OUT_DIR_ENV = "CDTOPT_OUT"
CSV_HEADER = "gamma,inner_iters,volume,compliance,strain_energy,P_u,P_dual,elapsed_ms"


class UsageError(Exception):
    """Bad flags or config values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_run(sub):
    p = sub.add_parser("run", help="optimize a benchmark problem")
    p.add_argument("--problem", choices=tuple(PROBLEMS), default="mbb")
    p.add_argument("--nelx", type=int, default=60)
    p.add_argument("--nely", type=int, default=20)
    p.add_argument("--nelz", type=int, default=4)
    p.add_argument("--volfrac", type=float, default=0.4)
    p.add_argument("--mu", type=float, default=0.97)
    p.add_argument("--method", choices=tuple(METHODS), default="cdt")
    p.add_argument("--E", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=0.3)
    p.add_argument("--emin", type=float, default=1e-9)
    p.add_argument("--omega2", type=float, default=1e-2)
    p.add_argument("--penal", type=float, default=3.0)
    p.add_argument("--rmin", type=float, default=1.5)
    p.add_argument("--max-outer", type=int, default=2000)
    p.add_argument("--load", type=float, default=1.0)
    p.add_argument("--ascii-pgm", action="store_true",
                   help="write plain-text P2 graymaps instead of binary P5")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)


def _add_demo(sub):
    p = sub.add_parser("demo", help="run a closed-form demonstration")
    p.add_argument("--name", required=True,
                   choices=("buridan", "truss", "simp-surface", "double-well"))
    p.add_argument("--w-base", type=float, default=2.0)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--no-perturb", action="store_true",
                   help="disable the deterministic tie-break perturbation")
    p.add_argument("--a", type=float, default=(2.0 - math.sqrt(2.0)) / 2.0)
    p.add_argument("--b", type=float, default=(4.0 + math.sqrt(2.0)) / 2.0)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--resolution", type=float, default=1e-4)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=2.0)
    p.add_argument("--f", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)


def _add_probe(sub):
    p = sub.add_parser("probe", help="wall-time sweep over mesh sizes")
    p.add_argument("--sizes", default="20x8,40x16,60x24,80x30",
                   help="comma-separated nelx x nely pairs, e.g. 20x8,40x16")
    p.add_argument("--volfrac", type=float, default=0.5)
    p.add_argument("--mu", type=float, default=0.97)
    p.add_argument("--methods", default="cdt,beso",
                   help=f"comma-separated, from {', '.join(METHODS)}")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)


def _read_config(path):
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"config line not of the form key = value: {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def parse_cli(argv):
    """Parse argv into (subcommand, options dict); raises UsageError on bad
    input.  Value ranges are left to the configs, problem builders and Mesh."""
    parser = _Parser(prog="cdtopt", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    _add_run(sub)
    _add_demo(sub)
    _add_probe(sub)

    # config-file values become flags placed before the explicit ones, so
    # that argparse converts and checks them and every explicit flag wins
    ns = parser.parse_args(argv)
    if getattr(ns, "config", None):
        # keyed on the flag name, not its dest: ``lambda``, not ``lam``
        actions = {opt.lstrip("-").replace("-", "_"): a
                   for a in sub.choices[ns.subcommand]._actions if a.dest != "help"
                   for opt in a.option_strings}
        seeded = []
        for key, raw in _read_config(ns.config).items():
            if key not in actions:
                raise UsageError(f"unknown config key {key!r}")
            flag = actions[key].option_strings[0]
            if not isinstance(actions[key].default, bool):
                seeded.append(f"{flag}={raw}")
            elif raw.lower() in ("1", "true", "yes", "on"):
                seeded.append(flag)
            elif raw.lower() not in ("0", "false", "no", "off"):
                raise UsageError(f"config key {key!r} takes 1/true/yes/on or "
                                 f"0/false/no/off, not {raw!r}")
        at = argv.index(ns.subcommand) + 1
        ns = parser.parse_args(argv[:at] + seeded + argv[at:])

    opts = vars(ns).copy()
    cmd = opts.pop("subcommand")
    if cmd == "probe":
        unknown = [m for m in opts["methods"].split(",") if m not in METHODS]
        if unknown:
            raise UsageError(f"unknown method(s) {unknown}; choose from {list(METHODS)}")
    return cmd, opts


def _out_dir(options):
    out = options.get("out") or os.environ.get(OUT_DIR_ENV) or "./out"
    os.makedirs(out, exist_ok=True)
    return out


def write_density_pgm(rho, mesh, path, ascii_format=False):
    """Write densities as graymaps: solid black, void white, row-major
    top-to-bottom.  3-D meshes produce one file per z-layer with a
    ``_z###`` suffix."""
    grid = np.asarray(rho, dtype=float).reshape(mesh.n_elements)[mesh.element_ids()]
    if mesh.ndim == 2:
        return [_write_pgm_2d(grid, path, ascii_format)]
    stem, ext = os.path.splitext(path)
    return [_write_pgm_2d(grid[:, :, k], f"{stem}_z{k:03d}{ext or '.pgm'}", ascii_format)
            for k in range(mesh.dims[2])]


def _write_pgm_2d(grid, path, ascii_format):
    nelx, nely = grid.shape
    # element at grid position (ex, ey) is pixel (row ey, col ex)
    img = np.rint(255.0 * (1.0 - grid.T)).astype(np.uint8)
    try:
        if ascii_format:
            lines = [f"P2\n{nelx} {nely}\n255\n"]
            lines += [" ".join(str(int(p)) for p in row) + "\n" for row in img]
            with open(path, "w", encoding="ascii") as fh:
                fh.writelines(lines)
        else:
            with open(path, "wb") as fh:
                fh.write(f"P5\n{nelx} {nely}\n255\n".encode("ascii"))
                fh.write(img.tobytes())
    except OSError as exc:
        raise OSError(f"cannot write graymap {path}: {exc}") from exc
    return path


def _write_csv(path, header, rows):
    """One line per row, floats to 12 significant digits, LF newlines."""
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            for row in [header, *rows]:
                fh.write(",".join(f"{x:.12g}" if isinstance(x, float) else str(x)
                                  for x in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    return path


def write_runrecord_csv(record, path):
    """One row per outer iteration (see :data:`CSV_HEADER`)."""
    return _write_csv(path, CSV_HEADER.split(","), (
        [r.gamma, r.inner_iters, r.volume, r.compliance, r.strain_energy, r.P_u,
         r.P_dual, r.elapsed_ms] for r in record.rows))


def _cmd_run(options):
    dims = [options["nelx"], options["nely"]]
    if options["problem"] == "cantilever3d":
        dims.append(options["nelz"])
    material = Material(E=options["E"], nu=options["nu"], E_min=options["emin"])
    model = PROBLEMS[options["problem"]](*dims, load=options["load"], material=material)
    method = options["method"]
    config = method_config(method, options)
    out = _out_dir(options)
    rho, record = run_method(method, model, options["volfrac"], config)
    tag = f"{options['problem']}_{method}"
    write_density_pgm(rho, model.mesh, os.path.join(out, f"{tag}_density.pgm"),
                      ascii_format=options.get("ascii_pgm", False))
    write_runrecord_csv(record, os.path.join(out, f"{tag}_record.csv"))
    print(f"{tag}: {record.outer_iterations} outer iterations, "
          f"volume {record.rows[-1].volume:.6g}, "
          f"compliance {record.final_compliance:.6g}, "
          f"converged {record.converged}")
    return 0


def _cmd_demo(options):
    name = options["name"]
    perturb = not options.get("no_perturb", False)
    if name == "buridan":
        tc, density = analytic.buridan(options["w_base"], options["epsilon"],
                                       perturb=perturb)
        print(f"tau_c {tc.value:.6g} interval {(tc.lo, tc.hi)} "
              f"unique {tc.is_interval} pick {density.support()}")
    elif name == "truss":
        density, potential = analytic.symmetric_truss(options["a"], options["b"],
                                                      options["epsilon"], perturb=perturb)
        print(f"kept group {density.support()} potential {potential:.6g}")
    elif name == "simp-surface":
        res = analytic.simp_counterexample(options["a"], options["b"],
                                           p=options["p"],
                                           grid_resolution=options["resolution"])
        path = _write_csv(os.path.join(_out_dir(options), "simp_surface.csv"),
                          ["rho1", "rho2", "value"], res.grid)
        print(f"boundary argmin {res.argmin} minima {res.minima} -> {path}")
    else:
        res = analytic.double_well_triality(options["beta"], options["lam"], (options["f"],))
        _write_csv(os.path.join(_out_dir(options), "double_well_roots.csv"),
                   ["varsigma", "x", "potential", "dual_potential", "kind"],
                   ([root.varsigma, root.x[0], root.potential, root.dual_potential,
                     root.kind] for root in res.roots))
        for root in res.roots:
            print(f"varsigma {root.varsigma:+.6g} x {root.x[0]:+.6g} "
                  f"potential {root.potential:+.6g} [{root.kind}]")
        if res.symmetric:
            print(f"perturbation minimizers {res.perturbation_minimizers}")
    return 0


def _cmd_probe(options):
    models = []
    for token in options["sizes"].split(","):
        try:
            nelx, nely = (int(n) for n in token.lower().split("x"))
        except ValueError:
            raise ValueError(f"mesh size {token!r} is not of the form NELXxNELY") from None
        models.append(build_cantilever2d(nelx, nely))
    configs = [(m, method_config(m, options)) for m in options["methods"].split(",")]
    out = _out_dir(options)
    rows = []
    try:
        for model in models:
            for method, config in configs:
                t0 = time.perf_counter()
                _, rec = run_method(method, model, options["volfrac"], config)
                rows.append([method, *model.mesh.dims, model.n_elements, rec.outer_iterations,
                             time.perf_counter() - t0,
                             sum(r.fem_ms for r in rec.rows) * 1e-3,
                             sum(r.update_ms for r in rec.rows) * 1e-3, rec.converged])
    finally:  # the runs that finished keep their rows when a later one fails
        path = _write_csv(os.path.join(out, "cost_probe.csv"),
                          ["method", "nelx", "nely", "n_elements", "outer_iters",
                           "total_s", "fem_s", "update_s", "converged"], rows)
    for method, nelx, nely, _, iters, total_s, *_ in rows:
        print(f"{method} {nelx}x{nely}: {iters} iters {total_s:.3f}s")
    print(path)
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cmd, options = parse_cli(argv)
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if cmd == "run":
            return _cmd_run(options)
        if cmd == "demo":
            return _cmd_demo(options)
        return _cmd_probe(options)
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (knapsack.KnapsackError, FemError, DriverError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
