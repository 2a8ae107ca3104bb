"""Command-line front end.

Every subcommand reads a JSON config (symbol / perturbation / domains /
experiment / seed) and writes plot-ready CSV or JSON.  Exit codes:
0 success, 2 config or hypothesis violation (a ValueError, KeyError or
OSError), 3 numerical failure (any other WeylabError).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import discretize, domains, harness, quasimode, randomness, symbol
from .errors import HypothesisViolation, NonConvergence, WeylabError


def _parse_z(text: str) -> complex:
    re, im = (float(p) for p in text.split(","))
    return complex(re, im)


def _parse_grid(text: str):
    """'-1:1:40,-0.5:0.5:30' -> complex meshgrid."""
    re_part, im_part = text.split(",")
    r0, r1, rn = re_part.split(":")
    i0, i1, im_n = im_part.split(":")
    res = np.linspace(float(r0), float(r1), int(rn))
    ims = np.linspace(float(i0), float(i1), int(im_n))
    return res[:, None] + 1j * ims[None, :]


def _inventory_json(inv: symbol.RootInventory) -> dict:
    return {
        "z": [inv.z.real, inv.z.imag],
        "beta": inv.beta,
        "gamma": inv.gamma,
        "degenerate": inv.degenerate,
        "roots": [{"x": r.point.x, "xi": r.point.xi, "sign": r.sign,
                   "bracket": r.bracket} for r in inv.roots],
    }


def cmd_symbol_scan(args) -> int:
    """Region map over a z grid; a point whose root scan does not converge
    is written with NonConvergence as its region, and the run exits 3."""
    cfg = harness.load_config(args.config)
    nx, ny = (int(v) for v in args.grid.split("x"))
    if args.zbox:
        re0, re1, im0, im1 = (float(v) for v in args.zbox.split(","))
    else:
        r = cfg.domains[0].bound_radius()
        re0, re1, im0, im1 = -r, r, -r, r
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "region_map.csv")
    failed = 0
    with open(path, "w") as fh:
        fh.write("re,im,region,beta,gamma\n")
        for re in np.linspace(re0, re1, nx):
            for im in np.linspace(im0, im1, ny):
                try:
                    cls = symbol.classify_region(cfg.sym, complex(re, im))
                    row = (f"{cls.kind.value},{cls.inventory.beta},"
                           f"{cls.inventory.gamma}")
                except NonConvergence:
                    failed += 1
                    row = "NonConvergence,,"
                fh.write(f"{float(re)!r},{float(im)!r},{row}\n")
    print(path)
    if failed:
        print(f"numerical failure at {failed} of {nx * ny} points",
              file=sys.stderr)
    return 3 if failed else 0


def cmd_roots(args) -> int:
    cfg = harness.load_config(args.config)
    inv = symbol.find_roots(cfg.sym, _parse_z(args.z))
    json.dump(_inventory_json(inv), sys.stdout, indent=2)
    print()
    return 0


def cmd_weyl(args) -> int:
    cfg = harness.load_config(args.config)
    if int(args.domain) not in range(len(cfg.domains)):
        raise ValueError(f"--domain {args.domain}: no such domain in config")
    dom = cfg.domains[int(args.domain)]
    res = domains.weyl_measure(cfg.sym, dom)
    out = {"measure": res.value, "bound": res.bound, "grid": res.grid,
           "evaluations": res.evaluations}
    if cfg.mode == "semiclassical":
        out["prediction"] = {repr(h): res.value / (2.0 * math.pi * h)
                             for h in cfg.h_list}
    else:
        out["prediction"] = res.value / (2.0 * math.pi)
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def cmd_assemble(args) -> int:
    cfg = harness.load_config(args.config)
    trunc = discretize.FourierTruncation(K=int(args.K), n=cfg.sym.n,
                                         h=float(args.h))
    mat = discretize.assemble_operator(cfg.sym, trunc)
    discretize.save_matrix(mat, args.out)
    print(args.out)
    return 0


def cmd_spectrum(args) -> int:
    cfg = harness.load_config(args.config)
    h = float(args.h)
    K = cfg.truncation_K(h, cfg.domains[0].bound_radius())
    trunc = discretize.FourierTruncation(K=K, n=cfg.sym.n, h=h)
    mat = discretize.assemble_operator(cfg.sym, trunc)
    if args.delta is not None and float(args.delta) != 0.0:
        seed = int(args.seed) if args.seed is not None else cfg.seed
        spec = randomness.SeedSpec(seed, "spectrum", int(args.trial))
        draw = randomness.sample_draw(cfg.require_law(), spec, h)
        mat = discretize.perturbed_operator(mat, draw, float(args.delta))
    eigs = discretize.eigenvalues(mat)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "spectrum.csv")
    with open(path, "w") as fh:
        fh.write("re,im\n")
        for z in eigs:
            fh.write(f"{float(z.real)!r},{float(z.imag)!r}\n")
    print(path)
    return 0


def cmd_pseudospec(args) -> int:
    cfg = harness.load_config(args.config)
    h = float(args.h)
    K = cfg.truncation_K(h, cfg.domains[0].bound_radius())
    trunc = discretize.FourierTruncation(K=K, n=cfg.sym.n, h=h)
    grid = _parse_grid(args.grid)
    smap = discretize.sigma_min_map(cfg.sym, h, trunc, grid)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sigma_min.csv")
    with open(path, "w") as fh:
        fh.write("re,im,sigma_min\n")
        for zi, si in zip(grid.ravel(), smap.ravel()):
            fh.write(f"{float(zi.real)!r},{float(zi.imag)!r},{float(si)!r}\n")
    print(path)
    return 0


def cmd_quasimode(args) -> int:
    cfg = harness.load_config(args.config)
    z = _parse_z(args.z)
    h = float(args.h)
    inv = symbol.find_roots(cfg.sym, z)
    plus = [r for r in inv.roots if r.sign == "plus"]
    if not plus:
        raise HypothesisViolation(f"no plus-root at z = {z}")
    K = cfg.truncation_K(h, abs(z))
    os.makedirs(args.out, exist_ok=True)
    paths = []
    for idx, root in enumerate(plus):
        q = quasimode.build_quasimode(cfg.sym, z, root, h, 8 * (2 * K + 1),
                                      inventory=inv)
        path = os.path.join(args.out, f"quasimode_plus_{idx}.csv")
        quasimode.save_quasimode(q, path)
        paths.append(path)
    print("\n".join(paths))
    return 0


def cmd_mc(args, mode: str) -> int:
    cfg = harness.load_config(args.config)
    if cfg.mode != mode:
        raise ValueError(f"config mode is {cfg.mode!r}; this subcommand "
                         f"runs {mode!r}")
    runner = (harness.run_semiclassical if mode == "semiclassical"
              else harness.run_highenergy)
    written = harness.write_report(runner(cfg), args.out,
                                   dump_eigs=args.dump_eigs)
    print("\n".join(written.values()))
    return 0


Z_HELP = "--z=RE,IM; a value that starts with '-' needs '='"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="weylab",
        description="eigenvalue statistics of randomly perturbed "
                    "differential operators on the circle")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True)

    sp = sub.add_parser("symbol-scan", help="map of the spectral regions")
    common(sp)
    sp.add_argument("--grid", default="40x40")
    sp.add_argument("--zbox", help="--zbox=re0,re1,im0,im1 (default: "
                    "domain box); a value that starts with '-' needs '='")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_symbol_scan)

    sp = sub.add_parser("roots", help="root inventory at one z")
    common(sp)
    sp.add_argument("--z", required=True, help=Z_HELP)
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("weyl", help="phase-space measure and prediction")
    common(sp)
    sp.add_argument("--domain", default="0", help="index into domains[]")
    sp.set_defaults(func=cmd_weyl)

    sp = sub.add_parser("assemble", help="export the truncated matrix")
    common(sp)
    sp.add_argument("--h", required=True)
    sp.add_argument("--K", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_assemble)

    sp = sub.add_parser("spectrum", help="eigenvalues of one truncation")
    common(sp)
    sp.add_argument("--h", required=True)
    sp.add_argument("--delta")
    sp.add_argument("--seed")
    sp.add_argument("--trial", default="0")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("pseudospec", help="sigma_min map over a z-grid")
    common(sp)
    sp.add_argument("--h", required=True)
    sp.add_argument("--grid", required=True,
                    help="--grid=re0:re1:n,im0:im1:n; a value that "
                    "starts with '-' needs '='")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_pseudospec)

    sp = sub.add_parser("quasimode", help="WKB quasimode tables at one z")
    common(sp)
    sp.add_argument("--z", required=True, help=Z_HELP)
    sp.add_argument("--h", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_quasimode)

    for name, mode in (("mc-semiclassical", "semiclassical"),
                       ("mc-highenergy", "highenergy")):
        sp = sub.add_parser(name, help=f"{mode} Monte Carlo experiment")
        common(sp)
        sp.add_argument("--out", required=True)
        sp.add_argument("--dump-eigs", action="store_true")
        sp.set_defaults(func=lambda a, m=mode: cmd_mc(a, m))

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"config/hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except WeylabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
