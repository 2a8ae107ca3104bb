"""Command-line front end.

Every subcommand reads a JSON config (symbol / perturbation / domains /
experiment / seed), loaded once in ``main``, and writes JSON or plot-ready
tables through ``harness.write_table``.  Exit codes:
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


def _finite(flag: str, parts) -> list:
    """float(p) for each of ``parts`` of the flag's value, refusing NaN and
    infinities."""
    values = [float(p) for p in parts]
    for p, v in zip(parts, values):
        if not math.isfinite(v):
            raise ValueError(f"{flag} must be finite, not {p!r}")
    return values


def _parse_z(text: str) -> complex:
    re, im = _finite("--z", text.split(","))
    return complex(re, im)


def _parse_grid(text: str):
    """'-1:1:40,-0.5:0.5:30' -> complex meshgrid."""
    re_part, im_part = text.split(",")
    r0, r1, rn = re_part.split(":")
    i0, i1, im_n = im_part.split(":")
    r0, r1, i0, i1 = _finite("--grid", (r0, r1, i0, i1))
    res = np.linspace(r0, r1, int(rn))
    ims = np.linspace(i0, i1, int(im_n))
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


def _rule_truncation(cfg, h: float) -> discretize.FourierTruncation:
    """The rule's truncation at h for the first domain."""
    K = cfg.truncation_K(h, cfg.domains[0].bound_radius())
    return discretize.FourierTruncation(K=K, n=cfg.sym.n, h=h)


def cmd_symbol_scan(args, cfg) -> int:
    """Region map over a z grid; a point whose root scan does not converge
    is written with NonConvergence as its region, and the run exits 3."""
    nx, ny = (int(v) for v in args.grid.split("x"))
    if args.zbox:
        re0, re1, im0, im1 = _finite("--zbox", args.zbox.split(","))
    else:
        r = cfg.domains[0].bound_radius()
        re0, re1, im0, im1 = -r, r, -r, r
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "region_map.csv")
    failed = []

    def rows():
        for re in np.linspace(re0, re1, nx):
            for im in np.linspace(im0, im1, ny):
                try:
                    cls = symbol.classify_region(cfg.sym, complex(re, im))
                    yield (re, im, cls.kind.value, cls.inventory.beta,
                           cls.inventory.gamma)
                except NonConvergence:
                    failed.append((re, im))
                    yield re, im, "NonConvergence", "", ""

    harness.write_table(path, ("re", "im", "region", "beta", "gamma"), rows())
    print(path)
    if failed:
        print(f"numerical failure at {len(failed)} of {nx * ny} points",
              file=sys.stderr)
    return 3 if failed else 0


def cmd_roots(args, cfg) -> int:
    inv = symbol.find_roots(cfg.sym, _parse_z(args.z))
    json.dump(_inventory_json(inv), sys.stdout, indent=2)
    print()
    return 0


def cmd_weyl(args, cfg) -> int:
    if int(args.domain) not in range(len(cfg.domains)):
        raise ValueError(f"--domain {args.domain}: no such domain in config")
    dom = cfg.domains[int(args.domain)]
    res = domains.weyl_measure(cfg.sym, dom)
    out = {"measure": res.value, "bound": res.bound, "grid": res.grid,
           "evaluations": res.evaluations}
    if cfg.mode == "semiclassical":
        out["prediction"] = {repr(h): res.value / (symbol.TWO_PI * h)
                             for h in cfg.h_list}
    else:
        out["prediction"] = res.value / symbol.TWO_PI
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def cmd_assemble(args, cfg) -> int:
    """The matrix file: a header (side, n, K, h), then one line of
    'Re Im' pairs per matrix row, all space-separated."""
    t = discretize.FourierTruncation(K=int(args.K), n=cfg.sym.n,
                                     h=float(args.h))
    mat = discretize.assemble_operator(cfg.sym, t)
    harness.write_table(args.out, (t.side, t.n, t.K, t.h),
                        mat.entries.view(float), sep=" ")
    print(args.out)
    return 0


def cmd_spectrum(args, cfg) -> int:
    h = float(args.h)
    mat = discretize.assemble_operator(cfg.sym, _rule_truncation(cfg, h))
    if args.delta is not None and float(args.delta) != 0.0:
        seed = int(args.seed) if args.seed is not None else cfg.seed
        spec = randomness.SeedSpec(seed, "spectrum", int(args.trial))
        draw = randomness.sample_draw(cfg.require_law(), spec, h)
        mat = discretize.perturbed_operator(mat, draw, float(args.delta))
    eigs = discretize.eigenvalues(mat)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "spectrum.csv")
    harness.write_table(path, ("re", "im"), zip(eigs.real, eigs.imag))
    print(path)
    return 0


def cmd_pseudospec(args, cfg) -> int:
    h = float(args.h)
    grid = _parse_grid(args.grid)
    smap = discretize.sigma_min_map(cfg.sym, h, _rule_truncation(cfg, h),
                                    grid)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sigma_min.csv")
    harness.write_table(path, ("re", "im", "sigma_min"),
                        zip(grid.real.ravel(), grid.imag.ravel(),
                            smap.ravel()))
    print(path)
    return 0


def cmd_quasimode(args, cfg) -> int:
    """One table per plus-root: x, then Re and Im of each component."""
    z = _parse_z(args.z)
    h = float(args.h)
    inv = symbol.find_roots(cfg.sym, z)
    plus = [r for r in inv.roots if r.sign == "plus"]
    if not plus:
        raise HypothesisViolation(f"no plus-root at z = {z}")
    K = cfg.truncation_K(h, abs(z))
    header = ["x", *(f"{part}{i}" for i in range(cfg.sym.n)
                     for part in ("re", "im"))]
    os.makedirs(args.out, exist_ok=True)
    paths = []
    for idx, root in enumerate(plus):
        q = quasimode.build_quasimode(cfg.sym, z, root, h, 8 * (2 * K + 1),
                                      inventory=inv)
        path = os.path.join(args.out, f"quasimode_plus_{idx}.csv")
        harness.write_table(path, header,
                            np.column_stack((q.x, q.samples.view(float))))
        paths.append(path)
    print("\n".join(paths))
    return 0


def cmd_mc(args, cfg, mode: str) -> int:
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
        sp.set_defaults(func=lambda a, c, m=mode: cmd_mc(a, c, m))

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, harness.load_config(args.config))
    except (ValueError, KeyError, OSError) as exc:
        print(f"config/hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except WeylabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
