"""Command-line front end: distances, cells, strata, plans, figures, checks.

All machine output renders rationals as "p/q" strings; decimals appear only
in human-readable columns.  Identical arguments (including --seed) produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
from collections import defaultdict
from fractions import Fraction

from ._exact import InvariantError
from .cut_polytope import CutPolytope, cut_polytope
from .klein_space import format_rat, minimal_lifts, project, squared_distance
from .oracle import brute_distance, brute_vertices, certify_vertices
from .planner import plan
from .stratification import catalog, classify

__all__ = ["main"]


def _parse_point(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(tok.strip()) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad point {text!r}: {exc}") from None


def _decimal_sqrt(value: Fraction, digits: int) -> str:
    """Truncated decimal square root of a nonnegative rational."""
    scale = 10 ** digits
    root = math.isqrt(value.numerator * scale * scale // value.denominator)
    whole, frac = divmod(root, scale)
    return f"{whole}.{frac:0{digits}d}" if digits else str(whole)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pt_str(coords) -> str:
    return "(" + ", ".join(format_rat(c) for c in coords) + ")"


# ---------------------------------------------------------------------------
# figure emitters
# ---------------------------------------------------------------------------

def _polygon_cycle(vertex_ids, edges) -> list[int]:
    """Walk the cycle of a 2-dimensional face; deterministic start/direction."""
    adj = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    start = min(vertex_ids)
    cycle = [start, min(adj[start])]
    while len(cycle) < len(vertex_ids):
        nxt = [v for v in adj[cycle[-1]] if v != cycle[-2]]
        cycle.append(nxt[0])
    return cycle


def _hexagon_label(cell: CutPolytope, v) -> str:
    a1, a2 = cell.point.rep
    if not v.support.members:
        return "V+" if v.coords[1] > a2 else "V-"
    s1 = "+" if v.coords[0] > a1 else "-"
    s2 = "+" if v.coords[1] > a2 else "-"
    return f"C{s1}{s2}"


def _svg_cell(cell: CutPolytope) -> str:
    if cell.n != 2:
        raise ValueError("SVG output needs a 2-dimensional cell")
    verts = cell.vertices()
    faces = cell.face_lattice()
    edges = [f.vertex_ids for f in faces if f.dim == 1]
    cycle = _polygon_cycle(tuple(range(len(verts))), edges)
    xs = [float(v.coords[0]) for v in verts]
    ys = [float(v.coords[1]) for v in verts]
    pad, scale = 0.42, 170.0
    x0, y1 = min(xs) - pad, max(ys) + pad
    w = (max(xs) - min(xs) + 2 * pad) * scale
    h = (max(ys) - min(ys) + 2 * pad) * scale

    def fx(x): return (float(x) - x0) * scale
    def fy(y): return (y1 - float(y)) * scale

    cx = sum(xs) / len(xs)
    cy = sum(ys) / len(ys)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
        f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">',
        '<style>text{font:italic 15px serif}</style>',
    ]
    pts = " ".join(f"{fx(verts[i].coords[0]):.2f},{fy(verts[i].coords[1]):.2f}"
                   for i in cycle)
    lines.append(f'<polygon points="{pts}" fill="#eef4ff" stroke="#1a33aa" '
                 'stroke-width="1.6"/>')
    a = cell.point.rep
    lines.append(f'<circle cx="{fx(a[0]):.2f}" cy="{fy(a[1]):.2f}" r="3" '
                 'fill="#aa1a1a"/>')
    lines.append(f'<text x="{fx(a[0]) + 7:.2f}" y="{fy(a[1]) - 6:.2f}">P</text>')
    for v in verts:
        x, y = float(v.coords[0]), float(v.coords[1])
        lines.append(f'<circle cx="{fx(x):.2f}" cy="{fy(y):.2f}" r="3" '
                     'fill="#1a33aa"/>')
        # nudge the label outward from the centroid
        dx, dy = x - cx, y - cy
        nrm = math.hypot(dx, dy) or 1.0
        lx, ly = x + 0.17 * dx / nrm, y + 0.17 * dy / nrm
        lines.append(f'<text x="{fx(lx) - 12:.2f}" y="{fy(ly) + 5:.2f}">'
                     f'{_hexagon_label(cell, v)}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _off_cell(cell: CutPolytope) -> str:
    if cell.n != 3:
        raise ValueError("OFF output needs a 3-dimensional cell")
    verts = cell.vertices()
    faces = cell.face_lattice()
    edges = [f for f in faces if f.dim == 1]
    facets = [f for f in faces if f.dim == 2]
    normals = {key: nrm for key, nrm, _ in cell.integer_rows()}
    lines = ["OFF", f"{len(verts)} {len(facets)} {len(edges)}"]
    for v in verts:
        lines.append(" ".join(f"{float(c):.12g}" for c in v.coords))
    for f in facets:
        ids = set(f.vertex_ids)
        own_edges = [e.vertex_ids for e in edges if set(e.vertex_ids) <= ids]
        cycle = _polygon_cycle(f.vertex_ids, own_edges)
        nrm = normals[f.active[0]]
        p0 = verts[cycle[0]].coords
        vol = Fraction(0)
        for i in range(1, len(cycle) - 1):
            u = [verts[cycle[i]].coords[k] - p0[k] for k in range(3)]
            w = [verts[cycle[i + 1]].coords[k] - p0[k] for k in range(3)]
            cross = (u[1] * w[2] - u[2] * w[1],
                     u[2] * w[0] - u[0] * w[2],
                     u[0] * w[1] - u[1] * w[0])
            vol += sum(c * nk for c, nk in zip(cross, nrm))
        if vol < 0:
            cycle.reverse()
        lines.append(f"{len(cycle)} " + " ".join(str(i) for i in cycle))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_distance(args) -> int:
    if args.digits < 0:
        raise ValueError(f"--digits must be at least 0, got {args.digits}")
    y, z = project(args.P), project(args.Q)
    d2 = squared_distance(y, z)
    dec = _decimal_sqrt(d2, args.digits)
    if args.format == "json":
        _emit(json.dumps({"d_squared": format_rat(d2), "d": dec},
                         indent=2) + "\n", args.out)
    else:
        _emit(f"d^2 = {format_rat(d2)}\nd   = {dec}\n", args.out)
    return 0


def _cmd_geodesics(args) -> int:
    y, z = project(args.P), project(args.Q)
    lifts = minimal_lifts(y.rep, z)
    if args.format == "json":
        data = {"count": len(lifts),
                "lifts": [[format_rat(c) for c in q] for q in lifts]}
        _emit(json.dumps(data, indent=2) + "\n", args.out)
    else:
        rows = [f"{len(lifts)} minimal geodesic(s) from {_pt_str(y.rep)}:"]
        rows += ["  -> " + _pt_str(q) for q in lifts]
        _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_polytope(args) -> int:
    cell = cut_polytope(project(args.P))
    if args.format == "svg":
        _emit(_svg_cell(cell), args.out)
    elif args.format == "off":
        _emit(_off_cell(cell), args.out)
    elif args.format == "json":
        _emit(json.dumps(cell.to_json(), indent=2) + "\n", args.out)
    else:
        dims = defaultdict(int)
        for f in cell.face_lattice():
            dims[f.dim] += 1
        verts = cell.vertices()
        kinds = defaultdict(int)
        for v in verts:
            kinds[v.kind] += 1
        rows = [f"cell at P = {_pt_str(cell.point.rep)}",
                f"  halfspaces: {len(cell.integer_rows())}",
                f"  vertices:   {len(verts)} "
                + "(" + ", ".join(f"{k} {kinds[k]}" for k in sorted(kinds)) + ")",
                "  faces:      "
                + ", ".join(f"dim {d}: {dims[d]}" for d in sorted(dims))]
        _emit("\n".join(rows) + "\n", args.out)
    return 0


def _domain_short(kinds) -> str:
    head = "".join("i" if k == "interval" else "p" for k in kinds[:-1])
    return head + ("|i" if kinds[-1] == "interval" else "|.")


def _cmd_strata(args) -> int:
    if (args.P is None) == (args.catalog is None):
        print("error: strata takes exactly one of --P and --catalog, got "
              + ("neither" if args.P is None else "both"), file=sys.stderr)
        raise SystemExit(2)
    if args.P is not None:
        s = classify(project(args.P).rep)
        if args.format == "json":
            _emit(json.dumps(s.to_json(), indent=2) + "\n", args.out)
        else:
            zeros = [list(sub) for sub, sg in s.alpha.items() if sg == 0]
            negs = [list(sub) for sub, sg in s.alpha.items() if sg == -1]
            rows = [f"point   {_pt_str(s.witness)}",
                    f"domain  {_domain_short(s.domain.kinds)}",
                    f"dim     {s.dim}",
                    f"zeros   {zeros}",
                    f"negs    {negs}"]
            if s.coincidence:
                rows.append("coincidence stratum")
            _emit("\n".join(rows) + "\n", args.out)
        return 0
    strata = catalog(args.catalog)
    if args.format == "json":
        _emit(json.dumps([s.to_json() for s in strata], indent=2) + "\n",
              args.out)
        return 0
    rows = [f"{len(strata)} strata for n = {args.catalog}",
            f"{'domain':<10}{'dim':<5}{'zeros':<7}{'negs':<6}witness"]
    for s in strata:
        zeros = sum(1 for _, sg in s.alpha.items() if sg == 0)
        negs = sum(1 for _, sg in s.alpha.items() if sg == -1)
        mark = "  (coincidence)" if s.coincidence else ""
        rows.append(f"{_domain_short(s.domain.kinds):<10}{s.dim:<5}"
                    f"{zeros:<7}{negs:<6}{_pt_str(s.witness)}{mark}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_plan(args) -> int:
    result = plan(project(args.P), project(args.Q), samples=args.samples)
    if args.format == "json":
        _emit(json.dumps(result.to_json(), indent=2) + "\n", args.out)
    else:
        rows = [f"index    {result.index} "
                f"(stratum {result.stratum_dim} + face {result.face_dim})",
                f"face     {list(result.face_key)}",
                f"lift     {_pt_str(result.lift)}"]
        for s in result.samples:
            rows.append(f"  sample {_pt_str(s.rep)}")
        _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_figure(args) -> int:
    if args.kind == "hexagon":
        point = args.P or (Fraction(1, 4), Fraction(0))
        _emit(_svg_cell(cut_polytope(project(point))), args.out)
    else:
        point = args.P or (Fraction(3, 10), Fraction(1, 5), Fraction(1, 7))
        _emit(_off_cell(cut_polytope(project(point))), args.out)
    return 0


def _random_rational(rng: random.Random) -> Fraction:
    den = rng.choice((7, 9, 11, 12, 13, 20, 60))
    return Fraction(rng.randrange(0, den), den)


def _first_difference(mine: list, brute: list) -> str:
    """The first place, in sorted order, where a sorted claimed vertex list
    differs from the exhaustive oracle's list (the lists must differ)."""
    for got, want in itertools.zip_longest(mine, brute):
        if got != want:
            if want is None or (got is not None and got < want):
                return f"extra point {_pt_str(got)}"
            return f"missing vertex {_pt_str(want)}"


#: Largest dimension that `verify` checks: each trial builds and certifies
#: a cell of about 2*3^(n-1) vertices, which took 0.64-0.72 s and 42 MB at
#: n = 9 and 3.7-3.9 s and 136 MB at n = 10 (one trial, 2-core host).
VERIFY_N_MAX = 10


def _cmd_verify(args) -> int:
    if args.samples < 1:
        # zero trials would check nothing and still print "pass"
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.n > VERIFY_N_MAX:
        raise ValueError(
            f"verify is limited to n <= {VERIFY_N_MAX}: the cell at "
            f"n = {args.n} has about {2 * 3 ** (args.n - 1)} vertices")
    rng = random.Random(args.seed)
    n = args.n
    failures = []
    lines = []
    for trial in range(args.samples):
        base = tuple(_random_rational(rng) for _ in range(n))
        cell = cut_polytope(project(base))
        claimed = [v.coords for v in cell.vertices()]
        # the cell's halfspaces scaled by 2D, on integers
        pairs = [(nrm, off) for _, nrm, off in cell.integer_rows()]
        if n <= 5:
            brute = brute_vertices(pairs)
            mine = sorted(claimed)
            ok = mine == brute
            cause = None if ok else _first_difference(mine, brute)
            detail = f"{len(claimed)} vertices, exhaustive"
        else:
            report = certify_vertices(pairs, claimed)
            ok = report.ok
            cause = None if ok else report.problems[0]
            detail = f"{len(claimed)} vertices, {report.edge_count} edges"
        if not ok:
            failures.append(f"vertex mismatch at P = {_pt_str(base)}: {cause}")
        y = project(tuple(_random_rational(rng) for _ in range(n)))
        z = project(tuple(_random_rational(rng) for _ in range(n)))
        d_ok = squared_distance(y, z) == brute_distance(y, z)
        if not d_ok:
            failures.append(f"distance mismatch for {_pt_str(y.rep)} "
                            f"-> {_pt_str(z.rep)}")
        lines.append(f"trial {trial:3d}: P = {_pt_str(base)}: "
                     f"{detail}: {'ok' if ok and d_ok else 'FAIL'}")
    lines.append("FAIL\n" + "\n".join(failures) if failures else "pass")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatklein",
        description="Exact geodesic and cell computations on flat Klein "
                    "bottles of any dimension.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=("json", "text")):
        p.add_argument("--format", choices=fmt, default=fmt[0])
        p.add_argument("--out", default=None, help="write to file")

    p = sub.add_parser("distance", help="quotient distance between points")
    p.add_argument("--P", type=_parse_point, required=True)
    p.add_argument("--Q", type=_parse_point, required=True)
    p.add_argument("--digits", type=int, default=12)
    common(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("geodesics", help="all minimal lifts of a target")
    p.add_argument("--P", type=_parse_point, required=True)
    p.add_argument("--Q", type=_parse_point, required=True)
    common(p)
    p.set_defaults(func=_cmd_geodesics)

    p = sub.add_parser("polytope", help="cell of closest lifts at a point")
    p.add_argument("--P", type=_parse_point, required=True)
    common(p, fmt=("json", "text", "svg", "off"))
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("strata", help="classify a point or list a catalog")
    p.add_argument("--P", type=_parse_point, default=None)
    p.add_argument("--catalog", type=int, default=None, metavar="N")
    common(p)
    p.set_defaults(func=_cmd_strata)

    p = sub.add_parser("plan", help="deterministic geodesic choice for a pair")
    p.add_argument("--P", type=_parse_point, required=True)
    p.add_argument("--Q", type=_parse_point, required=True)
    p.add_argument("--samples", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("figure", help="labeled hexagon SVG or 3-d cell OFF")
    p.add_argument("--kind", choices=("hexagon", "mesh"), default="hexagon")
    p.add_argument("--P", type=_parse_point, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("verify", help="cross-check against brute-force oracles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
