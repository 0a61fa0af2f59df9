"""Command-line front end: group inspection, mirror listings, fixed-point
property checks, full-table reproduction and SVG figures.

Exit codes: 0 success, 1 verdict mismatch against the tabulated expectation,
2 usage errors (unknown groups, bad flags, an output file that cannot be
written).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .catalog import build_group
from .errors import CrystrefError, ExpectedPositiveGroup
from .hyperplanes import rank1_window, reflection_families
from .steinberg import check_counterexample, full_table_report, sweep
from .svgplot import render_window


def _print(data, as_json: bool, human) -> None:
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        human(data)


def cmd_info(args) -> int:
    spec = build_group(args.group)
    data = spec.to_dict()

    def human(d):
        print(f"group        {d['name']}   (r={d['r']}, p={d['p']}, "
              f"n={d['n']}, k={d['k']})")
        print(f"family       {d['family']}")
        print(f"fixed-point property expected: "
              f"{'holds' if d['steinberg'] else 'fails'}")
        print("lattice generators:")
        for gen in d["lattice"]["generators"]:
            print(f"  {gen['coefficients']:16s} * ({', '.join(gen['vector'])})")
        print(f"lattice rank {d['lattice']['rank']}")
        print("linear generators:")
        for g in d["linear_generators"]:
            print(f"  {g}")
        if "counterexample" in d:
            cx = d["counterexample"]
            print("tabulated counterexample:")
            print(f"  {cx['lin']}  tran=({', '.join(cx['tran'])})")

    _print(data, args.json, human)
    return 0


def cmd_reflections(args) -> int:
    spec = build_group(args.group)
    fams = reflection_families(spec)
    data = {"group": spec.name,
            "families": [f.to_dict() for f in fams]}
    if spec.n == 1 and not spec.ring.alpha:
        radius = args.window
        lat, hyp = rank1_window(spec, radius)
        data["window"] = {
            "radius": str(radius),
            "lattice_points": [p.text() for p in lat],
            "hyperplane_points": [p.text() for p in hyp],
        }

    def human(d):
        print(f"reflecting hyperplane families of {d['group']}:")
        for fam in d["families"]:
            for br in fam["branches"]:
                gens = ", ".join(br["constants"]) or "0"
                print(f"  {fam['form']:16s} eigenvalue {br['eigenvalue']:8s} "
                      f"constants <{gens}>")
        if "window" in d:
            w = d["window"]
            print(f"window R={w['radius']}: {len(w['lattice_points'])} lattice "
                  f"points, {len(w['hyperplane_points'])} mirror points")

    _print(data, args.json, human)
    return 0


def cmd_check(args) -> int:
    spec = build_group(args.group)
    rep = sweep(spec, bound=args.bound, budget=args.budget)
    data = rep.to_dict(max_violations=args.show_violations)
    data["expected"] = spec.expected_steinberg
    computed_clean = rep.violation_count == 0
    mismatch = (spec.expected_steinberg and not computed_clean) or \
        (not spec.expected_steinberg and computed_clean and rep.exhaustive)
    data["mismatch"] = mismatch

    def human(d):
        print(f"sweep of {d['group']}: bound={d['bound']} "
              f"examined={d['examined']} of grid {d['grid_total']} "
              f"({'full' if d['exhaustive'] else 'sampled'})")
        print(f"elements with fixed points: {d['with_fixed_point']}")
        print(f"violations: {d['violation_count']}")
        for v in d["violations"]:
            print(f"  {v['element']}")
        verdict = "holds on this sweep" if d["violation_count"] == 0 else "FAILS"
        print(f"fixed-point property {verdict} "
              f"(expected: {'holds' if d['expected'] else 'fails'})")

    _print(data, args.json, human)
    return 1 if mismatch else 0


def cmd_counterexample(args) -> int:
    spec = build_group(args.group)
    try:
        rep = check_counterexample(spec)
    except ExpectedPositiveGroup as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrystrefError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1

    def human(d):
        print(f"counterexample certification for {d['group']}: PASS")
        print(f"  element      {d['element']}")
        print(f"  fixed point  ({', '.join(d['fixed_point'])})  "
              f"[dimension {d['fixed_space_dimension']}]")
        print("  the point lies on no reflecting hyperplane")
        if "orbit_inequivalent_pairs" in d:
            print("  coordinates pairwise orbit-inequivalent under the "
                  "rank-1 action")

    _print(rep, args.json, human)
    return 0


def cmd_table(args) -> int:
    rep = full_table_report(bound=args.bound, budget=args.budget)

    def human(d):
        print(f"{'group':22s} {'n':>2s} {'expected':8s} {'computed':8s} "
              f"{'method':15s} {'examined':>9s} {'violations':>10s}")
        for row in d["rows"]:
            sw = row["sweep"]
            print(f"{row['group']:22s} {row['n']:2d} "
                  f"{'holds' if row['expected'] else 'fails':8s} "
                  f"{'holds' if row['computed'] else 'fails':8s} "
                  f"{row['method']:15s} {sw['examined']:9d} "
                  f"{sw['violation_count']:10d}"
                  + ("" if row["match"] else "   MISMATCH"))
        print(f"all rows match: {d['all_match']}   "
              f"({d['elapsed_seconds']}s)")

    _print(rep, args.json, human)
    return 0 if rep["all_match"] else 1


def cmd_plot(args) -> int:
    spec = build_group(args.group)
    radius = args.window
    lat, hyp = rank1_window(spec, radius)
    svg = render_window(lat, hyp, radius)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}",
              file=sys.stderr)
        return 2
    print(f"wrote {args.out}: {len(lat)} lattice points, "
          f"{len(hyp)} mirror points")
    return 0


def _radius(text: str) -> Fraction:
    """The --window value: a non-negative rational such as 3 or 5/2."""
    try:
        radius = Fraction(text)
    except (ValueError, ZeroDivisionError):
        radius = None
    if radius is None or radius < 0:
        raise argparse.ArgumentTypeError(
            f"the window radius must be at least 0 (a rational such as 3 or "
            f"5/2), not {text!r}")
    return radius


def _shown(text: str) -> int:
    """The --show-violations value: a count of at least 0."""
    try:
        count = int(text)
    except ValueError:
        count = None
    if count is None or count < 0:
        raise argparse.ArgumentTypeError(
            f"the number of violations shown must be at least 0, not {text!r}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystref",
        description="Exact verification of the fixed-point property for "
                    "crystallographic complex reflection groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group(p):
        p.add_argument("group", help='group name, e.g. "[G(6,3,2)]_2" or '
                                     '"G(2,1,3):a:3"')

    p = sub.add_parser("info", help="print a catalogued group")
    add_group(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("reflections",
                       help="list the reflecting hyperplane families")
    add_group(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--window", "-R", type=_radius, default="3",
                   help="window radius for rank-1 point sets (default 3)")
    p.set_defaults(func=cmd_reflections)

    p = sub.add_parser("check", help="sweep the group for violations")
    add_group(p)
    p.add_argument("--bound", "-B", type=int, default=1,
                   help="translation coefficient box bound (default 1)")
    p.add_argument("--budget", type=int, default=None,
                   help="sample cap: sweep at most this many elements")
    p.add_argument("--show-violations", type=_shown, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("counterexample",
                       help="certify the tabulated counterexample exactly")
    add_group(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("table",
                       help="recompute the verdict table for all catalog rows")
    p.add_argument("--bound", "-B", type=int, default=1)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("plot", help="write an SVG window of a rank-1 group")
    add_group(p)
    p.add_argument("--window", "-R", type=_radius, default="3",
                   help="window radius")
    p.add_argument("--out", default="window.svg", help="output SVG path")
    p.set_defaults(func=cmd_plot)
    return parser


def run(argv=None) -> int:
    """Run one command and return its exit code; argparse's own exit (a
    usage error, or --help) returns its code after argparse has printed."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except CrystrefError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
