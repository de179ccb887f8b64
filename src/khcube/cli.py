"""Command-line front end.

Subcommands cover the full pipeline: ``parse`` (diagram structure),
``cube`` (resolution cube dump), ``homology`` (integral or rational),
``ss`` (spectral sequence pages), ``alexander``, ``analyze`` (the rank
deduction chain), ``verify`` (vertex validation / table comparison),
and ``selftest`` (the bundled acceptance suite).

Output is JSON by default (sorted keys, fixed layout, so identical
inputs give byte-identical bytes); ``--format csv`` is available for
the tabular subcommands (homology, ss, alexander).  Exit codes: 0
success, 1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product
from typing import List, Optional, Sequence

from . import corpus, selftest
from .cube import build_cube
from .diagram import PlanarDiagram
from .errors import (InconsistentArcs, InfeasibleParity, KhError, MalformedPD,
                     MultiComponent, NotAPseudoDiagram, NotFiltered,
                     OrientationDependentWrithe, OutOfDomain,
                     UnknownCrossingId)
from .filtration import FilteredComplex, sandbox_perturb, spectral_sequence
from .invariants import (alexander, differential_feasibility, mod4_betti,
                         rank_lower_bound)
from .khovanov import assemble, reduced_assemble, reidemeister_compare

__all__ = ["main"]

_INPUT_ERRORS = (MalformedPD, InconsistentArcs, UnknownCrossingId,
                 OrientationDependentWrithe,
                 NotAPseudoDiagram, MultiComponent, InfeasibleParity,
                 NotFiltered, OutOfDomain)


class _UsageError(Exception):
    """Bad flags or flag combinations: exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _emit_csv(rows: List[Sequence], header: Sequence[str]) -> None:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join("" if v is None else str(v) for v in row))
    sys.stdout.write("\n".join(out) + "\n")


def _load(args) -> PlanarDiagram:
    d = corpus.load_diagram(args.input)
    if getattr(args, "mirror", False):
        d = d.mirror()
    return d


def _homology_table(groups) -> List[dict]:
    rows = []
    for (h, q), grp in sorted(groups.items()):
        if grp.is_zero():
            continue
        rows.append({"h": h, "q": q, "free_rank": grp.free_rank,
                     "torsion": list(grp.torsion)})
    return rows


# ---------------------------------------------------------------------------
# subcommands


def _cmd_parse(args) -> int:
    d = _load(args)
    info = {
        "crossings": [list(x) for x in d.crossings],
        "n_crossings": d.n_crossings,
        "marked": sorted(d.marked),
        "retained": list(d.retained),
        "free_circles": d.free_circles,
        "arcs": sorted(d.arcs),
        "components": [list(c) for c in d.components],
        "n_components": d.n_components,
        "signs": list(d.signs),
        "n_plus": d.n_plus,
        "n_minus": d.n_minus,
        "oriented": True,
    }
    _emit_json(info)
    return 0


def _cmd_cube(args) -> int:
    d = _load(args)
    cube = build_cube(d, trust_pseudo=args.trust_pseudo)
    _emit_json(cube.dump())
    return 0


def _cmd_homology(args) -> int:
    d = _load(args)
    kc = (reduced_assemble(d) if args.reduced
          else assemble(d, trust_pseudo=args.trust_pseudo))
    if args.coeffs == "q":
        table = kc.rational_ranks()
        rows = [{"h": h, "q": q, "rank": r}
                for (h, q), r in sorted(table.items()) if r]
        if args.format == "csv":
            _emit_csv([(r["h"], r["q"], r["rank"]) for r in rows],
                      ("h", "q", "rank"))
        else:
            _emit_json({"coefficients": "Q", "reduced": args.reduced,
                        "groups": rows})
        return 0
    rows = _homology_table(kc.homology())
    if args.format == "csv":
        _emit_csv([(r["h"], r["q"], r["free_rank"],
                    ";".join(str(t) for t in r["torsion"]))
                   for r in rows],
                  ("h", "q", "free_rank", "torsion"))
    else:
        _emit_json({"coefficients": "Z", "reduced": args.reduced,
                    "groups": rows})
    return 0


def _cmd_ss(args) -> int:
    d = _load(args)
    kc = (reduced_assemble(d) if args.reduced
          else assemble(d, trust_pseudo=args.trust_pseudo))
    try:
        weight = tuple(int(x) for x in args.weight.split(","))
    except ValueError:
        raise _UsageError(f"--weight expects 'a,b', got {args.weight!r}")
    if len(weight) != 2:
        raise _UsageError(f"--weight expects two integers, got {args.weight!r}")
    if args.perturb is not None:
        pert = sandbox_perturb(kc, seed=args.perturb)
        fc = pert.filtered(weight)
    else:
        fc = FilteredComplex(kc.bigraded_complex(check=False), weight)
    pages = [page.to_json_dict() for page in spectral_sequence(fc)]
    if args.format == "csv":
        rows = []
        for page in pages:
            for g in page["groups"]:
                rows.append(("group", page["r"], g["p"],
                             g["complementary"], g["rank"]))
            for dr in page["d_ranks"]:
                rows.append(("differential", page["r"], dr["p"], None,
                             dr["rank"]))
        _emit_csv(rows, ("kind", "r", "p", "complementary", "rank"))
    else:
        _emit_json({"weight": list(weight), "perturb_seed": args.perturb,
                    "pages": pages})
    return 0


def _cmd_alexander(args) -> int:
    d = _load(args)
    poly = alexander(d)
    coeffs = [[e, c] for e, c in sorted(poly.to_dict().items())]
    if args.format == "csv":
        _emit_csv(coeffs, ("exponent", "coefficient"))
    else:
        _emit_json({"alexander": coeffs,
                    "rank_lower_bound": rank_lower_bound(poly)})
    return 0


def _cmd_analyze(args) -> int:
    d = _load(args)
    poly = alexander(d)
    bound = rank_lower_bound(poly)
    kc = reduced_assemble(d)
    table = {k: v for k, v in kc.rational_ranks().items() if v}
    target = args.target_rank if args.target_rank is not None else bound
    report = differential_feasibility(table, target,
                                      filtration=args.filtration)
    _emit_json({
        "alexander": [[e, c] for e, c in sorted(poly.to_dict().items())],
        "rank_lower_bound": bound,
        "reduced_rational_groups": [
            {"h": h, "q": q, "rank": r} for (h, q), r in sorted(table.items())],
        "total_rank": sum(table.values()),
        "mod4_betti": list(mod4_betti(table).betti),
        "feasibility": report.to_json_dict(),
    })
    return 0


def _cmd_verify(args) -> int:
    d = _load(args)
    if args.against is not None:
        other = corpus.load_diagram(args.against)
        if args.mirror:
            other = other.mirror()
        _emit_json(reidemeister_compare(d, other, reduced=args.reduced))
        return 0
    cube = build_cube(d, trust_pseudo=True)
    vertices = []
    for v in product((0, 1), repeat=cube.n_marked):
        vx = cube.vertex(v)
        vertices.append({"v": list(v), "circles": vx.p, "writhe": vx.writhe,
                         "unlink_status": vx.unlink_status})
    _emit_json({
        "genuine": cube.is_genuine(),
        "pseudo_diagram": cube.is_pseudo_diagram(),
        "n_vertices": len(vertices),
        "vertices": vertices,
        "max_self_intersection": cube.max_self_intersection(),
        "small_self_intersection": cube.small_self_intersection(),
    })
    return 0


def _cmd_selftest(args) -> int:
    return selftest.run()


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="kh", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, func, needs_input: bool = True, fmt: bool = False):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        if needs_input:
            p.add_argument("input",
                           help="corpus name, file path, inline PD text "
                                "like 'X(2,5,1,4) ...', or inline JSON")
            p.add_argument("--mirror", action="store_true",
                           help="swap over/under at every crossing")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"),
                           default="json")
        return p

    add("parse", _cmd_parse)

    p = add("cube", _cmd_cube)
    p.add_argument("--trust-pseudo", action="store_true",
                   help="accept vertices whose unlink check is unverified")

    p = add("homology", _cmd_homology, fmt=True)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--coeffs", choices=("z", "q"), default="z")
    p.add_argument("--trust-pseudo", action="store_true")

    p = add("ss", _cmd_ss, fmt=True)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--weight", default="1,0",
                   help="filtration weight 'a,b' (default 1,0)")
    p.add_argument("--perturb", type=int, default=None, metavar="SEED",
                   help="sandbox perturbation seed (conjugation by id + n)")
    p.add_argument("--trust-pseudo", action="store_true")

    add("alexander", _cmd_alexander, fmt=True)

    p = add("analyze", _cmd_analyze)
    p.add_argument("--target-rank", type=int, default=None,
                   help="defaults to the Alexander coefficient bound")
    p.add_argument("--filtration", choices=("h", "q"), default="h")

    p = add("verify", _cmd_verify)
    p.add_argument("--against", default=None, metavar="INPUT2",
                   help="compare bigraded integral homology tables")
    p.add_argument("--reduced", action="store_true")

    add("selftest", _cmd_selftest, needs_input=False)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except KhError as exc:
        print(f"internal invariant violation: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
