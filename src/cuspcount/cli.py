"""Command-line front end.

Exact JSON (or a plain table) on stdout.  The parser is built once per
process, on the first call of main; the handlers keep no state.  main
resolves the budget, loads the positional lattice, and wraps each handler's
fields in the report envelope (schema_version, command and, for a lattice,
its gram).
Exit codes: 0 success, 2 validation error, 3 enumeration budget exceeded.
The enumeration budget can also be set via the CUSPCOUNT_BUDGET variable.

This module imports only errors, lattices and discriminant, which main, the
parser and disc, aut and isogenus need.  The other handlers import counting,
genus or isotropic when they run, so a command loads only what it uses.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .discriminant import (
    DEFAULT_HEIGHT_BOUND,
    FqfIsometry,
    aut_group,
    discriminant_form,
    fqf_subgroup,
    is_isogenus,
    natural_map,
    resolve_budget,
)
from .errors import BadParams, BudgetExceeded, LatticeError, ParseError
from .lattices import EvenLattice, _integer_matrix, direct_sum, make_lattice, named_lattice

SCHEMA_VERSION = "1"


# --- lattice expression parsing -------------------------------------------

_NAMES_WITH_PARAM = {"U", "A", "D"}


def parse_lattice_spec(text: str, root_convention: str = "neg") -> EvenLattice:
    """Parse expressions like "U(6)+U" or "diag(-2,4)+E8".

    Grammar: expr := term ('+' term)*;
             term := NAME ['(' INT ')'] | 'diag(' INT (',' INT)* ')'.
    Whitespace-insensitive; errors carry the byte offset.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_int():
        nonlocal pos
        start = pos
        if pos < n and text[pos] in "+-":
            pos += 1
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start or not text[start:pos].lstrip("+-"):
            raise ParseError("expected an integer", start)
        return int(text[start:pos])

    def read_params():
        nonlocal pos
        # called with text[pos] == '('
        pos += 1
        params = []
        while True:
            skip_ws()
            params.append(read_int())
            skip_ws()
            if pos < n and text[pos] == ",":
                pos += 1
                continue
            if pos < n and text[pos] == ")":
                pos += 1
                return params
            raise ParseError("expected ',' or ')'", pos)

    def read_term():
        nonlocal pos
        skip_ws()
        start = pos
        while pos < n and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        name = text[start:pos]
        if not name:
            raise ParseError("expected a lattice name", start)
        skip_ws()
        params = []
        if pos < n and text[pos] == "(":
            params = read_params()
        if name == "diag":
            if not params:
                raise ParseError("diag needs entries", start)
            return named_lattice("diag", params, root_convention)
        if name == "E8":
            if params:
                raise ParseError("E8 takes no parameters", start)
            return named_lattice("E8", (), root_convention)
        if name in _NAMES_WITH_PARAM:
            return named_lattice(name, params, root_convention)
        raise ParseError(f"unknown lattice name {name!r}", start)

    skip_ws()
    result = read_term()
    skip_ws()
    while pos < n:
        if text[pos] != "+":
            raise ParseError("expected '+' between terms", pos)
        pos += 1
        result = direct_sum(result, read_term())
        skip_ws()
    return result


def load_lattice_file(path: str) -> EvenLattice:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "gram" not in data:
        raise LatticeError(f"{path}: expected a JSON object with a 'gram' key")
    return make_lattice(data["gram"])


def lattice_from_arg(arg: str, root_convention: str = "neg") -> EvenLattice:
    if os.path.isfile(arg) or arg.endswith(".json"):
        return load_lattice_file(arg)
    return parse_lattice_spec(arg, root_convention)


def _parse_vector(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise LatticeError(f"bad vector {text!r}: comma-separated integers expected") from exc


def _model_for(lattice: EvenLattice, hodge_path):
    """The K3Model of the lattice: generic, or with the --hodge generators."""
    from .counting import K3Model

    if not hodge_path:
        return K3Model.generic(lattice)
    with open(hodge_path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    mats = data.get("generators") if isinstance(data, dict) else None
    if not isinstance(mats, list):
        raise LatticeError(f"{hodge_path}: expected a JSON object with 'generators'")
    form = discriminant_form(lattice)
    gens = [FqfIsometry(form, _integer_matrix(mat)) for mat in mats]
    return K3Model(lattice, fqf_subgroup(form, gens))


# --- report rendering ------------------------------------------------------


def _frac(f) -> str:
    return str(Fraction(f))


def _gram_list(lattice: EvenLattice) -> list:
    return [list(row) for row in lattice.gram]


def render(report: dict, mode: str) -> str:
    if mode == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines = []
    for key in sorted(report):
        value = report[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


# --- subcommand handlers ---------------------------------------------------


def _cmd_disc(args, lattice) -> dict:
    form = discriminant_form(lattice)
    return {
        "invariant_factors": list(form.orders),
        "group_order": form.order(),
        "min_generators": form.ngens,
        "q_values": [_frac(q) for q in form.q_diag],
        "b_matrix": [[_frac(b) for b in row] for row in form.b_mat],
    }


def _cmd_aut(args, lattice) -> dict:
    form = discriminant_form(lattice)
    group = aut_group(form, budget=args.budget, method=args.method)
    return {
        "invariant_factors": list(form.orders),
        "order": group.order(),
        "method": args.method,
        "elements": [[list(row) for row in iso.matrix] for iso in group.elements],
    }


def _cmd_isogenus(args) -> dict:
    left = lattice_from_arg(args.left, args.root_convention)
    right = lattice_from_arg(args.right, args.root_convention)
    result = is_isogenus(left, right, budget=args.budget)
    witness = None
    if result.witness is not None:
        witness = [list(row) for row in result.witness]
    return {
        "left": _gram_list(left),
        "right": _gram_list(right),
        "isogenus": result.isogenus,
        "witness": witness,
    }


def _cmd_isotropic(args, lattice) -> dict:
    from .isotropic import enumerate_isotropic

    if args.div is not None and args.div < 1:
        raise BadParams(f"the divisor must be at least 1, got {args.div}")
    vectors = enumerate_isotropic(lattice, args.bound)
    if args.div is not None:
        vectors = [iv for iv in vectors if iv.divisor == args.div]
    return {
        "window": args.bound,
        "window_note": f"complete within |coords| <= {args.bound}",
        "vectors": [
            {"vector": list(iv.vector), "divisor": iv.divisor} for iv in vectors
        ],
    }


def _cmd_transvect(args, lattice) -> dict:
    from .isotropic import hyperbolic_completion, split_from_pair, transvection

    lvec = _parse_vector(args.l)
    if args.m:
        split = split_from_pair(lattice, lvec, _parse_vector(args.m))
    else:
        split = hyperbolic_completion(lattice, lvec)
    vvec = _parse_vector(args.v)
    iso = transvection(split, vvec)
    induced = natural_map(lattice, iso)
    return {
        "l": list(split.f_image),
        "m": list(split.e_image),
        "v": list(vvec),
        "matrix": [list(row) for row in iso.matrix],
        "fixes_l": iso.apply(split.f_image) == split.f_image,
        "trivial_on_discriminant": induced.is_identity(),
    }


def _cmd_classify_i1(args, lattice) -> dict:
    from .isotropic import classify_i1_orbits

    classes = classify_i1_orbits(lattice, args.bound, budget=args.budget)
    return {
        "window": args.bound,
        "window_note": f"complete within |coords| <= {args.bound}",
        "classes": [
            {
                "representative": list(cls.representative.vector),
                "vectors": [list(iv.vector) for iv in cls.vectors],
                "quotient_gram": _gram_list(cls.quotient),
            }
            for cls in classes
        ],
    }


def _cmd_genus(args) -> dict:
    from .genus import GenusQuery, genus_representatives_rank2

    try:
        p_str, q_str = args.sign.split(",")
        sig = (int(p_str), int(q_str))
    except ValueError as exc:
        raise LatticeError(f"bad signature {args.sign!r}: expected 'p,q'") from exc
    disc_lattice = lattice_from_arg(args.disc, args.root_convention)
    target = discriminant_form(disc_lattice)
    reps = genus_representatives_rank2(
        GenusQuery(sig, target, args.bound), budget=args.budget
    )
    return {
        "signature": list(sig),
        "target_disc_gram": _gram_list(disc_lattice),
        "search_bound": args.bound,
        "count": len(reps),
        "representatives": [_gram_list(rep) for rep in reps],
    }


def _cmd_fm(args, lattice) -> dict:
    from .counting import count_cusps_zero_dim, count_fm, count_fm_elliptic, count_fm_elliptic_sec
    from .isotropic import _check_height_bound

    model = _model_for(lattice, args.hodge)
    if args.mode == "twisted" and args.d is None:
        raise LatticeError("fm twisted needs --d")
    _check_height_bound(args.bound)
    if args.mode == "count":
        report = count_fm(model, budget=args.budget)
    elif args.mode == "twisted":
        report = count_cusps_zero_dim(
            model, args.d, budget=args.budget, height_bound=args.bound
        )
    elif args.mode == "elliptic":
        if args.section:
            report = count_fm_elliptic_sec(
                model, budget=args.budget, height_bound=args.bound
            )
        else:
            report = count_fm_elliptic(
                model, budget=args.budget, height_bound=args.bound
            )
    else:
        raise LatticeError(f"unknown fm mode {args.mode!r}")
    payload = {"mode": args.mode}
    payload.update(report.to_dict())
    if args.mode == "twisted":
        payload["d"] = args.d
    return payload


def _cmd_cusps(args, lattice) -> dict:
    from .counting import count_cusps_zero_dim

    model = _model_for(lattice, args.hodge)
    report = count_cusps_zero_dim(
        model, args.div, budget=args.budget, height_bound=args.bound
    )
    return {"div": args.div, **report.to_dict()}


def _cmd_verify_ur(args) -> dict:
    from .counting import ur_example

    top = args.max_r if args.max_r is not None else args.r
    if top < max(args.r, 3):
        raise BadParams(f"verify-ur needs some r > 2 in [{args.r}, {top}]")
    results = []
    for r in range(args.r, top + 1):
        if r <= 2:
            continue
        results.append(ur_example(r, budget=args.budget).to_dict())
    return {
        "r_from": args.r,
        "r_to": top,
        "results": results,
        "all_passed": all(item["passed"] for item in results),
    }


# --- argument parsing ------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The cuspcount parser, built on the first call and shared afterwards."""
    parser = argparse.ArgumentParser(
        prog="cuspcount",
        description="Exact even-lattice calculator: discriminant forms, "
        "isotropic vectors, rank-2 genus sweeps and partner/cusp counts.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--table", dest="output", action="store_const", const="table", default="json",
        help="plain key: value output instead of JSON",
    )
    common.add_argument("--budget", type=int, default=None, help="enumeration budget on |A|")
    common.add_argument(
        "--root-convention", choices=("neg", "pos"), default="neg",
        help="sign convention for the A/D/E root lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disc", parents=[common], help="discriminant form of a lattice")
    p.add_argument("lattice")
    p.set_defaults(handler=_cmd_disc)

    p = sub.add_parser("aut", parents=[common], help="full automorphism group of the discriminant form")
    p.add_argument("lattice")
    p.add_argument("--method", choices=("primary", "direct"), default="primary")
    p.set_defaults(handler=_cmd_aut)

    p = sub.add_parser("isogenus", parents=[common], help="decide isogeny of two lattices")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_isogenus)

    p = sub.add_parser("isotropic", parents=[common], help="window enumeration of primitive isotropic vectors")
    p.add_argument("lattice")
    p.add_argument("--bound", type=int, default=DEFAULT_HEIGHT_BOUND)
    p.add_argument("--div", type=int, default=None)
    p.set_defaults(handler=_cmd_isotropic)

    p = sub.add_parser("transvect", parents=[common], help="build a transvection along an isotropic vector")
    p.add_argument("lattice")
    p.add_argument("--l", required=True, help="divisor-1 isotropic vector, comma-separated")
    p.add_argument("--m", default=None, help="optional hyperbolic partner of l")
    p.add_argument("--v", required=True, help="complement vector, comma-separated")
    p.set_defaults(handler=_cmd_transvect)

    p = sub.add_parser("classify-i1", parents=[common], help="classify divisor-1 isotropic vectors by quotient genus")
    p.add_argument("lattice")
    p.add_argument("--bound", type=int, default=DEFAULT_HEIGHT_BOUND)
    p.set_defaults(handler=_cmd_classify_i1)

    p = sub.add_parser("genus", parents=[common], help="rank-2 genus representatives")
    p.add_argument("--sign", required=True, help="signature as 'p,q'")
    p.add_argument("--disc", required=True, help="lattice whose discriminant form is the target")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(handler=_cmd_genus)

    p = sub.add_parser("fm", parents=[common], help="partner counts")
    p.add_argument("mode", choices=("count", "twisted", "elliptic"))
    p.add_argument("lattice")
    p.add_argument("--d", type=int, default=None, help="twist order for 'twisted'")
    p.add_argument("--section", action="store_true", help="restrict 'elliptic' to sectioned fibrations")
    p.add_argument("--bound", type=int, default=DEFAULT_HEIGHT_BOUND)
    p.add_argument("--hodge", default=None, help="JSON file with discriminant-action generators")
    p.set_defaults(handler=_cmd_fm)

    p = sub.add_parser("cusps", parents=[common], help="zero-dimensional cusp count at a divisor")
    p.add_argument("lattice")
    p.add_argument("--div", type=int, required=True)
    p.add_argument("--bound", type=int, default=DEFAULT_HEIGHT_BOUND)
    p.add_argument("--hodge", default=None)
    p.set_defaults(handler=_cmd_cusps)

    p = sub.add_parser("verify-ur", parents=[common], help="brute-force verification of the U(r) family")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-r", type=int, default=None)
    p.set_defaults(handler=_cmd_verify_ur)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = {"schema_version": SCHEMA_VERSION, "command": args.command}
    try:
        args.budget = resolve_budget(args.budget)
        if hasattr(args, "lattice"):
            lattice = lattice_from_arg(args.lattice, args.root_convention)
            report["gram"] = _gram_list(lattice)
            report.update(args.handler(args, lattice))
        else:
            report.update(args.handler(args))
    except BudgetExceeded as exc:
        print(f"cuspcount: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (LatticeError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"cuspcount: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render(report, args.output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
