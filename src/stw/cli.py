"""Command-line front end: compute anyon tables, modular data, W-matrices,
braid invariants, quandle coloring counts, lens-space invariants, and the
permutation-equivalence verdicts between the twisted-double theories.

Exit codes: 0 success, 2 invalid input, 3 inconsistent coloring,
4 verification failure.  All output is deterministic: exact values are
serialized canonically and float previews use fixed precision.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import modular
from .braid import BraidWord, InconsistentColoringError, closure_structure, parse_braid
from .braid import framed_invariant, zero_framed_invariant
from .cocycle import CocycleParams
from .cyclotomic import CycloNumber
from .double import context_for
from .group import GroupSpec
from .quandle import AlexanderQuandle, coloring_count, single_color_check


class VerificationFailure(Exception):
    """A requested verification suite reported failures."""


def _root_text(exponent: int, order: int) -> str:
    exponent %= order
    if exponent == 0:
        return "1"
    g = math.gcd(exponent, order)
    return f"zeta_{order // g}^{exponent // g}"


def _value_text(value: CycloNumber) -> str:
    z = value.to_complex()
    return f"{z.real:+.6f}{z.imag:+.6f}j"


def _value_json(value: CycloNumber) -> str:
    return json.dumps(value.to_json(), sort_keys=True)


def _write_output(args, build_document, csv_writer) -> None:
    """Write the --out report; the JSON document is built only when asked for."""
    if not args.out:
        return
    if args.format == "json":
        modular.write_json(build_document(), args.out)
    else:
        csv_writer(args.out)


def _in_range(flag: str, value: int, low: int, high: int) -> int:
    """value if low <= value < high, else a ValueError that names the flag."""
    if not low <= value < high:
        raise ValueError(f"{flag} {value} is out of range: need {low} <= {flag[2:]} < {high}")
    return value


def _params(args) -> CocycleParams:
    spec = GroupSpec(args.q, args.p, args.n)
    return CocycleParams(spec, _in_range("--u", args.u, 0, spec.p))


def cmd_anyons(args) -> int:
    params = _params(args)
    ctx = context_for(params)
    print(f"# simple objects of the twisted double, q={args.q} p={args.p} n={args.n} u={args.u}")
    print(f"{'label':<8} {'dim':>3}  twist")
    rows = []
    for i, simple in enumerate(ctx.simples):
        exp = int(ctx.twist_exps[i]) % ctx.root_order
        twist = _root_text(exp, ctx.root_order)
        print(f"{simple.label:<8} {simple.dim:>3}  {twist}")
        rows.append({"label": simple.label, "dim": simple.dim, "twist": twist})
    document = {
        "group": {"q": args.q, "p": args.p, "n": args.n},
        "u": args.u,
        "anyons": rows,
    }

    def csv_writer(path):
        with open(path, "w") as handle:
            handle.write("label,dim,twist\n")
            for row in rows:
                handle.write(f"{row['label']},{row['dim']},{row['twist']}\n")

    _write_output(args, lambda: document, csv_writer)
    return 0


def cmd_modular(args) -> int:
    params = _params(args)
    md = modular.modular_data(params)
    report = modular.modularity_report(md)
    checks = [
        ("unit row equals dimensions", report.unit_row_is_dims),
        ("S unitary", report.unitary),
        ("S^2 is charge conjugation", report.s2_permutation),
        ("charge conjugation is an involution fixing the unit", report.charge_conjugation),
        ("(ST)^3 equals Gauss phase times S^2", report.st_cubed_matches_s2),
        ("fusion rules nonnegative integers", report.verlinde_integral_nonnegative),
        ("dimension homomorphism", report.dim_homomorphism),
    ]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    # modular_data raises unless the Gauss sum is +D, so c = 0 (mod 8).
    print("chiral central charge c = 0 (mod 8)")

    def csv_writer(path):
        matrix = [
            [md.s_entry(a, b) for b in range(md.n_objects)]
            for a in range(md.n_objects)
        ]
        modular.write_matrix_csv(matrix, md.labels, path)

    _write_output(args, lambda: modular.modular_data_to_json(md), csv_writer)
    if report.failures:
        raise VerificationFailure("; ".join(report.failures))
    return 0


def cmd_wmatrix(args) -> int:
    params = _params(args)
    md = modular.modular_data(params)
    wm = modular.w_matrix(params, mirror=args.mirror)
    id_report = modular.w_identities(md, wm)
    ba_ok, ba_failures = modular.ba_block_formula_report(wm)
    checks = [
        ("W symmetric", id_report.symmetric),
        ("twist-duality identity", id_report.twist_duality),
        ("dual-argument identity", id_report.second_dual_invariance),
        ("closed formula on the (B, A) block", ba_ok),
    ]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    def csv_writer(path):
        matrix = [
            [wm.w_entry(a, b) for b in range(md.n_objects)]
            for a in range(md.n_objects)
        ]
        modular.write_matrix_csv(matrix, wm.labels, path)

    _write_output(args, lambda: modular.w_matrix_to_json(wm), csv_writer)
    failures = list(id_report.failures) + ba_failures
    if failures:
        raise VerificationFailure("; ".join(failures[:5]))
    return 0


def cmd_invariant(args) -> int:
    params = _params(args)
    word = parse_braid(args.braid, args.strands)
    colors = [c for c in args.colors.split(",") if c]
    info = closure_structure(word)
    framed = framed_invariant(params, word, colors)
    zero_framed = zero_framed_invariant(params, word, colors)
    print(f"components: {info.components}")
    print(f"writhe: {info.writhe}  self-writhes: {info.self_writhes}")
    print(f"framed      exact: {_value_json(framed)}")
    print(f"framed      float: {_value_text(framed)}")
    print(f"zero-framed exact: {_value_json(zero_framed)}")
    print(f"zero-framed float: {_value_text(zero_framed)}")
    document = {
        "braid": args.braid,
        "strands": args.strands,
        "colors": colors,
        "u": args.u,
        "framed": framed.to_json(),
        "zero_framed": zero_framed.to_json(),
    }
    _write_output(args, lambda: document, lambda path: modular.write_matrix_csv(
        [[framed], [zero_framed]], ["framed", "zero_framed"], path, ["invariant"]))
    return 0


def cmd_quandle(args) -> int:
    params = _params(args)
    spec = params.spec
    _in_range("--k", args.k, 1, spec.p)
    _in_range("--s", args.s, 0, spec.p)
    word = parse_braid(args.braid, args.strands)
    print(f"{'k':>2} {'multiplier':>10} {'colorings':>9}")
    for k in range(1, spec.p):
        quandle = AlexanderQuandle.for_flux_class(spec, k)
        count = coloring_count(quandle, word)
        print(f"{k:>2} {quandle.multiplier:>10} {count:>9}")
    report = single_color_check(params, word, args.k, args.s)
    verdict = "PASS" if report.ok else "FAIL"
    print(
        f"{verdict}  single-color check: color {report.label}, writhe"
        f" {report.writhe}, colorings {report.count}"
    )
    if not report.ok:
        raise VerificationFailure(
            f"braid trace does not match the quandle prediction for {report.label}"
        )
    return 0


def _theory(params: CocycleParams, with_w: bool) -> modular.TheoryData:
    """One theory from its traces: S and V (which decides W) as (n, n) ids
    into one table of exact values, keyed block by block as walked, with
    no (n, n, N) array."""
    md = modular.modular_data(params)
    return modular.theory_data(md, modular.w_matrix(params) if with_w else None)


def _theories(args, us, with_w: bool) -> list[modular.TheoryData]:
    """The theories u in us: u = 0 and u = 1 from their traces, each built
    once, every other u as the Galois conjugate of u = 1."""
    spec = GroupSpec(args.q, args.p, args.n)
    built = {u: _theory(CocycleParams(spec, u), with_w) for u in sorted({min(u, 1) for u in us})}
    return [
        built[u] if u < 2 else modular.galois_conjugate(built[1], CocycleParams(spec, 1), u)
        for u in us
    ]


def _print_partition(tag: str, classes) -> None:
    body = "  ".join("{" + ", ".join(group) + "}" for group in classes)
    print(f"{tag}: {body}")


def cmd_distinguish(args) -> int:
    """Equivalence classes of the theories u = 0..p-1 under (S, T) and
    under (S, T, W), or the verdicts for one pair.

    Only u = 0 and u = 1 are built from braid traces.  Every value of
    omega_u is a p-th root of unity, so sigma_f (zeta_N -> zeta_N^f)
    maps D^omega_1 to D^omega_f with S, T and W conjugated entrywise
    (Dong, Lin and Ng, arXiv:1201.6644): the theories u != 0 form one
    Galois orbit, and each u >= 2 is derived exactly from u = 1 by
    `modular.galois_conjugate`.  Theory f is then equivalent to theory g
    exactly when theory 1 is equivalent to its conjugate by sigma_(g/f),
    so the classes of u != 0 are the cosets of a subgroup of the cyclic
    group (Z/p)^x, found by a few searches down the divisor lattice of
    p - 1 (`modular.galois_classes`).  Under (S, T) they are the square
    classes of Mignard and Schauenburg (arXiv:1708.02796) at every group
    checked so far.  W is walked only where (S, T) leaves a class with
    more than one member."""
    if args.u is not None:
        u1, u2 = (_in_range("--u", u, 0, args.p) for u in args.u)
        d1, d2 = _theories(args, (u1, u2), True)
        st = modular.equivalence_search(*(dataclasses.replace(d, w_keys=None) for d in (d1, d2)))
        print(f"(S,T)   u={u1} vs u={u2}: "
              + ("EQUIVALENT" if st.equivalent else "NOT-EQUIVALENT"))
        stw = modular.equivalence_search(d1, d2)
        print(f"(S,T,W) u={u1} vs u={u2}: "
              + ("EQUIVALENT" if stw.equivalent else "NOT-EQUIVALENT"))
        if st.equivalent and not stw.equivalent:
            cert = modular.obstruction_certificate(d1, d2)
            if cert.compatible:
                # T and W both allow some image: the pair proves nothing.
                print(f"no two-object obstruction found at {cert.label} (anchor {cert.anchor})")
                return 0
            print(f"obstruction at {cert.label} (anchor {cert.anchor} -> "
                  + "{" + ", ".join(cert.anchor_images) + "}):")
            print("  T allows   " + cert.label + " -> {" + ", ".join(cert.t_allowed) + "}")
            print("  W requires " + cert.label + " -> {" + ", ".join(cert.w_required) + "}")
            print("  intersection: {" + ", ".join(cert.compatible) + "}")
        return 0
    spec = GroupSpec(args.q, args.p, args.n)
    md0, md1 = (modular.modular_data(CocycleParams(spec, u)) for u in (0, 1))
    partitions = modular.galois_classes(md0, md1, not args.st_only)
    tags = ["(S,T) classes"] if args.st_only else ["(S,T) classes  ", "(S,T,W) classes"]
    for tag, classes in zip(tags, partitions):
        _print_partition(tag, classes)
    return 0


def cmd_lens(args) -> int:
    params = _params(args)
    md = modular.modular_data(params)
    digits = modular.negative_continued_fraction(args.P, args.Q)
    sigma = modular.linking_signature(digits)
    value = modular.lens_space_invariant(md, args.P, args.Q)
    print(f"L({args.P},{args.Q})  digits: {list(digits)}  signature: {sigma}")
    print(f"exact: {_value_json(value)}")
    print(f"float: {_value_text(value)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stw",
        description="Exact invariants of twisted doubles of Z_q x| Z_p:"
        " anyon data, modular matrices, W-matrices, and the"
        " equivalence tests they decide.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_u=True, with_out=True):
        """The group flags, --u unless with_u is false, and --out and
        --format only where the command writes a report (`_write_output`)."""
        p.add_argument("--q", type=int, default=11, help="odd prime q (default 11)")
        p.add_argument("--p", type=int, default=5, help="prime p dividing q - 1, 2 included (default 5)")
        p.add_argument("--n", type=int, default=4,
                       help="multiplier of order p mod q (default 4)")
        if with_u:
            p.add_argument("--u", type=int, default=1,
                           help="cocycle power 0 <= u < p (default 1)")
        if with_out:
            p.add_argument("--out", help="write a machine-readable report here")
            p.add_argument("--format", choices=("json", "csv"), default="json",
                           help="format for --out (default json)")

    p = sub.add_parser("anyons", help="list simple objects with dims and twists")
    add_common(p)
    p.set_defaults(func=cmd_anyons)

    p = sub.add_parser("modular", help="build S and T and verify modularity")
    add_common(p)
    p.set_defaults(func=cmd_modular)

    p = sub.add_parser("wmatrix", help="build the W-matrix and verify its identities")
    add_common(p)
    p.add_argument("--mirror", action="store_true",
                   help="use the mirror clasp word instead")
    p.set_defaults(func=cmd_wmatrix)

    p = sub.add_parser("invariant", help="trace a colored braid closure")
    add_common(p)
    p.add_argument("--braid", required=True, help='word like "s2^-2 s1 s2^-1 s1"')
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--colors", required=True,
                   help="comma-separated labels, one per strand")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("quandle", help="affine quandle coloring counts of a closure")
    add_common(p, with_out=False)
    p.add_argument("--braid", required=True)
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--k", type=int, default=1, help="flux class 1 <= k < p")
    p.add_argument("--s", type=int, default=0, help="spin index for the check")
    p.set_defaults(func=cmd_quandle)

    p = sub.add_parser("distinguish", help="equivalence verdicts between the theories")
    add_common(p, with_u=False, with_out=False)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true",
                       help="partition all u into classes (default)")
    group.add_argument("--st-only", action="store_true",
                       help="partition using modular data only")
    group.add_argument("--u", type=int, nargs=2, metavar=("U1", "U2"),
                       help="compare one pair of theories")
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("lens", help="surgery invariant of the lens space L(P,Q)")
    add_common(p, with_out=False)
    p.add_argument("P", type=int)
    p.add_argument("Q", type=int)
    p.set_defaults(func=cmd_lens)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InconsistentColoringError as err:
        print(f"error: inconsistent coloring: {err}", file=sys.stderr)
        return 3
    except VerificationFailure as err:
        print(f"error: verification failure: {err}", file=sys.stderr)
        return 4
    except ArithmeticError as err:
        print(f"error: verification failure: {err}", file=sys.stderr)
        return 4
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
