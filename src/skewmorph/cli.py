"""Command line surface.

Exit codes form a tri-state: 0 for success, 1 for a mathematical mismatch
or finding (counts off, theorem violation, claim failure), 2 for unusable
input (bad flags, non-prime p, corrupt records, unusable paths).  File
output is deterministic: one config always gives byte-identical JSONL/CSV.
"""

import argparse
import os
import sys
import time

from . import _kernels as K
from . import enumeration as en
from . import fpalg
from . import skew_core as sc
from . import structure_verify as sv


def build_parser():
    ap = argparse.ArgumentParser(
        prog="skewmorph",
        description="enumerate, validate and classify skew-morphisms of Z_p^n")
    sub = ap.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enum", help="enumerate a full (p, n) set")
    p_enum.add_argument("--p", type=int, required=True)
    p_enum.add_argument("--n", type=int, required=True, choices=(1, 2, 3))
    p_enum.add_argument("--method", choices=("brute", "structured", "both"),
                        default="structured")
    p_enum.add_argument("--out", default=".", help="output directory")
    p_enum.add_argument("--sample-rate", type=float, default=0.01,
                        help="validation sample rate for count-only runs")
    p_enum.set_defaults(func=cmd_enum)

    p_ver = sub.add_parser("verify", help="classify a JSONL set against the structure theorem")
    p_ver.add_argument("--in", dest="inp", required=True, help="input JSONL")
    p_ver.add_argument("--out", default=None,
                       help="classified JSONL (default: input + .classified)")
    p_ver.add_argument("--affine", choices=("all", "nonnormal", "none"),
                       default="nonnormal")
    p_ver.add_argument("--sample-rate", type=float, default=0.05,
                       help="affine search rate on the normal part")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)

    p_ex = sub.add_parser("example", help="build a reference group and check its claims")
    p_ex.add_argument("tag", choices=("e1", "e2", "e3"))
    p_ex.set_defaults(func=cmd_example)

    p_om = sub.add_parser("omega", help="enumerate the Omega set and compare both closed forms")
    p_om.add_argument("--p", type=int, required=True)
    p_om.set_defaults(func=cmd_omega)

    p_be = sub.add_parser("bench", help="time the validation kernels")
    p_be.add_argument("--p", type=int, default=3)
    p_be.add_argument("--n", type=int, default=2, choices=(1, 2, 3))
    p_be.add_argument("--repeat", type=int, default=3)
    p_be.set_defaults(func=cmd_bench)
    return ap


def cmd_enum(args):
    fpalg.check_prime(args.p)
    os.makedirs(args.out, exist_ok=True)  # an unusable --out fails before the run
    res = en.full_enum(args.p, args.n, method=args.method, sample_rate=args.sample_rate)
    stem = "p%d_n%d_%s" % (args.p, args.n, args.method)
    csv_path = os.path.join(args.out, "summary_%s.csv" % stem)
    en.write_summary_csv([res], csv_path)
    if res.skews is not None:
        jsonl_path = os.path.join(args.out, "skews_%s.jsonl" % stem)
        sc.write_jsonl(res.skews, jsonl_path)
        print("wrote %d records to %s" % (res.count_total, jsonl_path))
    else:
        print("count-only run: %d members hashed, %d validated by sampling"
              % (res.count_total, res.sample_validated))
    print("total %d = %d automorphisms + %d non-normal; formula %d"
          % (res.count_total, res.count_aut, res.count_nonaut, res.formula_value))
    print("summary written to %s" % csv_path)
    return 0 if res.match else 1


def cmd_verify(args):
    if not 0 <= args.sample_rate <= 1:
        raise ValueError("--sample-rate must be in [0, 1], got %r" % args.sample_rate)
    skews = sc.read_jsonl(args.inp)
    rows = sv.sweep_classify(skews, affine=args.affine,
                             sample_rate=args.sample_rate, seed=args.seed)
    out = args.out or (args.inp + ".classified")
    sv.write_classified_jsonl(out, [(sk, rep, aff) for sk, (rep, aff)
                                    in zip(skews, rows)])
    hist = {}
    violations = 0
    affine_missing = 0
    for sk, (rep, aff) in zip(skews, rows):
        hist[rep.case] = hist.get(rep.case, 0) + 1
        if sv.theorem1_violations(sk, rep):
            violations += 1
        if aff is not None and not aff.found:
            affine_missing += 1
    for case in sorted(hist):
        print("%-22s %6d" % (case, hist[case]))
    print("records %d, violations %d, affine searches without T %d"
          % (len(skews), violations, affine_missing))
    print("classified records written to %s" % out)
    return 1 if violations or affine_missing else 0


def cmd_example(args):
    rep = sv.build_and_verify_example(args.tag)
    for line in rep.lines():
        print(line)
    print("%s: %d claims, %s" % (rep.name, len(rep.claims),
                                 "all verified" if rep.ok else "FAILURES present"))
    return 0 if rep.ok else 1


def cmd_omega(args):
    p = args.p
    fpalg.check_prime(p)
    if p == 2 or p > 13:
        raise ValueError("omega enumeration needs an odd prime <= 13")
    om = fpalg.omega_set(p)
    size = len(om)
    deriv = fpalg.omega_formula_derivation(p)
    printed = fpalg.omega_formula_printed(p)
    print("|Omega(%d)| = %d by direct enumeration" % (p, size))
    print("case-split closed form: %d %s" % (deriv, "(matches)" if deriv == size else "(MISMATCH)"))
    print("factored closed form:   %d %s" % (printed, "(matches)" if printed == size else "(MISMATCH)"))
    if deriv != printed:
        print("note: the two closed forms disagree; the enumerated set is authoritative")
    return 0 if size == deriv else 1


def cmd_bench(args):
    p, n = args.p, args.n
    fpalg.check_prime(p)
    if args.repeat < 1:
        raise ValueError("--repeat must be at least 1, got %d" % args.repeat)
    # the full set, admitted by _check_fits like any materialized run,
    # builds the cached tables outside the timing; automorphisms take the
    # automorphism test and the other rows the power-row match, so each
    # part is timed on its own
    block = en.full_enum(p, n, count_only=False).skews
    parts = [("automorphism rows of the full set", block.images[block.aut]),
             ("other rows of the full set", block.images[~block.aut])]
    print("benchmark: %s validation, p=%d n=%d, best of %d"
          % (K.current_backend(), p, n, args.repeat))
    for label, rows in parts:
        if not len(rows):
            print("  no other rows: every skew-morphism of Z_%d^%d is an automorphism" % (p, n))
            continue
        print("  %d %s" % (len(rows), label))
        # the two drivers: enumeration validates blocks, reading records
        # back validates one row at a time
        for name, run in (("validate_many, one batch", K.validate_many),
                          ("validate_images, per row", _per_row)):
            best = min(_time_once(run, p, n, rows) for _ in range(args.repeat))
            print("    %-26s %8.2f ms" % (name, best * 1e3))
    return 0


def _per_row(p, n, batch):
    for row in batch:
        K.validate_images(p, n, row)


def _time_once(run, p, n, batch):
    t0 = time.perf_counter()
    run(p, n, batch)
    return time.perf_counter() - t0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AssertionError as exc:
        print("finding: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError, sc.SkewValidationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
