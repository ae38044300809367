"""Command-line surface: construct, verify, rho, sieve-stats, expand.

All output is JSON on stdout; documents are deterministic for fixed flags.
Exit codes: 0 success, 1 verification failure, 2 InfeasibleMass,
3 UnsupportedDenominator, 4 EliminationFailed, 5 BreuschPreconditionFailed,
6 BoundExceeded, 64 usage or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import dickman
from .certificate import (
    CertificateDocument,
    document_from_representation,
    frac_str,
    parse_frac,
    recheck_document,
)
from .construct import construct_dense, modulus_product, _next_prime_above
from .errors import DensefracError, ParameterError
from .expand import expand_odd, greedy_expand
from .smooth import SmoothParams, build_family, reciprocal_sum

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _positive_int(text: str) -> int:
    v = int(text)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {v}")
    return v


def cmd_construct(args) -> int:
    opts = {}
    if args.k is not None:
        opts["k"] = args.k
    if args.epsilon is not None:
        opts["epsilon"] = args.epsilon
    if args.delta is not None:
        opts["delta"] = parse_frac(args.delta)
    if args.y_prime is not None:
        opts["y_prime"] = args.y_prime
    if args.x_prime is not None:
        opts["x_prime"] = args.x_prime
    opts["elimination_mode"] = args.mode
    opts["lambda_mode"] = getattr(args, "lambda")
    rep = construct_dense(parse_frac(args.r), args.x, eta=args.eta, **opts)
    doc = document_from_representation(rep)
    text = doc.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        _emit(
            {
                "written": args.out,
                "size": rep.size,
                "density_approx": float(rep.density),
            }
        )
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    with open(args.file) as fh:
        doc = CertificateDocument.from_json(fh.read())
    cert, ok = recheck_document(doc)
    _emit(
        {
            "sum_exact": cert.sum_exact,
            "distinct": cert.distinct,
            "max_ok": cert.max_ok,
            "harmonic_bound_ok": cert.harmonic_bound_ok,
            "density_exact": frac_str(cert.density),
            "size": cert.size,
            "consistent_with_document": ok,
        }
    )
    return 0 if ok else 1


def cmd_rho(args) -> int:
    out = {}
    if args.u is not None:
        out["rho"] = dickman.rho(args.u)
    if args.c_of_r is not None:
        out["c_of_r"] = dickman.c_of_r(parse_frac(args.c_of_r))
        out["upper_bound"] = dickman.density_upper_bound(parse_frac(args.c_of_r))
    if args.zeta is not None:
        out["zeta"] = dickman.zeta(args.zeta)
        out["xi"] = dickman.xi(args.zeta)
    if args.psi is not None:
        x, y, k = args.psi
        out["psi_estimate"] = dickman.psi_estimate(x, y, int(k))
        out["psi0_estimate"] = dickman.psi0_estimate(x, y, int(k))
    if not out:
        raise ParameterError("rho: pass at least one of --u/--c-of-r/--zeta/--psi")
    _emit(out)
    return 0


def cmd_sieve_stats(args) -> int:
    lam = parse_frac(args.lam) if args.lam else Fraction(0)
    params = SmoothParams(x=args.x, y=args.y, w=args.w, lam=lam, k=args.k)
    fam = build_family(params)
    p0 = _next_prime_above(params.y)
    modulus = modulus_product(p0, params.w, params.k)
    rsum = reciprocal_sum(fam.members, modulus)
    est = dickman.psi_estimate(params.x, params.y, params.k) * (
        1.0 - float(params.lam)
    )
    _emit(
        {
            "params": {
                "x": params.x,
                "y": params.y,
                "w": params.w,
                "lambda": frac_str(params.lam),
                "k": params.k,
            },
            "count": fam.count,
            "count_a0": fam.count_a0,
            "recip_sum": frac_str(rsum),
            "recip_sum_approx": float(rsum),
            "estimate": est,
            "ratio": fam.count / est if est else None,
        }
    )
    return 0


def cmd_expand(args) -> int:
    value = parse_frac(args.r)
    if args.mode == "greedy":
        terms = greedy_expand(value)
        _emit({"terms": terms})
    else:
        exp = expand_odd(value, max_term=args.max_term)
        _emit(
            {
                "terms": list(exp.terms),
                "max_bound": exp.max_bound_used,
                "within_bound": exp.within_bound,
            }
        )
    return 0


def build_parser() -> _Parser:
    p = _Parser(
        prog="densefrac",
        description="Dense Egyptian fraction representations with certificates.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="construct a representation of r below x")
    c.add_argument("--r", required=True, help="target rational, as a/b")
    c.add_argument("--x", required=True, type=_positive_int, help="denominator bound")
    c.add_argument("--eta", type=float, default=0.01)
    c.add_argument("--k", type=int)
    c.add_argument("--epsilon", type=float)
    c.add_argument("--delta", help="stage-one remainder target, as a/b")
    c.add_argument("--mode", choices=["strict", "opportunistic"], default="strict")
    c.add_argument("--lambda", choices=["formula", "adaptive"], default="adaptive")
    c.add_argument("--y-prime", dest="y_prime", type=int)
    c.add_argument("--x-prime", dest="x_prime", type=int)
    c.add_argument("--out", help="write the certificate document to this file")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="re-check a certificate document")
    v.add_argument("file")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("rho", help="Dickman rho and density constants")
    r.add_argument("--u", type=float)
    r.add_argument("--c-of-r", dest="c_of_r", help="rational r, as a/b")
    r.add_argument("--zeta", type=int)
    r.add_argument("--psi", nargs=3, type=float, metavar=("X", "Y", "K"))
    r.set_defaults(func=cmd_rho)

    s = sub.add_parser("sieve-stats", help="census of a smooth family")
    s.add_argument("--x", required=True, type=_positive_int)
    s.add_argument("--y", required=True, type=_positive_int)
    s.add_argument("--w", required=True, type=_positive_int)
    s.add_argument("--lambda", dest="lam", help="cutoff rational, as a/b")
    s.add_argument("--k", type=int, default=2)
    s.set_defaults(func=cmd_sieve_stats)

    e = sub.add_parser("expand", help="stand-alone unit fraction expansions")
    e.add_argument("--mode", choices=["greedy", "odd"], default="greedy")
    e.add_argument("--r", required=True, help="value to expand, as a/b")
    e.add_argument("--max-term", dest="max_term", type=int)
    e.set_defaults(func=cmd_expand)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as err:
        _emit(err.as_dict())
        return USAGE_EXIT
    except DensefracError as err:
        _emit(err.as_dict())
        return err.exit_code
    except FileNotFoundError as err:
        _emit({"code": "io", "message": str(err)})
        return USAGE_EXIT
    except ValueError as err:
        _emit({"code": "value", "message": str(err)})
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
