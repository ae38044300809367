"""Command-line surface: construct, verify, rho.

All output is JSON on stdout; documents are deterministic for fixed flags.
Exit codes: 0 success, 1 verification failure (also DivisibilityError and
RemainderNonPositive), 2 InfeasibleMass, 3 UnsupportedDenominator,
4 EliminationFailed, 5 BreuschPreconditionFailed, 6 BoundExceeded,
7 SieveBoundExceeded, 64 usage, malformed input, or a path that cannot
be read or written (a missing file, a directory).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dickman
from .certificate import (
    CertificateDocument,
    document_from_representation,
    frac_str,
    parse_frac,
    recheck_document,
)
from .construct import construct_dense
from .errors import DensefracError, ParameterError

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
    rep = construct_dense(parse_frac(args.r), args.x, **opts)
    doc = document_from_representation(rep)
    text = doc.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        _emit(
            {
                "written": args.out,
                "size": rep.certificate.size,
                "density_approx": float(rep.certificate.density),
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
    if not out:
        raise ParameterError("rho: pass at least one of --u/--c-of-r")
    _emit(out)
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
    c.add_argument("--k", type=int)
    c.add_argument("--epsilon", type=float)
    c.add_argument("--delta", help="stage-one remainder target, as a/b")
    c.add_argument("--y-prime", dest="y_prime", type=_positive_int)
    c.add_argument("--x-prime", dest="x_prime", type=_positive_int)
    c.add_argument("--out", help="write the certificate document to this file")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="re-check a certificate document")
    v.add_argument("file")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("rho", help="Dickman rho and density constants")
    r.add_argument("--u", type=float)
    r.add_argument("--c-of-r", dest="c_of_r", help="rational r, as a/b")
    r.set_defaults(func=cmd_rho)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DensefracError as err:
        _emit(err.as_dict())
        return err.exit_code
    except OSError as err:
        _emit({"code": "io", "message": str(err)})
        return USAGE_EXIT
    except ValueError as err:
        _emit({"code": "value", "message": str(err)})
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
