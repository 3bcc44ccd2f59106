"""Command-line front end: build algebras, report structure, check the
derivation lemmas, and run the certification pipeline.

`check` is a proof at every size: it proves Jacobi on the triples (g, y, z)
with g in a generating set G of L (`liesuper.generators`, whose closure
under ad G is checked to be all of L), solves the Leibniz equation on the
pairs (g, y), and compares the result with ad L'.  Only `certify` uses
--seed; the other commands accept it and give the same output for every
seed.

Exit codes: 0 success / certified, 1 check failure or internal error,
2 input error (bad family spec or environment value, a --budget below 1,
an unwritable --out, a model file that is unreadable, malformed, differs
in any field or bracket from the constructor of its family and n, or
names another family or n than --family/--n), 3 inconclusive
certification.

Every flag has an environment override with prefix CARTANSUPER_
(e.g. CARTANSUPER_SEED=7); explicit flags win over the environment.  Only
the variables of the running command's flags are read and checked.
JSON output is the stable contract (reports carry schema_version and are
byte-identical for a fixed seed and configuration); text output is a human
summary.  Timings are printed only with --timings so that default reports
stay reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import __version__
from .derivations import derivation_report
from .families import FamilyError, FamilySpec, attach_derived, build, build_lprime
from .liesuper import (
    FAMILIES,
    AlgebraModel,
    ModelFormatError,
    check_axioms,
    generators,
    model_from_json,
    model_to_json,
)
from .localcert import certify, certify_2local

SCHEMA_VERSION = "1"
FORMATS = ("text", "json")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INCONCLUSIVE = 3


def _env(name: str, fallback=None, kind=None):
    """CARTANSUPER_<name>, or fallback when it is unset.  With kind int the
    value must be an integer, with a tuple of choices one of them (argparse
    checks neither on a default); otherwise it exits 2 naming the variable."""
    raw = os.environ.get(f"CARTANSUPER_{name}")
    if raw is None or kind is None:
        return fallback if raw is None else raw
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            expected = "an integer"
    elif raw in kind:
        return raw
    else:
        expected = "one of " + ", ".join(kind)
    print(f"error: CARTANSUPER_{name} must be {expected}, got {raw!r}", file=sys.stderr)
    raise SystemExit(EXIT_INPUT_ERROR)


def _env_flag(p: argparse.ArgumentParser, name: str, *flags: str,
              fallback=None, kind=None, **kwargs) -> None:
    """Add a flag to p whose default is CARTANSUPER_<name>.  The variable is
    read and checked by `parse_args`, and only for the command that runs."""
    dest = p.add_argument(*flags, default=argparse.SUPPRESS, **kwargs).dest
    p.get_default("env_flags").append((dest, name, fallback, kind))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartansuper",
        description="Exact kernel for Cartan type Lie superalgebras: "
        "construction, derivations, local-superderivation certification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_model: bool) -> None:
        p.set_defaults(env_flags=[])
        _env_flag(p, "FAMILY", "--family", kind=FAMILIES, choices=FAMILIES,
                  help="algebra family")
        _env_flag(p, "N", "--n", kind=int, type=int)
        if with_model:
            _env_flag(p, "MODEL", "--model",
                      help="read the algebra from a serialized model file "
                      "instead of building it")
        _env_flag(p, "OUT", "--out", help="output path (default stdout)")
        _env_flag(p, "FORMAT", "--format", fallback="text", kind=FORMATS, choices=FORMATS)
        _env_flag(p, "SEED", "--seed", fallback=0, kind=int, type=int,
                  help="seed of certify's random probes; "
                  "only certify reads it, the other commands ignore it")

    p_build = sub.add_parser("build", help="construct an algebra and emit its model")
    common(p_build, with_model=False)

    p_info = sub.add_parser("info", help="structural summary of an algebra")
    common(p_info, with_model=True)

    p_check = sub.add_parser(
        "check", help="axioms, derivation cross-check and transitivity"
    )
    common(p_check, with_model=True)

    p_cert = sub.add_parser(
        "certify", help="certify the local theorem and, by reduction, the linear 2-local one"
    )
    common(p_cert, with_model=True)
    _env_flag(p_cert, "BUDGET", "--budget", kind=int, type=int)
    p_cert.add_argument(
        "--timings",
        action="store_true",
        help="include elapsed_ms in the report (breaks byte-reproducibility)",
    )
    return parser


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """The parsed command line.  Each flag of the command that runs and that
    was not given takes its CARTANSUPER_ value; a malformed value of any of
    that command's variables exits 2, given flag or not."""
    args = build_parser().parse_args(argv)
    for dest, name, fallback, kind in args.env_flags:
        value = _env(name, fallback, kind)
        if dest not in args:
            setattr(args, dest, value)
    return args


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_INPUT_ERROR) from None
    else:
        try:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
            sys.stdout.flush()
        except BrokenPipeError:  # the reader has gone (`| head`): drop the rest
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _load_or_build(args) -> AlgebraModel:
    model_path = getattr(args, "model", None)
    if model_path:
        try:
            with open(model_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ModelFormatError(f"cannot read {model_path}: {exc}") from exc
        model = model_from_json(text)
        for flag, got in (("family", model.family), ("n", model.n)):
            value = getattr(args, flag)
            if value is not None and value != got:
                raise ModelFormatError(
                    f"--{flag} {value} does not match the model file's {flag} {got}"
                )
        attach_derived(model)
        return model
    if args.family is None or args.n is None:
        raise FamilyError("missing --family/--n" + (" (or --model)" if "model" in args else ""))
    return build(FamilySpec(args.family, args.n))


def _report_json(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


def cmd_build(args) -> int:
    model = _load_or_build(args)
    if args.format == "json":
        _emit(model_to_json(model), args.out)
    else:
        lines = [f"# {model.family}({model.n})  dim={model.dim}"]
        for i, desc in enumerate(model.basis):
            lines.append(
                f"{i}\t{desc}\tparity={model.parity[i]}\t"
                f"degree={model.degree[i]}\tweight={list(model.weight[i])}"
            )
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_info(args) -> int:
    model = _load_or_build(args)
    P = build_lprime(model)
    roots = sorted({w for w in model.weight if any(w)})
    payload = {
        "schema_version": SCHEMA_VERSION,
        "family": model.family,
        "n": model.n,
        "dim_L": model.dim,
        "dim_Lprime": P.dim_lprime,
        "depth_min": min(model.degree),
        "depth_max": max(model.degree),
        "dim_L0": sum(1 for d in model.degree if d == 0),
        "root_count": len(roots),
        "cartan_rank": len(model.cartan_chain),
    }
    if args.format == "json":
        _emit(_report_json(payload), args.out)
    else:
        lines = [
            f"{model.family}({model.n})",
            f"  dim L       = {payload['dim_L']}",
            f"  dim L'      = {payload['dim_Lprime']}",
            f"  depth range = [{payload['depth_min']}, {payload['depth_max']}]",
            f"  dim L_0     = {payload['dim_L0']}",
            f"  roots       = {payload['root_count']}",
            f"  Cartan rank = {payload['cartan_rank']}",
        ]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    model = _load_or_build(args)
    G = generators(model)
    axioms = check_axioms(model, generating_set=G)
    P = build_lprime(model)
    report = derivation_report(P, G)
    ok = axioms.ok and report.lemma_der_holds and report.transitive
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(report.as_dict())
    payload["axioms_ok"] = axioms.ok
    payload["axioms_first_violation"] = axioms.first_violation
    if args.format == "json":
        _emit(_report_json(payload), args.out)
    else:
        lines = [
            f"{model.family}({model.n})",
            f"  axioms          : {'pass' if axioms.ok else 'FAIL ' + str(axioms.first_violation)}",
            f"  Der L = ad L'   : {'pass' if report.lemma_der_holds else 'FAIL'}"
            f"  (dim Der = {report.dim_der}, dim L' = {report.dim_lprime})",
            f"  transitivity    : {'pass' if report.transitive else 'FAIL'}",
        ]
        _emit("\n".join(lines), args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_certify(args) -> int:
    if args.budget is not None and args.budget < 1:
        print(
            f"error: --budget (or CARTANSUPER_BUDGET) must be at least 1, got {args.budget}",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    model = _load_or_build(args)
    P = build_lprime(model)
    cert = certify(P, budget=args.budget, seed=args.seed)
    cert = certify_2local(cert)
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(cert.as_dict(with_timing=args.timings))
    if args.format == "json":
        _emit(_report_json(payload), args.out)
    else:
        lines = [
            f"{model.family}({model.n})  separating t = {cert.t}",
            f"  probes used     : {len(cert.probe_labels)}",
            f"  dim constrained : {cert.dim_constrained}",
            f"  dim ad L'       : {cert.dim_ad}",
            f"  local verdict   : {cert.verdict}",
            f"  2-local verdict : {cert.twolocal_verdict}",
        ]
        if args.timings:
            lines.append(f"  elapsed_ms      : {cert.elapsed_ms}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK if cert.verdict == "CERTIFIED" else EXIT_INCONCLUSIVE


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    handlers = {
        "build": cmd_build,
        "info": cmd_info,
        "check": cmd_check,
        "certify": cmd_certify,
    }
    try:
        return handlers[args.command](args)
    except (FamilyError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # internal failure, distinct from input errors
        detail = f": {exc}" if str(exc) else ""
        print(f"internal error: {type(exc).__name__}{detail}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
