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
an unwritable --out, a model file that is unreadable, that differs in
any byte from what `build` writes for the family and n of its head, a
trailing newline aside, or that names another family or n than
--family/--n), 3 inconclusive certification.

Every flag but the switch --timings has an environment override with
prefix CARTANSUPER_ (e.g. CARTANSUPER_SEED=7); explicit flags win over the
environment.  Only the variables of the running command's flags are read
and checked.  Flags, variables and commands are one table (FLAGS,
COMMANDS) that `parse_args` reads the command line against, without
argparse, whose import and parser set-up every CLI process would pay.
JSON output is the stable contract (reports carry schema_version and are
byte-identical for a fixed seed and configuration); text output is a human
summary.  Timings are printed only with --timings so that default reports
stay reproducible.

`main` returns the exit code and is the entry for in-process callers.  A
process started as `python -m cartansuper.cli` or as the `cartansuper`
console script enters through `run`: it runs the `atexit` handlers,
flushes stdout and stderr and ends with `os._exit`, without the
interpreter's teardown.
"""

from __future__ import annotations

import atexit
import json
import os
import re
import sys
from types import SimpleNamespace
from typing import List, Optional

from . import __version__
from .derivations import ProofContext, derivation_report
from .families import FamilyError, FamilySpec, build, build_lprime, model_from_json
from .families import attach_derived  # not called here; perfbench/child.py wraps cli.attach_derived
from .liesuper import (
    FAMILIES,
    AlgebraModel,
    ModelFormatError,
    check_axioms,
    model_head,
    model_to_json,
)
from .localcert import certify, certify_2local

SCHEMA_VERSION = "1"
FORMATS = ("text", "json")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INCONCLUSIVE = 3


# The command line.  Each flag: its CARTANSUPER_ variable, its kind (int, a
# tuple of choices, str, or bool for a switch, which has no variable), its
# fallback and its help.  Each command: its help and its flags.
FLAGS = {
    "family": ("FAMILY", FAMILIES, None, "algebra family"),
    "n": ("N", int, None, "the family's n"),
    "model": ("MODEL", str, None, "read the algebra from a model file instead of building it"),
    "out": ("OUT", str, None, "output path (default stdout)"),
    "format": ("FORMAT", FORMATS, "text", "report format"),
    "seed": ("SEED", int, 0, "seed of certify's random probes; the other commands ignore it"),
    "budget": ("BUDGET", int, None, "cap on certify's probes (default 4 dim L)"),
    "timings": (None, bool, False, "include elapsed_ms (breaks byte-reproducibility)"),
}
_WITH_MODEL = ("family", "n", "model", "out", "format", "seed")
COMMANDS = {
    "build": ("construct an algebra and emit its model", ("family", "n", "out", "format", "seed")),
    "info": ("structural summary of an algebra", _WITH_MODEL),
    "check": ("axioms, derivation cross-check and transitivity", _WITH_MODEL),
    "certify": ("certify the local theorem and, by reduction, the linear 2-local one",
                _WITH_MODEL + ("budget", "timings")),
}


def _read(kind, raw: str):
    """raw as a value of kind, or a ValueError that says why it is not one."""
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"invalid int value: {raw!r}") from None
    if kind is not str and raw not in kind:
        raise ValueError(f"invalid choice: {raw!r} (choose from {', '.join(map(repr, kind))})")
    return raw


def _env(name: Optional[str], kind, fallback):
    """CARTANSUPER_<name>, or fallback when it is unset or name is None; a
    value not of the flag's kind exits 2 naming the variable."""
    raw = os.environ.get(f"CARTANSUPER_{name}") if name else None
    try:
        return fallback if raw is None else _read(kind, raw)
    except ValueError:
        expected = "an integer" if kind is int else "one of " + ", ".join(kind)
    print(f"error: CARTANSUPER_{name} must be {expected}, got {raw!r}", file=sys.stderr)
    raise SystemExit(EXIT_INPUT_ERROR)


def _help(prog: str, command: Optional[str]) -> List[str]:
    """The help text's lines, the usage line first."""
    if command is None:
        usage = f"[-h] [--version] {{{','.join(COMMANDS)}}} ..."
        head = ("Exact kernel for Cartan type Lie superalgebras: construction, "
                "derivations, local-superderivation certification.")
        rows = [(name, about) for name, (about, _) in COMMANDS.items()]
        rows.append(("--version", "show program's version number and exit"))
    else:
        head, rows = COMMANDS[command][0], []
        for flag in COMMANDS[command][1]:
            name, kind, _, about = FLAGS[flag]
            meta = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else flag.upper()
            shape = f"--{flag}" if kind is bool else f"--{flag} {meta}"
            rows.append((shape, about + (f" (CARTANSUPER_{name})" if name else "")))
        usage = " ".join(["[-h]"] + [f"[{left}]" for left, _ in rows])
    rows.append(("-h, --help", "show this help message and exit"))
    width = max(len(left) for left, _ in rows)
    return [f"usage: {prog} {usage}", "", head, ""] + [
        f"  {left:<{width}}  {about}" for left, about in rows]


def _is_flag(token: str) -> bool:
    """Whether token is a flag, not a value, as argparse tells them apart:
    "-", a negative number and a token with a space are values."""
    return (token[:1] == "-" and token != "-" and " " not in token
            and re.fullmatch(r"-\d+|-\d*\.\d+", token) is None)


def parse_args(argv: Optional[List[str]] = None) -> SimpleNamespace:
    """The command line read against COMMANDS and FLAGS: `--flag value`,
    `--flag=value` or a prefix of the flag that no other flag of the
    command shares, the last of a repeated flag winning.  A usage error
    exits 2 with `usage:` and `error:` lines on stderr; -h, --help and
    --version print to stdout and exit 0.  A flag not given takes its
    CARTANSUPER_ value; a malformed value of any of the running command's
    variables exits 2, given flag or not."""
    argv = list(sys.argv[1:] if argv is None else argv)
    prog, command, names, given, extra = "cartansuper", None, ("help", "version"), {}, []

    def fail(message: str):
        print(f"{_help(prog, command)[0]}\n{prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)

    while argv:
        token = argv.pop(0)
        if command is None and not _is_flag(token):
            try:
                command = _read(tuple(COMMANDS), token)
            except ValueError as exc:
                fail(f"argument command: {exc}")
            names, prog = COMMANDS[command][1] + ("help",), f"{prog} {command}"
            continue
        option, eq, value = token.partition("=")
        stem = "help" if option == "-h" else option[2:] if option[:2] == "--" else None
        hits = [stem] if stem in names else [f for f in names if stem and f.startswith(stem)]
        if len(hits) > 1:
            fail(f"ambiguous option: {option} could match " + ", ".join("--" + f for f in hits))
        if not hits:
            extra.append(token)
            continue
        flag = hits[0]
        if flag in ("help", "version"):
            print("\n".join(_help(prog, command)) if flag == "help" else __version__)
            raise SystemExit(EXIT_OK)
        kind = FLAGS[flag][1]
        if eq and kind is bool:
            fail(f"argument --{flag}: ignored explicit argument {value!r}")
        if not eq and kind is not bool:
            if not argv or _is_flag(argv[0]):
                fail(f"argument --{flag}: expected one argument")
            value = argv.pop(0)
        try:
            given[flag] = True if kind is bool else _read(kind, value)
        except ValueError as exc:
            fail(f"argument --{flag}: {exc}")
    if command is None:
        fail("the following arguments are required: command")
    if extra:
        fail("unrecognized arguments: " + " ".join(extra))
    found = {flag: _env(*FLAGS[flag][:3]) for flag in COMMANDS[command][1]}
    return SimpleNamespace(command=command, **{**found, **given})


_SLICE = 1 << 16


def _write(fh, text: str) -> None:
    """text and a final newline if it lacks one, written in slices of
    `_SLICE` characters: the stream encodes what it is given in one piece,
    so a whole model text would be held twice, once as bytes."""
    for start in range(0, len(text), _SLICE):
        fh.write(text[start:start + _SLICE])
    if not text.endswith("\n"):
        fh.write("\n")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                _write(fh, text)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_INPUT_ERROR) from None
    else:
        try:
            _write(sys.stdout, text)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader has gone (`| head`): drop the rest
            _to_devnull(sys.stdout)


def _to_devnull(stream) -> None:
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _load_or_build(args) -> AlgebraModel:
    model_path = getattr(args, "model", None)
    if model_path:
        try:
            with open(model_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ModelFormatError(f"cannot read {model_path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{model_path} is not UTF-8 text: {exc}") from None
        for flag, got in zip(("family", "n"), model_head(text)):  # before the build
            value = getattr(args, flag)
            if value is not None and value != got:
                raise ModelFormatError(
                    f"--{flag} {value} does not match the model file's {flag} {got}"
                )
        return model_from_json(text)
    if args.family is None or args.n is None:
        raise FamilyError("missing --family/--n" + (" (or --model)" if hasattr(args, "model") else ""))
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
    roots = sorted({w for w in model.weight if any(w)})
    payload = {
        "schema_version": SCHEMA_VERSION,
        "family": model.family,
        "n": model.n,
        "dim_L": model.dim,
        "dim_Lprime": FamilySpec(model.family, model.n).dim_lprime,
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
    ctx = ProofContext(build_lprime(model))
    axioms = check_axioms(model, generating_set=ctx.G)
    report = derivation_report(ctx, axioms.ok)
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
    cert = certify(ProofContext(build_lprime(model)), budget=args.budget, seed=args.seed)
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


def run(argv: Optional[List[str]] = None) -> None:
    """The process entry (`python -m cartansuper.cli`, the `cartansuper`
    console script): `main`, then the end of the process with its code.

    The `atexit` handlers run, then stdout and stderr are flushed, the order
    in which the interpreter itself ends; a stream whose reader has gone is
    pointed at devnull, as `_emit` does, and the code stays.  Then
    `os._exit` ends the process without tearing the interpreter down, which
    a CLI run would pay for after its output is out.  A `SystemExit` from
    `parse_args` (usage errors, --help, --version, a malformed environment
    value) and a KeyboardInterrupt leave through the interpreter as usual.
    """
    code = main(argv)
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            _to_devnull(stream)
    os._exit(code)


if __name__ == "__main__":
    run()
