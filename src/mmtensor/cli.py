"""Command-line front door: every pipeline stage as a subcommand.

Tensors are addressed either as file paths or as "builtin:<name>" URIs
(classical-N, strassen, winograd, laderman, lifted-winograd,
klein-orbit-sum, laderman-variant); groups as "builtin:klein" or a file.
All reports are exact rationals on stdout; diagnostics go to stderr.
Exit codes: 0 success / verified, 1 failed check, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .codegen import (blocking, emit_code, extract_schedule, op_count,
                      recursive_multiply)
from .constructions import builtin, correction_term, klein_group
from .isotropy import (act, monomial_partition, monomial_stabilizer_count,
                       orbit_sum)
from .matrix import Matrix, parse_int, parse_rational
from .tensor import (Tensor, decomposition_length, format_type,
                     is_matmul_tensor, merge_shared_factors, tensor_type)
from .tensorfile import (read_group_file, read_isotropy_file, read_tensor_file,
                         write_tensor_file)
from .transforms import projection_census, tensor_project, tensor_zero


# Largest --size that mul accepts: 3**5, five levels of a 3x3 base.  No
# run may take more leaf multiplications than schoolbook at that size.
MAX_MUL_SIZE = 243


class CliError(Exception):
    """Usage-level error: reported on stderr, exit code 2."""


def _parse_lambda(text: str) -> Fraction:
    try:
        lam = parse_rational(text)
    except ValueError:
        raise CliError(f"malformed rational for --lambda: {text!r}")
    if lam == 0:
        raise CliError("--lambda must be nonzero")
    return lam


def _int_arg(text: str) -> int:
    """parse_int as an argparse type, worded as for type=int."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _read_file(kind: str, path: str, parse):
    """parse(text of path); read and parse errors become CliErrors."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {kind} file {path}: {exc}")
    except ValueError as exc:  # TensorFileError and validation errors
        raise CliError(f"bad {kind} file {path}: {exc}")


def _load_tensor(spec: str, lam: Fraction) -> Tensor:
    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        try:
            return builtin(name, lam)
        except KeyError:
            raise CliError(f"unknown builtin tensor: {name}")
    return _read_file("tensor", spec, read_tensor_file)


def _load_group(spec: str):
    if spec == "builtin:klein":
        return klein_group()
    if spec.startswith("builtin:"):
        raise CliError(f"unknown builtin group: {spec[len('builtin:'):]}")
    return _read_file("group", spec, read_group_file)


def _output_tensor(t: Tensor, out: str | None, lam: Fraction | None = None):
    text = write_tensor_file(t, lam)
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write tensor file {out}: {exc}")


def _cmd_show(args) -> int:
    _output_tensor(args.tensor, None)
    return 0


def _cmd_verify(args) -> int:
    t = args.tensor
    if is_matmul_tensor(t):
        print(f"VERIFIED n={t.dim} terms={decomposition_length(t)}")
        return 0
    print("NOT A MULTIPLICATION TENSOR")
    return 1


@lru_cache(maxsize=1)  # repeated runs compare against one builtin spec
def _builtin_type(spec: str, lam: Fraction):
    """tensor_type of a builtin spec; files are read afresh on every call."""
    return tensor_type(_load_tensor(spec, lam))


def _cmd_type(args) -> int:
    other = None
    if args.compare:
        other = (_builtin_type(args.compare, args.lam)
                 if args.compare.startswith("builtin:")
                 else tensor_type(_load_tensor(args.compare, args.lam)))
    ty = tensor_type(args.tensor)
    print(format_type(ty))
    if other is None:
        return 0
    match = ty == other
    print("TYPE MATCH" if match else "TYPE MISMATCH")
    return 0 if match else 1


def _triple(args, dim: int):
    idx = (args.i, args.j, args.k)
    if not all(1 <= x <= dim for x in idx):
        raise CliError(f"indices must lie in 1..{dim}")
    return idx


def _cmd_slices(args) -> int:
    t = args.tensor
    _output_tensor(args.op(t, _triple(args, t.dim)), args.out)
    return 0


def _cmd_act(args) -> int:
    isos = _read_file("isotropy", args.iso, read_isotropy_file)
    if not isos:
        raise CliError(f"isotropy file {args.iso} is empty")
    _output_tensor(act(isos[0], args.tensor), args.out)
    return 0


def _cmd_orbit(args) -> int:
    _output_tensor(orbit_sum(_load_group(args.group), args.tensor), args.out)
    return 0


def _cmd_merge(args) -> int:
    merged = merge_shared_factors(args.tensor)
    _output_tensor(merged, args.out)
    print(f"merged {decomposition_length(args.tensor)} -> "
          f"{len(merged.terms)} terms", file=sys.stderr)
    return 0


def _cmd_construct(args) -> int:
    _output_tensor(builtin(args.name, args.lam), args.out, lam=args.lam)
    return 0


def _cmd_correction(args) -> int:
    res = correction_term(monomial_partition(_load_group(args.group)))
    _output_tensor(res.tensor, args.out)
    print(f"corner coefficient {res.corner_coefficient} "
          f"(total weight {res.corner_total_weight})",
          file=sys.stderr)
    return 0


def _cmd_codegen(args) -> int:
    sched = extract_schedule(args.tensor)
    sys.stdout.write(emit_code(sched, style=args.style))
    counts = op_count(sched)
    print(f"multiplications {counts.multiplications} "
          f"additions {counts.additions} "
          f"scalar-multiplications {counts.scalar_multiplications}",
          file=sys.stderr)
    return 0


def _cmd_mul(args) -> int:
    if not 1 <= args.size <= MAX_MUL_SIZE:
        raise CliError(f"--size must lie in 1..{MAX_MUL_SIZE}")
    base = _load_tensor(args.base, args.lam)
    count = blocking(base, args.size, args.threshold)[3]
    if count > MAX_MUL_SIZE ** 3:
        raise CliError(f"--size {args.size} takes {count} leaf "
                       f"multiplications on this base, over {MAX_MUL_SIZE}**3")
    rng = random.Random(args.seed)
    def rnd():
        return Matrix([[Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                        for _ in range(args.size)] for _ in range(args.size)])
    a, b = rnd(), rnd()
    res = recursive_multiply(base, a, b, threshold=args.threshold)
    ok = res.product == a @ b
    print(f"size {args.size} multiplications {res.scalar_multiplications} "
          f"{'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _cmd_stabilizer_search(args) -> int:
    print(f"stabilizers {monomial_stabilizer_count(args.tensor)}")
    return 0


def _cmd_census(args) -> int:
    all_ok = True
    for (i, j, k), length, ok in projection_census(args.tensor):
        all_ok = all_ok and ok
        print(f"({i},{j},{k}) terms {length} "
              f"{'VERIFIED' if ok else 'FAILED'}")
    return 0 if all_ok else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mmtensor",
                                 description="exact matrix-multiplication "
                                             "tensor workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, tensor=True, lam=True, out=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if tensor:
            p.add_argument("--tensor", required=True,
                           help="tensor file or builtin:<name>")
        if lam:
            p.add_argument("--lambda", dest="lam", default="1",
                           help="rational p/q parameter for builtins")
        if out:
            p.add_argument("--out")
        return p

    command("show", _cmd_show, "print a tensor in the file format")
    command("verify", _cmd_verify, "check the multiplication-tensor law")

    p = command("type", _cmd_type, "report the type multiset")
    p.add_argument("--compare", help="second tensor to compare types with")

    for name, op, help in (("project", tensor_project, "project out"),
                           ("zero", tensor_zero, "zero")):
        p = command(name, _cmd_slices, f"{help} the (i,j,k) slices",
                    out=True)
        p.set_defaults(op=op)
        for f in "ijk":
            p.add_argument(f"--{f}", type=_int_arg, required=True)

    p = command("act", _cmd_act, "apply a sandwiching isotropy", out=True)
    p.add_argument("--iso", required=True, help="isotropy file (first element)")

    p = command("orbit", _cmd_orbit, "sum the orbit under a group", out=True)
    p.add_argument("--group", required=True, help="builtin:klein or file")

    command("merge", _cmd_merge, "merge terms sharing two factors", out=True)

    p = command("construct", _cmd_construct, "build a named construction",
                tensor=False, out=True)
    p.add_argument("name", choices=["laderman-variant", "winograd"])

    p = command("correction", _cmd_correction,
                "count the correction term of a group's monomial orbits",
                tensor=False, lam=False, out=True)
    p.add_argument("--group", required=True, help="builtin:klein or file")

    p = command("codegen", _cmd_codegen, "emit a bilinear schedule as code")
    p.add_argument("--style", choices=["flat", "annotated"], default="flat")

    p = command("mul", _cmd_mul, "multiply random matrices recursively",
                tensor=False)
    p.add_argument("--size", type=_int_arg, required=True)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--base", required=True, help="base tensor spec")
    p.add_argument("--threshold", type=_int_arg, default=1)

    command("stabilizer-search", _cmd_stabilizer_search,
            "search for monomial stabilizers")
    command("census", _cmd_census, "report all n^3 projections")
    return ap


# Built once per process; parse_args keeps no state between calls.
_PARSER = _build_parser()


def _join_negative_lambda(argv: list[str]) -> list[str]:
    """Rewrite "--lambda -3/7" as "--lambda=-3/7".

    argparse takes a separate token such as -3/7 for an option flag, as it
    only knows negative numbers of the form -3 or -0.5.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--lambda" and re.match(r"-\d", tok):
            out[-1] = f"--lambda={tok}"
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(_join_negative_lambda(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if "lam" in args:
            args.lam = _parse_lambda(args.lam)
        if "tensor" in args:
            args.tensor = _load_tensor(args.tensor, args.lam)
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
