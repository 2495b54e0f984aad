"""Command-line front end: matrix file I/O, verification and certification
with canonical JSON output, family generation, phase search, and the
end-to-end order-7 circulant reproduction.

Exit codes are uniform across subcommands:
    0   positive verdict (or successful generation)
    1   negative or inconclusive verdict
    2   usage or input error

main is the one place that decides exit 2: it catches every ValueError (the
library's input-error type, which CliError, undecodable files and malformed
JSON also raise), MemoryError and the RecursionError of over-deep JSON. Any
other exception is a bug and surfaces as a traceback.

JSON goes to stdout, diagnostics to stderr. All JSON output is canonical:
fixed key order, repr-style float formatting, no locale dependence. It is
also strict: a non-finite value in a result is an input error (exit 2), and
certify's infinite gap is written as null. pairs writes the public finder's
specs through families.spec_to_json_dict, the one witness serializer.

Each command takes only the policy flags its code reads: all four on certify
and repro, --tol-entry and --tol-unitary on verify, pairs and family, and
--tol-entry on every gen kind (for --format phase) plus --tol-unitary on gen
qr-circulant. The gen kinds are subcommands, each with its own options.

Matrix files:
    CART n      header, then n rows of n "re,im" tokens (17 significant
                digits; write -> read -> write is byte-identical)
    PHASE n     header, then n rows of n real angles theta; the entry is
                (1/sqrt(n)) e^{i theta}. Exact for biunitaries.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import families, hadamard, search, spancert
from .cmatrix import DEFAULT_POLICY, NumericPolicy, mask_from_indices, numerical_rank

__all__ = ["main", "read_matrix", "format_matrix", "parse_matrix"]

DET_FMT = "%.17g"


class CliError(ValueError):
    """Usage or input error; maps to exit code 2, as every ValueError does."""


# --- matrix file format ---------------------------------------------------------

def _fmt(x):
    return DET_FMT % x


def finite(tok):
    """float(tok), with ValueError for nan and inf as for any bad token."""
    x = float(tok)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {tok!r}")
    return x


def complex_token(tok):
    """complex from a 're,im' token, with ValueError for any other token,
    nan and inf included."""
    try:
        re_s, im_s = tok.split(",")
        return complex(finite(re_s), finite(im_s))
    except ValueError:
        raise ValueError(f"bad complex token {tok!r}; expected 're,im'") from None


def format_matrix(u, fmt="cart", policy=DEFAULT_POLICY):
    """Render a matrix in CART or PHASE format."""
    u = np.asarray(u, dtype=np.complex128)
    n = u.shape[0]
    fmt = fmt.lower()
    lines = []
    if fmt == "cart":
        lines.append(f"CART {n}")
        for row in u:
            lines.append(" ".join(f"{_fmt(z.real)},{_fmt(z.imag)}" for z in row))
    elif fmt == "phase":
        dev = float(np.max(np.abs(np.abs(u) * np.sqrt(n) - 1.0)))
        if dev > policy.tol_entry:
            raise CliError(
                f"PHASE format needs flat moduli 1/sqrt(n); deviation {dev:.3e}"
            )
        lines.append(f"PHASE {n}")
        for row in u:
            lines.append(" ".join(_fmt(t) for t in np.angle(row)))
    else:
        raise CliError(f"unknown format {fmt!r}")
    return "\n".join(lines) + "\n"


def parse_matrix(text):
    """Parse CART/PHASE text into a complex matrix."""
    rows = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise CliError("empty matrix file")
    head = rows[0].split()
    if len(head) != 2 or head[0] not in ("CART", "PHASE"):
        raise CliError(f"bad header {rows[0]!r}; expected 'CART n' or 'PHASE n'")
    try:
        n = int(head[1])
    except ValueError:
        raise CliError(f"bad order in header {rows[0]!r}") from None
    if n < 1:
        raise CliError("order must be >= 1")
    if len(rows) != n + 1:
        raise CliError(f"expected {n} matrix rows, found {len(rows) - 1}")
    out = np.empty((n, n), dtype=np.complex128)
    for i, line in enumerate(rows[1:]):
        toks = line.split()
        if len(toks) != n:
            raise CliError(f"row {i}: expected {n} entries, found {len(toks)}")
        for j, tok in enumerate(toks):
            try:
                if head[0] == "CART":
                    out[i, j] = complex_token(tok)
                else:
                    out[i, j] = np.exp(1j * finite(tok)) / np.sqrt(n)
            except ValueError:
                raise CliError(f"row {i}, column {j}: bad token {tok!r}") from None
    return out


def _read_text(path, stdin=False):
    """The text of the file at path, or of stdin when stdin is set; a
    CliError when it cannot be read."""
    try:
        if stdin:
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def read_matrix(path):
    """Read a matrix file; '-' reads stdin."""
    return parse_matrix(_read_text(path, stdin=path == "-"))


# --- helpers --------------------------------------------------------------------

# flag -> (NumericPolicy field, help); a command registers the flags its code
# reads, and fields it does not register keep their defaults
POLICY_FLAGS = {
    "--tol-entry": ("tol_entry", "unimodularity tolerance"),
    "--tol-unitary": ("tol_unitary", "unitarity / commutation tolerance"),
    "--rank-cut": ("rank_rel_cut", "relative singular value cut for rank"),
    "--cert-gap": ("cert_gap_min", "minimum spectral gap for a certified verdict"),
}


def _policy_from(args):
    fields = {f: getattr(args, f) for f, _ in POLICY_FLAGS.values() if hasattr(args, f)}
    return NumericPolicy(**fields)


def _add_policy_flags(p, *flags):
    """Register the given policy flags on p, all four when none are given."""
    for flag in flags or POLICY_FLAGS:
        field, text = POLICY_FLAGS[flag]
        p.add_argument(flag, dest=field, type=float, default=getattr(DEFAULT_POLICY, field),
                       help=text)


def _emit(obj):
    """Write obj as strict JSON: a non-finite float raises ValueError."""
    sys.stdout.write(json.dumps(obj, allow_nan=False) + "\n")


def _parse_index_list(tok, n):
    tok = tok.strip()
    try:
        idx = [int(t) for t in tok.split(",")] if tok else []
    except ValueError:
        raise ValueError(f"bad index list {tok!r}") from None
    return mask_from_indices(idx, n)


# --- subcommands ----------------------------------------------------------------

def _gen_qr_circulant(args, policy):
    a = "solve" if args.a == "solve" else complex_token(args.a)
    return hadamard.qr_circulant(args.n, a, policy)


def _gen_circulant(args, policy):
    return hadamard.circulant([complex_token(t) for t in _read_text(args.row).split()])


def cmd_gen(args):
    policy = _policy_from(args)
    sys.stdout.write(format_matrix(args.make(args, policy), args.format, policy))
    return 0


def cmd_verify(args):
    u = read_matrix(args.file)
    v = hadamard.verify_biunitary(u, _policy_from(args))
    _emit(
        {
            "is_biunitary": v.is_biunitary,
            "max_modulus_deviation": v.max_modulus_deviation,
            "max_unitarity_residual": v.max_unitarity_residual,
        }
    )
    return 0 if v.is_biunitary else 1


def cmd_certify(args):
    u = read_matrix(args.file)
    cert = spancert.certify_isolation(u, _policy_from(args))
    _emit(cert.to_json_dict())
    return 0 if cert.verdict == spancert.ISOLATED else 1


def cmd_pairs(args):
    find = {"commuting": families.find_commuting_pairs, "block": families.find_block_pairs}
    specs = find[args.mode](read_matrix(args.file), _policy_from(args))
    _emit([families.spec_to_json_dict(s, args.file) for s in specs])
    return 0 if specs else 1


def cmd_family(args):
    u = read_matrix(args.file)
    policy = _policy_from(args)
    doc = json.loads(_read_text(args.spec))
    if isinstance(doc, list):
        if not doc:
            raise CliError("spec file holds an empty list")
        if not 0 <= args.index < len(doc):
            raise CliError(f"--index {args.index} is out of range for {len(doc)} specs")
        doc = doc[args.index]
    spec = families.spec_from_json_dict(doc, u)
    member = families._block_phase(spec, np.exp(1j * args.param), policy)
    sys.stdout.write(format_matrix(member, args.format, policy))
    return 0


def cmd_search(args):
    parts = args.masks.split(";")
    if len(parts) != 4:
        raise CliError("--masks must hold four ';'-separated index lists")
    if args.starts < 1:
        raise CliError("--starts must be >= 1")
    masks = [_parse_index_list(p, args.n) for p in parts]
    configs = (search.SearchConfig(args.n, *masks, max_iters=args.max_iters,
                                   step0=args.step0, tol_obj=args.tol_obj,
                                   rng_seed=args.seed + k) for k in range(args.starts))
    # min keeps the first of equal objectives, so the lowest start wins ties
    best = min(map(search.local_search, configs), key=lambda res: res.objective)
    _emit(
        {
            "n": args.n,
            "phases": [float(t) for t in best.phases.ravel()],
            "objective": best.objective,
            "iterations": best.iterations,
            "converged": best.converged,
        }
    )
    return 0 if best.converged else 1


def cmd_repro(args):
    """End-to-end order-7 circulant check: span matrix, rank + gap, reduced
    minor and |det|."""
    policy = _policy_from(args)
    u = hadamard.bjorck7()
    a = spancert.span_matrix(u)
    cert = spancert.certify_isolation(u, policy)
    m = spancert.reduced_minor(a)
    _, logdet = np.linalg.slogdet(m)
    det_abs = float(np.exp(logdet))
    mrank, mgap, _ = numerical_rank(m, policy)
    det_ok = mrank == m.shape[0] and mgap >= policy.cert_gap_min
    print(f"order-7 quadratic-residue circulant (value {hadamard.BJORCK7_A})", file=sys.stderr)
    print(f"span matrix: {a.shape[0]}x{a.shape[1]}, rank {cert.rank} "
          f"(expected {cert.expected}), gap {cert.gap:.3e}", file=sys.stderr)
    print(f"reduced minor: {m.shape[0]}x{m.shape[0]}, |det| = {det_abs:.12e}, "
          f"full rank: {det_ok}", file=sys.stderr)
    print(f"verdict: {cert.verdict}", file=sys.stderr)
    _emit(
        {
            "matrix": "bjorck7",
            "n": cert.n,
            "rank": cert.rank,
            "expected": cert.expected,
            "gap": cert.to_json_dict()["gap"],
            "verdict": cert.verdict,
            "minor_order": m.shape[0],
            "abs_det_minor": det_abs,
            "minor_full_rank": det_ok,
        }
    )
    return 0 if cert.verdict == spancert.ISOLATED and det_ok else 1


# --- parser ----------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="hadcert",
        description="Biunitary (complex Hadamard) matrices: generate, verify, "
                    "certify isolation, find and generate one-parameter families.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a built-in matrix",
                         usage="%(prog)s kind [options]: the options follow the kind")
    gen.set_defaults(func=cmd_gen)
    kinds = gen.add_subparsers(dest="kind", required=True, prog=gen.prog)

    def kind(name, make, *flags):
        """A gen kind: make(args, policy) returns its matrix."""
        p = kinds.add_parser(name)
        p.add_argument("--format", choices=["cart", "phase"], default="cart")
        _add_policy_flags(p, "--tol-entry", *flags)
        p.set_defaults(make=make)
        return p

    p = kind("fourier", lambda args, policy: hadamard.fourier(args.n))
    p.add_argument("--n", type=int, required=True, help="order")
    p = kind("petrescu", lambda args, policy: hadamard.petrescu(np.exp(1j * args.lambda_angle)))
    p.add_argument("--lambda-angle", type=finite, default=0.0,
                   help="family parameter as an angle in radians")
    kind("bjorck7", lambda args, policy: hadamard.bjorck7())
    p = kind("qr-circulant", _gen_qr_circulant, "--tol-unitary")
    p.add_argument("--n", type=int, required=True, help="order")
    p.add_argument("--a", type=str, default="solve", help="'re,im' value or 'solve'")
    kind("circulant", _gen_circulant).add_argument(
        "--row", type=str, required=True, help="file of 're,im' tokens for the first row")

    p = sub.add_parser("verify", help="biunitarity verdict as JSON")
    p.add_argument("file")
    _add_policy_flags(p, "--tol-entry", "--tol-unitary")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="span-rank isolation certificate as JSON")
    p.add_argument("file")
    _add_policy_flags(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("pairs", help="exhaustive witness search")
    p.add_argument("file")
    p.add_argument("--mode", choices=["commuting", "block"], required=True)
    _add_policy_flags(p, "--tol-entry", "--tol-unitary")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("family", help="emit one family member from a spec file")
    p.add_argument("file", help="base matrix file")
    p.add_argument("--spec", required=True, help="JSON spec (as emitted by pairs)")
    p.add_argument("--param", type=finite, required=True,
                   help="angle of lambda, for both kinds (t for a commuting pair)")
    p.add_argument("--index", type=int, default=0,
                   help="which spec when the file holds a list")
    p.add_argument("--format", choices=["cart", "phase"], default="cart")
    _add_policy_flags(p, "--tol-entry", "--tol-unitary")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("search", help="phase-descent search for block quadruple bases")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--masks", type=str, required=True,
                   help="four ';'-separated comma index lists: p1;p2;p3;p4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=1)
    p.add_argument("--max-iters", type=int, default=10000)
    p.add_argument("--step0", type=float, default=0.1)
    p.add_argument("--tol-obj", type=float, default=1e-10)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("repro", help="order-7 circulant rank/determinant reproduction")
    _add_policy_flags(p)
    p.set_defaults(func=cmd_repro)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        message = str(exc)
    except MemoryError:
        message = "the input is too large to hold in memory"
    except RecursionError:
        message = "the input is nested too deeply"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
