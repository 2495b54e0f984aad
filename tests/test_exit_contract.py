"""A seeded, bounded generator of bad CLI inputs, run in-process through
cli.main. Every case must end with exit 0, 1 or 2 and no exception escaping
main (argparse's SystemExit(2) counts as exit 2). Exit 0 or 1 must come with
stdout that a strict parser accepts: strict JSON, or a matrix file for gen
and family. Exit 2 must leave stdout empty.

The cases mutate matrix text and bytes, spec JSON (nesting, wrong types,
huge integers), circulant row files, the --masks grammar and numeric flag
values. Every generated order is at most 8, every --n at most 16 and every
--max-iters at most 50, so no case allocates much or runs long.
"""

import contextlib
import io
import json
import random
import sys

import numpy as np
import pytest

from hadcert import bjorck7, find_commuting_pairs, fourier, petrescu
from hadcert.cli import format_matrix, main, parse_matrix
from hadcert.families import spec_to_json_dict

SEED = 11
CASES = 500

BAD_TOKENS = ["nan,0", "inf,0", "0,-inf", "1e308,0", "1e309,0", "4.9e-324,0", "1,2,3", "1",
              ",", "x,y", "0x1,0", "1_0,0", "\u0661,0", "--", "nan", "1e999", "0.5,0"]
HEADERS = ["CART 0", "CART -1", "CART x", "CART", "CART 2 2", "cart 2", "PHASE 0", "PHASE 3",
           "CART 99999999999999999999", "CART 1e1", "CART \u0662", " "]
# str.splitlines splits on more than "\n"
ODD_CHARS = [" ", "\x1c", "\x85", "\r", "\x0c", "\ufeff", "\x00", "\t"]
BAD_BYTES = [b"\xff", b"\xfe", b"\xc3", b"\xed\xa0\x80", b"\x80"]
JSON_VALUES = [[], "ab", [1.5], [True], [10**30], [-1], {"0": 1}, None, [[0]], 0, "constr3",
               [0, 0], list(range(9)), [2**63], [0, 1], [2, 3], [0]]
FLAG_VALUES = ["1e-9", "0", "-1", "nan", "inf", "1e300", "1e-300", "0.5", "x", "1e-12", "2"]
PARAMS = ["0", "1.0", "-2.5", "nan", "inf", "1e308", "1e-320", "x", "3.14159", "-1e300"]
MASKS = [";;;", "0,1;2,3;0,1;2,3", "0;1;2", ",;;;", "0,,1;;;", "a;;;", "99;;;", "-1;;;",
         "0;0;0;0", " 1 , 2 ;;;", "1.5;;;", "\u0661;;;", "1_0;;;", " ; ; ; ", ";;;;", "0,1;;;"]
ORDERS = ["-1", "0", "1", "2", "3", "4", "5", "7", "8", "16", "x", "1e3", "0x4"]
POLICY = ["--tol-entry", "--tol-unitary", "--rank-cut", "--cert-gap"]


def _reject(const):
    raise ValueError(f"non-strict JSON constant {const}")


def _matrix(rng):
    """A small matrix: biunitary, or random, or scaled to the edge of float."""
    n = rng.randint(1, 8)
    u = rng.choice([
        lambda: fourier(n),
        lambda: petrescu(1.0),
        lambda: petrescu(np.exp(1j * rng.uniform(-4, 4))),
        bjorck7,
        lambda: np.random.default_rng(rng.randrange(2**32)).normal(size=(n, n, 2)) @ [1, 1j],
    ])()
    if rng.random() < 0.1:
        u = u * rng.choice([1e200, 1e-200, 1e308])
    return u


def _mutate_text(rng, text, pool):
    """Apply up to three random edits to text: a token from pool, a new
    header, a dropped or doubled line, an odd character, a truncation."""
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        lines = text.split("\n")
        i = rng.randrange(len(lines))
        op = rng.randrange(6)
        if op == 0:
            toks = lines[i].split(" ")
            toks[rng.randrange(len(toks))] = rng.choice(pool)
            lines[i] = " ".join(toks)
        elif op == 1:
            lines[0] = rng.choice(HEADERS)
        elif op == 2:
            del lines[i]
        elif op == 3:
            lines.insert(i, lines[i])
        elif op == 4:
            k = rng.randrange(len(text) + 1)
            lines = [text[:k] + rng.choice(ODD_CHARS) + text[k:]]
        else:
            lines = [text[:rng.randrange(len(text) + 1)]]
        text = "\n".join(lines)
    return text


def _to_file(rng, text):
    """text as UTF-8 bytes, sometimes with an undecodable byte spliced in."""
    data = text.encode()
    if rng.random() < 0.15:
        k = rng.randrange(len(data) + 1)
        data = data[:k] + rng.choice(BAD_BYTES) + data[k:]
    return data


def _matrix_file(rng):
    fmt = "phase" if rng.random() < 0.2 else "cart"
    try:
        text = format_matrix(_matrix(rng), fmt)
    except ValueError:
        text = format_matrix(_matrix(rng), "cart")
    return _to_file(rng, _mutate_text(rng, text, BAD_TOKENS))


def _spec_file(rng, doc):
    """Spec JSON from doc, with wrong types, missing fields, list wrapping,
    deep nesting and huge numbers mixed in."""
    doc = dict(doc)
    for _ in range(rng.choice([0, 0, 1, 2])):
        key = rng.choice(list(doc))
        if rng.random() < 0.3:
            del doc[key]
        else:
            doc[key] = rng.choice(JSON_VALUES)
    wrap = rng.random()
    if wrap < 0.2:
        doc = [doc] * rng.randint(0, 2)
    elif wrap < 0.3:
        doc = [doc, 3, "x"]
    text = json.dumps(doc)
    edit = rng.random()
    if edit < 0.2:
        depth = rng.choice([1, 50, 100000, 100000])
        text = "[" * depth + text + "]" * depth
    elif edit < 0.25:
        text = rng.choice(["1" * 5000, "[" + "1" * 5000 + "]", "NaN", "-Infinity", "", "{"])
    elif edit < 0.35:
        text = text.replace("[0", "[NaN", 1).replace("[2", "[1" + "0" * 400, 1)
    elif edit < 0.4:
        text = text[:rng.randrange(len(text) + 1)]
    return _to_file(rng, text)


def _row_file(rng):
    toks = [rng.choice(["0.5,0", "0,0.5", "1,0", "0,0", "-0.5,0"]) for _ in range(rng.randint(0, 8))]
    return _to_file(rng, _mutate_text(rng, " ".join(toks) + "\n", BAD_TOKENS))


def _flags(rng, names, values=FLAG_VALUES):
    argv = []
    for name in names:
        if rng.random() < 0.3:
            argv += [name, rng.choice(values)]
    return argv


def _case(rng, witnesses):
    """(argv, files, stdin): argv names the keys of files, which map to
    bytes, and stdin is bytes or None. witnesses holds (base matrix file,
    spec) pairs that family accepts."""
    files, stdin = {}, None
    command = rng.choice(["verify", "certify", "pairs", "family", "search", "gen", "gen", "repro"])
    argv = [command]
    base, spec = rng.choice(witnesses)
    if command in ("verify", "certify", "pairs", "family"):
        if command != "family" or rng.random() < 0.5:
            base = _matrix_file(rng)
        if rng.random() < 0.1:
            argv.append("-")
            stdin = base
        else:
            argv.append("m")
            files["m"] = base
    if command in ("verify", "pairs", "family"):
        argv += _flags(rng, POLICY[:2])
    elif command in ("certify", "repro"):
        argv += _flags(rng, POLICY)
    if command == "pairs":
        argv += ["--mode", rng.choice(["block", "commuting", "x"])]
    elif command == "family":
        files["s"] = _spec_file(rng, spec)
        argv += ["--spec", "s", "--param", rng.choice(PARAMS)]
        argv += _flags(rng, ["--index"], ["0", "1", "-1", "99", "x"])
        argv += _flags(rng, ["--format"], ["cart", "phase", "x"])
    elif command == "search":
        argv = ["search", "--n", rng.choice(ORDERS), "--masks", rng.choice(MASKS)]
        argv += _flags(rng, ["--seed"], ["0", "-1", "99999999999999999999", "x"])
        argv += _flags(rng, ["--starts"], ["0", "1", "3", "-1"])
        argv += ["--max-iters", rng.choice(["0", "1", "20", "50", "-5"])]
        argv += _flags(rng, ["--step0", "--tol-obj"], PARAMS)
    elif command == "gen":
        kind = rng.choice(["fourier", "petrescu", "bjorck7", "qr-circulant", "circulant"])
        argv = ["gen", kind]
        if kind in ("fourier", "qr-circulant"):
            argv += ["--n", rng.choice(ORDERS)]
        if kind == "petrescu":
            argv += _flags(rng, ["--lambda-angle"], PARAMS)
        if kind == "qr-circulant":
            argv += _flags(rng, ["--a"], ["solve", "1,0", "0,1", "nan,0", "x", "1e308,0"])
            argv += _flags(rng, ["--tol-unitary"])
        if kind == "circulant":
            files["r"] = _row_file(rng)
            argv += ["--row", "r"]
        argv += _flags(rng, ["--tol-entry"])
        argv += _flags(rng, ["--format"], ["cart", "phase", "x"])
    return argv, files, stdin


def _run(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(stdin or b""), encoding="utf-8")
    saved, sys.stdin = sys.stdin, stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    except Exception as exc:
        raise AssertionError(f"hadcert {argv!r} raised {exc!r}") from exc
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _problem(argv, code, out):
    """What breaks the exit contract in one run, or None."""
    if code not in (0, 1, 2):
        return f"exit {code!r}"
    if code == 2:
        return None if out == "" else "exit 2 with output"
    try:
        if argv[0] in ("gen", "family"):
            parse_matrix(out)
        else:
            json.loads(out, parse_constant=_reject)
    except ValueError as exc:
        return f"exit {code} with unparseable output: {exc}"
    return None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_generated_inputs_keep_exit_contract(tmp_path):
    rng = random.Random(SEED)
    f4 = fourier(4)
    witnesses = [(format_matrix(f4).encode(), spec_to_json_dict(s, "b"))
                 for s in find_commuting_pairs(f4)]
    witnesses.append((format_matrix(petrescu(1.0)).encode(), {
        "theorem": "constr2", "base": "b", "p1": [0, 1], "p2": [2, 3], "d1": [0, 1], "d2": [2, 3]}))
    problems, codes, commands = [], set(), set()
    for case in range(CASES):
        argv, files, stdin = _case(rng, witnesses)
        for name, data in files.items():
            (tmp_path / f"{case}_{name}").write_bytes(data)
        argv = [str(tmp_path / f"{case}_{a}") if a in files else a for a in argv]
        code, out = _run(argv, stdin)
        problem = _problem(argv, code, out)
        if problem:
            problems.append((argv, problem))
        codes.add(code)
        commands.add(argv[0])
    assert problems == []
    # the generator reaches every command and every verdict, not only errors
    assert codes == {0, 1, 2}
    assert commands == {"verify", "certify", "pairs", "family", "search", "gen", "repro"}
