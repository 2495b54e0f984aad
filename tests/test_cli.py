import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import brute
from hadcert import (
    bjorck7,
    constr1_family,
    constr2_family,
    find_block_pairs,
    find_commuting_pairs,
    fourier,
    petrescu,
    spancert,
)
from hadcert.cli import (
    POLICY_FLAGS,
    CliError,
    build_parser,
    format_matrix,
    main,
    parse_matrix,
    read_matrix,
)
from hadcert.families import CANDIDATE_CAP, spec_from_json_dict, spec_to_json_dict


def run_cli(args, stdin=None):
    # an unclosed file then prints a warning with a traceback on stderr
    proc = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "-m", "hadcert", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestMatrixFormat:
    def test_cart_round_trip_exact(self, rng):
        u = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        text = format_matrix(u, "cart")
        v = parse_matrix(text)
        assert np.array_equal(u, v)

    def test_cart_write_read_write_byte_identical(self):
        text = format_matrix(bjorck7(), "cart")
        again = format_matrix(parse_matrix(text), "cart")
        assert text == again

    def test_phase_round_trip(self):
        u = petrescu(np.exp(0.3j))
        v = parse_matrix(format_matrix(u, "phase"))
        assert np.max(np.abs(u - v)) < 1e-15

    def test_phase_rejects_non_flat(self):
        with pytest.raises(CliError):
            format_matrix(np.eye(3), "phase")

    @pytest.mark.parametrize("text", [
        "",
        "CART x\n1,0",
        "CART 2\n1,0 2,0\n",            # missing row
        "CART 1\n1,0 2,0\n",            # extra column
        "PHASE 2\n0 zz\n0 0\n",
        "NOPE 2\n1 2\n3 4\n",
        "CART 2\n1,0 nan,0\n1,0 1,0\n",
        "CART 1\n1,inf\n",
        "PHASE 2\n0 0\n-inf 0\n",
    ])
    def test_parse_errors(self, text):
        with pytest.raises(CliError):
            parse_matrix(text)


class TestGen:
    def test_fourier_entry(self):
        code, out, _ = run_cli(["gen", "fourier", "--n", "7"])
        assert code == 0
        assert out.startswith("CART 7\n")
        first = out.splitlines()[1].split()[0]
        re_s, im_s = first.split(",")
        assert abs(float(re_s) - 1 / np.sqrt(7)) < 1e-15
        assert float(im_s) == 0.0

    def test_petrescu_at_zero_angle(self, tmp_path):
        code, out, _ = run_cli(["gen", "petrescu", "--lambda-angle", "0"])
        assert code == 0
        u = parse_matrix(out)
        assert np.max(np.abs(u - petrescu(1.0))) < 1e-15

    def test_bad_order_exit_2(self):
        code, _, err = run_cli(["gen", "fourier", "--n", "0"])
        assert code == 2
        assert "order must be >= 1" in err

    def test_circulant_from_row_file(self, tmp_path):
        row = tmp_path / "row.txt"
        row.write_text("1,0 0,0 0,0\n")
        code, out, _ = run_cli(["gen", "circulant", "--row", str(row)])
        assert code == 0
        assert np.array_equal(parse_matrix(out), np.eye(3, dtype=complex))

    def test_qr_circulant_solve(self):
        code, out, _ = run_cli(["gen", "qr-circulant", "--n", "7"])
        assert code == 0
        u = parse_matrix(out)
        assert np.max(np.abs(np.abs(u) - 1 / np.sqrt(7))) < 1e-12

    def test_qr_circulant_solve_is_bjorck7(self):
        # the closed form at n = 7 is Bjorck's value to the last bit
        assert run_cli(["gen", "qr-circulant", "--n", "7"])[:2] == run_cli(["gen", "bjorck7"])[:2]

    def test_phase_format(self):
        code, out, _ = run_cli(["gen", "fourier", "--n", "5", "--format", "phase"])
        assert code == 0
        assert out.startswith("PHASE 5\n")
        assert np.max(np.abs(parse_matrix(out) - fourier(5))) < 1e-15


class TestVerify:
    def test_bjorck_accepted(self, tmp_path):
        f = tmp_path / "b.mat"
        f.write_text(format_matrix(bjorck7()))
        code, out, _ = run_cli(["verify", str(f)])
        assert code == 0
        doc = json.loads(out)
        assert doc["is_biunitary"] is True
        assert list(doc.keys()) == [
            "is_biunitary", "max_modulus_deviation", "max_unitarity_residual",
        ]

    def test_identity_rejected(self, tmp_path):
        f = tmp_path / "i.mat"
        f.write_text(format_matrix(np.eye(4, dtype=complex)))
        code, out, _ = run_cli(["verify", str(f)])
        assert code == 1
        assert json.loads(out)["is_biunitary"] is False

    def test_malformed_exit_2(self, tmp_path):
        f = tmp_path / "bad.mat"
        f.write_text("CART 3\n1,0 2,0\n")
        code, _, err = run_cli(["verify", str(f)])
        assert code == 2
        assert "error:" in err

    def test_stdin(self):
        code, out, _ = run_cli(["verify", "-"], stdin=format_matrix(fourier(3)))
        assert code == 0


class TestCertify:
    def test_fourier7_isolated_exit_0(self, tmp_path):
        f = tmp_path / "f7.mat"
        f.write_text(format_matrix(fourier(7)))
        code, out, _ = run_cli(["certify", str(f)])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Isolated"
        assert doc["rank"] == 36
        assert list(doc.keys()) == [
            "n", "rank", "expected", "verdict", "gap", "singular_values", "policy",
        ]

    def test_fourier6_span_fails_exit_1(self, tmp_path):
        f = tmp_path / "f6.mat"
        f.write_text(format_matrix(fourier(6)))
        code, out, _ = run_cli(["certify", str(f)])
        assert code == 1
        assert json.loads(out)["verdict"] == "SpanFails"

    def test_absurd_rank_cut_exit_1(self, tmp_path):
        f = tmp_path / "f7.mat"
        f.write_text(format_matrix(fourier(7)))
        code, out, _ = run_cli(["certify", str(f), "--rank-cut", "0.5"])
        assert code == 1
        assert json.loads(out)["verdict"] != "Isolated"

    def test_non_biunitary_exit_2(self, tmp_path):
        f = tmp_path / "i.mat"
        f.write_text(format_matrix(np.eye(4, dtype=complex)))
        code, _, err = run_cli(["certify", str(f)])
        assert code == 2

    def test_serial_and_threaded_blas_agree(self, tmp_path):
        # the bytes may differ between serial and threaded OpenBLAS, from F15
        # on a 2-core Xeon, but not the certificate
        for n, rank in ((15, 180), (32, 912)):
            f = tmp_path / f"f{n}.mat"
            f.write_text(format_matrix(fourier(n)))
            docs = []
            for threads in ("1", "2"):
                proc = subprocess.run([sys.executable, "-m", "hadcert", "certify", str(f)],
                                      capture_output=True, text=True,
                                      env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
                assert proc.returncode == 1, proc.stderr
                docs.append(json.loads(proc.stdout))
            serial, threaded = docs
            assert list(serial) == list(threaded)
            assert (serial["rank"], serial["verdict"]) == (threaded["rank"], threaded["verdict"])
            assert (serial["rank"], serial["verdict"]) == (rank, "SpanFails")
            s1, s2 = np.array(serial["singular_values"]), np.array(threaded["singular_values"])
            assert np.max(np.abs(s1 - s2)) <= 1e-14 * s1[0]

    def test_order_cap_exit_2(self, tmp_path, monkeypatch, capsys):
        f = tmp_path / "f6.mat"
        f.write_text(format_matrix(fourier(6)))
        monkeypatch.setattr(spancert, "CERTIFY_CAP", 5)
        assert main(["certify", str(f)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: order 6 exceeds the certify cap 5\n"


class TestPairs:
    def test_block_on_petrescu(self, tmp_path):
        f = tmp_path / "p.mat"
        f.write_text(format_matrix(petrescu(1.0)))
        code, out, _ = run_cli(["pairs", str(f), "--mode", "block"])
        assert code == 0
        docs = json.loads(out)
        keys = [(d["p1"], d["p2"], d["d1"], d["d2"]) for d in docs]
        assert ([0, 1], [2, 3], [0, 1], [2, 3]) in keys
        assert all(d["theorem"] == "constr2" for d in docs)
        assert all(d["base"] == str(f) for d in docs)

    def test_commuting_on_fourier5_empty_exit_1(self, tmp_path):
        f = tmp_path / "f5.mat"
        f.write_text(format_matrix(fourier(5)))
        code, out, _ = run_cli(["pairs", str(f), "--mode", "commuting"])
        assert code == 1
        assert json.loads(out) == []

    @pytest.mark.parametrize("make, mode", [
        (lambda: petrescu(1.0), "block"), (lambda: fourier(12), "commuting"),
    ], ids=["petrescu-block", "F12-commuting"])
    def test_wire_format(self, make, mode, tmp_path, capsys):
        # the expected stdout is built here, key by key, from loop-made index
        # lists of the finder's masks, so the serializer is not its own check
        f = tmp_path / "u.mat"
        f.write_text(format_matrix(make()))
        u = read_matrix(str(f))
        if mode == "block":
            docs = [{"theorem": "constr2", "base": str(f),
                     "p1": brute.indices(s.p1_mask), "p2": brute.indices(s.p2_mask),
                     "d1": brute.indices(s.d1_mask), "d2": brute.indices(s.d2_mask),
                     "residual": s.residual} for s in find_block_pairs(u)]
        else:
            docs = [{"theorem": "constr1", "base": str(f),
                     "p": brute.indices(s.p_mask), "d": brute.indices(s.d_mask),
                     "residual": s.residual} for s in find_commuting_pairs(u)]
        assert docs
        assert main(["pairs", str(f), "--mode", mode]) == 0
        assert capsys.readouterr().out == json.dumps(docs) + "\n"

    def test_cap_exit_2(self, tmp_path):
        f = tmp_path / "f16.mat"
        f.write_text(format_matrix(fourier(16)))
        code, _, err = run_cli(["pairs", str(f), "--mode", "commuting"])
        assert code == 2
        assert "cap" in err


class TestFamily:
    def test_param_zero_round_trips_bytes(self, tmp_path):
        base = tmp_path / "f4.mat"
        base.write_text(format_matrix(fourier(4)))
        code, specs_out, _ = run_cli(["pairs", str(base), "--mode", "commuting"])
        assert code == 0
        spec = tmp_path / "spec.json"
        spec.write_text(specs_out)
        code, out, _ = run_cli(["family", str(base), "--spec", str(spec), "--param", "0"])
        assert code == 0
        assert out == base.read_text()

    def test_petrescu_family_matches_gen(self, tmp_path):
        base = tmp_path / "p.mat"
        base.write_text(format_matrix(petrescu(1.0)))
        _, specs_out, _ = run_cli(["pairs", str(base), "--mode", "block"])
        docs = json.loads(specs_out)
        idx = next(
            i for i, d in enumerate(docs)
            if (d["p1"], d["p2"], d["d1"], d["d2"]) == ([0, 1], [2, 3], [0, 1], [2, 3])
        )
        spec = tmp_path / "spec.json"
        spec.write_text(specs_out)
        ang = np.pi / 3
        code, fam_out, _ = run_cli(
            ["family", str(base), "--spec", str(spec), "--param", str(ang), "--index", str(idx)]
        )
        assert code == 0
        code, gen_out, _ = run_cli(["gen", "petrescu", "--lambda-angle", str(ang)])
        a = parse_matrix(fam_out)
        b = parse_matrix(gen_out)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_family_member_verifies(self, tmp_path):
        base = tmp_path / "p.mat"
        base.write_text(format_matrix(petrescu(1.0)))
        _, specs_out, _ = run_cli(["pairs", str(base), "--mode", "block"])
        spec = tmp_path / "spec.json"
        spec.write_text(specs_out)
        _, fam_out, _ = run_cli(["family", str(base), "--spec", str(spec), "--param", "2.2"])
        code, _, _ = run_cli(["verify", "-"], stdin=fam_out)
        assert code == 0

    # `hadcert family` stdout on a constr2 spec, frozen: (param, format,
    # sha256 of stdout per BLAS kernel). The base is `gen petrescu
    # --lambda-angle 0.9`. The stdout is first checked against
    # brute.reference_block_phase, which holds on any kernel.
    FROZEN = [
        ("2.2", "cart", {
            "SkylakeX": "88a5a5f9f8cb32f9304c246f34162f8ab2ea9e09f309d445329b4cebe60a7378",
            "Haswell": "aaea8ca98cdb29f3d8b6532f067607fd143303d62b53097c838760d76776dca9",
            "Sandybridge": "11a165ae9319e991dcee931da143503a80e0475895a3ead016d7e199c94b67fc",
        }),
        ("-1.3", "phase", {
            "SkylakeX": "00f597d61122638239f1e705f88d52d7e1ad0cd22659210893e86a5623220d82",
            "Haswell": "4011db9ef92294c4bde66eb130a36590a75b27927b2648d91bc6dc5bfe61fff7",
            "Sandybridge": "3c709d727e1acf44ca9a60a639fda49cd64bce7b55c6e4013d2857cc6049757d",
        }),
    ]

    @pytest.mark.parametrize("param, fmt, digests", FROZEN, ids=["cart", "phase"])
    def test_constr2_output_is_frozen(self, param, fmt, digests, frozen, tmp_path, monkeypatch,
                                      capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "petrescu", "--lambda-angle", "0.9"]) == 0
        (tmp_path / "petrescu.mat").write_text(capsys.readouterr().out)
        doc = {"theorem": "constr2", "base": "petrescu.mat", "p1": [0, 1], "p2": [2, 3],
               "d1": [0, 1], "d2": [2, 3], "residual": 0.0}
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        assert main(["family", "petrescu.mat", "--spec", "spec.json", "--param", param,
                     "--format", fmt]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        spec = spec_from_json_dict(doc, read_matrix("petrescu.mat"))
        want = brute.reference_block_phase(spec, np.exp(1j * float(param)))
        assert out == format_matrix(want, fmt)
        frozen(digests, hashlib.sha256(out.encode()).hexdigest())

    # `hadcert family` is the library constructor of the spec's kind: constr1
    # at t = --param, constr2 at lambda = e^{i --param}. The expected text is
    # computed here, not stored, so the test holds on any BLAS kernel.
    @pytest.mark.parametrize("base, find, member, step", [
        (lambda: fourier(12), find_commuting_pairs, constr1_family, 8),
        (lambda: petrescu(np.exp(0.9j)), find_block_pairs,
         lambda spec, t: constr2_family(spec, np.exp(1j * t)), 1),
    ], ids=["F12-constr1", "petrescu0.9-constr2"])
    def test_family_is_the_library(self, base, find, member, step, tmp_path, monkeypatch,
                                   capsys):
        monkeypatch.chdir(tmp_path)
        u = base()
        Path("base.mat").write_text(format_matrix(u))
        assert np.array_equal(read_matrix("base.mat"), u)
        specs = find(u)
        assert len(specs) >= 3
        Path("spec.json").write_text(json.dumps([spec_to_json_dict(s, "base.mat") for s in specs]))
        for idx in range(0, len(specs), step):
            for param in ("0", "1.3", "-2.5", "3.141592653589793", "1e6"):
                for fmt in ("cart", "phase"):
                    assert main(["family", "base.mat", "--spec", "spec.json", "--param", param,
                                 "--index", str(idx), "--format", fmt]) == 0
                    out, err = capsys.readouterr()
                    assert err == ""
                    assert out == format_matrix(member(specs[idx], float(param)), fmt)
                    want = brute.reference_block_phase(specs[idx], np.exp(1j * float(param)))
                    assert out == format_matrix(want, fmt)

    def test_commuting_member_far_out_verifies(self, tmp_path, capsys):
        # the commuting-pair family is 2*pi-periodic, so every finite --param
        # names a member; one far out on F12 must still verify
        base = tmp_path / "f12.mat"
        base.write_text(format_matrix(fourier(12)))
        assert main(["pairs", str(base), "--mode", "commuting"]) == 0
        spec = tmp_path / "spec.json"
        spec.write_text(capsys.readouterr().out)
        member = tmp_path / "member.mat"
        for idx in range(0, 97, 16):
            assert main(["family", str(base), "--spec", str(spec), "--param", "1e6",
                         "--index", str(idx)]) == 0
            member.write_text(capsys.readouterr().out)
            assert main(["verify", str(member)]) == 0
            assert json.loads(capsys.readouterr().out)["is_biunitary"] is True

    def test_uncertified_spec_exit_2(self, tmp_path):
        base = tmp_path / "b.mat"
        base.write_text(format_matrix(bjorck7()))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "theorem": "constr2", "base": "x", "p1": [0, 1], "p2": [2, 3],
            "d1": [0, 1], "d2": [2, 3], "residual": 0.0,
        }))
        code, _, err = run_cli(["family", str(base), "--spec", str(spec), "--param", "1.0"])
        assert code == 2
        assert "uncertified" in err


class TestSearch:
    def test_invalid_masks_exit_2(self):
        code, _, err = run_cli(["search", "--n", "4", "--masks", "0;1;2"])
        assert code == 2

    def test_max_iters_one_not_converged(self):
        code, out, _ = run_cli([
            "search", "--n", "5", "--masks", "0;1;2;3", "--seed", "0",
            "--max-iters", "1",
        ])
        assert code == 1
        assert json.loads(out)["converged"] is False

    def test_converges_near_solution(self, tmp_path):
        code, out, _ = run_cli([
            "search", "--n", "5", "--masks", ";;;", "--seed", "1", "--starts", "2",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert len(doc["phases"]) == 25


class TestRepro:
    def test_rank_and_det(self):
        code, out, err = run_cli(["repro"])
        assert code == 0
        doc = json.loads(out)
        assert doc["rank"] == 36
        assert doc["minor_order"] == 36
        assert doc["minor_full_rank"] is True
        assert "rank 36" in err


class _CliRuns:
    """Runs the CLI in a directory holding FILES, once per command for the
    class: names in FILES are passed as their paths there. A str value is
    written as UTF-8, a bytes value as it is."""

    FILES = {}

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """run(args) -> (code, stdout, stderr)."""
        where = tmp_path_factory.mktemp("cli_runs")
        for name, data in self.FILES.items():
            (where / name).write_bytes(data if isinstance(data, bytes) else data.encode())
        runs = {}

        def run(args):
            key = tuple(args)
            if key not in runs:
                runs[key] = run_cli([str(where / a) if a in self.FILES else a for a in args])
            return runs[key]

        return run


class TestBadInput(_CliRuns):
    FILES = {
        "nan.mat": "CART 2\nnan,0 0.5,0\n0.5,0 -0.5,0\n",
        "p.mat": format_matrix(petrescu(1.0)),
        "f4.mat": format_matrix(fourier(4)),
        "f10.mat": format_matrix(fourier(10)),
        "f14.mat": format_matrix(fourier(14)),
        "specs.json": json.dumps([{
            "theorem": "constr2", "base": "p.mat", "p1": [0, 1], "p2": [2, 3],
            "d1": [0, 1], "d2": [2, 3], "residual": 0.0,
        }]),
        "str_mask.json": json.dumps({"theorem": "constr1", "base": "p.mat", "p": "ab", "d": [0]}),
        "float_mask.json": json.dumps({"theorem": "constr1", "base": "p.mat", "p": [1.5], "d": [0]}),
        "not_object.json": json.dumps([1]),
        "huge_row.txt": " ".join(["1,0"] * 200000),
        "row.txt": "1,0 0,0 0,0\n",
        "empty_row.txt": " \n",
        "not_utf8.mat": b"CART 2\n\xff\xfe,0 0,0\n0,0 1,0\n",
        "deep.json": "[" * 100000 + "]" * 100000,
        "overflow.mat": "CART 2\n1e308,0 0.5,0\n0.5,0 -0.5,0\n",
        "no_d.json": json.dumps({"theorem": "constr1", "base": "p.mat", "p": [0]}),
        "overflow_spec.json": json.dumps({"theorem": "constr1", "base": "overflow.mat",
                                          "p": [1], "d": [0]}),
        "f4_spec.json": json.dumps({"theorem": "constr1", "base": "f4.mat",
                                    "p": [1, 3], "d": [1, 3]}),
        "one.mat": "CART 1\n2,0\n",
        # not biunitary, and every factor diagonal: the spec's residual is 0
        "diag.mat": format_matrix(2 * np.diag([1, 1j, -1])),
        "diag_spec.json": json.dumps({"theorem": "constr2", "base": "diag.mat",
                                      "p1": [0], "p2": [1], "d1": [0], "d2": [1]}),
    }
    USAGE_ERRORS = [
        ["verify", "nan.mat"],
        ["gen", "petrescu", "--lambda-angle", "nan"],
        ["family", "p.mat", "--spec", "specs.json", "--param", "1.0", "--index", "999"],
        ["family", "p.mat", "--spec", "specs.json", "--param", "nan"],
        ["search", "--n", "4", "--masks", ";;;", "--max-iters", "-5"],
        ["family", "p.mat", "--spec", "str_mask.json", "--param", "1.0"],
        ["family", "p.mat", "--spec", "float_mask.json", "--param", "1.0"],
        ["family", "p.mat", "--spec", "not_object.json", "--param", "1.0"],
        ["gen", "fourier", "--n", "100000000"],
        ["search", "--n", "200000", "--masks", ";;;"],
        ["gen", "circulant", "--row", "huge_row.txt"],
        ["search", "--n", "4", "--masks", ";;;", "--step0", "nan"],
        ["search", "--n", "4", "--masks", ";;;", "--step0", "-0.5"],
        ["search", "--n", "4", "--masks", ";;;", "--tol-obj", "nan"],
        ["search", "--n", "0", "--masks", ";;;"],
        ["search", "--n", "-1", "--masks", ";;;"],
        # a command takes only the policy flags and options its code reads
        ["verify", "p.mat", "--rank-cut", "0.5"],
        ["pairs", "p.mat", "--mode", "block", "--cert-gap", "1e300"],
        ["family", "p.mat", "--spec", "specs.json", "--param", "1.0", "--rank-cut", "0.9"],
        ["gen", "fourier", "--n", "5", "--rank-cut", "0.9"],
        ["gen", "fourier", "--n", "5", "--tol-unitary", "1"],
        ["gen", "bjorck7", "--n", "5"],
        ["gen", "--n", "7", "fourier"],
        ["repro", "--tol-unitary", "1e-300"],
        # a loose tolerance makes every edge vanish: the scan candidates are capped
        ["pairs", "f10.mat", "--mode", "block", "--tol-unitary", "0.5"],
        ["pairs", "f14.mat", "--mode", "commuting", "--tol-unitary", "0.5"],
        # undecodable bytes, over-deep JSON, a result that is not finite, a missing field
        ["verify", "not_utf8.mat"],
        ["certify", "not_utf8.mat"],
        ["family", "p.mat", "--spec", "deep.json", "--param", "1.0"],
        ["verify", "overflow.mat"],
        ["family", "p.mat", "--spec", "no_d.json", "--param", "1.0"],
    ]
    NEGATIVE_VERDICTS = [
        ["certify", "f4.mat"],
        ["search", "--n", "5", "--masks", "0;1;2;3", "--seed", "0", "--max-iters", "1"],
    ]
    POSITIVE_VERDICTS = [
        ["verify", "p.mat"],
        ["family", "p.mat", "--spec", "specs.json", "--param", "1.0"],
        ["gen", "circulant", "--row", "row.txt"],
    ]

    @pytest.mark.parametrize("args", USAGE_ERRORS)
    def test_usage_error_exit_2(self, args, run):
        code, out, err = run(args)
        assert code == 2
        assert out == ""
        assert "error:" in err
        assert "Traceback" not in err

    # usage errors whose message must name the actual cause
    CAUSES = [
        (["gen", "--n", "7", "fourier"], "the options follow the kind"),
        (["gen", "bjorck7", "--n", "5"], "unrecognized arguments: --n 5"),
        (["pairs", "f10.mat", "--mode", "block", "--tol-unitary", "0.5"],
         f"more than {CANDIDATE_CAP} candidates"),
        (["pairs", "f14.mat", "--mode", "commuting", "--tol-unitary", "0.5"],
         f"more than {CANDIDATE_CAP} candidates"),
        (["verify", "not_utf8.mat"], "cannot read"),
        (["family", "p.mat", "--spec", "deep.json", "--param", "1.0"], "nested too deeply"),
        (["verify", "overflow.mat"], "residuals overflow"),
        (["certify", "overflow.mat"], "residuals overflow"),
        (["pairs", "overflow.mat", "--mode", "block"], "residuals overflow"),
        (["family", "p.mat", "--spec", "no_d.json", "--param", "1.0"], "no 'd' mask"),
        (["family", "overflow.mat", "--spec", "overflow_spec.json", "--param", "1.0"],
         "residual overflows"),
        # the member is unitary to 4e-16; only its moduli miss a 1e-300 tolerance
        (["family", "f4.mat", "--spec", "f4_spec.json", "--param", "1.3", "--tol-entry", "1e-300"],
         "modulus deviation"),
        (["gen", "circulant", "--row", "empty_row.txt"], "circulant row must be non-empty"),
        (["search", "--n", "4", "--masks", ";;;", "--seed", "-1"], "rng_seed must be >= 0"),
        (["gen", "fourier", "--n", "1000000000000"], "order 1000000000000 is too large"),
        # order 1 and the member at --param 0 pass the biunitarity gate too
        (["pairs", "one.mat", "--mode", "commuting"],
         "find_commuting_pairs input is not biunitary"),
        (["pairs", "one.mat", "--mode", "block"], "find_block_pairs input is not biunitary"),
        (["family", "diag.mat", "--spec", "diag_spec.json", "--param", "0"],
         "family member is not biunitary"),
    ]

    @pytest.mark.parametrize("args, cause", CAUSES, ids=[
        "gen-option-before-kind", "gen-foreign-option", "pairs-block-capped", "pairs-commuting-capped",
        "undecodable-file", "deep-spec", "non-finite-result", "certify-non-finite",
        "pairs-non-finite", "spec-missing-mask", "family-non-finite", "family-modulus-only",
        "circulant-empty-row", "search-negative-seed", "gen-huge-order",
        "pairs-commuting-order-1", "pairs-block-order-1", "family-param-0-gated"])
    def test_usage_error_names_cause(self, args, cause, run):
        # one error line naming the cause, and no numpy warning before it
        code, out, err = run(args)
        assert (code, out) == (2, "")
        assert cause in err
        assert err.count("error:") == 1
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("args", USAGE_ERRORS + NEGATIVE_VERDICTS + POSITIVE_VERDICTS)
    def test_exit_contract(self, args, run):
        # 1 is the negative-verdict code, so it must come with a verdict in
        # strict JSON
        code, out, err = run(args)
        assert code in (0, 1, 2)
        if code == 1:
            json.loads(out, parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
        if args in self.NEGATIVE_VERDICTS:
            assert code == 1
        if args in self.POSITIVE_VERDICTS:
            assert code == 0
        assert "Traceback" not in err
        assert "ResourceWarning" not in err


class TestPolicyFlags(_CliRuns):
    """Every policy flag a command accepts is read: some value of it changes
    the exit code or stdout. Every other policy flag is a usage error."""

    FILES = {
        **TestBadInput.FILES,
        "f7.mat": format_matrix(fourier(7)),
        "near_flat_row.txt": "0.5,0 0.5,0 0.5,0 0.50000001,0\n",
    }
    COMMANDS = {
        "verify": ["verify", "p.mat"],
        "certify": ["certify", "f7.mat"],
        "pairs": ["pairs", "p.mat", "--mode", "block"],
        "family": ["family", "p.mat", "--spec", "specs.json", "--param", "1.0"],
        "repro": ["repro"],
        "gen fourier": ["gen", "fourier", "--n", "5", "--format", "phase"],
        "gen petrescu": ["gen", "petrescu", "--format", "phase"],
        "gen bjorck7": ["gen", "bjorck7", "--format", "phase"],
        "gen qr-circulant": ["gen", "qr-circulant", "--n", "23"],
        "gen circulant": ["gen", "circulant", "--row", "near_flat_row.txt", "--format", "phase"],
    }
    # bjorck7 has exactly flat moduli, so no positive --tol-entry changes what
    # repro or gen bjorck7 print; the policy check still reads it
    EFFECTS = [
        ("verify", "--tol-entry", "1e-300"),
        ("verify", "--tol-unitary", "1e-300"),
        ("certify", "--tol-entry", "1e-300"),
        ("certify", "--tol-unitary", "1e-300"),
        ("certify", "--rank-cut", "0.5"),
        ("certify", "--cert-gap", "1e300"),
        ("pairs", "--tol-entry", "1e-300"),
        ("pairs", "--tol-unitary", "1e-300"),
        ("family", "--tol-entry", "1e-300"),
        ("family", "--tol-unitary", "1e-300"),
        ("repro", "--tol-entry", "0"),
        ("repro", "--tol-unitary", "1e-300"),
        ("repro", "--rank-cut", "0.5"),
        ("repro", "--cert-gap", "1e300"),
        ("gen fourier", "--tol-entry", "1e-300"),
        ("gen petrescu", "--tol-entry", "1e-300"),
        ("gen bjorck7", "--tol-entry", "0"),
        ("gen qr-circulant", "--tol-entry", "1e-300"),
        ("gen qr-circulant", "--tol-unitary", "1e-300"),
        ("gen circulant", "--tol-entry", "1e-7"),
    ]

    @pytest.mark.parametrize("command, flag, value", EFFECTS)
    def test_flag_changes_outcome(self, command, flag, value, run):
        args = self.COMMANDS[command]
        code, out, _ = run(args)
        flagged = run(args + [flag, value])
        assert (code, out) != flagged[:2]
        assert "Traceback" not in flagged[2]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_only_read_flags_accepted(self, command):
        read = {flag for c, flag, _ in self.EFFECTS if c == command}
        for flag in POLICY_FLAGS:
            argv = self.COMMANDS[command] + [flag, "1"]
            if flag in read:
                build_parser().parse_args(argv)
            else:
                with pytest.raises(SystemExit):
                    build_parser().parse_args(argv)


def test_import_skips_scipy():
    code = "import hadcert.cli, sys; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("module", [
    "hadcert", "hadcert.cli", "hadcert.cmatrix", "hadcert.families",
    "hadcert.hadamard", "hadcert.search", "hadcert.spancert",
])
def test_exports_resolve(module):
    names = {}
    exec(f"from {module} import *", names)
    assert set(getattr(importlib.import_module(module), "__all__", ())) <= names.keys()


def test_memory_error_exit_2(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("hadcert.cli.format_matrix", exhausted)
    assert main(["gen", "fourier", "--n", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["repro"],
        ["gen", "petrescu", "--lambda-angle", "0.75"],
        ["search", "--n", "4", "--masks", ";;;", "--seed", "7", "--starts", "2",
         "--max-iters", "50"],
    ])
    def test_byte_identical_runs(self, args):
        code1, out1, _ = run_cli(args)
        code2, out2, _ = run_cli(args)
        assert code1 == code2
        assert out1 == out2

    def test_certify_byte_identical(self, tmp_path):
        f = tmp_path / "f5.mat"
        f.write_text(format_matrix(fourier(5)))
        _, out1, _ = run_cli(["certify", str(f)])
        _, out2, _ = run_cli(["certify", str(f)])
        assert out1 == out2
