import functools
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gbcodex import distance
from gbcodex.cli import main
from gbcodex.distance import determine, lattice_fields
from oracle_utils import canonical_alpha

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_table_code(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--a", "1+x", "--b", "1+x^5", "--n", "13")
        assert code == 0
        assert "[[26, 2]]" in out
        assert "lambda2=13" in out and "minL1=5" in out
        assert "rank-based=2 gcd-formula=2 ok" in out

    def test_trivial_code_reports_infinite(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--a", "1", "--b", "1", "--n", "3")
        assert code == 0
        assert "[[6, 0]]" in out
        assert "distance: infinite" in out

    def test_equivalent_pair_reports_its_lattice(self, capsys):
        # (1 + x^3, 1 + x, 10) is the canonical alpha = 7 code, read off its own pair lattice
        code, out, _ = run_cli(capsys, "construct", "--a", "1+x^3", "--b", "1+x", "--n", "10")
        assert code == 0
        fields = lattice_fields(7, 10)
        assert out.splitlines()[0] == f"[[20, 2]] lambda2={fields['lambda2']} minL1={fields['min_l1']}"
        assert "alpha=" not in out

    def test_non_reducible_pair_reported(self, capsys):
        # neither exponent is invertible mod 8, and the pair lattice still answers: g = 2, d = 2
        code, out, _ = run_cli(capsys, "construct", "--a", "1+x^2", "--b", "1+x^4", "--n", "8")
        assert code == 0
        assert out.splitlines() == ["[[16, 4]] lambda2=4 minL1=2", "k-check: rank-based=4 gcd-formula=4 ok"]

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--a", "1+y", "--b", "1", "--n", "3")
        assert code == 2
        assert "position" in err

    @pytest.mark.parametrize("term", ["x^5", "x^10000000000000000000"])
    def test_exponent_at_least_n_exits_2(self, capsys, term):
        # rejected before 1 << exponent is built: 10^19 bits exceed any address space
        code, out, err = run_cli(capsys, "construct", "--a", f"1+{term}", "--b", "1+x", "--n", "5")
        assert code == 2
        assert out == ""
        assert f"term {term!r} at position 2 has exponent >= n = 5" in err


class TestDistance:
    def test_exact_small(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "--alpha", "2", "--n", "5")
        assert code == 0
        assert "exact=3" in out

    def test_lower_printed_without_hypothesis_flag(self, capsys):
        # d = min-L1 >= ceil(lambda) at every n, so n < 6 needs no caveat
        code, out, _ = run_cli(capsys, "distance", "--alpha", "2", "--n", "5")
        assert code == 0
        assert "lower=3" in out.splitlines()
        assert "hypothesis" not in out

    def test_grid_member(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "--alpha", "3", "--n", "9")
        assert code == 0
        assert "exact=3" in out

    def test_exact_with_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "--alpha", "31", "--n", "74")
        assert code == 0
        assert "upper=12 exact=12 method=sandwich-closed" in out
        assert "certificate=[" in out and "(weight 12)" in out

    def test_invariant_failure_is_exit_1(self, capsys, monkeypatch):
        # crossed bounds break an invariant; exit code 2 is kept for usage errors
        monkeypatch.setattr(distance, "ceil_sqrt", lambda m: 10**6)
        code, _, err = run_cli(capsys, "distance", "--alpha", "18", "--n", "65")
        assert code == 1
        assert err.startswith("error: lower bound 1000000 exceeds certified upper 11 ")

    def test_budget_flags(self, capsys):
        # the distance is fixed by the lattice, so no search budget is accepted
        for flag in ("--kernel-cap=0", "--no-parity-refinement", "--certificate-slack=0"):
            with pytest.raises(SystemExit) as exc:
                main(["distance", "--alpha", "12", "--n", "29", flag])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestBound:
    def test_reduction_reported(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--u", "3", "--v", "1", "--n", "10")
        assert code == 0
        assert out == "k=2 lower-bound=4 lambda2=10\n"

    def test_non_invertible_u_swapped(self, capsys):
        # the bounds of alpha = 6, which swapping the generators would reach
        code, out, _ = run_cli(capsys, "bound", "--u", "2", "--v", "3", "--n", "8")
        assert code == 0
        fields = lattice_fields(6, 8)
        assert out == f"k=2 lower-bound={fields['lower']} lambda2={fields['lambda2']}\n"

    def test_small_n_answers(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--u", "1", "--v", "2", "--n", "5")
        assert code == 0
        assert out == "k=2 lower-bound=3 lambda2=5\n"

    def test_pair_without_invertible_exponent_answers(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--u", "2", "--v", "4", "--n", "8")
        assert code == 0
        assert out == "k=4 lower-bound=2 lambda2=4\n"

    @pytest.mark.parametrize(
        "u, v, n, message",
        [(8, 3, 8, "reduces to zero"), (3, 0, 8, "reduces to zero"), (1, 1, 1, "n must be at least 2")],
    )
    def test_bad_input_exits_2(self, capsys, u, v, n, message):
        code, out, err = run_cli(capsys, "bound", "--u", str(u), "--v", str(v), "--n", str(n))
        assert code == 2 and out == ""
        assert message in err

    def test_bound_agrees_with_determine(self, capsys):
        # every pair answers; where a canonical alpha exists, with the bounds of its lattice
        exact = functools.cache(lambda alpha, n: determine(alpha, n).exact)
        checked = 0
        for n in range(2, 21):
            for u in range(1, n):
                for v in range(1, n):
                    code, out, _ = run_cli(capsys, "bound", "--u", str(u), "--v", str(v), "--n", str(n))
                    match = re.fullmatch(r"k=(\d+) lower-bound=(\d+) lambda2=(\d+)\n", out)
                    assert code == 0 and match and int(match[1]) == 2 * math.gcd(u, v, n), (u, v, n, out)
                    alpha = canonical_alpha(u, v, n)
                    if alpha is None:
                        continue
                    fields = lattice_fields(alpha, n)
                    assert (int(match[2]), int(match[3])) == (fields["lower"], fields["lambda2"]), (u, v, n)
                    assert fields["lower"] <= exact(alpha, n)
                    checked += 1
        assert checked == 1997  # of the 2470 pairs, those with u or v invertible mod n


class TestSweepAndVerify:
    def test_sweep_then_verify(self, capsys, tmp_path):
        path = str(tmp_path / "cat.ndjson")
        code, out, _ = run_cli(capsys, "sweep", "--max-length", "60", "--output", path)
        assert code == 0 and "8 entries" in out
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 0
        assert "OK: 8 record(s)" in out

    def test_sweep_csv_rows(self, capsys, tmp_path):
        path = str(tmp_path / "cat.csv")
        code, _, _ = run_cli(capsys, "sweep", "--max-length", "10", "--output", path, "--format", "csv")
        assert code == 0
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "length,k,d,n,alpha,lower,method"
        assert len(lines) == 3  # header + [[4,2,2]] + [[10,2,3]]

    def test_sweep_idempotent(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.ndjson"), str(tmp_path / "b.ndjson")
        run_cli(capsys, "sweep", "--max-length", "40", "--output", a)
        run_cli(capsys, "sweep", "--max-length", "40", "--output", b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    # Digests of the schema-3 catalogs: the schema-2 bytes of the min-L1 sweep
    # without the keys upper, exact and hypothesis_met.  A refactor of the
    # sweep or the writer must leave these bytes unchanged.
    @pytest.mark.parametrize("args,digest", [
        (("--max-length", "1000"), "5ce432bea1968ee914b854221680dd78f2a29b2d901abb39430f1a5c2cc0cafe"),
        (("--max-length", "200", "--format", "csv"),
         "61c6536fbb6ed89dd8e4acb404dbb3bd7218bb2cca07f82bb4467fefc4dd44c5"),
    ], ids=["json_1000", "csv_200"])
    def test_catalog_bytes_pinned(self, capsys, tmp_path, args, digest):
        path = tmp_path / "catalog"
        code, _, _ = run_cli(capsys, "sweep", *args, "--output", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_seed_only_labels_header(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.ndjson"), str(tmp_path / "b.ndjson")
        run_cli(capsys, "sweep", "--max-length", "60", "--seed", "1", "--output", a)
        run_cli(capsys, "sweep", "--max-length", "60", "--seed", "7", "--output", b)
        lines_a, lines_b = Path(a).read_text().splitlines(), Path(b).read_text().splitlines()
        assert lines_a[0] != lines_b[0]
        assert json.loads(lines_b[0])["seed"] == 7
        assert lines_a[1:] == lines_b[1:] and len(lines_a) == 9

    def test_verify_flags_tampering(self, capsys, tmp_path):
        path = str(tmp_path / "cat.ndjson")
        run_cli(capsys, "sweep", "--max-length", "30", "--output", path)
        lines = Path(path).read_text().splitlines()
        record = json.loads(lines[1])
        record["certificate"] = record["certificate"][:-1] + [record["certificate"][-1] ^ 1]
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        Path(path).write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "verify", path)
        assert code == 1
        assert "line 2" in err

    def test_negative_max_length_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cat.ndjson"
        code, _, err = run_cli(capsys, "sweep", "--max-length", "-5", "--output", str(path))
        assert code == 2
        assert "--max-length" in err
        assert not path.exists()

    def test_verify_empty_catalog_warns(self, capsys, tmp_path):
        path = str(tmp_path / "cat.ndjson")
        run_cli(capsys, "sweep", "--max-length", "2", "--output", path)
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 0
        assert "0 records" in out

    def test_verify_non_utf8_exits_1(self, capsys, tmp_path):
        path = tmp_path / "cat.ndjson"
        path.write_bytes(b"\xff\xfe\x00\x00")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert "not UTF-8" in err

    @pytest.mark.parametrize("value", ["[" * 10**5 + "]" * 10**5, "9" * 5000], ids=["deep_nesting", "long_integer"])
    def test_verify_undecodable_json_exits_1(self, capsys, tmp_path, value):
        path = tmp_path / "cat.ndjson"
        path.write_text('{"n":' + value + "}\n")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert err.startswith("line 1: corrupt JSON (")

    def test_verify_csv_field_over_reader_limit_exits_1(self, capsys, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("length,k,d,n,alpha,lower,method\n10,2,3,5,2,3," + "x" * 200_000 + "\n")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert err.startswith("line 2: corrupt CSV (field larger than field limit")

    def test_verify_zero_byte_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "cat.ndjson"
        path.write_bytes(b"")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert err.startswith("line 1: empty file, no header\n")

    def test_verify_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", str(tmp_path / "nope.ndjson"))
        assert code == 1


class TestEntryPoint:
    def run_module(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run([sys.executable, "-m", "gbcodex", *argv], capture_output=True, text=True, env=env)

    def test_module_invocation(self):
        result = self.run_module("distance", "--alpha", "2", "--n", "5")
        assert result.returncode == 0
        assert "exact=3" in result.stdout

    def test_library_loads_no_numpy(self, tmp_path):
        # sweep, verify, determine and the exhaustive oracle are pure Python
        script = f"""
import sys
from gbcodex import determine
from gbcodex.cli import main
from gbcodex.css import exhaustive_distance
from gbcodex.gbcode import build, canonical_spec
path = {str(tmp_path / "cat.ndjson")!r}
assert main(["sweep", "--max-length", "60", "--output", path]) == 0
assert main(["verify", path]) == 0
assert determine(5, 13).exact == 5
assert "numpy" not in sys.modules, "numpy loaded"
assert exhaustive_distance(build(canonical_spec(5, 13))) == 5
assert "numpy" not in sys.modules, "numpy loaded by the oracle"
"""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_lattice_path_loads_no_dense_module(self, tmp_path):
        path = str(tmp_path / "cat.ndjson")
        assert main(["sweep", "--max-length", "60", "--output", path]) == 0
        script = f"""
import sys
def absent(*names):
    present = [m for m in names if "gbcodex." + m in sys.modules]
    assert not present, present
import gbcodex
from gbcodex.cli import main
absent("gf2poly", "gf2matrix", "css", "gbcode")
assert main(["verify", {path!r}]) == 0
assert main(["bound", "--u", "2", "--v", "4", "--n", "8"]) == 0
absent("gf2poly", "gf2matrix", "css", "gbcode")
from gbcodex.catalog import analyze_length
assert analyze_length(65)["d"] == 11
absent("gf2poly", "gf2matrix", "css", "gbcode")
assert main(["sweep", "--max-length", "60", "--output", {path!r}]) == 0
assert main(["distance", "--alpha", "5", "--n", "13"]) == 0
# gf2matrix alone loads here, through TorusGraph.is_sum_of_faces in upper_bound_certificate,
# which the sweep and determine call once per certificate
absent("gf2poly", "css", "gbcode")
"""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_usage_error_is_exit_2(self):
        result = self.run_module("distance", "--alpha", "2")
        assert result.returncode == 2
