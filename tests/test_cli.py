import functools
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gbcodex.cli import main
from gbcodex.distance import determine, lattice_lower_bound
from gbcodex.gbcode import canonicalize_w2

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

    def test_normalized_alpha_reported(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--a", "1+x^3", "--b", "1+x", "--n", "10")
        assert code == 0
        assert "alpha=7" in out

    def test_non_reducible_pair_reported(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--a", "1+x^2", "--b", "1+x^4", "--n", "8")
        assert code == 0
        assert "not canonicalized" in out

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--a", "1+y", "--b", "1", "--n", "3")
        assert code == 2
        assert "position" in err


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
        assert "alpha=7" in out and "lower-bound=4" in out

    def test_non_invertible_u_swapped(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--u", "2", "--v", "3", "--n", "8")
        assert code == 0
        assert "alpha=6" in out

    def test_small_n_answers(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--u", "1", "--v", "2", "--n", "5")
        assert code == 0
        assert "alpha=2 lower-bound=3 lambda2=5" in out

    def test_irreducible_pair_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--u", "2", "--v", "4", "--n", "8")
        assert code == 2
        assert "invertible" in err

    def test_bound_agrees_with_determine(self, capsys):
        exact = functools.cache(lambda alpha, n: determine(alpha, n).exact)
        checked = 0
        for n in range(2, 21):
            for u in range(1, n):
                for v in range(1, n):
                    try:
                        alpha = canonicalize_w2(u, v, n)
                    except ValueError:
                        continue
                    code, out, _ = run_cli(capsys, "bound", "--u", str(u), "--v", str(v), "--n", str(n))
                    match = re.fullmatch(r"alpha=(\d+) lower-bound=(\d+) lambda2=\d+\n", out)
                    assert code == 0 and match and int(match[1]) == alpha, (u, v, n, out)
                    assert int(match[2]) == lattice_lower_bound(alpha, n) <= exact(alpha, n)
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
        assert lines[0] == "length,k,d,n,alpha,lower,upper,method"
        assert len(lines) == 3  # header + [[4,2,2]] + [[10,2,3]]

    def test_sweep_idempotent(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.ndjson"), str(tmp_path / "b.ndjson")
        run_cli(capsys, "sweep", "--max-length", "40", "--output", a)
        run_cli(capsys, "sweep", "--max-length", "40", "--output", b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    # Digests of the catalogs as first written by the min-L1 sweep; a refactor
    # of the sweep or the writer must leave these bytes unchanged.
    @pytest.mark.parametrize("args,digest", [
        (("--max-length", "1000"), "e63cb96336d28eeabe37f3c481182083905bd242627be26b5ef49124c7bf642d"),
        (("--max-length", "200", "--format", "csv"),
         "94c6572b682a3e4b1a58ad46656d7b0d10c89fb90f14760f20984412a0faab41"),
    ])
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

    def test_catalog_paths_load_no_numpy(self, tmp_path):
        # only the exhaustive oracle needs numpy; sweep, verify and determine must not import it
        script = f"""
import sys
from gbcodex import build, canonical_spec, determine, exhaustive_distance
from gbcodex.cli import main
path = {str(tmp_path / "cat.ndjson")!r}
assert main(["sweep", "--max-length", "60", "--output", path]) == 0
assert main(["verify", path]) == 0
assert determine(5, 13).exact == 5
assert "numpy" not in sys.modules, "numpy loaded"
assert exhaustive_distance(build(canonical_spec(5, 13))) == 5
"""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_usage_error_is_exit_2(self):
        result = self.run_module("distance", "--alpha", "2")
        assert result.returncode == 2
