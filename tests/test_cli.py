import json
import math

import pytest

from feqbf.cli import main

TRUE_INSTANCE = "p cnf 2 1\na 1 0\ne 2 0\n1 2 0\n"
FALSE_INSTANCE = "p cnf 2 2\na 1 0\ne 2 0\n2 1 0\n-2 1 0\n"
SMALL_DNF = "p dnf 2 1\n1 2 0\n"


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def write(path, text):
    path.write_text(text)
    return str(path)


class TestSolveCommand:
    def test_true_exit_code(self, workdir, capsys):
        path = write(workdir / "t.qdimacs", TRUE_INSTANCE)
        assert main(["solve", path]) == 10
        assert capsys.readouterr().out.strip() == "TRUE"

    def test_false_exit_code(self, workdir, capsys):
        path = write(workdir / "f.qdimacs", FALSE_INSTANCE)
        assert main(["solve", path]) == 20
        assert capsys.readouterr().out.strip() == "FALSE"

    def test_garbage_input_errors(self, workdir, capsys):
        path = write(workdir / "bad.qdimacs", "not qdimacs at all\n")
        assert main(["solve", path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_forall_exists_prefix_errors(self, workdir):
        path = write(workdir / "ea.qdimacs", "p cnf 2 1\ne 1 0\na 2 0\n1 2 0\n")
        assert main(["solve", path]) == 1

    def test_missing_file_errors(self):
        assert main(["solve", "/nonexistent/file.qdimacs"]) == 1

    @pytest.mark.parametrize("value", ["-1", "inf", "nan"])
    def test_bad_threshold_override_errors(self, workdir, capsys, value):
        path = write(workdir / "t.qdimacs", TRUE_INSTANCE)
        assert main(["solve", path, "--threshold-override", value]) == 1
        assert "error: threshold_override" in capsys.readouterr().err

    def test_stats_csv_written(self, workdir):
        path = write(workdir / "t.qdimacs", TRUE_INSTANCE)
        out = workdir / "stats.csv"
        assert main(["solve", path, "--stats-csv", str(out)]) == 10
        lines = out.read_text().splitlines()
        assert lines[0].startswith("instance_id,k,d,result")
        assert lines[1].startswith("t,1,2,TRUE")

    def test_stats_report_arity_after_preprocess(self, workdir):
        # The width-6 tautology is dropped by preprocess, leaving arity 2.
        text = "p cnf 6 2\na 1 2 3 4 0\ne 5 6 0\n1 -1 2 3 4 5 0\n1 5 0\n"
        path = write(workdir / "t.qdimacs", text)
        stats = workdir / "stats.csv"
        assert main(["solve", path, "--stats-csv", str(stats)]) == 10
        assert stats.read_text().splitlines()[1].startswith("t,2,2,TRUE")
        bench = workdir / "bench.csv"
        assert main(["bench", "--corpus", str(workdir), "--out", str(bench)]) == 0
        fields = bench.read_text().splitlines()[1].split(",")
        assert fields[:3] == ["t", "2", "2"]
        assert float(fields[-1]) == pytest.approx(4 * (4 * 2 * math.log(2)) * 2, abs=1e-3)


class TestOracleCommand:
    def test_false_instance(self, workdir, capsys):
        path = write(workdir / "c.qdimacs", "p cnf 1 2\ne 1 0\n1 0\n-1 0\n")
        assert main(["oracle", path]) == 20
        assert capsys.readouterr().out.strip() == "FALSE"

    def test_tautology_is_true(self, workdir, capsys):
        # The oracle reads the matrix as written, without preprocess.
        path = write(workdir / "t.qdimacs", "p cnf 2 2\na 1 0\ne 2 0\n1 -1 2 0\n-2 0\n")
        assert main(["oracle", path]) == 10
        assert capsys.readouterr().out.strip() == "TRUE"
        assert main(["solve", path]) == 10

    def test_over_bound_errors(self, workdir):
        clauses = "\n".join(f"{v} 0" for v in range(1, 26))
        path = write(workdir / "big.qdimacs", f"p cnf 25 25\n{clauses}\n")
        assert main(["oracle", path]) == 1
        assert main(["oracle", path, "--bound", "25"]) == 10

    def test_agrees_with_solve(self, workdir):
        for name, text in (("t", TRUE_INSTANCE), ("f", FALSE_INSTANCE)):
            path = write(workdir / f"{name}.qdimacs", text)
            assert main(["solve", path]) == main(["oracle", path])


class TestReduceCommand:
    def test_theorem2_outputs_files(self, workdir, capsys):
        dnf = write(workdir / "s.dnf", SMALL_DNF)
        out = workdir / "s.qdimacs"
        prov = workdir / "s.prov"
        code = main(
            ["reduce", dnf, "--theorem", "2", "--d", "3", "--out", str(out),
             "--provenance", str(prov)]
        )
        assert code == 0
        assert "existential_count=2 alternations=2" in capsys.readouterr().out
        assert out.read_text().startswith("p cnf 4 4")
        assert prov.read_text() == "3 y1[0] 1\n4 y2[0] 1\n"

    def test_theorem1_base_case(self, workdir):
        dnf = write(workdir / "one.dnf", "p dnf 1 1\n1 0\n")
        out = workdir / "one.qdimacs"
        assert main(["reduce", dnf, "--theorem", "1", "--out", str(out)]) == 0
        assert main(["oracle", str(out)]) == 20  # psi is not valid

    def test_bad_arity_errors(self, workdir):
        dnf = write(workdir / "s.dnf", SMALL_DNF)
        assert main(["reduce", dnf, "--theorem", "2", "--d", "2"]) == 1

    def test_non_shrinking_threshold_errors(self, workdir):
        dnf = write(
            workdir / "wide.dnf",
            "p dnf 6 5\n1 2 3 0\n-1 4 0\n5 6 0\n-2 -5 0\n3 -6 0\n",
        )
        assert main(["reduce", dnf, "--theorem", "1", "--base-threshold", "10"]) == 1

    def test_negate_cnf_flag(self, workdir):
        # (x1) & (-x1) is UNSAT, so its complement DNF is valid and the
        # closed reduction output must be TRUE.
        cnf = write(workdir / "u.qdimacs", "p cnf 1 2\n1 0\n-1 0\n")
        out = workdir / "u.out.qdimacs"
        code = main(
            ["reduce", cnf, "--negate-cnf", "--theorem", "2", "--out", str(out)]
        )
        assert code == 0
        assert main(["oracle", str(out)]) == 10

    def test_manifest_written(self, workdir):
        dnf = write(workdir / "s.dnf", SMALL_DNF)
        manifest = workdir / "run.json"
        main(
            ["reduce", dnf, "--theorem", "2", "--out", str(workdir / "o.qdimacs"),
             "--manifest", str(manifest)]
        )
        data = json.loads(manifest.read_text())
        assert data["command"] == "reduce"
        assert data["config"]["theorem"] == 2
        assert data["version"]


class TestVerifyCommand:
    def test_pass_and_mismatch(self, workdir, capsys):
        dnf = write(workdir / "s.dnf", SMALL_DNF)
        out = workdir / "s.qdimacs"
        main(["reduce", dnf, "--theorem", "2", "--out", str(out)])
        assert main(["verify", dnf, str(out)]) == 0
        assert "PASSED" in capsys.readouterr().out

        # corrupt the reduction by deleting one gadget clause
        lines = out.read_text().splitlines()
        header, rest = lines[0], lines[1:]
        del rest[-3]
        n, m = header.split()[2:]
        corrupted = workdir / "bad.qdimacs"
        corrupted.write_text("\n".join([f"p cnf {n} {int(m) - 1}"] + rest) + "\n")
        assert main(["verify", dnf, str(corrupted)]) == 2

    def test_oversized_source_errors(self, workdir):
        dnf = write(workdir / "s.dnf", SMALL_DNF)
        out = workdir / "s.qdimacs"
        main(["reduce", dnf, "--theorem", "2", "--out", str(out)])
        assert main(["verify", dnf, str(out), "--bound", "0"]) == 1

    def test_explicit_map_file(self, workdir):
        # x1 and x2 swap roles: positional mapping fails, the map passes
        dnf = write(workdir / "s.dnf", "p dnf 2 1\n1 -2 0\n")
        qbf = write(
            workdir / "s.qdimacs",
            "p cnf 3 3\na 1 2 0\ne 3 0\n2 0\n-1 0\n3 0\n",
        )
        assert main(["verify", dnf, qbf]) == 2
        map_path = write(workdir / "s.map", "1 2\n2 1\n")
        assert main(["verify", dnf, qbf, "--map", map_path]) == 0
        bad_map = write(workdir / "bad.map", "1 2\n")
        assert main(["verify", dnf, qbf, "--map", bad_map]) == 1

    def test_mismatch_csv(self, workdir):
        dnf = write(workdir / "s.dnf", SMALL_DNF)
        bad = write(workdir / "n.qdimacs", "p cnf 3 2\na 1 2 0\ne 3 0\n3 0\n-3 0\n")
        csv_path = workdir / "m.csv"
        assert main(["verify", dnf, bad, "--csv", str(csv_path)]) == 2
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "sigma_encoding"
        assert len(lines) == 2  # exactly one satisfying sigma of (x1 and x2)


class TestGenCommand:
    def test_deterministic_bytes(self, workdir):
        a, b = workdir / "a.dnf", workdir / "b.dnf"
        argv = ["gen", "--kind", "dnf", "--n", "6", "--m", "8", "--seed", "1"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_feqbf_kind_contract(self, workdir):
        path = workdir / "g.qdimacs"
        assert (
            main(
                ["gen", "--kind", "feqbf", "--n", "5", "--k", "4", "--m", "12",
                 "--d", "3", "--seed", "2", "--out", str(path)]
            )
            == 0
        )
        text = path.read_text()
        assert text.startswith("p cnf 9 12")
        assert "a 1 2 3 4 5 0" in text
        assert "e 6 7 8 9 0" in text

    def test_distinct_errors_when_impossible(self, workdir):
        assert (
            main(
                ["gen", "--kind", "dnf", "--n", "2", "--m", "5", "--d", "1",
                 "--seed", "3", "--distinct"]
            )
            == 1
        )


class TestBenchCommand:
    def test_bench_over_generated_corpus(self, workdir):
        corpus = workdir / "corpus"
        corpus.mkdir()
        for i in range(5):
            main(
                ["gen", "--kind", "feqbf", "--n", "4", "--k", "3", "--m", "8",
                 "--seed", str(i), "--out", str(corpus / f"inst{i}.qdimacs")]
            )
        out = workdir / "bench.csv"
        assert main(["bench", "--corpus", str(corpus), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].endswith("agreement,leaf_bound_log2")
        assert len(lines) == 6
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[-2] == "1"  # solver agrees with the oracle
            leaves, bound_log2 = int(fields[4]), float(fields[-1])
            assert math.log2(max(leaves, 1)) <= bound_log2 + 1e-9

    def test_empty_corpus_yields_header_only(self, workdir):
        corpus = workdir / "empty"
        corpus.mkdir()
        out = workdir / "bench.csv"
        assert main(["bench", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [
            "instance_id,k,d,result,leaves,max_depth,branches,base_case_hits,"
            "wall_time_ms,agreement,leaf_bound_log2"
        ]

    def test_unreadable_corpus_errors(self, workdir):
        assert main(["bench", "--corpus", str(workdir / "missing"), "--out", "x.csv"]) == 1
