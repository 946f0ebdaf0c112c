import json
import sys
from dataclasses import fields

import pytest

from feqbf.cli import main
from feqbf.solver import SolverStats

TRUE_INSTANCE = "p cnf 2 1\na 1 0\ne 2 0\n1 2 0\n"
FALSE_INSTANCE = "p cnf 2 2\na 1 0\ne 2 0\n2 1 0\n-2 1 0\n"
SMALL_DNF = "p dnf 2 1\n1 2 0\n"


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def write(path, text):
    path.write_text(text)
    return str(path)


class TestParser:
    @pytest.mark.parametrize(
        "argv, usage",
        [
            ([], "usage: feqbf [-h] [--version] {solve,oracle,reduce,verify,gen} ..."),
            (["solve"], "usage: feqbf solve [-h] [--stats-json STATS_JSON] path"),
            (
                ["reduce"],
                "usage: feqbf reduce [-h] --theorem {1,2} [--d D] [--base-threshold BASE_THRESHOLD] "
                "[--out OUT] [--provenance PROVENANCE] [--negate-cnf] path",
            ),
            (["verify"], "usage: feqbf verify [-h] [--mode {general,forall_exists}] [--bound BOUND] dnf qbf"),
            (
                ["gen"],
                "usage: feqbf gen [-h] --kind {dnf,feqbf} --n N --m M [--k K] [--d D] --seed SEED "
                "[--out OUT]",
            ),
        ],
        ids=["feqbf", "solve", "reduce", "verify", "gen"],
    )
    def test_usage(self, capsys, monkeypatch, argv, usage):
        # The solver takes no tuning flag, the commands are exactly these, and
        # each takes exactly these flags.
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            main(argv + ["--help"])
        assert capsys.readouterr().out.splitlines()[0] == usage


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

    @pytest.mark.parametrize("num_vars", [3, 30])
    def test_unused_free_variables_are_ignored(self, workdir, capsys, num_vars):
        # parse_qdimacs binds the free variables 3.. in an outer existential
        # block; they occur in no clause, so at 30 declared variables neither
        # command counts them against the oracle's bound of 24.
        path = write(workdir / "free.qdimacs", f"p cnf {num_vars} 1\na 1 0\ne 2 0\n1 2 0\n")
        assert main(["solve", path]) == 10
        assert main(["oracle", path]) == 10
        assert capsys.readouterr().out.split() == ["TRUE", "TRUE"]

    def test_free_variable_in_a_clause_errors(self, workdir, capsys):
        path = write(workdir / "free.qdimacs", "p cnf 3 1\na 1 0\ne 2 0\n1 2 3 0\n")
        assert main(["solve", path]) == 1
        assert "prefix must be one universal block" in capsys.readouterr().err

    def test_missing_file_errors(self):
        assert main(["solve", "/nonexistent/file.qdimacs"]) == 1

    def test_stats_json_written(self, workdir):
        path = write(workdir / "t.qdimacs", TRUE_INSTANCE)
        out = workdir / "stats.json"
        assert main(["solve", path, "--stats-json", str(out)]) == 10
        report = json.loads(out.read_text())
        expected = {"instance_id": "t", "k": 1, "d": 2, "result": True, "route": "search"}
        assert expected.items() <= report.items()
        # Every SolverStats field is in the report, with the wall time.
        assert set(report) == {"instance_id", "k", "result", "wall_time_ms"} | {
            f.name for f in fields(SolverStats)
        }
        assert report["wall_time_ms"] >= 0

    def test_stats_report_arity_after_preprocess(self, workdir):
        # The width-6 tautology is dropped by preprocess, leaving arity 2.
        text = "p cnf 6 2\na 1 2 3 4 0\ne 5 6 0\n1 -1 2 3 4 5 0\n1 5 0\n"
        path = write(workdir / "t.qdimacs", text)
        stats = workdir / "stats.json"
        assert main(["solve", path, "--stats-json", str(stats)]) == 10
        report = json.loads(stats.read_text())
        assert (report["k"], report["d"], report["result"]) == (2, 2, True)


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

    def test_recursion_too_deep_errors(self, workdir, capsys):
        # The game recurses once per variable it branches on: one per clause
        # (i, n + i).  A low recursion limit makes a small input too deep.
        n = 400
        clauses = "".join(f"{i} {n + i} 0\n" for i in range(1, n + 1))
        path = write(workdir / "deep.qdimacs", f"p cnf {2 * n} {n}\n{clauses}")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(300)
        try:
            code = main(["oracle", path, "--bound", str(2 * n)])
        finally:
            sys.setrecursionlimit(limit)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "recursion" in err
        assert len(err.splitlines()) == 1


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
        # x1 and x2 swap roles: verify maps DNF variable i to the i-th variable
        # of the first 'a' line, so listing that line as 'a 2 1 0' maps x1 to 2.
        dnf = write(workdir / "s.dnf", "p dnf 2 1\n1 -2 0\n")
        matrix = "e 3 0\n2 0\n-1 0\n3 0\n"
        qbf = write(workdir / "s.qdimacs", "p cnf 3 3\na 1 2 0\n" + matrix)
        assert main(["verify", dnf, qbf]) == 2
        swapped = write(workdir / "swapped.qdimacs", "p cnf 3 3\na 2 1 0\n" + matrix)
        assert main(["verify", dnf, swapped]) == 0


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

    def test_size_error_names_its_cause(self, capsys):
        assert main(["gen", "--kind", "dnf", "--n", "0", "--m", "4", "--seed", "1"]) == 1
        assert capsys.readouterr().err.strip() == "error: num_vars must be positive, got 0"
