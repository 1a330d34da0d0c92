import subprocess
import sys
from pathlib import Path

import pytest

from nlgap import cli
from nlgap.io import read_graph, read_metric

RESULTS = Path(__file__).resolve().parents[1] / "results"


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "nlgap.cli", *argv],
                          capture_output=True, text=True, cwd=cwd)


def body_of(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.startswith("#"))


class TestGamma:
    def test_c4_uniform_two(self):
        res = run_cli("gamma", "--gen", "cycle:4", "--metric", "uniform:2", "--q", "1")
        assert res.returncode == 0
        last = body_of(res.stdout).splitlines()[-1]
        assert last.split(",")[6] == "1.0"  # ratio column

    def test_heuristic_deterministic(self):
        argv = ("gamma", "--gen", "regular:12,3", "--metric", "grid:1,2",
                "--heuristic", "--iters", "300", "--seed", "7")
        a, b = run_cli(*argv), run_cli(*argv)
        assert a.returncode == b.returncode == 0
        assert body_of(a.stdout) == body_of(b.stdout)

    def test_missing_file_exit_one(self):
        res = run_cli("gamma", "--graph", "no_such_graph.txt", "--metric", "uniform:2")
        assert res.returncode == 1
        assert "no_such_graph.txt" in res.stderr


class TestGenRoundTrip:
    def test_graph_file_reparses(self, tmp_path):
        out = tmp_path / "g.txt"
        res = run_cli("gen-graph", "--type", "regular:10,3", "--seed", "3",
                      "--out", str(out))
        assert res.returncode == 0
        g = read_graph(out)
        assert g.n == 10 and set(g.degrees()) == {3}
        out2 = tmp_path / "g2.txt"
        run_cli("gen-graph", "--type", "regular:10,3", "--seed", "3", "--out", str(out2))
        assert out.read_text() == out2.read_text()

    def test_metric_file_reparses(self, tmp_path):
        out = tmp_path / "m.txt"
        res = run_cli("gen-metric", "--type", "random:4", "--seed", "5", "--out", str(out))
        assert res.returncode == 0
        m = read_metric(out)
        assert m.size == 4

    def test_snowflake_requires_base(self, tmp_path):
        res = run_cli("gen-metric", "--type", "snowflake:0.5",
                      "--out", str(tmp_path / "s.txt"))
        assert res.returncode == 1

    def test_snowflake_of_stored_metric(self, tmp_path):
        base, out = tmp_path / "base.txt", tmp_path / "flake.txt"
        run_cli("gen-metric", "--type", "random:4", "--seed", "2", "--out", str(base))
        res = run_cli("gen-metric", "--type", "snowflake:0.5", "--base", str(base),
                      "--out", str(out))
        assert res.returncode == 0
        m_base, m_flake = read_metric(base), read_metric(out)
        assert abs(m_flake.dist - m_base.dist ** 0.5).max() < 1e-12


class TestVerdictCommands:
    def test_extrapolate_single_instance(self):
        res = run_cli("extrapolate", "--gen", "complete:4", "--metric", "uniform:2",
                      "--p", "1", "--q", "2")
        assert res.returncode == 0
        assert ",1," in body_of(res.stdout).splitlines()[-1]

    def test_nonconc_flow(self, tmp_path):
        mpath = tmp_path / "f.map"
        mpath.write_text("4\n0 0\n1 0\n2 1\n3 1\n")
        res = run_cli("nonconc", "--gen", "complete:4", "--metric", "uniform:2",
                      "--map", str(mpath), "--q", "1", "--cr", "5", "--tau", "0.5")
        assert res.returncode == 0
        row = body_of(res.stdout).splitlines()[-1]
        assert row.startswith("1,")  # hypothesis met

    def test_jls_success_on_c16(self):
        res = run_cli("jls-embed", "--gen", "cycle:16", "--distortion", "3",
                      "--c1", "1", "--seed", "11")
        assert res.returncode == 0
        row = body_of(res.stdout).splitlines()[-1]
        assert row.split(",")[2] == "1"

    def test_distort_identity(self, tmp_path):
        gpath, mpath, fpath = (tmp_path / x for x in ("g.txt", "m.txt", "f.map"))
        run_cli("gen-graph", "--type", "cycle:5", "--out", str(gpath))
        res = run_cli("gamma", "--graph", str(gpath), "--metric", "uniform:2",
                      "--map-out", str(fpath))
        assert res.returncode == 0
        res = run_cli("distort", "--graph", str(gpath), "--metric", "uniform:2",
                      "--map", str(fpath))
        assert res.returncode == 0


class TestModelAndSpectra:
    def test_model_matchings(self):
        res = run_cli("model", "--lemma", "matchings", "--l", "8", "--eps", "0.3",
                      "--c", "0.2", "--trials", "2000", "--seed", "1")
        assert res.returncode == 0
        row = body_of(res.stdout).splitlines()[-1]
        assert row.startswith("8,")

    def test_model_matchings_at_c_one_half(self, capsys):
        # the bound's exponent is x log x at x = 1 - 2c = 0; its limit gives 1
        assert cli.main(["model", "--lemma", "matchings", "--l", "20", "--eps", "0.5",
                         "--c", "0.5", "--trials", "100"]) == 0
        assert body_of(capsys.readouterr().out).splitlines()[-1].endswith(",1.0")

    def test_model_dist_eq_one_cell_law(self, capsys):
        # chdtrc(0, 0) is nan, which the p-threshold gate never rejected
        assert cli.main(["model", "--lemma", "dist-eq", "--n", "4", "--d", "3", "--l", "6",
                         "--trials", "2000"]) == 0
        assert body_of(capsys.readouterr().out).splitlines()[-1] == "4,3,6,2000,1,0.0,1.0"

    def test_spectra_small(self):
        res = run_cli("spectra", "--gen-regular", "60,3", "--trials", "5", "--seed", "2")
        assert res.returncode == 0
        assert "fraction," in body_of(res.stdout)

    def test_body_determinism(self):
        argv = ("model", "--lemma", "matchings", "--l", "8", "--eps", "0.3",
                "--c", "0.2", "--trials", "500", "--seed", "4")
        a, b = run_cli(*argv), run_cli(*argv)
        assert body_of(a.stdout) == body_of(b.stdout)
        # headers may differ only in the walltime line
        ha = [l for l in a.stdout.splitlines() if l.startswith("#") and "walltime" not in l]
        hb = [l for l in b.stdout.splitlines() if l.startswith("#") and "walltime" not in l]
        assert ha == hb


class TestCleanErrorExits:
    """Out-of-range input exits 1 with one stderr line, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ("spectra", "--gen-regular", "20,3", "--trials", "0"),
        ("witness", "--sizes", "16", "--trials", "0"),
        ("model", "--lemma", "matchings", "--trials", "0"),
        ("model", "--lemma", "dist-eq", "--trials", "0"),
        ("model", "--lemma", "typical", "--n", "500", "--m", "3", "--trials", "0"),
        ("extrapolate", "--gen", "regular:16,3", "--metric", "uniform:4"),
        ("gen-graph", "--type", "regular:30,27", "--out", "unused.txt"),
        ("jls-embed", "--gen", "cycle:16", "--distortion", "3", "--retries", "0"),
    ])
    def test_exit_one(self, argv, capsys):
        assert cli.main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("q", ["nan", "inf"])
    def test_gamma_rejects_non_finite_exponent(self, q, capsys):
        assert cli.main(["gamma", "--gen", "cycle:4", "--metric", "uniform:2",
                         "--q", q, "--heuristic"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cost exponent must be finite and positive, got {q}\n"

    def test_distort_rejects_incomplete_map(self, tmp_path, capsys):
        fpath = tmp_path / "f.txt"
        fpath.write_text("4\n0 0\n1 1\n")
        assert cli.main(["distort", "--gen", "cycle:4", "--metric", "uniform:2",
                         "--map", str(fpath)]) == 1
        assert "one line for each vertex" in capsys.readouterr().err

    def test_distort_rejects_empty_map(self, tmp_path, capsys):
        fpath = tmp_path / "f.txt"
        fpath.write_text("")
        assert cli.main(["distort", "--gen", "cycle:4", "--metric", "uniform:2",
                         "--map", str(fpath)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: empty map file\n"


class TestInputDomainExits:
    """Each out-of-domain value exits 1 with one stderr line naming the
    problem: no traceback, no overflow, no allocation beyond a budget."""

    @pytest.mark.parametrize("argv,fragment", [
        (("gen-metric", "--type", "grid:1,12", "--out", "unused.txt"), "exceeds cap 1000"),
        (("gamma", "--gen", "cycle:4", "--metric", "grid:1,9", "--heuristic"),
         "exceeds cap 1000"),
        (("witness", "--sizes", "16", "--q", "nan"), "cost exponent"),
        (("witness", "--sizes", "16", "--q", "-1"), "cost exponent"),
        (("witness", "--sizes", "16", "--N", "inf"), "--N must exceed 1"),
        (("witness", "--sizes", "16", "--N", "1e400"), "--N must exceed 1"),
        (("witness", "--sizes", "16", "--N", "10^1e400"), "--N must exceed 1"),
        (("witness", "--sizes", "16", "--N", "0"), "--N must exceed 1"),
        (("witness", "--sizes", "16", "--N", "-5"), "--N must exceed 1"),
        (("witness", "--sizes", "16", "--N", "nan"), "--N must exceed 1"),
        (("witness", "--sizes", "16", "--N", "10^x"), "--N must be a number"),
        (("witness", "--sizes", "16", "--N", "2"), "target cardinality too small"),
        (("jls-embed", "--gen", "cycle:16", "--distortion", "nan"), "distortion >= 1"),
        (("jls-embed", "--gen", "cycle:16", "--c1", "nan"), "finite c1 > 0"),
        (("jls-embed", "--gen", "cycle:16", "--c1", "inf"), "finite c1 > 0"),
        (("jls-embed", "--gen", "cycle:16", "--c1", "1e-300"), "byte budget"),
        (("model", "--lemma", "matchings", "--eps", "nan"), "--eps must be finite"),
        (("model", "--lemma", "matchings", "--eps", "inf"), "--eps must be finite"),
        (("model", "--lemma", "matchings", "--c", "nan"), "--c must be finite"),
        (("model", "--lemma", "typical", "--m", "0"), "radius m >= 1"),
        (("model", "--lemma", "typical", "--bigk", "0"), "big_k > 0"),
        (("model", "--lemma", "typical", "--bigk", "nan"), "big_k > 0"),
        (("model", "--lemma", "typical", "--d", "1"), "degree d >= 2"),
        (("model", "--lemma", "restriction", "--n", "200", "--eps", "0"), "eps > 0"),
        (("model", "--lemma", "restriction", "--n", "200", "--eps", "nan"), "eps > 0"),
        (("model", "--lemma", "matchings", "--eps", "2"), "--eps must lie in (0, 1/2]"),
        (("model", "--lemma", "matchings", "--eps", "-0.5"), "--eps must lie in (0, 1/2]"),
        (("model", "--lemma", "matchings", "--eps", "0.2", "--c", "0.3"),
         "--c must lie in (0, --eps]"),
        (("spectra", "--gen-regular", "60,3", "--min-fraction", "nan"),
         "--min-fraction must lie in [0, 1]"),
        (("spectra", "--gen-regular", "60,3", "--min-fraction", "5"),
         "--min-fraction must lie in [0, 1]"),
        (("spectra", "--gen-regular", "60,3", "--min-fraction", "-0.5"),
         "--min-fraction must lie in [0, 1]"),
        (("spectra", "--gen-regular", "1000"), "--gen-regular must be two integers"),
        (("spectra", "--gen-regular", "a,3"), "--gen-regular must be two integers"),
        (("model", "--lemma", "typical", "--n", "10", "--d", "3", "--bigk", "1e-320",
          "--m", "1", "--trials", "1"), "big_k=1e-320"),
        (("model", "--lemma", "typical", "--n", "10", "--d", "3", "--bigk", "20",
          "--m", "100000", "--trials", "1"), "m=100000"),
        (("model", "--lemma", "restriction", "--n", "100", "--k", "5", "--eps", "1e-320",
          "--trials", "3"), "eps=1e-320"),
        (("model", "--lemma", "matchings", "--l", "400000"), "byte budget"),
    ])
    def test_exit_one(self, argv, fragment, capsys):
        assert cli.main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert fragment in captured.err and "Traceback" not in captured.err


class TestWitnessSvg:
    def test_svg_written_and_deterministic(self, tmp_path):
        svg = tmp_path / "a.svg"
        argv = ("witness", "--sizes", "16,32", "--trials", "2", "--N", "10^50",
                "--seed", "5", "--svg", str(svg))
        res = run_cli(*argv)
        assert res.returncode == 0
        first = svg.read_text()
        run_cli(*argv)
        assert svg.read_text() == first
        assert first.startswith("<svg")


class TestCommittedResults:
    """The committed results/ files are reproduced by the README commands;
    a short prefix of each run must match them line for line."""

    @staticmethod
    def run_main(tmp_path, *argv) -> list[str]:
        out = tmp_path / "out.csv"
        assert cli.main([*argv, "--out", str(out)]) == 0
        return body_of(out.read_text()).splitlines()

    def test_friedman_frequency_prefix(self, tmp_path):
        got = self.run_main(tmp_path, "spectra", "--gen-regular", "1000,3",
                            "--trials", "3", "--seed", "7")
        committed = body_of((RESULTS / "friedman_frequency.csv").read_text()).splitlines()
        assert got[:4] == committed[:4]  # header and trials 0..2

    def test_witness_growth_smallest_size(self, tmp_path):
        got = self.run_main(tmp_path, "witness", "--sizes", "64", "--trials", "10",
                            "--seed", "3")
        committed = body_of((RESULTS / "witness_growth.csv").read_text()).splitlines()
        assert got == [committed[0]] + [r for r in committed[1:] if r.startswith("64,")]
