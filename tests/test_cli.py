import argparse
import json
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from nlgap import cli, graphs, metrics
from nlgap.io import graph_from_text, graph_to_text, metric_from_text

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"


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
        g = graph_from_text(out.read_text())
        assert g.n == 10 and set(g.degrees()) == {3}
        out2 = tmp_path / "g2.txt"
        run_cli("gen-graph", "--type", "regular:10,3", "--seed", "3", "--out", str(out2))
        assert out.read_text() == out2.read_text()

    def test_metric_file_reparses(self, tmp_path):
        out = tmp_path / "m.txt"
        res = run_cli("gen-metric", "--type", "random:4", "--seed", "5", "--out", str(out))
        assert res.returncode == 0
        m = metric_from_text(out.read_text())
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
        m_base, m_flake = metric_from_text(base.read_text()), metric_from_text(out.read_text())
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

    def test_model_matchings_drops_at_most_eps_of_the_pairs(self, capsys):
        # eps * C(8, 2) = 5.6: dropping 6 pairs left |Y| = 22 below 22.4
        assert cli.main(["model", "--lemma", "matchings", "--l", "8", "--eps", "0.2",
                         "--trials", "200"]) == 0
        assert body_of(capsys.readouterr().out).splitlines()[-1].startswith("8,0.2,")

    def test_model_dist_eq_one_cell_law(self, capsys):
        # chdtrc(0, 0) is nan, which the p-threshold gate never rejected
        assert cli.main(["model", "--lemma", "dist-eq", "--n", "4", "--d", "3", "--l", "6",
                         "--trials", "2000"]) == 0
        assert body_of(capsys.readouterr().out).splitlines()[-1] == "4,3,6,2000,1,0.0,1.0"

    @pytest.mark.parametrize("lemma", ["matchings", "restriction", "dist-eq", "typical"])
    def test_model_runs_on_its_own_defaults(self, lemma, capsys):
        # the lemmas once shared the matchings defaults, which the other three
        # refused; the echo lists the lemma's own flags only
        assert cli.main(["model", "--lemma", lemma, "--trials", "2"]) == 0
        config = capsys.readouterr().out.splitlines()[0].removeprefix("# config: ")
        flags = {item.partition("=")[0] for item in config.split()}
        row = cli.MODES["model"][1][f"with --lemma {lemma}"]
        assert flags == {"command", "lemma", "seed", *(f[2:].replace("-", "_") for f in row)}

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

    def test_distort_rejects_single_vertex(self, tmp_path, capsys):
        fpath = tmp_path / "f.txt"
        fpath.write_text("1\n0 0\n")
        assert cli.main(["distort", "--gen", "complete:1", "--metric", "uniform:2",
                         "--map", str(fpath)]) == 1
        assert (capsys.readouterr().err
                == "error: distortion needs a graph with at least two vertices\n")

    @pytest.mark.parametrize("path", ["", "."])
    @pytest.mark.parametrize("argv", [("gamma", "--gen", "cycle:4", "--metric"),
                                      ("gen-metric", "--out", "unused.txt", "--type")])
    def test_metric_path_not_a_file(self, argv, path, capsys):
        # Path('') is the current directory: '' once printed "Is a directory: '.'"
        assert cli.main([*argv, path]) == 1
        assert capsys.readouterr().err == f"error: metric file not found: {path}\n"

    def test_snowflake_base_not_found(self, tmp_path, capsys):
        missing = tmp_path / "none.txt"
        assert cli.main(["gen-metric", "--type", "snowflake:0.5", "--base", str(missing),
                         "--out", str(tmp_path / "s.txt")]) == 1
        assert capsys.readouterr().err == f"error: metric file not found: {missing}\n"

    @pytest.mark.parametrize("distance", ["1e10", "1e-10"])
    def test_gamma_refuses_costs_out_of_float_range(self, distance, tmp_path):
        # 1e10^40 overflows and 1e-10^40 underflows; both once read "degenerate"
        mpath = tmp_path / "m.txt"
        mpath.write_text(f"2\n0 {distance}\n{distance} 0\n")
        res = run_cli("gamma", "--gen", "cycle:4", "--metric", str(mpath), "--q", "40")
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr == ("error: at cost exponent q = 40.0 a positive distance raised "
                              "to q underflows to 0 or passes the cost bound 2^960\n")

    @pytest.mark.parametrize("q", ["42", "44"])
    @pytest.mark.parametrize("mode", [(), ("--heuristic",)])
    def test_gamma_refuses_costs_whose_sums_overflow(self, q, mode, tmp_path):
        # 1e7^44 = 1e308 is finite, but a sum of two overflows: the exact run
        # once read "degenerate" and --heuristic printed inf and nan
        mpath = tmp_path / "m.txt"
        mpath.write_text("2\n0 1e7\n1e7 0\n")
        res = run_cli("gamma", "--gen", "cycle:4", "--metric", str(mpath), "--q", q, *mode)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr == (f"error: at cost exponent q = {float(q)} a positive distance "
                              "raised to q underflows to 0 or passes the cost bound 2^960\n")

    def test_nonconc_at_large_q(self, tmp_path, capsys):
        # 1.0 + h / (2^64 d) rounds to 1, where ell once divided by zero
        fpath = tmp_path / "f.map"
        fpath.write_text("6\n0 0\n1 0\n2 1\n3 1\n4 0\n5 1\n")
        assert cli.main(["nonconc", "--gen", "regular:6,3", "--metric", "uniform:2",
                         "--map", str(fpath), "--q", "30", "--cr", "1e300"]) == 0
        row = body_of(capsys.readouterr().out).splitlines()[-1]
        assert row.startswith("1,38358925935607971840,")

    def test_distort_refuses_image_distances_beyond_the_budget(self, tmp_path, capsys,
                                                               monkeypatch):
        # 8 * 40^2 = 12800 bytes: refused before the n x n array is allocated
        monkeypatch.setattr(metrics, "_METRIC_BYTES", 10_000)
        fpath = tmp_path / "f.txt"
        fpath.write_text("40\n" + "".join(f"{v} {v % 2}\n" for v in range(40)))
        assert cli.main(["distort", "--gen", "cycle:40", "--metric", "uniform:2",
                         "--map", str(fpath)]) == 1
        assert capsys.readouterr().err == ("error: the image distances of n = 40 vertices "
                                           "exceed the 10000-byte budget\n")

    def test_jls_refuses_distance_matrix_beyond_the_budget(self, capsys, monkeypatch):
        # at a large distortion the coordinates fit; the 12800-byte distance
        # matrix does not, and is refused before it is allocated
        monkeypatch.setattr(metrics, "_METRIC_BYTES", 10_000)
        graphs.distance_matrix.cache_clear()
        assert cli.main(["jls-embed", "--gen", "cycle:40", "--distortion", "1000"]) == 1
        assert capsys.readouterr().err == ("error: the distance matrix of n = 40 vertices "
                                           "exceeds the 10000-byte budget\n")

    @pytest.mark.parametrize("order", [3, 5])
    def test_distort_rejects_map_of_another_order(self, order, tmp_path, capsys):
        fpath = tmp_path / "f.txt"
        fpath.write_text(f"{order}\n" + "".join(f"{v} {v % 2}\n" for v in range(order)))
        assert cli.main(["distort", "--gen", "cycle:4", "--metric", "uniform:2",
                         "--map", str(fpath)]) == 1
        assert (capsys.readouterr().err
                == f"error: image distances of shape ({order}, {order}) != graph order 4\n")

    @pytest.mark.parametrize("header,message", [
        ("1000000000000 0", "n = 1000000000000 is outside the vertex range 0..1000001"),
        ("5 1000000000000",
         "n = 5 gives 1000000000000 edges, which exceeds the edge cap 1000000"),
    ])
    def test_oversized_graph_file_header(self, header, message, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        gpath.write_text(header + "\n")
        assert cli.main(["gamma", "--graph", str(gpath), "--metric", "uniform:2"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_oversized_metric_file_header(self, tmp_path, capsys):
        mpath = tmp_path / "m.txt"
        mpath.write_text("2000\n0 1\n1 0\n")
        assert cli.main(["gamma", "--gen", "cycle:4", "--metric", str(mpath)]) == 1
        assert capsys.readouterr().err == ("error: N = 2000 points needing 32000000 bytes "
                                           "exceeds cap 1000 points or 1073741824 bytes\n")

    @pytest.mark.parametrize("argv,text,message", [
        (("--graph", "PATH", "--metric", "uniform:2"), "4 -1\n", "edge count m = -1 is negative"),
        (("--gen", "cycle:4", "--metric", "PATH"), "-1\n", "point count N = -1 is negative"),
    ])
    def test_negative_file_header_count(self, argv, text, message, tmp_path, capsys):
        # these once read "expected -1 edges, found 0" and "expected -1 metric rows"
        path = tmp_path / "in.txt"
        path.write_text(text)
        assert cli.main(["gamma", *(str(path) if a == "PATH" else a for a in argv)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (("nonconc", "--gen", "regular:6,3", "--metric", "uniform:2", "--map", "MAP",
          "--tau", "1e300"), "need tau in (1/n, 1), got 1e+300"),
        (("model", "--lemma", "typical", "--n", "6", "--bigk", "1e300"),
         "degenerate parameters: ell0=0, k0=3.75e+299"),
    ])
    def test_huge_parameters_printed_as_floats(self, argv, message, tmp_path, capsys):
        # these printed a 300-digit Fraction and a 300-digit integer
        fpath = tmp_path / "f.map"
        fpath.write_text("6\n0 0\n1 0\n2 1\n3 1\n4 0\n5 1\n")
        assert cli.main([str(fpath) if a == "MAP" else a for a in argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (("gamma", "--gen", "cycle:4", "--metric", "uniform:2", "--q", "abc"),
         "argument --q: invalid float value: 'abc'"),
        (("gamma", "--gen", "cycle:4"), "the following arguments are required: --metric"),
        (("model", "--lemma", "nope"), "argument --lemma: invalid choice: 'nope'"),
        ((), "the following arguments are required: command"),
    ])
    def test_usage_errors_exit_one(self, argv, message, capsys):
        # argparse alone would print a usage block and exit 2, the code of a
        # failed property check
        assert cli.main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main([flag])
        assert exit_.value.code == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("n,message", [
        (10 ** 18, f"--n {10 ** 18} exceeds the vertex cap 1000001"),
        # past int64 the flag's type refuses it first
        (10 ** 21, f"argument --n: expected 1 integer, got '{10 ** 21}'")])
    def test_restriction_refuses_huge_domain(self, n, message, capsys):
        assert cli.main(["model", "--lemma", "restriction", "--n", str(n)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("n", [14000, 100000])
    def test_exhaustive_cap_message_is_short(self, n, capsys):
        # 2^14000 once printed all 4,215 digits, and 2^100000 Python's own
        # message about its integer-to-string digit limit
        assert cli.main(["gamma", "--gen", f"cycle:{n}", "--metric", "uniform:2"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: 2^{n} maps exceeds the exhaustive cap 100000000; "
                       "use gamma_lower_search instead; rerun with --heuristic\n")
        assert len(err.encode()) < 200

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
        (("spectra", "--gen-regular", "1000"),
         "--gen-regular n,d: expected 2 integers, got '1000'"),
        (("spectra", "--gen-regular", "a,3"), "--gen-regular n,d: expected 2 integers, got 'a,3'"),
        (("model", "--lemma", "typical", "--n", "10", "--d", "3", "--bigk", "1e-320",
          "--m", "1", "--trials", "1"), "big_k=1e-320"),
        (("model", "--lemma", "typical", "--n", "10", "--d", "3", "--bigk", "20",
          "--m", "100000", "--trials", "1"), "m=100000"),
        (("model", "--lemma", "restriction", "--n", "100", "--k", "5", "--eps", "1e-320",
          "--trials", "3"), "eps=1e-320"),
        (("model", "--lemma", "matchings", "--l", "400000"), "byte budget"),
        (("gamma", "--gen", "cycle:4", "--metric", "uniform:2", "--q", "500"),
         "cost exponent must be at most 441"),
        (("gamma", "--gen", "cycle:4", "--metric", "uniform:2", "--q", "1e300"),
         "cost exponent must be at most 441"),
        (("witness", "--gen", "regular:64,3", "--q", "441", "--N", "10^1000"),
         "at cost exponent q = 441.0"),
        (("model", "--lemma", "dist-eq", "--p-threshold", "nan"),
         "--p-threshold must lie in [0, 1]"),
        (("model", "--lemma", "dist-eq", "--p-threshold", "1.5"),
         "--p-threshold must lie in [0, 1]"),
        (("nonconc", "--gen", "complete:4", "--metric", "uniform:2", "--map", "unused.map",
          "--cr", "nan"), "--cr must be finite"),
        (("nonconc", "--gen", "complete:4", "--metric", "uniform:2", "--map", "unused.map",
          "--cr", "inf"), "--cr must be finite"),
        (("nonconc", "--gen", "complete:4", "--metric", "uniform:2", "--map", "unused.map",
          "--tau", "nan"), "--tau must be finite"),
        (("nonconc", "--gen", "complete:4", "--metric", "uniform:2", "--map", "unused.map"),
         "map file not found: unused.map"),
        (("gen-metric", "--type", "grid:1000000,1000000", "--out", "unused.txt"),
         "(2k+1)^s exceeds cap 1000 at k = 1000000, s = 1000000"),
        (("gen-metric", "--type", "grid:0,1000000000", "--out", "unused.txt"),
         "need k >= 1 and s >= 1"),
        (("gen-metric", "--type", "random:100000", "--out", "unused.txt"),
         "N = 100000 points needing 160000000000 bytes exceeds cap 1000 points"),
        (("gen-metric", "--type", "random:10,100000000", "--out", "unused.txt"),
         "N = 10 points needing 80000000000 bytes exceeds cap 1000 points or 1073741824 bytes"),
        (("gamma", "--gen", "cycle:4", "--metric", "uniform:100000", "--q", "1"),
         "N = 100000 points needing 80000000000 bytes exceeds cap 1000 points"),
        (("gamma", "--gen", "cycle:4", "--metric", "random:0", "--q", "1"),
         "random metric needs N >= 1"),
        (("gen-metric", "--type", "random:5,0", "--out", "unused.txt"),
         "random metric needs dim >= 1, got 0"),
        (("gen-graph", "--type", "regular:100000000,3", "--out", "unused.txt"),
         "n = 100000000 gives 150000000 edges, which exceeds the edge cap 1000000"),
        (("gen-graph", "--type", "complete:100000", "--out", "unused.txt"),
         "n = 100000 gives 4999950000 edges, which exceeds the edge cap 1000000"),
        (("witness", "--sizes", "100000000"),
         "n = 100000000 gives 150000000 edges, which exceeds the edge cap 1000000"),
        (("spectra", "--gen-regular", "100000000,3"),
         "n = 100000000 gives 150000000 edges, which exceeds the edge cap 1000000"),
        (("spectra", "--gen-regular", "20,0"), "degree d=0 must satisfy"),
        # these once raised a TypeError from an empty table of graphs
        (("model", "--lemma", "dist-eq", "--n", "4", "--d", "4"),
         "no simple 4-regular graph on n = 4 vertices"),
        (("model", "--lemma", "dist-eq", "--n", "5", "--d", "3"),
         "no simple 3-regular graph on n = 5 vertices"),
    ])
    def test_exit_one(self, argv, fragment, capsys):
        assert cli.main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert fragment in captured.err and "Traceback" not in captured.err


class TestSpecGrammar:
    """Spec fields are read by io's field parser: a wrong field count, a
    non-number or an integer outside int64 exits 1 with one line that names
    the spec's form and shows the fields, cut to 40 characters."""

    GEN = ("gamma", "--metric", "uniform:2", "--gen")
    METRIC = ("gamma", "--gen", "cycle:4", "--metric")
    NINES = "9" * 37 + "..."

    @pytest.mark.parametrize("argv,message", [
        pytest.param((*GEN, "regular:10"),
                     "bad graph spec regular:n,d: expected 2 integers, got '10'", id="regular:10"),
        pytest.param((*GEN, "cycle:nan"),
                     "bad graph spec cycle:n: expected 1 integer, got 'nan'", id="cycle:nan"),
        pytest.param((*GEN, "cycle:" + "9" * 5000),
                     f"bad graph spec cycle:n: expected 1 integer, got '{NINES}'",
                     id="cycle:5000-nines"),
        pytest.param((*GEN, "complete:" + "9" * 4000),
                     f"bad graph spec complete:n: expected 1 integer, got '{NINES}'",
                     id="complete:4000-nines"),
        pytest.param((*GEN, "prism:7"),
                     "bad graph spec prism: expected 0 integers, got '7'", id="prism:7"),
        pytest.param((*GEN, "nope:5"),
                     "unknown graph spec 'nope:5': kinds are regular:n,d | cycle:n | path:n | "
                     "complete:n | prism | petersen", id="nope:5"),
        pytest.param((*METRIC, "random:3,2,9"),
                     "bad metric spec random:N[,dim]: expected 2 integers, got '3,2,9'",
                     id="random:3,2,9"),
        pytest.param((*METRIC, "grid:1"),
                     "bad metric spec grid:k,s: expected 2 integers, got '1'", id="grid:1"),
        pytest.param(("witness", "--sizes", "nan"),
                     "--sizes n1,n2,...: expected integers, got 'nan'", id="sizes-nan"),
        pytest.param(("witness", "--sizes", "16,,16"),
                     "--sizes n1,n2,...: expected integers, got '16,,16'", id="sizes-16,,16"),
        pytest.param(("gen-metric", "--type", "snowflake:1e", "--base", "m.txt",
                      "--out", "unused.txt"),
                     "bad metric spec snowflake:eps: expected 1 number, got '1e'",
                     id="snowflake:1e"),
        pytest.param(("spectra", "--gen-regular", "1000"),
                     "--gen-regular n,d: expected 2 integers, got '1000'", id="gen-regular-1000"),
        pytest.param(("spectra", "--gen-regular", "a,3"),
                     "--gen-regular n,d: expected 2 integers, got 'a,3'", id="gen-regular-a,3"),
        # integer flags take the same rule: within int64, the value cut to 40
        # characters; 4000 digits once reached Python's digit limit in the
        # point cap's message, and a 4000-digit seed was echoed into # config:
        pytest.param(("model", "--lemma", "restriction", "--n", "20", "--k", "5",
                      "--points", "9" * 4000),
                     f"argument --points: expected 1 integer, got '{NINES}'",
                     id="points-4000-nines"),
        pytest.param(("gamma", "--gen", "cycle:4", "--metric", "uniform:2", "--seed", "9" * 4000),
                     f"argument --seed: expected 1 integer, got '{NINES}'", id="seed-4000-nines"),
        pytest.param(("gamma", "--gen", "cycle:4", "--metric", "uniform:2",
                      "--seed", str(2 ** 63)),
                     f"argument --seed: expected 1 integer, got '{2 ** 63}'", id="seed-2^63"),
        pytest.param(("spectra", "--gen-regular", "20,3", "--trials", "2.5"),
                     "argument --trials: expected 1 integer, got '2.5'", id="trials-2.5"),
    ])
    def test_malformed_spec_pinned(self, argv, message, capsys):
        assert cli.main(list(argv)) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("spec,code,err", [
        ("prism", 0, ""), ("petersen", 0, ""),
        # the largest int64 passes the parser and meets the edge cap
        (f"cycle:{2 ** 63 - 1}", 1, f"error: n = {2 ** 63 - 1} gives {2 ** 63 - 1} edges, "
                                    "which exceeds the edge cap 1000000\n"),
    ])
    def test_spec_reaches_its_constructor(self, spec, code, err, capsys):
        assert cli.main(["gamma", "--gen", spec, "--metric", "uniform:2", "--heuristic"]) == code
        assert capsys.readouterr().err == err

    def test_random_dim_defaults_to_two(self, tmp_path):
        texts = []
        for spec in ("random:5", "random:5,2"):
            out = tmp_path / "m.txt"
            assert cli.main(["gen-metric", "--type", spec, "--seed", "3", "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]


# --------------------------------------------------------------- no-traceback table

HUGE = "1" + "0" * 21
GRAPH_TEXT = "4 4\n0 1\n0 3\n1 2\n2 3\n"
METRIC_TEXT = "2\n0 1.0\n1.0 0\n"
MAP_TEXT = "4\n0 0\n1 1\n2 0\n3 1\n"
# the files each table run starts from, unless a case overrides one
FILES = {"g.txt": GRAPH_TEXT, "m.txt": METRIC_TEXT, "f.map": MAP_TEXT,
         "i.map": "4\n0 0\n1 1\n2 2\n3 3\n",
         # two pairs of points 1 apart, 12 from each other: under i.map the
         # 1/2-quantile is 1 and ave = 6.25
         "pairs.txt": "4\n0 1 12 12\n1 0 12 12\n12 12 0 1\n12 12 1 0\n"}


def spec_variants(kind: str, fields: tuple[str, ...]) -> list[str]:
    """kind:fields with each field in turn zero, negative, NaN, huge or 5000
    digits long, then cut short (the last field dropped, a trailing
    separator) and one field too many."""
    out = [f"{kind}:" + ",".join(fields[:i] + (bad,) + fields[i + 1:])
           for i in range(len(fields)) for bad in ("0", "-1", "nan", HUGE, "9" * 5000)]
    return out + [f"{kind}:" + ",".join(fields[:-1]), f"{kind}:" + ",".join(fields) + ",",
                  f"{kind}:" + ",".join(fields + ("1",))]


GRAPH_SPECS = [*spec_variants("regular", ("10", "3")), *spec_variants("cycle", ("5",)),
               *spec_variants("path", ("5",)), *spec_variants("complete", ("5",)),
               "prism", "petersen", "prism:7", "petersen:1", "nope:5", ""]
METRIC_SPECS = [*spec_variants("uniform", ("3",)), *spec_variants("grid", ("1", "2")),
                *spec_variants("random", ("4", "2")), "no_such_metric.txt", "", "."]
# file texts: cut short, empty, zero, negative, NaN and huge headers, bad entries
GRAPH_FILES = [GRAPH_TEXT[:-9], GRAPH_TEXT[:-2], "4", "", "0 0\n", "-1 0\n", "nan 0\n",
               f"{HUGE} 0\n", f"4 {HUGE}\n", "4 1\n0 9\n", "4 1\n0 -1\n", "4 1\n0 0\n",
               "4 -1\n"]
METRIC_FILES = [METRIC_TEXT[:-2], METRIC_TEXT[:-6], "2", "", "0\n", "-1\n", "nan\n",
                f"{HUGE}\n", "2000\n", "2\n0 nan\nnan 0\n", "2\n0 -1\n-1 0\n",
                "2\n0 1e999\n1e999 0\n", "2\n0 0\n0 0\n"]
# besides these, the 3- and 5-vertex maps, which do not fit the 4-vertex graphs
MAP_FILES = [MAP_TEXT[:-2], MAP_TEXT[:-8], "", "0\n", "-1\n", "nan\n", f"{HUGE}\n",
             "4\n0 0\n1 1\n2 0\n3 9\n", "4\n0 0\n1 -1\n2 0\n3 1\n",
             "4\n0 0\n1 1\n2 0\n9 1\n", "3\n0 0\n1 1\n2 0\n",
             "5\n0 0\n1 1\n2 0\n3 1\n4 0\n"]

INT = ("0", "-1", "nan", HUGE, "", "9" * 5000)
FLOAT = ("0", "-1", "nan", "1e300", "1e")
COUNT = ("0", "-1", "9" * 5000)
OUT_PATH = ("", "no_such_dir/out.txt")
IN_PATH = ("", ".", "no_such_file.txt")

# each subcommand: a small valid run, and the values tried for each of its flags
SUBCOMMANDS = [
    (("gamma", "--gen", "cycle:4", "--metric", "uniform:2", "--q", "1",
      "--seed", "0", "--out", "out.csv", "--map-out", "f.out"),
     {"--gen": GRAPH_SPECS, "--metric": METRIC_SPECS, "--q": FLOAT, "--seed": INT,
      "--out": OUT_PATH, "--map-out": OUT_PATH}),
    (("gamma", "--gen", "cycle:8", "--metric", "uniform:3", "--heuristic", "--iters", "20",
      "--q", "1", "--seed", "0"),
     {"--gen": GRAPH_SPECS, "--metric": METRIC_SPECS, "--q": FLOAT, "--seed": INT,
      "--iters": COUNT}),
    (("extrapolate", "--gen", "complete:4", "--metric", "uniform:2", "--p", "1", "--q", "2",
      "--seed", "0"),
     {"--gen": GRAPH_SPECS, "--metric": METRIC_SPECS, "--p": FLOAT, "--q": FLOAT,
      "--seed": INT, "--suite": ("nope", "")}),
    (("extrapolate", "--suite", "desk", "--seed", "0"), {"--seed": INT}),
    (("nonconc", "--gen", "complete:4", "--metric", "pairs.txt", "--map", "i.map", "--q", "1",
      "--cr", "5", "--tau", "0.5", "--seed", "0"),
     {"--gen": GRAPH_SPECS, "--metric": METRIC_SPECS, "--q": FLOAT, "--cr": FLOAT,
      "--tau": FLOAT, "--seed": INT}),
    (("witness", "--gen", "regular:16,3", "--N", "10^10", "--q", "1", "--seed", "0"),
     {"--gen": GRAPH_SPECS, "--N": ("0", "-1", "nan", f"10^{HUGE}", "10^"), "--q": FLOAT,
      "--seed": INT}),
    (("witness", "--sizes", "16", "--d", "3", "--trials", "1", "--N", "10^10", "--seed", "0",
      "--svg", "w.svg"),
     {"--sizes": ("0", "-1", "nan", HUGE, "16,", ""), "--d": INT, "--trials": COUNT,
      "--svg": OUT_PATH}),
    # at c1 = 100 the first attempts miss the target, so --retries can act
    (("jls-embed", "--gen", "cycle:8", "--distortion", "3", "--c1", "100", "--retries", "2",
      "--delta", "10", "--seed", "0", "--map-out", "j.txt"),
     {"--gen": GRAPH_SPECS, "--distortion": FLOAT, "--c1": FLOAT, "--retries": COUNT,
      "--delta": INT, "--seed": INT, "--map-out": OUT_PATH}),
    (("distort", "--gen", "cycle:4", "--metric", "uniform:4", "--map", "i.map"),
     {"--gen": GRAPH_SPECS, "--metric": METRIC_SPECS}),
    (("model", "--lemma", "matchings", "--l", "8", "--eps", "0.3", "--c", "0.2",
      "--trials", "10", "--seed", "0"),
     {"--lemma": ("nope", ""), "--l": INT, "--eps": FLOAT, "--c": FLOAT, "--trials": COUNT,
      "--seed": INT}),
    (("model", "--lemma", "restriction", "--n", "20", "--k", "5", "--eps", "0.2",
      "--points", "4", "--trials", "10", "--seed", "0"),
     {"--n": INT, "--k": INT, "--eps": FLOAT, "--points": INT, "--trials": COUNT,
      "--seed": INT}),
    (("model", "--lemma", "dist-eq", "--n", "4", "--d", "3", "--l", "2", "--trials", "10",
      "--p-threshold", "0.001", "--seed", "0"),
     {"--n": INT, "--d": INT, "--l": INT, "--trials": COUNT, "--p-threshold": FLOAT,
      "--seed": INT}),
    (("model", "--lemma", "typical", "--n", "120", "--d", "3", "--bigk", "6", "--m", "3",
      "--trials", "1", "--seed", "0"),
     {"--n": INT, "--d": INT, "--bigk": FLOAT, "--m": INT, "--trials": COUNT, "--seed": INT}),
    # seed 1322 draws a disconnected graph first (lambda2 = 3), so the
    # fraction is 1/2 and --min-fraction can fail the run
    (("spectra", "--gen-regular", "20,3", "--trials", "2", "--min-fraction", "0.5",
      "--seed", "1322"),
     {"--gen-regular": [s.partition(":")[2] for s in spec_variants("regular", ("20", "3"))],
      "--trials": COUNT, "--min-fraction": FLOAT, "--seed": INT}),
    (("gen-graph", "--type", "cycle:5", "--seed", "0", "--out", "g.out"),
     {"--type": GRAPH_SPECS, "--seed": INT, "--out": OUT_PATH}),
    (("gen-metric", "--type", "uniform:3", "--seed", "0", "--out", "m.out"),
     {"--type": METRIC_SPECS, "--seed": INT, "--out": OUT_PATH}),
    (("gen-metric", "--type", "snowflake:0.5", "--base", "m.txt", "--out", "s.out"),
     {"--type": [f"snowflake:{x}" for x in FLOAT], "--base": ("no_such_metric.txt",)}),
]


def with_flag(base: tuple, flag: str, value: str) -> list[str]:
    """base with the value of flag replaced, or flag appended."""
    argv = list(base)
    if flag not in argv:
        return argv + [flag, value]
    argv[argv.index(flag) + 1] = value
    return argv


def short(arg: str) -> str:
    """An argument as a test id shows it: one past 100 characters is cut."""
    return arg if len(arg) <= 100 else f"{arg[:20]}...({len(arg)} chars)"


def mode_of(base) -> str:
    """The command of a valid command line and, for a command of cli.MODES,
    the mode it runs in.  Test ids name a base row by this and not by its
    whole argv, so editing a value of a base row renames no id."""
    if base[0] not in cli.MODES:
        return base[0]
    return f"{base[0]} {cli.MODES[base[0]][0](cli.build_parser().parse_args(base))}"


def table_cases():
    """(id, argv, files): one flag or file out of its domain per call.  The
    files g.txt, m.txt and f.map hold a valid graph, metric and map unless
    overridden.  The id names the mode and what the case varies."""
    cases = [("gamma|--q='abc'",
              ["gamma", "--gen", "cycle:4", "--metric", "uniform:2", "--q", "abc"], {}),
             ("gamma|no --metric", ["gamma", "--gen", "cycle:4"], {}),
             ("model|--lemma='nope'", ["model", "--lemma", "nope"], {}),
             ("no command", [], {})]
    for base, flags in SUBCOMMANDS:
        cases += [(f"{mode_of(base)}|{flag}={short(v)!r}", with_flag(base, flag, v), {})
                  for flag, values in flags.items() for v in values]
    graph_cmd = ["gamma", "--graph", "g.txt", "--metric", "m.txt"]
    map_cmd = ["distort", "--graph", "g.txt", "--metric", "uniform:2", "--map", "f.map"]
    cases += [(f"{mode_of(graph_cmd)}|--graph={p!r}", with_flag(graph_cmd, "--graph", p), {})
              for p in IN_PATH]
    cases += [(f"distort|--map={p!r}", with_flag(map_cmd, "--map", p), {}) for p in IN_PATH]
    cases += [(f"{mode_of(graph_cmd)}|{name}={t!r}", graph_cmd, {name: t})
              for name, texts in (("g.txt", GRAPH_FILES), ("m.txt", METRIC_FILES))
              for t in texts]
    for cmd in ("distort", "nonconc"):
        cases += [(f"{cmd}|f.map={t!r}", [cmd, *map_cmd[1:]], {"f.map": t}) for t in MAP_FILES]
    return cases


TABLE_CASES = table_cases()
# a count or size of 10^21 or of 5000 digits, as a whole field of an
# argument or a file (10^HUGE is a valid --N)
HUGE_FIELD = re.compile(rf"(?<![\d^])(?:{HUGE}|9{{5000}})(?!\d)")
# the memory column: one interpreter limited to 2 GiB of address space runs
# the rows [argv, files] it reads as JSON, each in a directory of its own
# under argv[1] and under an alarm, and writes [exit code or exception name,
# stderr] per row
MEMORY_CHILD = """
import contextlib, io, json, os, resource, signal, sys
from pathlib import Path

resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from nlgap import cli


def overtime(signum, frame):
    raise TimeoutError


signal.signal(signal.SIGALRM, overtime)
os.chdir(sys.argv[1])
limit, rows = json.load(sys.stdin)
results = []
for i, (argv, files) in enumerate(rows):
    os.mkdir(str(i))
    os.chdir(str(i))
    for name, text in files.items():
        Path(name).write_text(text)
    err = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except BaseException as exc:
        code = type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    os.chdir("..")
    results.append([code, err.getvalue()])
json.dump(results, sys.stdout)
"""


class Overtime(Exception):
    pass


class TestNoTracebackTable:
    """Every subcommand over zero, negative, NaN, huge and cut-short values of
    each flag, spec field and input file, one at a time, in process: each call
    exits 0, 1 or 2 within TIME_LIMIT_S seconds and prints no traceback; an
    exit 1 prints one "error: " line of at most 200 bytes with none of
    Python's own conversion messages, and exit 2 is a failed property check.

    Work counts (--trials, --iters, --retries) get only zero, negative and
    5000-digit values: a huge count within int64 is a valid long run, not
    out of the domain (gamma --heuristic --iters 10^18 runs until it is
    stopped)."""

    TIME_LIMIT_S = 5.0

    def test_ids_unique(self):
        ids = [case[0] for case in TABLE_CASES]
        assert len(set(ids)) == len(ids)

    @pytest.mark.parametrize("argv,files", [pytest.param(a, f, id=i) for i, a, f in TABLE_CASES])
    def test_exits_cleanly(self, argv, files, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name, text in {**FILES, **files}.items():
            Path(name).write_text(text)

        def overtime(signum, frame):
            raise Overtime(f"{argv} ran past {self.TIME_LIMIT_S} s")

        previous = signal.signal(signal.SIGALRM, overtime)
        signal.setitimer(signal.ITIMER_REAL, self.TIME_LIMIT_S)
        try:
            code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.out + captured.err
        if code == 1:
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            # Python's own messages and echoes of huge values stay out
            assert len(captured.err.encode()) <= 200, captured.err
            for phrase in ("unpack", "invalid literal", "could not convert", "Exceeds the limit"):
                assert phrase not in captured.err
        if code == 2:
            assert captured.err.startswith("property check failed: ")

    def test_huge_sizes_refused_within_two_gib(self, tmp_path):
        """The rows with a huge count or size, run in one child process
        under a 2 GiB address-space limit: each exits 1 with one line, and
        none raises MemoryError or runs past TIME_LIMIT_S."""
        rows = [(i, argv, {**FILES, **files}) for i, argv, files in TABLE_CASES
                if any(HUGE_FIELD.search(x) for x in [*argv, *files.values()])]
        assert len(rows) > 200
        res = subprocess.run([sys.executable, "-c", MEMORY_CHILD, str(tmp_path)],
                             input=json.dumps([self.TIME_LIMIT_S, [r[1:] for r in rows]]),
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        bad = [(i, code, err) for (i, _, _), (code, err) in zip(rows, json.loads(res.stdout))
               if not (code == 1 and err.startswith("error: ") and err.count("\n") == 1)]
        assert bad == []


# ------------------------------------------------------------------ flag gate

# valid values for each flag ("command flag" where commands differ); a run
# takes the first that differs from the base's value, and leaves the flag
# out when none does.  --graph names a file that holds the base's own
# --gen graph, so that a --gen beside it that changed nothing would show.
OTHER = {
    "--seed": ("5",), "--out": ("other.out",), "--map-out": ("out.map",),
    "--svg": ("other.svg",), "--gen": ("complete:4", "cycle:4"), "--graph": ("same.txt",),
    "--metric": ("random:4",), "--map": ("other.map",), "--p": ("1.5",),
    # the nonconc row's map has ave / quantile = 6.25, between C_R = 5 and
    # 8, so --cr 8 flips hypothesis_met; --q 3 is refused there, as C_R = 5
    # is below 5^q for every q > 1
    "--cr": ("8",), "--q": ("3",),
    "--iters": ("1",), "--suite": ("desk",), "--tau": ("0.3",),
    "--N": ("10^20",), "--sizes": ("32",), "--d": ("4",), "--trials": ("2", "3"),
    "--distortion": ("4",), "--c1": ("2",), "--retries": ("5",), "--delta": ("12",),
    "--lemma": ("restriction", "matchings"), "--l": ("6",), "--eps": ("0.25",),
    "--c": ("0.1",), "--n": ("8",), "--k": ("6",), "--m": ("2",), "--bigk": ("8",),
    "--points": ("2",), "--p-threshold": ("1",), "--gen-regular": ("24,3",),
    "--min-fraction": ("1",), "--base": ("m.txt", "n.txt"),
    "gen-graph --type": ("cycle:6",), "gen-metric --type": ("uniform:4",),
}


def parser_flags() -> dict:
    """Each subcommand of cli.build_parser() and its flags, by first spelling."""
    top = cli.build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.option_strings[0]: a for a in p._actions
                   if a.option_strings and a.dest != "help"}
            for name, p in sub.choices.items()}


FLAGS = parser_flags()
BASES = [base for base, _ in SUBCOMMANDS]


def with_other(base: tuple, flag: str) -> list[str]:
    """base with flag set to another valid value; a switch is toggled."""
    argv = list(base)
    if FLAGS[base[0]][flag].nargs == 0:
        return [a for a in argv if a != flag] if flag in argv else argv + [flag]
    now = argv[argv.index(flag) + 1] if flag in argv else None
    value = next((v for v in OTHER.get(f"{base[0]} {flag}", OTHER.get(flag))
                  if v != now), None)
    if value is None:
        i = argv.index(flag)
        return argv[:i] + argv[i + 2:]
    return with_flag(base, flag, value)


def outcome(argv: list[str], where: Path, monkeypatch, capsys):
    """Exit code, stdout body, the files written (config lines left out)
    and stderr of one run in a fresh directory."""
    where.mkdir()
    monkeypatch.chdir(where)
    base_graph = (cli.parse_graph_arg(argv[argv.index("--gen") + 1] if "--gen" in argv
                                      else "cycle:4", None, 0))
    fixtures = {**FILES, "n.txt": "2\n0 2.0\n2.0 0\n", "other.map": "4\n0 0\n1 0\n2 0\n3 1\n",
                "same.txt": graph_to_text(base_graph)}
    for name, text in fixtures.items():
        Path(name).write_text(text)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    written = {p.name: [line for line in p.read_text().splitlines()
                        if not line.startswith(("#", "<!-- config:"))]
               for p in sorted(where.iterdir()) if p.name not in fixtures}
    return code, body_of(out), written, err


class TestEveryFlagActs:
    """Each flag acts in each mode of its command, or is refused by name.
    On every mode's base run (the SUBCOMMANDS rows above), setting one flag
    to another valid value must change the exit code, the stdout body or a
    written file, or exit 1 with one error: line that names the flag.  The
    one exemption is --seed, by name: every command accepts it, and on a
    base that draws nothing at random it changes nothing."""

    CASES = [(base, flag) for base in BASES for flag in FLAGS[base[0]]]

    def test_parser_shape(self):
        assert len(FLAGS) == 10
        assert sum(len(flags) for flags in FLAGS.values()) == 77
        # every flag has a value to try, and every mode has a base
        assert all(flag in OTHER or f"{cmd} {flag}" in OTHER or FLAGS[cmd][flag].nargs == 0
                   for cmd, flags in FLAGS.items() for flag in flags)
        assert set(FLAGS) == {base[0] for base in BASES}
        for command, (pick, reads) in cli.MODES.items():
            parsed = [cli.build_parser().parse_args(base) for base in BASES
                      if base[0] == command]
            assert {pick(args) for args in parsed} == set(reads), command

    @pytest.mark.parametrize("base,flag", CASES, ids=[f"{mode_of(b)}|{f}" for b, f in CASES])
    def test_flag_acts_or_is_refused(self, base, flag, tmp_path, monkeypatch, capsys):
        before = outcome(list(base), tmp_path / "base", monkeypatch, capsys)
        after = outcome(with_other(base, flag), tmp_path / "flag", monkeypatch, capsys)
        code, _, _, err = after
        refused = (code == 1 and err.startswith("error: ") and err.count("\n") == 1
                   and re.search(rf"{re.escape(flag)}(?![\w-])", err))
        assert refused or after[:3] != before[:3] or flag == "--seed", after

    def test_nonconc_cr_acts_through_the_verdict(self, tmp_path, monkeypatch, capsys):
        base = next(b for b in BASES if b[0] == "nonconc")
        runs = [outcome(argv, tmp_path / name, monkeypatch, capsys)
                for name, argv in (("base", list(base)), ("flag", with_other(base, "--cr")))]
        # hypothesis_met is the first column
        assert [(code, body.splitlines()[1][:2]) for code, body, _, _ in runs] == [
            (0, "1,"), (0, "0,")]


class TestImportBudget:
    """No command loads scipy, which is a test-only oracle: lambda2 runs
    its own Lanczos solver and the dist-eq p-value is computed in decimal.
    Each case runs in a fresh interpreter."""

    @staticmethod
    def loaded_scipy(calls: str):
        """The output of calls, and the scipy modules loaded after them."""
        code = ("import sys\nimport nlgap, nlgap.cli\n" + calls
                + "\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        *out, modules = res.stdout.splitlines()
        return "\n".join(out), modules.split()

    def test_gamma_loads_no_scipy(self):
        out, modules = self.loaded_scipy("assert nlgap.cli.main(['gamma', '--gen', 'cycle:4', "
                                         "'--metric', 'uniform:2', '--q', '1']) == 0")
        assert body_of(out).splitlines()[-1].startswith("4,2,2,1.0,")
        assert modules == []

    @pytest.mark.parametrize("argv", [
        ["model", "--lemma", "matchings", "--trials", "1000"],
        ["model", "--lemma", "restriction", "--n", "200", "--k", "20", "--trials", "100"],
        ["model", "--lemma", "typical", "--n", "200", "--trials", "2"],
        ["witness", "--sizes", "16,32"],
        ["model", "--lemma", "dist-eq", "--n", "6", "--d", "3", "--l", "1",
         "--trials", "40000", "--seed", "12"],
        ["spectra", "--gen-regular", "1000,3", "--trials", "2"],
    ])
    def test_numpy_only_commands_load_no_scipy(self, argv):
        # scipy.special alone adds about 24 MB of resident memory
        out, modules = self.loaded_scipy(f"assert nlgap.cli.main({argv!r}) == 0")
        assert modules == []
        if "dist-eq" in argv:
            # the p-value pinned in test_models
            assert (body_of(out).splitlines()[-1]
                    == "6,3,1,40000,630,606.3034999999994,0.7352985347190648")


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

    def test_svg_without_sizes_refused(self, tmp_path, capsys):
        # the chart plots the growth over --sizes; one graph has no chart
        svg = tmp_path / "x.svg"
        assert cli.main(["witness", "--gen", "regular:64,3", "--svg", str(svg)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: --svg does nothing without --sizes\n")
        assert not svg.exists()


class TestReportHeaders:
    """The CSV header line of every report layout."""

    @pytest.mark.parametrize("argv,header", [
        (("gamma", "--gen", "cycle:4", "--metric", "uniform:2"),
         "n,d,N,q,ave,dirichlet,ratio,Qtau,concentrated"),
        (("extrapolate", "--gen", "complete:4", "--metric", "uniform:2"),
         "instance,p,q,gamma_p,gamma_q,log_c1,log_c2,log_c3,log_c4,"
         "lhs1_log,rhs1_log,lhs2_log,rhs2_log,pass,slack1_log,slack2_log"),
        (("nonconc", "--gen", "complete:4", "--metric", "uniform:2", "--map", "MAP"),
         "hypothesis_met,ell,log_bound,ave,dirichlet,holds,slack_log"),
        (("witness", "--gen", "complete:4", "--N", "10^10"),
         "n,d,k,s,s0,r0,q,ave,dirichlet,ratio,max_edge_cost"),
        (("jls-embed", "--gen", "cycle:16", "--seed", "11"),
         "n,attempts,success,lip,colip,distortion,coords,log_space_size"),
        (("distort", "--gen", "complete:4", "--metric", "uniform:2", "--map", "MAP"),
         "lip,colip,distortion,scale"),
        (("model", "--lemma", "matchings", "--l", "8", "--eps", "0.3", "--trials", "10"),
         "ell,eps,c,trials,empirical,analytic_bound"),
        (("model", "--lemma", "restriction", "--n", "20", "--k", "5", "--trials", "10"),
         "eps,k,trials,frequency,bound,hypothesis_met"),
        (("model", "--lemma", "dist-eq", "--n", "4", "--l", "6", "--trials", "10"),
         "n,d,ell,trials,cells,chi2,p_value"),
        (("model", "--lemma", "typical", "--n", "120", "--bigk", "6", "--m", "3",
          "--trials", "1"), "trial,v,v_prime,v_dprime,ell0,k0,f1,f2,f3"),
        (("spectra", "--gen-regular", "20,3", "--trials", "1"), "trial,lambda2,below_threshold"),
    ])
    def test_header_line(self, argv, header, tmp_path):
        fpath, out = tmp_path / "f.map", tmp_path / "out.csv"
        fpath.write_text("4\n0 0\n1 0\n2 1\n3 1\n")
        assert cli.main([str(fpath) if a == "MAP" else a for a in argv] + ["--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert [line.split(":")[0] for line in lines[:3]] == ["# config", "# version",
                                                             "# walltime"]
        assert lines[3] == header


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

    def test_model_diagnostics_prefix(self, tmp_path):
        got = self.run_main(tmp_path, "model", "--lemma", "typical", "--n", "2000",
                            "--bigk", "20", "--m", "4", "--trials", "2", "--seed", "5")
        committed = body_of((RESULTS / "model_diagnostics.csv").read_text()).splitlines()
        assert got[:3] == committed[:3]  # header and trials 0..1


def readme_commands() -> list[list[str]]:
    """The arguments of each nlgap line in the code blocks of the README's
    CLI and Experiments sections."""
    out, section, fenced = [], "", False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("## "):
            section = line[3:]
        elif line.startswith("```"):
            fenced = not fenced
        elif fenced and section in ("CLI", "Experiments") and line.startswith("nlgap "):
            out.append(line.split()[1:])
    return out


class TestReadmeInStep:
    """The README's commands and the CLI's help stay in step with the spec
    tables; the commands are parsed, not run."""

    COMMANDS = readme_commands()

    def test_commands_found(self):
        assert len(self.COMMANDS) == 16

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_command_parses(self, argv):
        args = cli.build_parser().parse_args(argv)
        graphs = [args.gen] if getattr(args, "gen", None) else []
        metrics = [args.metric] if getattr(args, "metric", None) else []
        if args.command in ("gen-graph", "gen-metric"):
            (graphs if args.command == "gen-graph" else metrics).append(args.type)
        for spec in graphs:
            assert spec.partition(":")[0] in cli.GRAPH_SPECS, spec
        for spec in metrics:
            kind, colon, _ = spec.partition(":")
            assert kind in [*cli.METRIC_SPECS, "snowflake"] or not colon, spec

    @pytest.mark.parametrize("argv,tables", [
        (["gamma"], [cli.GRAPH_SPECS, cli.METRIC_SPECS]),
        (["extrapolate"], [cli.GRAPH_SPECS, cli.METRIC_SPECS]),
        (["gen-graph"], [cli.GRAPH_SPECS]),
        (["gen-metric"], [cli.METRIC_SPECS]),
    ])
    def test_help_lists_every_form(self, argv, tables, capsys):
        with pytest.raises(SystemExit):
            cli.main([*argv, "--help"])
        shown = " ".join(capsys.readouterr().out.split())
        for table in tables:
            for kind, (names, _) in table.items():
                assert f"{kind}:{names}".rstrip(":") in shown
