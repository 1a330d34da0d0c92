import argparse
import json
import re
import shlex
import signal
import subprocess
import sys
import tracemalloc
import warnings
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

    def test_negative_zero_diagonal_prints_as_zero(self, tmp_path):
        """A -0 on the diagonal passes the metric checks and leaves them +0."""
        bodies = []
        for text in ("2\n-0 1\n1 -0\n", "2\n0 1\n1 0\n"):
            (tmp_path / "m.txt").write_text(text)
            res = run_cli("gamma", "--gen", "cycle:4", "--metric", str(tmp_path / "m.txt"),
                          "--q", "1")
            assert res.returncode == 0, res.stderr
            bodies.append(body_of(res.stdout))
        assert bodies[0] == bodies[1]
        assert bodies[0].splitlines()[-1].split(",")[7] == "0.0"  # Qtau column

    def test_heuristic_deterministic(self):
        argv = ("gamma", "--gen", "regular:12,3", "--metric", "grid:1,2",
                "--heuristic", "--iters", "300", "--seed", "7")
        a, b = run_cli(*argv), run_cli(*argv)
        assert a.returncode == b.returncode == 0
        assert body_of(a.stdout) == body_of(b.stdout)


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

    def test_snowflake_of_stored_metric(self, tmp_path):
        base, out = tmp_path / "base.txt", tmp_path / "flake.txt"
        run_cli("gen-metric", "--type", "random:4", "--seed", "2", "--out", str(base))
        res = run_cli("gen-metric", "--type", "snowflake:0.5", "--base", str(base),
                      "--out", str(out))
        assert res.returncode == 0
        m_base, m_flake = metric_from_text(base.read_text()), metric_from_text(out.read_text())
        assert abs(m_flake.dist - m_base.dist ** 0.5).max() < 1e-12

    def test_random_dim_defaults_to_two(self, tmp_path):
        texts = []
        for spec in ("random:5", "random:5,2"):
            out = tmp_path / "m.txt"
            assert cli.main(["gen-metric", "--type", spec, "--seed", "3", "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]


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

    def test_heuristic_refuses_search_tables_beyond_the_budget(self, capsys, monkeypatch):
        # five 160 MB tables: refused with one line before the first is allocated
        monkeypatch.setattr(metrics, "_METRIC_BYTES", 10 ** 7)
        tracemalloc.start()
        try:
            code = cli.main(["gamma", "--gen", "cycle:20000", "--metric", "uniform:1000",
                             "--heuristic"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr().err) == (
            1, "error: the search tables of n = 20000 vertices by N = 1000 points "
               "exceed the 10000000-byte budget\n")
        assert peak < 8 * 20_000 * 1000 // 5

    @pytest.mark.parametrize("cmd", ["distort", "nonconc"])
    def test_map_of_another_order_refused_before_any_work(self, cmd, tmp_path, capsys):
        # refused before the 200 MB of image distances are built
        fpath = tmp_path / "f.txt"
        fpath.write_text("5000\n" + "".join(f"{v} {v % 2}\n" for v in range(5000)))
        tracemalloc.start()
        try:
            code = cli.main([cmd, "--gen", "cycle:6", "--metric", "uniform:2",
                             "--map", str(fpath)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr().err) == (1, "error: map length 5000 != graph order 6\n")
        assert peak < 10 * 2 ** 20


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


# --------------------------------------------------------------- no-traceback table

HUGE = "1" + "0" * 21
GRAPH_TEXT = "4 4\n0 1\n0 3\n1 2\n2 3\n"
METRIC_TEXT = "2\n0 1.0\n1.0 0\n"
MAP_TEXT = "4\n0 0\n1 1\n2 0\n3 1\n"
# the files each run of run() starts from, unless a row overrides one
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


NINES = "9" * 37 + "..."
# the ends of messages that several rows print
COST_BOUND = "a positive distance raised to q underflows to 0 or passes the cost bound 2^960"
EDGE_CAP = "edges, which exceeds the edge cap 1000000"
LOG_N = "--N must exceed 1 and have a finite log (write large values as BASE^EXP), got"
# rows of in-range sizes that a byte budget refuses before anything is built;
# the memory column runs them beside the huge rows
IN_RANGE_REFUSALS = [
    # five 240 MB search tables
    ("gamma --gen cycle:30000 --metric uniform:1000 --heuristic", "the search tables of "
     "n = 30000 vertices by N = 1000 points exceed the 1073741824-byte budget"),
    # 8 * 11586^2 bytes pass 2^30
    ("distort --gen cycle:11586 --metric uniform:2 --map f.map",
     "the image distances of n = 11586 vertices exceed the 1073741824-byte budget",
     {"f.map": "11586\n" + "".join(f"{v} {v % 2}\n" for v in range(11586))}),
]
# (command line, message[, files]): a row that exits 1 with the one line
# "error: message", or 0 with no stderr for a message of None.  The files
# are written beside FILES, and override them.
PINNED = [
    # argparse alone would print a usage block and exit 2, the code of a
    # failed property check
    ("", "the following arguments are required: command"),
    ("gamma --gen cycle:4", "the following arguments are required: --metric"),
    ("gamma --gen cycle:4 --metric uniform:2 --q abc", "argument --q: invalid float value: 'abc'"),
    ("model --lemma nope", "argument --lemma: invalid choice: 'nope' (choose from 'matchings', "
                           "'restriction', 'dist-eq', 'typical')"),
    ("spectra --gen-regular 20,3 --trials 2.5", "argument --trials: expected 1 integer, got '2.5'"),
    *((f"{cmd} --trials 0", f"{what} must be >= 1, got 0") for cmd, what in (
        ("spectra --gen-regular 20,3", "--trials"), ("witness --sizes 16", "--trials"),
        ("model --lemma matchings", "trials"), ("model --lemma dist-eq", "trials"),
        ("model --lemma typical --n 500 --m 3", "trials"))),
    ("jls-embed --gen cycle:16 --distortion 3 --retries 0", "retries must be >= 1, got 0"),
    ("extrapolate --gen regular:16,3 --metric uniform:4",
     "4^16 maps exceeds the exhaustive cap 100000000; use gamma_lower_search instead"),
    # 2^14000 once printed all 4,215 digits, and 2^100000 Python's own
    # message about its integer-to-string digit limit
    *((f"gamma --gen cycle:{n} --metric uniform:2", f"2^{n} maps exceeds the exhaustive cap "
       "100000000; use gamma_lower_search instead; rerun with --heuristic")
      for n in (14000, 100000)),
    ("gen-graph --type regular:30,27 --out unused.txt",
     "d=27 needs about exp((d^2-1)/4) > 1e6 pairing draws; use d <= 7"),
    # input paths
    ("gamma --graph no_such_graph.txt --metric uniform:2",
     "graph file not found: no_such_graph.txt"),
    # Path('') is the current directory: '' once printed "Is a directory: '.'"
    *((f"{cmd} {shlex.quote(path)}", f"metric file not found: {path}")
      for cmd in ("gamma --gen cycle:4 --metric", "gen-metric --out unused.txt --type")
      for path in ("", ".")),
    ("gen-metric --type snowflake:0.5 --base none.txt --out s.txt",
     "metric file not found: none.txt"),
    ("gen-metric --type snowflake:0.5 --out s.txt", "snowflake needs --base METRIC_FILE"),
    ("nonconc --gen complete:4 --metric uniform:2 --map unused.map",
     "map file not found: unused.map"),
    # cost exponents: 1e10^40 overflows and 1e-10^40 underflows, and both
    # once read "degenerate"; 1e7^44 = 1e308 is finite, but a sum of two
    # overflows: the exact run once read "degenerate" and --heuristic
    # printed inf and nan
    *((f"gamma --gen cycle:4 --metric uniform:2 --q {q} --heuristic",
       f"cost exponent must be finite and positive, got {q}") for q in ("nan", "inf")),
    ("witness --sizes 16 --q nan", "cost exponent must be finite and positive, got nan"),
    ("witness --sizes 16 --q -1", "cost exponent must be finite and positive, got -1.0"),
    *((f"gamma --gen cycle:4 --metric uniform:2 --q {q}",
       f"cost exponent must be at most 441, beyond which 5^q overflows, got {float(q)}")
      for q in ("500", "1e300")),
    *(("gamma --gen cycle:4 --metric m.txt --q 40", f"at cost exponent q = 40.0 {COST_BOUND}",
       {"m.txt": f"2\n0 {x}\n{x} 0\n"}) for x in ("1e10", "1e-10")),
    *((f"gamma --gen cycle:4 --metric m.txt --q {q}{mode}",
       f"at cost exponent q = {float(q)} {COST_BOUND}", {"m.txt": "2\n0 1e7\n1e7 0\n"})
      for q in ("42", "44") for mode in ("", " --heuristic")),
    ("witness --gen regular:64,3 --q 441 --N 10^1000", f"at cost exponent q = 441.0 {COST_BOUND}"),
    # file headers beyond the caps, or negative; these once read "expected
    # -1 edges, found 0" and "expected -1 metric rows"
    ("gamma --graph g.txt --metric uniform:2",
     "n = 1000000000000 is outside the vertex range 0..1000001", {"g.txt": "1000000000000 0\n"}),
    ("gamma --graph g.txt --metric uniform:2", f"n = 5 gives 1000000000000 {EDGE_CAP}",
     {"g.txt": "5 1000000000000\n"}),
    ("gamma --gen cycle:4 --metric m.txt",
     "N = 2000 points needing 32000000 bytes exceeds cap 1000 points or 1073741824 bytes",
     {"m.txt": "2000\n0 1\n1 0\n"}),
    ("gamma --graph in.txt --metric uniform:2", "edge count m = -1 is negative",
     {"in.txt": "4 -1\n"}),
    ("gamma --gen cycle:4 --metric in.txt", "point count N = -1 is negative", {"in.txt": "-1\n"}),
    # maps
    ("distort --gen cycle:4 --metric uniform:2 --map f.txt", "map file line 1: a map on 4 "
     "vertices needs one line for each vertex 0..3, found 2 lines", {"f.txt": "4\n0 0\n1 1\n"}),
    ("distort --gen cycle:4 --metric uniform:2 --map f.txt", "empty map file", {"f.txt": ""}),
    ("distort --gen complete:1 --metric uniform:2 --map f.txt",
     "distortion needs a graph with at least two vertices", {"f.txt": "1\n0 0\n"}),
    *((f"{cmd} --gen cycle:4 --metric uniform:2 --map f.txt", f"map length {n} != graph order 4",
       {"f.txt": f"{n}\n" + "".join(f"{v} {v % 2}\n" for v in range(n))})
      for cmd in ("distort", "nonconc") for n in (3, 5)),
    # refused before the lambda2 of the Cheeger bound, which takes seconds at this n
    ("nonconc --gen regular:100000,3 --metric uniform:2 --map f.txt",
     "map length 3 != graph order 100000", {"f.txt": "3\n0 0\n1 1\n2 0\n"}),
    # huge parameters once printed a 300-digit Fraction and a 300-digit integer
    ("nonconc --gen regular:6,3 --metric uniform:2 --map f.map --tau 1e300",
     "need tau in (1/n, 1), got 1e+300", {"f.map": "6\n0 0\n1 0\n2 1\n3 1\n4 0\n5 1\n"}),
    ("model --lemma typical --n 6 --bigk 1e300", "degenerate parameters: ell0=0, k0=3.75e+299"),
    *((f"nonconc --gen complete:4 --metric uniform:2 --map unused.map --{flag} {x}",
       f"--{flag} must be finite, got {x}") for flag, x in (("cr", "nan"), ("cr", "inf"),
                                                           ("tau", "nan"))),
    # witness --N
    *((f"witness --sizes 16 --N {x}", f"{LOG_N} {x!r}")
      for x in ("inf", "1e400", "10^1e400", "0", "-5", "nan")),
    ("witness --sizes 16 --N 10^x", "--N must be a number or BASE^EXP, got '10^x'"),
    ("witness --sizes 16 --N 2", "target cardinality too small: need log N >= e so k >= 1"),
    # jls-embed
    *((f"jls-embed --gen cycle:16 --{flag} {x}", "grid width needs n >= 2, distortion >= 1 and "
       f"finite c1 > 0, got {got}") for flag, x, got in (
        ("distortion", "nan", "(16, nan, 1.0)"), ("c1", "nan", "(16, 3.0, nan)"),
        ("c1", "inf", "(16, 3.0, inf)"))),
    ("jls-embed --gen cycle:16 --c1 1e-300",
     "coordinates of width 4.44e+302 at n = 16 exceed the 1073741824-byte budget"),
    # model
    *((f"model --lemma matchings --{flag} {x}", f"--{flag} must be finite, got {x}")
      for flag, x in (("eps", "nan"), ("eps", "inf"), ("c", "nan"))),
    *((f"model --lemma matchings --eps {x}", f"--eps must lie in (0, 1/2], got {float(x)}")
      for x in ("2", "-0.5")),
    ("model --lemma matchings --eps 0.2 --c 0.3",
     "--c must lie in (0, --eps], got 0.3 with --eps 0.2"),
    ("model --lemma matchings --l 400000",
     "ell=400000 needs an ell x ell pair table beyond the 4194304-byte budget"),
    ("model --lemma typical --m 0", "need radius m >= 1, got m=0"),
    *((f"model --lemma typical --bigk {x}",
       f"need big_k > 0 with big_k * n finite, got big_k={float(x)}") for x in ("0", "nan")),
    ("model --lemma typical --d 1", "need degree d >= 2, got d=1"),
    ("model --lemma typical --n 10 --d 3 --bigk 1e-320 --m 1 --trials 1",
     "big_k=1e-320 is too small: d n / (big_k m) overflows"),
    ("model --lemma typical --n 10 --d 3 --bigk 20 --m 100000 --trials 1",
     "m=100000 is too large: (d-1)^m = 2^100000 does not fit a float"),
    *((f"model --lemma restriction --n 200 --eps {x}", f"need finite eps > 0, got eps={float(x)}")
      for x in ("0", "nan")),
    ("model --lemma restriction --n 100 --k 5 --eps 1e-320 --trials 3",
     "eps=1e-320 is too small: the bound 1 - 15/(eps^2 k) overflows"),
    (f"model --lemma restriction --n {10 ** 18}", f"--n {10 ** 18} exceeds the vertex cap 1000001"),
    # past int64 the flag's type refuses it first
    (f"model --lemma restriction --n {10 ** 21}",
     f"argument --n: expected 1 integer, got '{10 ** 21}'"),
    *((f"model --lemma dist-eq --p-threshold {x}", f"--p-threshold must lie in [0, 1], got {x}")
      for x in ("nan", "1.5")),
    # these once raised a TypeError from an empty table of graphs
    *((f"model --lemma dist-eq --n {n} --d {d}", f"no simple {d}-regular graph on n = {n} vertices")
      for n, d in ((4, 4), (5, 3))),
    # spectra
    *((f"spectra --gen-regular 60,3 --min-fraction {x}",
       f"--min-fraction must lie in [0, 1], got {float(x)}") for x in ("nan", "5", "-0.5")),
    *((f"spectra --gen-regular {x}", f"--gen-regular n,d: expected 2 integers, got {x!r}")
      for x in ("1000", "a,3")),
    ("spectra --gen-regular 20,0", "degree d=0 must satisfy 3 <= d <= n-1 (n=20)"),
    # sizes beyond the caps, refused before they are built
    ("gen-metric --type grid:1,12 --out unused.txt", "(2k+1)^s exceeds cap 1000 at k = 1, s = 12"),
    ("gamma --gen cycle:4 --metric grid:1,9 --heuristic",
     "(2k+1)^s exceeds cap 1000 at k = 1, s = 9"),
    ("gen-metric --type grid:1000000,1000000 --out unused.txt",
     "(2k+1)^s exceeds cap 1000 at k = 1000000, s = 1000000"),
    ("gen-metric --type grid:0,1000000000 --out unused.txt", "need k >= 1 and s >= 1"),
    ("gen-metric --type random:100000 --out unused.txt", "N = 100000 points needing "
     "160000000000 bytes exceeds cap 1000 points or 1073741824 bytes"),
    ("gen-metric --type random:10,100000000 --out unused.txt",
     "N = 10 points needing 80000000000 bytes exceeds cap 1000 points or 1073741824 bytes"),
    ("gamma --gen cycle:4 --metric uniform:100000 --q 1",
     "N = 100000 points needing 80000000000 bytes exceeds cap 1000 points or 1073741824 bytes"),
    ("gamma --gen cycle:4 --metric random:0 --q 1", "random metric needs N >= 1"),
    ("gen-metric --type random:5,0 --out unused.txt", "random metric needs dim >= 1, got 0"),
    ("gen-graph --type regular:100000000,3 --out unused.txt",
     f"n = 100000000 gives 150000000 {EDGE_CAP}"),
    ("gen-graph --type complete:100000 --out unused.txt",
     f"n = 100000 gives 4999950000 {EDGE_CAP}"),
    ("witness --sizes 100000000", f"n = 100000000 gives 150000000 {EDGE_CAP}"),
    ("spectra --gen-regular 100000000,3", f"n = 100000000 gives 150000000 {EDGE_CAP}"),
    # spec fields, read by io's field parser: a wrong field count, a
    # non-number or an integer outside int64 names the spec's form and shows
    # the fields, cut to 40 characters
    ("gamma --metric uniform:2 --gen regular:10",
     "bad graph spec regular:n,d: expected 2 integers, got '10'"),
    ("gamma --metric uniform:2 --gen cycle:nan",
     "bad graph spec cycle:n: expected 1 integer, got 'nan'"),
    *((f"gamma --metric uniform:2 --gen {kind}:{'9' * digits}",
       f"bad graph spec {kind}:n: expected 1 integer, got '{NINES}'")
      for kind, digits in (("cycle", 5000), ("complete", 4000))),
    ("gamma --metric uniform:2 --gen prism:7",
     "bad graph spec prism: expected 0 integers, got '7'"),
    ("gamma --metric uniform:2 --gen nope:5", "unknown graph spec 'nope:5': kinds are "
     "regular:n,d | cycle:n | path:n | complete:n | prism | petersen"),
    ("gamma --gen cycle:4 --metric random:3,2,9",
     "bad metric spec random:N[,dim]: expected 2 integers, got '3,2,9'"),
    ("gamma --gen cycle:4 --metric grid:1",
     "bad metric spec grid:k,s: expected 2 integers, got '1'"),
    *((f"witness --sizes {x}", f"--sizes n1,n2,...: expected integers, got {x!r}")
      for x in ("nan", "16,,16")),
    ("gen-metric --type snowflake:1e --base m.txt --out unused.txt",
     "bad metric spec snowflake:eps: expected 1 number, got '1e'"),
    # integer flags take the same rule: within int64, the value cut to 40
    # characters; 4000 digits once reached Python's digit limit in the
    # point cap's message, and a 4000-digit seed was echoed into # config:
    (f"model --lemma restriction --n 20 --k 5 --points {'9' * 4000}",
     f"argument --points: expected 1 integer, got '{NINES}'"),
    (f"gamma --gen cycle:4 --metric uniform:2 --seed {'9' * 4000}",
     f"argument --seed: expected 1 integer, got '{NINES}'"),
    (f"gamma --gen cycle:4 --metric uniform:2 --seed {2 ** 63}",
     f"argument --seed: expected 1 integer, got '{2 ** 63}'"),
    # each spec kind reaches its constructor; the largest int64 passes the
    # parser and meets the edge cap
    ("gamma --gen prism --metric uniform:2 --heuristic", None),
    ("gamma --gen petersen --metric uniform:2 --heuristic", None),
    (f"gamma --gen cycle:{2 ** 63 - 1} --metric uniform:2 --heuristic",
     f"n = {2 ** 63 - 1} gives {2 ** 63 - 1} {EDGE_CAP}"),
    # the largest random metric is built without validate's triangle pass,
    # which at N = 1000 ran past the alarm
    ("gamma --gen cycle:4 --metric random:1000 --heuristic --iters 10", None),
    *IN_RANGE_REFUSALS,
]


def table_cases():
    """(id, argv, files, expected): the pinned rows, whose id is their
    command line and files, then one flag or file out of its domain per
    row, whose id names the mode and what the row varies.  The files g.txt,
    m.txt and f.map hold a valid graph, metric and map unless overridden.
    expected is the exit code and whole stderr of a pinned row, else None."""
    cases = []
    for line, message, *files in PINNED:
        argv, files = shlex.split(line), (files or [{}])[0]
        name = " ".join(["nlgap", *map(short, argv)])
        cases.append((name + "".join(f"|{k}={short(t)!r}" for k, t in files.items()), argv, files,
                      (0, "") if message is None else (1, f"error: {message}\n")))
    for base, flags in SUBCOMMANDS:
        cases += [(f"{mode_of(base)}|{flag}={short(v)!r}", with_flag(base, flag, v), {}, None)
                  for flag, values in flags.items() for v in values]
    graph_cmd = ["gamma", "--graph", "g.txt", "--metric", "m.txt"]
    map_cmd = ["distort", "--graph", "g.txt", "--metric", "uniform:2", "--map", "f.map"]
    cases += [(f"{mode_of(graph_cmd)}|--graph={p!r}", with_flag(graph_cmd, "--graph", p), {}, None)
              for p in IN_PATH]
    cases += [(f"distort|--map={p!r}", with_flag(map_cmd, "--map", p), {}, None) for p in IN_PATH]
    cases += [(f"{mode_of(graph_cmd)}|{name}={t!r}", graph_cmd, {name: t}, None)
              for name, texts in (("g.txt", GRAPH_FILES), ("m.txt", METRIC_FILES))
              for t in texts]
    for cmd in ("distort", "nonconc"):
        cases += [(f"{cmd}|f.map={t!r}", [cmd, *map_cmd[1:]], {"f.map": t}, None)
                  for t in MAP_FILES]
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


TIME_LIMIT_S = 5.0


def run(argv: list[str], files: dict, where: Path, monkeypatch, capsys):
    """Exit code, stdout, stderr and the files written of one cli.main call
    in the fresh directory where, which holds FILES and files, under an
    alarm of TIME_LIMIT_S.  A Python warning fails the run."""
    where.mkdir()
    monkeypatch.chdir(where)
    files = {**FILES, **files}
    for name, text in files.items():
        Path(name).write_text(text)

    def overtime(signum, frame):
        raise Overtime(f"{argv} ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, overtime)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert [str(w.message) for w in caught] == [], argv
    out, err = capsys.readouterr()
    written = {p.name: p.read_text() for p in sorted(where.iterdir()) if p.name not in files}
    return code, out, err, written


class TestNoTracebackTable:
    """Every subcommand over zero, negative, NaN, huge and cut-short values of
    each flag, spec field and input file, one at a time, in process, and the
    pinned rows: each call exits 0, 1 or 2 within TIME_LIMIT_S seconds with
    no Python warning and prints no traceback; an exit 1 prints one "error: "
    line of at most 200 bytes with none of Python's own conversion messages,
    and exit 2 is a failed property check.  A pinned row also gets its exit
    code and whole stderr, and an exit 1 there prints nothing to stdout.

    Work counts (--trials, --iters, --retries) get only zero, negative and
    5000-digit values: a huge count within int64 is a valid long run, not
    out of the domain (gamma --heuristic --iters 10^18 runs until it is
    stopped)."""

    def test_ids_unique(self):
        ids = [case[0] for case in TABLE_CASES]
        assert len(set(ids)) == len(ids)

    @pytest.mark.parametrize("argv,files,expected",
                             [pytest.param(a, f, e, id=i) for i, a, f, e in TABLE_CASES])
    def test_exits_cleanly(self, argv, files, expected, tmp_path, monkeypatch, capsys):
        code, out, err, _ = run(argv, files, tmp_path / "run", monkeypatch, capsys)
        assert code in (0, 1, 2)
        assert "Traceback" not in out + err
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1
            # Python's own messages and echoes of huge values stay out
            assert len(err.encode()) <= 200, err
            for phrase in ("unpack", "invalid literal", "could not convert", "Exceeds the limit"):
                assert phrase not in err
        if code == 2:
            assert err.startswith("property check failed: ")
        if expected is not None:
            assert (code, err) == expected
            assert code != 1 or out == ""

    def test_huge_sizes_refused_within_two_gib(self, tmp_path):
        """The rows with a huge count or size, and the in-range rows that a
        byte budget refuses, run in one child process under a 2 GiB
        address-space limit: each exits 1 with one line, and none raises
        MemoryError or runs past TIME_LIMIT_S."""
        in_range = [line for line, *_ in IN_RANGE_REFUSALS]
        rows = [(i, argv, {**FILES, **files}) for i, argv, files, _ in TABLE_CASES
                if any(HUGE_FIELD.search(x) for x in [*argv, *files.values()])
                or " ".join(argv) in in_range]
        assert len(rows) > 200
        assert sum(" ".join(argv) in in_range for _, argv, _ in rows) == len(in_range)
        res = subprocess.run([sys.executable, "-c", MEMORY_CHILD, str(tmp_path)],
                             input=json.dumps([TIME_LIMIT_S, [r[1:] for r in rows]]),
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
    and stderr of one flag-gate run."""
    base_graph = (cli.parse_graph_arg(argv[argv.index("--gen") + 1] if "--gen" in argv
                                      else "cycle:4", None, 0))
    fixtures = {"n.txt": "2\n0 2.0\n2.0 0\n", "other.map": "4\n0 0\n1 0\n2 0\n3 1\n",
                "same.txt": graph_to_text(base_graph)}
    code, out, err, written = run(argv, fixtures, where, monkeypatch, capsys)
    return code, body_of(out), {name: [line for line in text.splitlines()
                                       if not line.startswith(("#", "<!-- config:"))]
                                for name, text in written.items()}, err


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

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main([flag])
        assert exit_.value.code == 0
        assert capsys.readouterr().out

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
