import csv
import hashlib
import json
import os

import numpy as np
import pytest

from qad import DataError, ingest_csv
from qad.cli import main

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
WDI = os.path.join(DATA_DIR, "wdi_countries.csv")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIngest:
    def test_wdi_fixture(self):
        table, report = ingest_csv(WDI)
        assert table.names == ("country", "birth", "death", "gdp")
        assert table.n_rows == 179
        # ISO codes are non-numeric; NA cells are missing without warnings
        assert report.non_numeric["country"] == 179
        assert report.non_numeric["birth"] == 0
        birth = table.column("birth")
        gdp = table.column("gdp")
        assert int(np.isnan(birth).sum()) == 1  # one all-NA country row
        assert int(np.isnan(gdp).sum()) == 4

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        with pytest.raises(DataError, match="zero data rows"):
            ingest_csv(path)

    def test_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,a\n1,2\n")
        with pytest.raises(DataError, match="duplicate"):
            ingest_csv(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ingest_csv(tmp_path / "nope.csv")

    def test_non_numeric_cell_warns(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("a,b\n1,2\nabc,3\n4,NA\n")
        table, report = ingest_csv(path)
        assert report.non_numeric["a"] == 1
        assert report.messages() == [
            "column 'a': 1 non-numeric cell(s) treated as missing"
        ]
        assert np.isnan(table.column("a")[1])
        assert np.isnan(table.column("b")[2])

    def test_custom_missing_markers(self, tmp_path):
        path = tmp_path / "mark.csv"
        path.write_text("a,b\n1,-999\n2,3\n")
        table, _ = ingest_csv(path, missing=("", "-999"))
        assert np.isnan(table.column("b")[0])

    def test_tab_delimiter_sniffed(self, tmp_path):
        path = tmp_path / "tabs.tsv"
        path.write_text("a\tb\n1\t2\n3\t4\n")
        table, _ = ingest_csv(path)
        assert table.names == ("a", "b")
        assert table.column("b")[1] == 4.0

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="row 3"):
            ingest_csv(path)

    def test_ragged_row_named_by_its_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n\n\n3,4\n5\n")
        with pytest.raises(DataError, match="row 6 has 1 fields"):
            ingest_csv(path)

    def test_semicolon_delimiter_sniffed(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text("a;b\n1;2\n3;4\n")
        table, _ = ingest_csv(path)
        assert table.names == ("a", "b")

    def test_bom_header_handled(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
        table, _ = ingest_csv(path)
        assert table.names == ("a", "b")

    def test_non_utf8_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\n1,2\n\xff,3\n")
        with pytest.raises(DataError, match=f"cannot read {path}: .*0xff"):
            ingest_csv(path)
        code, out, err = run_cli(capsys, "compute", str(path), "--x", "a", "--y", "b")
        assert code == 3
        assert f"error: cannot read {path}" in err
        assert out == ""

    def test_non_utf8_byte_named_at_its_file_offset(self, tmp_path):
        # the decoder reads 8 KiB blocks; the message must count from the file start
        body = bytearray(b"a,b\n" + b"1,2\n" * 6000)
        body[20004] = 0xFF
        path = tmp_path / "late.csv"
        path.write_bytes(bytes(body))
        with pytest.raises(DataError, match="byte 0xff in position 20004: invalid start byte"):
            ingest_csv(path)

    @pytest.mark.parametrize("delimiter", ["", ";;", "\n", "\r"])
    def test_bad_delimiter_rejected(self, delimiter):
        with pytest.raises(ValueError, match="delimiter must be one character"):
            ingest_csv(WDI, delimiter=delimiter)


    def test_oversize_cell_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("a,b\n1,2\n\n3," + "9" * 200_000 + "\n4,5\n")
        with pytest.raises(DataError, match=f"{path}: row 4: field larger than field limit"):
            ingest_csv(path)
        code, out, err = run_cli(capsys, "compute", str(path), "--x", "a", "--y", "b")
        assert code == 3
        assert f"error: {path}: row 4: field larger" in err
        assert out == ""


class TestComputeCommand:
    def test_wdi_birth_death(self, capsys):
        code, out, err = run_cli(
            capsys, "compute", WDI, "--x", "birth", "--y", "death"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "qad/1"
        assert abs(doc["q_xy"] - 0.53) < 0.02
        assert abs(doc["q_yx"] - 0.33) < 0.02
        assert abs(doc["asymmetry"] - 0.20) < 0.02
        assert doc["n"] == 178
        assert "p_q_xy" not in doc

    def test_byte_identical_reruns(self, capsys):
        args = ("compute", WDI, "--x", "birth", "--y", "death",
                "--permutations", "49", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert 0 < doc["p_q_xy"] <= 1

    def test_threads_do_not_change_output(self, capsys):
        base = ("compute", WDI, "--x", "birth", "--y", "death",
                "--permutations", "30", "--seed", "3")
        _, out1, _ = run_cli(capsys, *base, "--threads", "1")
        _, out4, _ = run_cli(capsys, *base, "--threads", "4")
        assert out1 == out4

    def test_out_file_keeps_stdout_clean(self, capsys, tmp_path):
        out_path = tmp_path / "result.json"
        code, out, err = run_cli(
            capsys, "compute", WDI, "--x", "birth", "--y", "death",
            "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "qad/1"

    def test_unknown_column_is_data_error(self, capsys):
        code, out, err = run_cli(capsys, "compute", WDI, "--x", "birth", "--y", "nope")
        assert code == 3
        assert "unknown column" in err
        assert out == ""

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "compute", WDI, "--x", "birth", "--y", "death",
            "--permutations", "9", "--seed", "-1",
        )
        assert code == 2
        assert "error: --seed must be >= 0" in err
        assert out == ""

    def test_degenerate_input_exit_code(self, capsys, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("a,b\n1,2\n")
        code, out, err = run_cli(capsys, "compute", str(path), "--x", "a", "--y", "b")
        assert code == 4

    def test_board_export(self, capsys, tmp_path):
        board_path = tmp_path / "boards.json"
        code, out, _ = run_cli(
            capsys, "compute", WDI, "--x", "birth", "--y", "death",
            "--board-out", str(board_path),
        )
        assert code == 0
        doc = json.loads(board_path.read_text())
        n = doc["board_xy"]["resolution"]
        mass = np.array(doc["board_xy"]["mass"]).reshape(n, n)
        assert abs(mass.sum() - 1.0) < 1e-9
        np.testing.assert_allclose(mass.sum(axis=1), np.full(n, 1 / n), atol=1e-9)
        mass_yx = np.array(doc["board_yx"]["mass"]).reshape(n, n)
        np.testing.assert_allclose(mass_yx, mass.T, atol=1e-12)

    def test_board_out_ranks_once_and_fits_once(self, capsys, tmp_path, monkeypatch):
        # --board-out writes the boards qad_compute fitted: one ranking of the
        # two margins and one empirical copula, permutations included
        import qad.copula

        calls = {"_max_ranks": 0, "empirical_copula": 0}

        def counting(name):
            original = getattr(qad.copula, name)

            def wrapped(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(qad.copula, name, wrapped)

        counting("_max_ranks")
        counting("empirical_copula")
        code, _, _ = run_cli(
            capsys, "compute", WDI, "--x", "birth", "--y", "death",
            "--permutations", "19", "--board-out", str(tmp_path / "boards.json"),
        )
        assert code == 0
        assert calls == {"_max_ranks": 2, "empirical_copula": 1}

    def test_resolution_override_flag(self, capsys, tmp_path):
        path = tmp_path / "line.csv"
        lines = ["x,y"] + [f"{i},{i}" for i in range(100)]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(
            capsys, "compute", str(path), "--x", "x", "--y", "y", "--resolution", "4"
        )
        doc = json.loads(out)
        assert doc["resolution"] == 4
        assert abs(doc["q_xy"] - (1 - 1 / 8)) < 1e-12


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["compute", "{csv}", "--x", "a", "--y", "b", "--permutations", "-1"],
                     "--permutations must be >= 0", id="compute-permutations"),
        pytest.param(["compute", "{csv}", "--x", "a", "--y", "b", "--resolution", "0"],
                     "--resolution must be >= 1", id="compute-resolution"),
        pytest.param(["pairwise", "{csv}", "--permutations", "99", "--precision", "-1",
                      "--out", "{out}"], "--precision must be >= 0", id="pairwise-precision"),
        pytest.param(["pairwise", "{csv}", "--permutations", "-5", "--out", "{out}"],
                     "--permutations must be >= 0", id="pairwise-permutations"),
        pytest.param(["compute", "{csv}", "--x", "a", "--y", "b", "--permutations", "4294967296"],
                     "--permutations must be >= 0 and <= 4294967295", id="compute-permutations-above"),
        pytest.param(["network", "{csv}", "--permutations", "9", "--precision", "-2",
                      "--out", "{out}"], "--precision must be >= 0", id="network-precision"),
        pytest.param(["simulate", "fgm", "--theta", "0.5", "-n", "10", "--reps", "0"],
                     "--reps must be >= 1", id="simulate-reps"),
        pytest.param(["simulate", "independence", "-n", "10", "--precision", "-1"],
                     "--precision must be >= 0", id="simulate-precision"),
        pytest.param(["network", "{csv}", "--permutations", "9", "--alpha", "7", "--out", "{out}"],
                     "--alpha must be in (0, 1]", id="network-alpha-above"),
        pytest.param(["network", "{csv}", "--permutations", "9", "--alpha", "0", "--out", "{out}"],
                     "--alpha must be in (0, 1]", id="network-alpha-zero"),
        pytest.param(["network", "{csv}", "--permutations", "9", "--alpha", "nan",
                      "--out", "{out}"], "--alpha must be in (0, 1]", id="network-alpha-nan"),
        pytest.param(["network", "{csv}", "--permutations", "9", "--q-threshold", "nan",
                      "--out", "{out}"], "--q-threshold must be in [0, 1]", id="network-q-nan"),
        pytest.param(["network", "{csv}", "--permutations", "9", "--q-threshold", "-0.1",
                      "--out", "{out}"], "--q-threshold must be in [0, 1]", id="network-q-below"),
        pytest.param(["network", "{csv}", "--permutations", "9", "--q-threshold", "1.5",
                      "--out", "{out}"], "--q-threshold must be in [0, 1]", id="network-q-above"),
        pytest.param(["network", "{csv}", "--permutations", "9", "--filter-ties", "nan",
                      "--out", "{out}"], "--filter-ties must be in (0, 1]", id="network-ties-nan"),
        pytest.param(["pairwise", "{csv}", "--filter-ties", "2", "--out", "{out}"],
                     "--filter-ties must be in (0, 1]", id="pairwise-ties-above"),
        pytest.param(["pairwise", "{csv}", "--filter-ties", "0", "--out", "{out}"],
                     "--filter-ties must be in (0, 1]", id="pairwise-ties-zero"),
        pytest.param(["pairwise", "{csv}", "--filter-ties", "-1", "--out", "{out}"],
                     "--filter-ties must be in (0, 1]", id="pairwise-ties-negative"),
        pytest.param(["compute", "{csv}", "--x", "a", "--y", "b", "--delimiter", ""],
                     "--delimiter must be one character", id="compute-delimiter-empty"),
        pytest.param(["pairwise", "{csv}", "--delimiter", ";;", "--out", "{out}"],
                     "--delimiter must be one character", id="pairwise-delimiter-long"),
        pytest.param(["simulate", "shape", "linear", "-n", "10,20"],
                     "simulate shape draws one sample", id="simulate-shape-sizes"),
        pytest.param(["simulate", "fgm", "--theta", "5", "-n", "10", "--out", "{out}"],
                     "FGM parameter must lie in [-1, 1]", id="simulate-fgm-theta"),
        pytest.param(["simulate", "cd", "--slope", "0", "-n", "10", "--out", "{out}"],
                     "slope must be a positive integer", id="simulate-cd-slope"),
        pytest.param(["simulate", "cd", "--slope", "9007199254740992", "-n", "10", "--out", "{out}"],
                     "slope must be a positive integer", id="simulate-cd-slope-2p53"),
        pytest.param(["simulate", "cd", "--slope", "1000000000000000000000000", "-n", "10",
                      "--out", "{out}"], "slope must be a positive integer", id="simulate-cd-slope-huge"),
        pytest.param(["simulate", "mo", "--alpha", "2", "--beta", "0.5", "-n", "10",
                      "--out", "{out}"],
                     "Marshall-Olkin parameters must lie in [0, 1]", id="simulate-mo-alpha"),
        pytest.param(["simulate", "shape", "linear", "-n", "1", "--out", "{out}"],
                     "n must be >= 2", id="simulate-shape-n"),
        pytest.param(["simulate", "shape", "non_coexistence", "-n", "10", "--out", "{out}"],
                     "non_coexistence needs a positive noise band", id="simulate-shape-band"),
        pytest.param(["simulate", "shape", "torus", "-n", "10", "-a", "2", "--out", "{out}"],
                     "torus noise must be <= 1", id="simulate-shape-torus"),
    ],
)
def test_out_of_range_flag_is_usage_error(capsys, tmp_path, argv, message):
    # the CSV does not exist: the flag must be rejected before any data is read
    csv, out_dir = tmp_path / "absent.csv", tmp_path / "out"
    code, out, err = run_cli(capsys, *(a.format(csv=csv, out=out_dir) for a in argv))
    assert code == 2
    assert f"error: {message}" in err
    assert out == ""
    assert not out_dir.exists()


def test_range_bounds_are_accepted(capsys, tmp_path):
    # the closed ends of each float range, and Marshall-Olkin's own --alpha,
    # which is a copula parameter in [0, 1] rather than a significance level
    code, _, err = run_cli(
        capsys, "network", WDI, "--permutations", "9", "--alpha", "1", "--q-threshold", "0",
        "--filter-ties", "1", "--out", str(tmp_path / "net"),
    )
    assert code == 0, err
    code, out, err = run_cli(capsys, "simulate", "mo", "--alpha", "0", "--beta", "0.5", "-n", "5")
    assert code == 0, err
    assert out.startswith("x,y\n")


def test_oversized_resolution_is_named_error(capsys):
    code, out, err = run_cli(
        capsys, "compute", WDI, "--x", "birth", "--y", "death", "--resolution", "100000"
    )
    assert code == 4
    assert "error: resolution 100000 is too large for n = 178" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["compute", WDI, "--x", "birth", "--y", "death", "--out", "{missing}/x.json"],
                     id="compute-out"),
        pytest.param(["compute", WDI, "--x", "birth", "--y", "death", "--board-out", "{dir}"],
                     id="compute-board-out"),
        pytest.param(["predict", WDI, "--x", "birth", "--y", "gdp", "--at", "30",
                      "--table-out", "{missing}/t.csv"], id="predict-table-out"),
        pytest.param(["simulate", "fgm", "--theta", "0.5", "-n", "10", "--out", "{missing}/s.csv"],
                     id="simulate-out"),
        pytest.param(["pairwise", WDI, "--out", "{file}"], id="pairwise-out"),
        pytest.param(["network", WDI, "--permutations", "9", "--out", "{file}"], id="network-out"),
    ],
)
def test_unwritable_output_is_data_error(capsys, tmp_path, argv):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    paths = {name: tmp_path / name for name in ("missing", "dir", "file")}
    argv = [a.format(**paths) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "error: cannot write " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["pairwise", "network"])
def test_unwritable_out_is_refused_before_the_screen(capsys, tmp_path, monkeypatch, command):
    def screen(*args, **kwargs):
        raise AssertionError("the screen ran before --out was checked")

    monkeypatch.setattr("qad.cli.pairwise_qad", screen)
    (tmp_path / "file").write_text("")
    code, out, err = run_cli(capsys, command, WDI, "--permutations", "9",
                             "--out", str(tmp_path / "file"))
    assert code == 3
    assert out == ""
    assert "error: cannot write " in err
    assert "warning: pair" not in err


class TestPredictCommand:
    def test_in_range_distribution(self, capsys):
        code, out, err = run_cli(
            capsys, "predict", WDI, "--x", "birth", "--y", "death", "--at", "20.0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "qad/1"
        probs = [iv["probability"] for iv in doc["intervals"]]
        assert abs(sum(probs) - 1.0) < 1e-9
        assert doc["conditioning_interval"][0] <= 20.0 <= doc["conditioning_interval"][1]

    def test_extrapolation_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "predict", WDI, "--x", "birth", "--y", "death", "--at", "99.0"
        )
        assert code == 3
        assert "extrapolation" in err
        assert out == ""

    def test_nan_is_extrapolation_error(self, capsys):
        code, out, err = run_cli(
            capsys, "predict", WDI, "--x", "birth", "--y", "death", "--at", "nan"
        )
        assert code == 3
        assert "extrapolation" in err
        assert out == ""

    def test_direction_yx(self, capsys):
        code, out, _ = run_cli(
            capsys, "predict", WDI, "--x", "birth", "--y", "death",
            "--at", "9.0", "--direction", "yx",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["direction"] == "yx"

    def test_table_export(self, capsys, tmp_path):
        json_path = tmp_path / "table.json"
        csv_path = tmp_path / "table.csv"
        code, _, _ = run_cli(
            capsys, "predict", WDI, "--x", "birth", "--y", "death",
            "--at", "20.0", "--table-out", str(json_path),
        )
        assert code == 0
        doc = json.loads(json_path.read_text())
        n = doc["resolution"]
        assert len(doc["cond"]) == n
        assert len(doc["x_breaks"]) == n + 1
        for row in doc["cond"]:
            assert abs(sum(row) - 1.0) < 1e-9
        code, _, _ = run_cli(
            capsys, "predict", WDI, "--x", "birth", "--y", "death",
            "--at", "20.0", "--table-out", str(csv_path),
        )
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("cond_low,cond_high,p1")
        assert len(lines) == n + 1


class TestPairwiseCommand:
    def test_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "pw"
        code, out, err = run_cli(
            capsys, "pairwise", WDI, "--permutations", "19", "--seed", "1",
            "--out", str(out_dir),
        )
        assert code == 0
        lines = (out_dir / "pairwise_long.csv").read_text().splitlines()
        assert lines[0] == "var1,var2,q,p_q,a,p_a,n_used"
        # country column is all-missing numerically: its pairs are blank cells
        assert len(lines) == 1 + 4 * 3
        bundle = json.loads((out_dir / "heatmap.json").read_text())
        assert bundle["schema"] == "qad/1"
        assert bundle["variables"] == ["country", "birth", "death", "gdp"]
        q = bundle["q"]
        bd = q[1][2]
        assert abs(bd - 0.53) < 0.02
        # classical baselines ride along for comparison heatmaps
        r2 = bundle["pearson_r2"]
        assert r2[1][2] == r2[2][1]
        assert 0 <= r2[1][2] <= 1
        assert bundle["spearman_rho"][1][2] is not None
        report = json.loads((out_dir / "filter_report.json").read_text())
        assert report["filtered"] is False

    def test_non_finite_cells_are_skipped_per_column(self, capsys, tmp_path):
        path = tmp_path / "nonfinite.csv"
        rng = np.random.default_rng(6)
        rows = [f"{a!r},{b!r},{c!r}" for a, b, c in rng.random((40, 3)).tolist()]
        rows[3] = "inf," + rows[3].split(",", 1)[1]
        rows[7] = rows[7].rsplit(",", 1)[0] + ",nan"
        path.write_text("a,b,c\n" + "\n".join(rows) + "\n")
        out_dir = tmp_path / "pw_nonfinite"
        code, out, err = run_cli(
            capsys, "pairwise", str(path), "--permutations", "9", "--out", str(out_dir)
        )
        assert code == 0
        assert "column 'a': 1 non-numeric cell(s) treated as missing" in err
        assert "column 'c': 1 non-numeric cell(s) treated as missing" in err
        bundle = json.loads((out_dir / "heatmap.json").read_text())
        assert bundle["n_used"][0][1] == 39
        assert bundle["n_used"][1][2] == 39
        assert bundle["n_used"][0][2] == 38

    def test_filter_ties_flag(self, capsys, tmp_path):
        out_dir = tmp_path / "pw2"
        code, out, err = run_cli(
            capsys, "pairwise", WDI, "--filter-ties", "0.9",
            "--out", str(out_dir),
        )
        assert code == 0
        report = json.loads((out_dir / "filter_report.json").read_text())
        assert report["filtered"] is True
        dropped = {d["column"] for d in report["dropped"]}
        assert "country" in dropped  # all-missing column is filtered out

    def test_antisymmetry_in_long_csv(self, capsys, tmp_path):
        out_dir = tmp_path / "pw3"
        run_cli(capsys, "pairwise", WDI, "--out", str(out_dir))
        rows = {}
        lines = (out_dir / "pairwise_long.csv").read_text().splitlines()[1:]
        for line in lines:
            parts = line.split(",")
            if parts[2]:
                rows[(parts[0], parts[1])] = float(parts[4])
        assert rows[("birth", "death")] == -rows[("death", "birth")]


class TestNetworkCommand:
    def test_requires_permutations(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "network", WDI, "--permutations", "0", "--out", str(tmp_path / "n")
        )
        assert code == 2

    def test_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "net"
        code, out, err = run_cli(
            capsys, "network", WDI, "--permutations", "99", "--seed", "5",
            "--q-threshold", "0.3", "--out", str(out_dir),
        )
        assert code == 0
        edges = (out_dir / "edges.csv").read_text().splitlines()
        assert edges[0] == "source,target,weight"
        assert any("birth,death" in line for line in edges[1:])
        nodes = (out_dir / "node_metrics.csv").read_text().splitlines()
        assert nodes[0] == "node,degree,betweenness,hub_score"
        infl = (out_dir / "influence.csv").read_text().splitlines()
        assert infl[0] == (
            "variable,median_influence,q25_influence,q75_influence,"
            "mean_influence_given,mean_influence_received,p_median_positive"
        )
        assert (out_dir / "network.graphml").exists()
        import networkx as nx

        g = nx.read_graphml(out_dir / "network.graphml")
        assert g.number_of_nodes() == 4
        # the edges carry their q weight and nothing else
        assert g.number_of_edges() == len(edges) - 1
        for src, dst, data in g.edges(data=True):
            assert list(data) == ["weight"]
            assert f"{src},{dst},{data['weight']:.6g}" in edges


def test_csv_cells_that_need_it_are_quoted(capsys, tmp_path):
    """Column names holding a comma, a quote or a line break come back whole,
    one per cell, from every CSV that names columns."""
    names = ["height, cm", 'say "hi"', "line\nbreak", "cr\rname"]
    x = np.random.default_rng(0).random(60)
    values = np.column_stack([x, x**2, np.sin(3 * x), np.random.default_rng(1).random(60)])
    path = tmp_path / "quoted.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_NONNUMERIC).writerows([names, *values.tolist()])
    for command in ("pairwise", "network"):
        code, _, _ = run_cli(capsys, command, str(path), "--permutations", "99", "--seed", "2",
                             "--out", str(tmp_path / command))
        assert code == 0

    def read(name):
        with open(name, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows)
        return rows

    pairs = {(a, b) for a in names for b in names if a != b}
    assert {tuple(row[:2]) for row in read(tmp_path / "pairwise" / "pairwise_long.csv")} == pairs
    assert {tuple(row[:2]) for row in read(tmp_path / "network" / "edges.csv")} <= pairs
    for name in ("node_metrics.csv", "influence.csv"):
        assert [row[0] for row in read(tmp_path / "network" / name)] == names


class TestSimulateCommand:
    def test_single_replicate_emits_sample(self, capsys, tmp_path):
        out_path = tmp_path / "fgm.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "fgm", "--theta", "-1", "-n", "10000",
            "--reps", "1", "--seed", "1", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 10001
        code, out, _ = run_cli(
            capsys, "compute", str(out_path), "--x", "x", "--y", "y"
        )
        doc = json.loads(out)
        assert abs(doc["q_xy"] - 0.25) < 0.03

    def test_experiment_csv(self, capsys, tmp_path):
        out_path = tmp_path / "exp.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "mo", "--alpha", "0.5", "--beta", "0.5",
            "-n", "100,400", "--reps", "3", "--seed", "2", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "model,params,n,replicate,q_xy,q_yx,ref_xy,ref_yx"
        assert len(lines) == 1 + 6
        first = lines[1].split(",")
        assert first[0] == "mo"
        assert float(first[6]) == pytest.approx(0.403125, abs=1e-5)

    def test_cd_experiment_blank_transpose_ref(self, capsys, tmp_path):
        out_path = tmp_path / "cd.csv"
        run_cli(
            capsys, "simulate", "cd", "--slope", "5", "-n", "100,200",
            "--reps", "2", "--seed", "3", "--out", str(out_path),
        )
        first = out_path.read_text().splitlines()[1].split(",")
        assert first[6] == "1"
        assert first[7] == ""

    def test_shape_sample(self, capsys, tmp_path):
        out_path = tmp_path / "shape.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "shape", "quadratic", "-a", "0.01",
            "-n", "500", "--seed", "4", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 501

    def test_sample_to_stdout(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "independence", "-n", "10", "--seed", "0"
        )
        assert code == 0
        assert out.splitlines()[0] == "x,y"
        assert len(out.splitlines()) == 11

    def test_usage_error_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "fgm", "-n", "10")
        assert code == 2  # missing required --theta


def _tied_table(path):
    """60 rows of small integers and decimals, built without randomness: every
    column has ties, ``d`` is 40 % zeros, and ``b`` and ``c`` have missing cells."""
    lines = ["a,b,c,d,e"]
    for i in range(60):
        a = (i * 7) % 13
        b = "" if i % 9 == 4 else str(a // 2 + (i * 5) % 4)
        c = "NA" if i % 11 == 3 else str((i * i) % 17)
        d = "0" if i % 5 < 2 else str((i * 3) % 8 + 1)
        e = f"{(i * 0.37) % 2:.3f}"
        lines.append(f"{a},{b},{c},{d},{e}")
    path.write_text("\n".join(lines) + "\n")


class TestOutputPins:
    """SHA-256 of each case's exit code, stdout, stderr and written files.

    ``test_cli.py``'s other tests and the benchmark's references compare parsed
    values, so a writer that reformats a float or reorders a key passes them;
    these pins do not.  ``network.graphml`` is left out: its bytes belong to
    networkx.  Paths in stdout and stderr are normalised.
    """

    CASES = {
        "compute-wdi-board": ["compute", WDI, "--x", "birth", "--y", "death", "--permutations",
                              "19", "--board-out", "{out}/board.json", "--out", "{out}/c.json"],
        "compute-wdi-resolution": ["compute", WDI, "--x", "gdp", "--y", "birth",
                                   "--resolution", "7"],
        "compute-tied-board": ["compute", "{tied}", "--x", "a", "--y", "b", "--permutations",
                               "19", "--board-out", "{out}/board.json"],
        "compute-tied-dense": ["compute", "{tied}", "--x", "d", "--y", "c", "--permutations", "9"],
        "predict-wdi-csv": ["predict", WDI, "--x", "birth", "--y", "gdp", "--at", "30",
                            "--table-out", "{out}/t.csv"],
        "predict-wdi-json-yx": ["predict", WDI, "--x", "birth", "--y", "gdp", "--at", "5000",
                                "--direction", "yx", "--table-out", "{out}/t.json"],
        "predict-tied-csv": ["predict", "{tied}", "--x", "a", "--y", "b", "--at", "6",
                             "--table-out", "{out}/t.csv", "--out", "{out}/p.json"],
        "predict-tied-json-yx": ["predict", "{tied}", "--x", "e", "--y", "d", "--at", "3",
                                 "--direction", "yx", "--table-out", "{out}/t.json"],
        "pairwise-wdi": ["pairwise", WDI, "--permutations", "9", "--out", "{out}/pw"],
        "pairwise-tied-precision": ["pairwise", "{tied}", "--permutations", "9",
                                    "--precision", "4", "--out", "{out}/pw"],
        "pairwise-tied-filter": ["pairwise", "{tied}", "--filter-ties", "0.3",
                                 "--out", "{out}/pw"],
        "network-wdi": ["network", WDI, "--permutations", "19", "--q-threshold", "0.3",
                        "--out", "{out}/net"],
        "network-tied-signrank": ["network", "{tied}", "--permutations", "19", "--q-threshold",
                                  "0.1", "--alpha", "0.5", "--influence-test", "signrank",
                                  "--precision", "4", "--out", "{out}/net"],
        "simulate-fgm-sample": ["simulate", "fgm", "--theta", "0.5", "-n", "50", "--seed", "1"],
        "simulate-mo-experiment": ["simulate", "mo", "--alpha", "0.5", "--beta", "0.3",
                                   "-n", "50,100", "--reps", "3", "--out", "{out}/mo.csv"],
        "simulate-cd-precision": ["simulate", "cd", "--slope", "3", "-n", "40,80", "--reps", "2",
                                  "--precision", "4"],
        "simulate-independence": ["simulate", "independence", "-n", "20", "--seed", "2",
                                  "--out", "{out}/s.csv"],
        "simulate-shape": ["simulate", "shape", "quadratic", "-a", "0.05", "-n", "30",
                           "--seed", "3", "--precision", "4"],
        "error-network-permutations": ["network", "{tied}", "--permutations", "0",
                                       "--out", "{out}/net"],
        "error-shape-sizes": ["simulate", "shape", "linear", "-n", "10,20"],
        "error-delimiter": ["compute", "{tied}", "--x", "a", "--y", "b", "--delimiter", ";;"],
        "error-alpha-range": ["network", "{tied}", "--permutations", "9", "--alpha", "7",
                              "--out", "{out}/net"],
        "error-fgm-theta": ["simulate", "fgm", "--theta", "5", "-n", "10"],
        "error-unknown-column": ["compute", "{tied}", "--x", "a", "--y", "zz"],
        "error-extrapolation": ["predict", WDI, "--x", "birth", "--y", "death", "--at", "1000"],
        "error-resolution": ["compute", WDI, "--x", "birth", "--y", "death",
                             "--resolution", "100000"],
    }

    # recorded at the commit before the writers were rerouted
    PINS = {
        "compute-tied-board": "2eea8551c8c55591ed799cbff993162d333fdca639157d2365f0f825a594f7d7",
        "compute-tied-dense": "7a2142e185c67fda6c7b59f3295b50b32240c1f0fe0186a8552635f8cae66a6c",
        "compute-wdi-board": "0d1d5bca4c93927ac361f5beed2f1591f00ec28c8b88d791856902d0193056c4",
        "compute-wdi-resolution": "0c39af7f703342a7802bd52e42bf79721f9349422dec951435ce93894ecba51d",
        "error-alpha-range": "3ed2bd47feeae603e093ccc5c3f8cfca655b6ee37bc4dd299136a4885178113d",
        "error-delimiter": "596aaec938f2195c8f8e9e0b45b2dcd3cd7193e65b06e7de3b97e6b5e5055434",
        "error-extrapolation": "f29117b12620e405378e937dae2822fb7e1ecf04f599609fe141a9654b56483a",
        "error-fgm-theta": "749ec55de31630bfea7a2aa3c6da3cce1509061cb0916c70a1d03dfae63072da",
        "error-network-permutations": "dde7d00fc420871e6993a16ab931766cd0b0a5d0bc5f2751c8ef78b7c6076aa5",
        "error-resolution": "6f825d62aeef77dc912c313c29be2ff9f774e6156a70e760c6971ad531279647",
        "error-shape-sizes": "f51e631aac395b209d303e8542fa70546c3058c58d1614bac2c41be384a3de6a",
        "error-unknown-column": "2868243c207fe167b1d87ffbe5a351159928b5cfb94598b102eba8d64a00fc2e",
        "network-tied-signrank": "e743c37f078c1f82a07940e4738c2e126ef3227488c010b9827c3a456e685baa",
        "network-wdi": "070c5d59748bbfbb75a2ed3f44baadb1b87aaa9a57ccef3e1c74a67a24448eba",
        "pairwise-tied-filter": "125148d8ecd9c71c5ae57d56f586e7192bbd6812142ec8841a1d9f3bfb7955e8",
        "pairwise-tied-precision": "54c7565aae64f442cfb2ccbc5d03e96e97af91ae28a77b31f2b3268208d728c0",
        "pairwise-wdi": "7e4345b378b898cf040e4d55d3d4362a9cbde7145e6cdbb056de826c71da88e6",
        "predict-tied-csv": "7de45b03d10258ab56aee4a4f5e646f56885496cf359726f8102c659156af3bc",
        "predict-tied-json-yx": "fe55aed0e52b4ebaf3b8c83e36610df4c971c667acff26e0e7199860a3256e64",
        "predict-wdi-csv": "7cb6840b81fbad05d7a60a809d899574884d779a0cbffb0e58e54cbd81ac4769",
        "predict-wdi-json-yx": "5c03e7ddc6d70738425abf2bacda87eeea6d48e1a3fba0bdc57d1185701f40ee",
        "simulate-cd-precision": "f3f44f1b948965b12b5aaefd9852623807d521415c21d51747ab30f8dd5bd8c9",
        "simulate-fgm-sample": "32aff6406fc4d3dc5526e91048033eb5d59d6974f786b7ce43119bcd9806a47f",
        "simulate-independence": "c0d70c320286f40b719f520b8fe5b005ed9e868ec202f4232efd6d977f711f9b",
        "simulate-mo-experiment": "a056cab965bc24b3ca20ac449706a3ff5593588d81a9648695db9b050fc5a9c8",
        "simulate-shape": "137ce0c9db880df6b99954c7e1a2db7319f7d79fe994610be4af8e71dc462a30",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_bytes(self, capsys, tmp_path, case):
        if case.startswith("network-"):
            pytest.importorskip("networkx")
        if case.endswith("signrank"):
            pytest.importorskip("scipy")
        tied, out = tmp_path / "tied.csv", tmp_path / "out"
        _tied_table(tied)
        out.mkdir()
        argv = [a.format(tied=tied, out=out) for a in self.CASES[case]]
        code, stdout, stderr = run_cli(capsys, *argv)
        digest = hashlib.sha256(f"{code}\n".encode())
        for text in (stdout, stderr):
            text = text.replace(str(tmp_path), "<tmp>").replace(DATA_DIR, "<data>")
            digest.update(text.encode() + b"\0")
        for path in sorted(out.rglob("*")):
            if path.is_file() and path.name != "network.graphml":
                digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == self.PINS[case]


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("", "empty file", id="empty"),
        pytest.param("\n  \n\n", "empty file", id="blank-lines"),
        pytest.param("a,,b\n1,2,3\n", "empty column name in header", id="empty-name"),
    ],
)
def test_empty_file_and_header_name_are_data_errors(capsys, tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, "compute", str(path), "--x", "a", "--y", "b")
    assert code == 3
    assert err == f"error: {path}: {message}\n"
    assert out == ""


def test_zero_simulate_size_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "simulate", "independence", "-n", "0")
    assert code == 2
    assert "argument -n: sizes must be positive" in err
    assert out == ""
