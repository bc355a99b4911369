"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_encode_args(self):
        args = build_parser().parse_args(["encode", "23.7", "37.9"])
        assert args.command == "encode"
        assert args.lon == 23.7

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "EDBT 2021" in out

    def test_encode(self, capsys):
        assert main(["encode", "23.727539", "37.983810"]) == 0
        out = capsys.readouterr().out
        assert "hilbertIndex" in out
        assert "swbb5" in out  # the paper's Athens geohash prefix
        assert "stHash" in out and "2018" in out

    def test_generate_r(self, tmp_path, capsys):
        out_file = str(tmp_path / "r.csv")
        assert main(["generate", "--dataset", "R", "--records", "50",
                     "--out", out_file]) == 0
        from repro.datagen.csv_io import read_csv_file

        docs = read_csv_file(out_file)
        assert len(docs) == 50
        assert docs[0]["location"]["type"] == "Point"

    def test_generate_s(self, tmp_path):
        out_file = str(tmp_path / "s.csv")
        assert main(["generate", "--dataset", "S", "--records", "30",
                     "--out", out_file]) == 0

    def test_compare_smoke(self, capsys):
        assert main(
            ["compare", "--records", "800", "--shards", "3",
             "--query", "big", "--window", "7"]
        ) == 0
        out = capsys.readouterr().out
        for name in ("bslST", "bslTS", "hil", "hilstar"):
            assert name in out

    def test_stats_analyze_smoke(self, capsys):
        import json

        assert main(
            ["stats", "analyze", "traces", "--records", "400",
             "--shards", "2"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["collection"] == "traces"
        assert payload["totalDocs"] == 400
        assert payload["timeHistogram"]["total"] == 400
        assert payload["cellSketch"]["cells"] > 0
        assert payload["catalog"] == {
            "entries": 1,
            "hits": 0,
            "misses": 0,
            "stale": 0,
            "evictions": 0,
        }

    def test_stats_analyze_unknown_collection(self, capsys):
        assert main(
            ["stats", "analyze", "nope", "--records", "200",
             "--shards", "2"]
        ) == 2
