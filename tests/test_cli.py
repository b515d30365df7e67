"""Unit tests for the repro-assess CLI."""

import pytest

from repro.cli import build_parser, main
from repro.data import TransactionDatabase, write_fimi


class TestParser:
    def test_requires_a_source(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_benchmark_and_fimi_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--benchmark", "chess", "--fimi", "x.dat"])

    def test_defaults(self):
        args = build_parser().parse_args(["--benchmark", "chess"])
        assert args.tolerance == 0.1
        assert args.runs == 5
        assert not args.similarity


class TestMain:
    def test_benchmark_run(self, capsys):
        code = main(["--benchmark", "chess", "--tolerance", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "chess" in out
        assert "decision:" in out

    def test_fimi_run(self, tmp_path, capsys):
        db = TransactionDatabase([[1, 2], [2, 3], [1, 2, 3], [3], [1]] * 4)
        path = tmp_path / "data.dat"
        write_fimi(db, path)
        code = main(["--fimi", str(path), "--tolerance", "0.9"])
        assert code == 0
        assert "decision:" in capsys.readouterr().out

    def test_similarity_output(self, capsys):
        code = main(
            [
                "--benchmark",
                "chess",
                "--similarity",
                "--sample-fractions",
                "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Similarity-by-Sampling" in out
        assert "50%" in out

    def test_missing_file_is_reported(self, capsys):
        code = main(["--fimi", "/nonexistent/file.dat"])
        assert code != 0 or "error" in capsys.readouterr().err

    def test_stats_flag(self, capsys):
        code = main(["--benchmark", "chess", "--stats"])
        assert code == 0
        assert "frequency groups" in capsys.readouterr().out

    def test_report_written(self, tmp_path, capsys):
        path = tmp_path / "risk.md"
        code = main(["--benchmark", "chess", "--report", str(path)])
        assert code == 0
        assert "# Disclosure risk profile" in path.read_text()

    def test_report_on_single_frequency_group(self, tmp_path, capsys):
        # Regression: the recipe discloses at Step 2, and the report used
        # to recompute the median gap and fail for want of a second group.
        data = tmp_path / "one.dat"
        data.write_text("1 2\n1 2\n1 2\n")
        path = tmp_path / "risk.md"
        code = main(
            ["--fimi", str(data), "--tolerance", "1.0", "--report", str(path)]
        )
        assert code == 0
        assert "# Disclosure risk profile" in path.read_text()
        assert "error" not in capsys.readouterr().err

    def test_assessment_saved(self, tmp_path, capsys):
        from repro.io import assessment_from_json, load_json

        path = tmp_path / "assessment.json"
        code = main(["--benchmark", "chess", "--save-assessment", str(path)])
        assert code == 0
        restored = assessment_from_json(load_json(path))
        assert restored.n_items == 75

    def test_protect_flag(self, capsys):
        code = main(["--benchmark", "chess", "--protect", "quantile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "protection plan" in out
        assert "quantile" in out

    def test_protect_skipped_when_disclosing(self, capsys):
        code = main(
            ["--benchmark", "retail", "--tolerance", "0.2", "--protect", "quantile"]
        )
        assert code == 0
        assert "protection plan" not in capsys.readouterr().out


class TestCrackCli:
    def test_smoke_gate(self, capsys):
        from repro.cli import crack_main

        assert crack_main(["--smoke"]) == 0
        assert "smoke ok" in capsys.readouterr().out

    def test_requires_instance(self, capsys):
        from repro.cli import crack_main

        assert crack_main([]) == 2
        assert "--instance" in capsys.readouterr().err

    def test_watch_requires_observations(self, capsys):
        from repro.cli import crack_main

        assert crack_main(["--instance", "x.json", "--watch"]) == 2
        assert "--watch" in capsys.readouterr().err

    def test_streams_events_from_files(self, tmp_path, capsys):
        import json

        from repro.cli import crack_main

        instance = tmp_path / "instance.json"
        instance.write_text(
            json.dumps(
                {
                    "adjacency": [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]],
                    "truth": [0, 1, 2, 3],
                }
            )
        )
        feed = tmp_path / "observations.jsonl"
        feed.write_text(
            '{"kind": "confirm", "item": 3, "anon": 3}\n{"kind": "close"}\n'
        )
        assert crack_main(
            ["--instance", str(instance), "--observations", str(feed)]
        ) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line
        ]
        forced = [e for e in lines if e["event"] == "forced"]
        assert [(e["item"], e["anon"]) for e in forced] == [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert all(e["crack"] for e in forced)
        summaries = [e for e in lines if e["event"] == "summary"]
        assert summaries and summaries[-1]["counts"]["undecided"] == 0

    def test_missing_instance_file_reported(self, tmp_path, capsys):
        from repro.cli import crack_main

        assert crack_main(["--instance", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_observation_line_reported(self, tmp_path, capsys):
        import json

        from repro.cli import crack_main

        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps({"adjacency": [[0, 1], [0, 1]]}))
        feed = tmp_path / "observations.jsonl"
        feed.write_text('{"kind": "wat"}\n')
        assert crack_main(
            ["--instance", str(instance), "--observations", str(feed)]
        ) == 1
        assert "observation" in capsys.readouterr().err
