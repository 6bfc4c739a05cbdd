"""Tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import _build_parser, _load_service, _print_answers, main
from repro.datagen.experiments import sales_schema
from repro.relational.csv_io import load_database
from repro.service import AnnotationService, ServiceOptions


@pytest.fixture
def data_dir(tmp_path, capsys):
    """A small generated sales database on disk."""
    directory = tmp_path / "data"
    main(["generate", "--out", str(directory), "--products", "30",
          "--orders", "30", "--markets", "6", "--null-rate", "0.2", "--seed", "1"])
    capsys.readouterr()
    return directory


class TestCli:
    def test_generate_then_annotate_named_query(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        exit_code = main(["generate", "--out", str(data_dir),
                          "--products", "40", "--orders", "40", "--markets", "8",
                          "--null-rate", "0.2", "--seed", "3"])
        assert exit_code == 0
        generated = capsys.readouterr().out
        assert "wrote 88 tuples" in generated
        assert (data_dir / "Products.csv").exists()

        exit_code = main(["annotate", "--data", str(data_dir),
                          "--query-name", "competitive_advantage",
                          "--epsilon", "0.1", "--seed", "0"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "confidence" in output

    def test_annotate_with_inline_sql(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        main(["generate", "--out", str(data_dir), "--products", "30",
              "--orders", "30", "--markets", "6", "--seed", "1"])
        capsys.readouterr()
        exit_code = main(["annotate", "--data", str(data_dir),
                          "--sql", "SELECT M.seg FROM Market M WHERE M.rrp >= 0 LIMIT 5",
                          "--method", "auto"])
        assert exit_code == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
        assert len(lines) >= 2  # header plus at least one answer

    def test_annotate_missing_data_directory(self, tmp_path, capsys):
        exit_code = main(["annotate", "--data", str(tmp_path / "empty"),
                          "--query-name", "unfair_discount"])
        assert exit_code == 1

    def test_requires_a_query_source(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["annotate", "--data", str(tmp_path)])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


class TestCliHardening:
    def test_sql_syntax_error_is_clean(self, data_dir, capsys):
        exit_code = main(["annotate", "--data", str(data_dir),
                          "--sql", "SELEC nonsense FROM nowhere"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_unknown_column_error_is_clean(self, data_dir, capsys):
        exit_code = main(["annotate", "--data", str(data_dir),
                          "--sql", "SELECT P.bogus FROM Products P"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "bogus" in captured.err
        assert "Traceback" not in captured.err

    def test_jobs_output_is_bit_identical(self, data_dir, capsys):
        query = ["annotate", "--data", str(data_dir),
                 "--query-name", "competitive_advantage",
                 "--epsilon", "0.1", "--seed", "4"]
        assert main(query + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(query + ["--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_process_executor_output_is_bit_identical(self, data_dir, capsys):
        query = ["annotate", "--data", str(data_dir), "--sql",
                 "SELECT P.seg FROM Products P, Market M "
                 "WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp LIMIT 5",
                 "--epsilon", "0.2", "--seed", "0"]
        assert main(query) == 0
        serial = capsys.readouterr().out
        assert main(query + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("flag", [
        ("--executor", "process"), ("--backend", "rows"), ("--shards", "2"),
        ("--fusion", "8")], ids=["executor", "backend", "shards", "fusion"])
    def test_malformed_flag_exits_2(self, data_dir, flag):
        with pytest.raises(SystemExit) as raised:
            main(["annotate", "--data", str(data_dir), "--sql",
                  "SELECT * FROM Market", *flag])
        assert raised.value.code == 2

    def test_adaptive_prints_intervals(self, data_dir, capsys):
        exit_code = main(["annotate", "--data", str(data_dir),
                          "--sql", "SELECT P.id FROM Products P WHERE P.rrp <= 40",
                          "--adaptive", "--epsilon", "0.05", "--seed", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "[" in output and "]" in output  # interval column present


class TestServe:
    def _serve(self, data_dir, monkeypatch, text, extra=()):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        return main(["serve", "--data", str(data_dir), "--seed", "5",
                     "--epsilon", "0.1", *extra])

    def test_repeated_queries_are_served_from_cache(self, data_dir, monkeypatch,
                                                    capsys):
        query = "SELECT M.seg FROM Market M WHERE M.rrp >= 0 LIMIT 3\n"
        exit_code = self._serve(data_dir, monkeypatch,
                                query + query + "\\stats\n\\quit\n")
        assert exit_code == 0
        output = capsys.readouterr().out
        assert output.count("confidence") == 2
        # The second run answers every lineage group from the cache.
        assert "0 computed" in output
        assert "estimates reused" in output

    def test_bad_query_keeps_the_loop_alive(self, data_dir, monkeypatch, capsys):
        exit_code = self._serve(
            data_dir, monkeypatch,
            "totally not sql\nSELECT M.seg FROM Market M LIMIT 1\n")
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "confidence" in captured.out

    def test_comments_and_blank_lines_are_skipped(self, data_dir, monkeypatch,
                                                  capsys):
        exit_code = self._serve(data_dir, monkeypatch,
                                "\n# a comment\n-- another\n\\quit\n")
        assert exit_code == 0
        assert "confidence" not in capsys.readouterr().out

    def test_eof_exits_zero_and_prints_the_stats_summary(self, data_dir,
                                                         monkeypatch, capsys):
        """Regression: a piped session ending without ``\\quit`` must still
        exit 0 and report what it served."""
        exit_code = self._serve(data_dir, monkeypatch,
                                "SELECT M.seg FROM Market M LIMIT 2\n")
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "-- session stats --" in output
        assert "estimates computed" in output
        assert "requests            1" in output

    def test_keyboard_interrupt_exits_zero_with_stats(self, data_dir,
                                                      monkeypatch, capsys):
        """Regression: Ctrl-C mid-request used to die with a traceback."""
        class InterruptingStdin:
            def __init__(self):
                self.lines = iter(["SELECT M.seg FROM Market M LIMIT 2\n"])

            def readline(self):
                try:
                    return next(self.lines)
                except StopIteration:
                    raise KeyboardInterrupt

            def isatty(self):
                return False

        monkeypatch.setattr("sys.stdin", InterruptingStdin())
        exit_code = main(["serve", "--data", str(data_dir), "--seed", "5",
                          "--epsilon", "0.1"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "confidence" in output  # the first query was served
        assert "-- session stats --" in output

    def test_interrupt_inside_a_request_is_still_clean(self, data_dir,
                                                       monkeypatch, capsys):
        """Ctrl-C while the service is computing (not between lines)."""
        from repro.service import AnnotationService

        original = AnnotationService.submit

        def interrupted_submit(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(AnnotationService, "submit", interrupted_submit)
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "SELECT M.seg FROM Market M LIMIT 2\n"))
        exit_code = main(["serve", "--data", str(data_dir), "--seed", "5"])
        monkeypatch.setattr(AnnotationService, "submit", original)
        assert exit_code == 0
        assert "-- session stats --" in capsys.readouterr().out


class TestNetworkVerbs:
    """Argument handling of ``repro server`` / ``repro client``.

    Full network round-trips (spawn, query, SIGTERM drain) live in
    tests/test_server.py and benchmarks/server_smoke.py; these tests cover
    the argparse/validation surface that never opens a socket.
    """

    def test_server_rejects_silly_max_pending(self, data_dir, capsys):
        assert main(["server", "--data", str(data_dir),
                     "--max-pending", "0"]) == 2
        assert "max-pending" in capsys.readouterr().err

    def test_server_rejects_silly_workers(self, data_dir, capsys):
        assert main(["server", "--data", str(data_dir), "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_client_requires_a_query_or_probe(self):
        with pytest.raises(SystemExit):
            main(["client", "--port", "7464"])

    def test_client_reports_connection_failure(self, capsys):
        exit_code = main(["client", "--port", "1", "--sql",
                          "SELECT * FROM Market"])
        assert exit_code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err


SERVING_VERBS = [
    ["annotate", "--query-name", "unfair_discount"],
    ["query", "--query-name", "unfair_discount"],
    ["serve"], ["server"], ["cluster", "start"]]


class TestBackendFlag:
    def test_backend_columnar_matches_rows_output(self, data_dir, capsys):
        """``repro annotate`` prints what the rows engine, the reference
        oracle, answers in-process."""
        sql = ("SELECT P.seg FROM Products P, Market M "
               "WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 5")
        assert main(["annotate", "--data", str(data_dir), "--sql", sql,
                     "--epsilon", "0.2", "--seed", "0"]) == 0
        columnar_output = capsys.readouterr().out
        rows = load_database(sales_schema(), data_dir).with_backend("rows")
        service = AnnotationService(rows, ServiceOptions(epsilon=0.2, seed=0))
        _print_answers(service.submit(sql).answers, adaptive=False)
        assert columnar_output == capsys.readouterr().out

    @pytest.mark.parametrize("verb", SERVING_VERBS)
    def test_every_serving_verb_defaults_to_columnar(self, verb, data_dir):
        args = _build_parser().parse_args(verb + ["--data", str(data_dir)])
        assert _load_service(args).database.backend == "columnar"

    @pytest.mark.parametrize("flag", [
        ("--executor", "process"), ("--backend", "rows")],
        ids=["executor", "backend"])
    @pytest.mark.parametrize("verb", SERVING_VERBS)
    def test_every_serving_verb_rejects_removed_flags(self, verb, flag):
        with pytest.raises(SystemExit) as raised:
            _build_parser().parse_args(verb + ["--data", "data", *flag])
        assert raised.value.code == 2

    def test_unknown_backend_rejected_by_argparse(self, data_dir):
        with pytest.raises(SystemExit):
            main(["annotate", "--data", str(data_dir), "--sql",
                  "SELECT * FROM Market", "--backend", "arrow"])


class TestCliObservability:
    def test_version_flag(self, capsys):
        from repro import package_version
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {package_version()}"

    def test_query_alias_with_trace_export(self, data_dir, tmp_path, capsys):
        import json
        trace_path = tmp_path / "trace.json"
        exit_code = main(["query", "--data", str(data_dir),
                          "--query-name", "competitive_advantage",
                          "--epsilon", "0.2", "--trace", str(trace_path)])
        assert exit_code == 0
        assert "confidence" in capsys.readouterr().out
        events = json.loads(trace_path.read_text())["traceEvents"]
        names = {event["name"] for event in events if event["ph"] == "X"}
        assert {"parse", "enumerate", "estimate", "serialize"} <= names

    def test_trace_output_is_bit_identical_to_untraced(self, data_dir,
                                                       tmp_path, capsys):
        base = ["annotate", "--data", str(data_dir),
                "--query-name", "competitive_advantage",
                "--epsilon", "0.2", "--seed", "7"]
        assert main(base) == 0
        untraced = capsys.readouterr().out
        assert main(base + ["--trace", str(tmp_path / "t.json")]) == 0
        assert capsys.readouterr().out == untraced

    def test_serve_stats_report_slow_queries(self, data_dir, monkeypatch,
                                             capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "SELECT P.id FROM Products P WHERE P.rrp <= 20\n"
            "\\stats\n\\quit\n"))
        assert main(["serve", "--data", str(data_dir), "--epsilon", "0.3",
                     "--seed", "0"]) == 0
        output = capsys.readouterr().out
        assert "slow queries" in output
        assert "SELECT P.id FROM Products P" in output

    def test_top_reports_unreachable_server(self, capsys):
        exit_code = main(["top", "--http-port", "1", "--count", "1"])
        assert exit_code == 1
        assert "cannot reach" in capsys.readouterr().err


class TestCliAgainstServer:
    """Client/top subcommands against a real in-process server."""

    @pytest.fixture
    def server(self, data_dir):
        from repro.relational.csv_io import load_database
        from repro.datagen.experiments import sales_schema
        from repro.server import EmbeddedServer
        from repro.service import AnnotationService, ServiceOptions
        database = load_database(sales_schema(), data_dir)
        service = AnnotationService(database,
                                    ServiceOptions(epsilon=0.2, seed=5))
        with EmbeddedServer(service) as running:
            yield running

    def test_client_probe_stats_pretty_and_json(self, server, capsys):
        import json
        host_args = ["--host", server.host, "--port", str(server.port)]
        assert main(["client", *host_args, "--sql",
                     "SELECT P.id FROM Products P WHERE P.rrp <= 20"]) == 0
        capsys.readouterr()
        assert main(["client", *host_args, "--probe", "stats"]) == 0
        pretty = capsys.readouterr().out
        assert "server" in pretty and "cache" in pretty and "{" not in pretty
        assert main(["client", *host_args, "--probe", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["server"]["requests"] >= 1

    def test_client_probe_health_and_metrics(self, server, capsys):
        host_args = ["--host", server.host, "--port", str(server.port)]
        assert main(["client", *host_args, "--probe", "health"]) == 0
        health = capsys.readouterr().out
        assert "uptime_seconds" in health and "version" in health
        assert main(["client", *host_args, "--probe", "metrics"]) == 0
        metrics = capsys.readouterr().out
        assert "# TYPE repro_request_seconds histogram" in metrics

    def test_client_probe_offers_every_read_only_op(self, server, capsys):
        import json
        from repro.cli import _probe_ops
        assert set(_probe_ops()) == {
            "alerts", "cluster", "health", "history", "metrics", "ping",
            "profile", "stats", "trace", "trace_export"}
        host_args = ["--host", server.host, "--port", str(server.port)]
        assert main(["client", *host_args, "--sql",
                     "SELECT P.id FROM Products P WHERE P.rrp <= 20"]) == 0
        capsys.readouterr()
        assert main(["client", *host_args, "--probe", "trace"]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert {span["name"] for span in trace["spans"]} >= {"dispatch",
                                                             "parse"}
        assert main(["client", *host_args, "--probe", "history"]) == 0
        assert "snapshots" in json.loads(capsys.readouterr().out)
        # A plain server has no cluster op: a typed refusal, exit 2.
        assert main(["client", *host_args, "--probe", "cluster"]) == 2
        with pytest.raises(SystemExit):
            main(["client", *host_args, "--probe", "cluster_drain"])

    def test_top_renders_one_frame(self, server, capsys):
        exit_code = main(["top", "--host", server.host,
                          "--http-port", str(server.http_port),
                          "--count", "1"])
        assert exit_code == 0
        frame = capsys.readouterr().out
        assert "repro top" in frame and "p99 latency" in frame
