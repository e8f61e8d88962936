"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.workloads.runnable import EXAMPLE_NAMES, EXAMPLES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParser:
    def test_every_subcommand_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("levels", "experiment", "figures", "ir", "explore", "trace", "run"):
            assert command in text
        assert "--backend" in text

    def test_missing_subcommand_is_an_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])


class TestLevels:
    def test_levels_matrix_lists_all_five_columns(self, capsys):
        code, out = run_cli(capsys, "levels")
        assert code == 0
        for level in ("none", "dynamic", "static", "qoq", "all"):
            assert level in out
        assert "qoq" in out and "dyn-sync" in out


class TestIr:
    def test_fig14_demo_elides_loop_syncs(self, capsys):
        code, out = run_cli(capsys, "ir", "--demo", "fig14", "--opt", "elide")
        assert code == 0
        assert "sync coalescing removed 2/3 syncs" in out
        assert "sync-sets" in out and "dominator tree" in out

    def test_fig15_demo_blocked_by_aliasing_until_told_otherwise(self, capsys):
        _, out_conservative = run_cli(capsys, "ir", "--demo", "fig15", "--opt", "elide")
        assert "removed 0/3" in out_conservative
        _, out_distinct = run_cli(capsys, "ir", "--demo", "fig15", "--opt", "elide",
                                  "--distinct", "h_p,i_p")
        assert "removed 2/3" in out_distinct

    def test_lowering_then_eliding_straightline_queries(self, capsys):
        code, out = run_cli(capsys, "ir", "--demo", "straightline", "--lower", "--opt", "elide")
        assert code == 0
        assert "after query lowering" in out
        assert "removed 3/4 syncs" in out

    def test_ir_from_file_round_trips(self, capsys, tmp_path):
        from repro.compiler.builder import fig14_loop
        from repro.compiler.printer import print_function

        path = tmp_path / "fn.ir"
        path.write_text(print_function(fig14_loop()), encoding="utf-8")
        code, out = run_cli(capsys, "ir", "--file", str(path), "--opt", "hoist")
        assert code == 0
        assert "hoisted" in out

    def test_unknown_demo_rejected(self):
        with pytest.raises(SystemExit):
            main(["ir", "--demo", "does-not-exist"])


class TestExplore:
    def test_fig6_without_queries_reports_no_deadlock(self, capsys):
        code, out = run_cli(capsys, "explore", "--program", "fig6")
        assert code == 0
        assert "acyclic" in out
        assert "0 deadlocked" in out

    def test_fig6_with_queries_reports_cycle_and_deadlock(self, capsys):
        code, out = run_cli(capsys, "explore", "--program", "fig6-queries")
        assert code == 1
        assert "potential deadlock cycle" in out
        assert "deadlocked" in out

    def test_random_program_exploration(self, capsys):
        code, out = run_cli(capsys, "explore", "--random", "7", "--max-states", "50000")
        assert code in (0, 1)
        assert "random configuration (seed 7)" in out
        assert "explored" in out

    def test_unknown_program_rejected(self):
        with pytest.raises(SystemExit):
            main(["explore", "--program", "fig99"])


class TestTrace:
    def test_trace_run_checks_guarantees(self, capsys):
        code, out = run_cli(capsys, "trace", "--clients", "2", "--iterations", "2", "--tail", "5")
        assert code == 0
        assert "recorded" in out
        assert "reasoning guarantees hold" in out

    def test_trace_run_on_the_lock_based_level(self, capsys):
        code, out = run_cli(capsys, "trace", "--level", "none", "--clients", "2", "--iterations", "1")
        assert code == 0
        assert "level 'none'" in out


class TestRun:
    def test_example_choices_come_from_the_registry(self):
        # `repro run` derives its choices and help text from the runnable
        # registry, so a newly registered example appears automatically
        assert set(EXAMPLE_NAMES) == {"bank-transfers", "dining-philosophers",
                                      "sharded-bank"}
        help_text = build_parser().format_help()
        for name in EXAMPLE_NAMES:
            assert name in help_text
        run_parser = build_parser()._subparsers._group_actions[0].choices["run"]
        run_help = run_parser.format_help()
        for example in EXAMPLES.values():
            assert example.name in run_help

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_every_registered_example_runs_clean(self, capsys, name):
        # ONE parametrised test covers every runnable example on the
        # deterministic sim backend (new registrations are tested for free)
        code, out = run_cli(capsys, "--backend", "sim", "run", name,
                            "--clients", "3", "--iterations", "4", "--shards", "2")
        assert code == 0, f"{name} failed:\n{out}"
        assert "NOT conserved" not in out and "INCONSISTENT" not in out

    def test_sharded_bank_identical_on_both_backends(self, capsys):
        outputs = {}
        for backend in ("threads", "sim"):
            code, out = run_cli(capsys, "--backend", backend, "run", "sharded-bank",
                                "--clients", "3", "--iterations", "5", "--shards", "3")
            assert code == 0
            assert "money conserved across 3 shards" in out
            outputs[backend] = [line for line in out.splitlines() if "backend=" not in line]
        assert outputs["threads"] == outputs["sim"]

    def test_run_validations(self):
        with pytest.raises(SystemExit, match="--shards"):
            main(["run", "sharded-bank", "--shards", "0"])
        with pytest.raises(SystemExit, match="at least 2"):
            main(["run", "dining-philosophers", "--clients", "1"])
        with pytest.raises(SystemExit, match="non-negative"):
            main(["run", "bank-transfers", "--clients", "-1"])

    def test_bank_transfers_identical_on_both_backends(self, capsys):
        outputs = {}
        for backend in ("threads", "sim"):
            code, out = run_cli(capsys, "--backend", backend, "run", "bank-transfers",
                                "--clients", "2", "--iterations", "5")
            assert code == 0
            assert "money conserved" in out
            # drop the backend=... prefix: everything else must match exactly
            outputs[backend] = [line for line in out.splitlines() if "backend=" not in line]
        assert outputs["threads"] == outputs["sim"]

    def test_dining_philosophers_identical_on_both_backends(self, capsys):
        outputs = {}
        for backend in ("threads", "sim"):
            code, out = run_cli(capsys, "--backend", backend, "run", "dining-philosophers",
                                "--clients", "3", "--iterations", "4")
            assert code == 0
            assert "no deadlock" in out
            outputs[backend] = [line for line in out.splitlines() if "backend=" not in line]
        assert outputs["threads"] == outputs["sim"]

    def test_unknown_example_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fizzbuzz"])


class TestBackendOption:
    def test_trace_runs_on_the_sim_backend(self, capsys):
        code, out = run_cli(capsys, "--backend", "sim", "trace",
                            "--clients", "2", "--iterations", "2", "--tail", "3")
        assert code == 0
        assert "reasoning guarantees hold" in out

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["--backend", "quantum", "run", "bank-transfers"])

    def test_full_spec_strings_accepted_by_the_flag(self, capsys):
        # --backend takes any spec create_backend would (not just bare names)
        code, out = run_cli(capsys, "--backend", "sim:random:7", "trace",
                            "--clients", "2", "--iterations", "1", "--tail", "3")
        assert code == 0
        assert "reasoning guarantees hold" in out

    def test_malformed_spec_rejected_at_the_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["--backend", "process:msgpack", "run", "bank-transfers"])
        assert "invalid backend spec" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["process", "process:4:pickle", "PROCESS",
                                      "process+async", "process+async:4:2:bin",
                                      "hybrid", "PROCESS+ASYNC"])
    def test_trace_rejects_every_process_spec_spelling(self, spec):
        # the guard normalises through BackendSpec.parse, so a full spec or
        # an alias cannot sneak a process-hosted backend (plain or hybrid)
        # past it
        with pytest.raises(SystemExit, match="handler-side trace events"):
            main(["--backend", spec, "trace", "--clients", "1", "--iterations", "1"])

    @pytest.mark.parametrize("spec", ["process", "process:2:json", "PROCESS",
                                      "process+async:2:2", "hybrid"])
    def test_trace_rejects_process_specs_from_the_environment(self, spec, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", spec)
        with pytest.raises(SystemExit, match="handler-side trace events"):
            main(["trace", "--clients", "1", "--iterations", "1"])


class TestSpecGrammar:
    # the one grammar drives the help text AND every parse error, so the
    # three can never drift apart (ws-normalised: argparse re-wraps lines)
    @staticmethod
    def _normalize(text):
        return " ".join(text.split())

    def test_help_text_derives_from_spec_grammar(self):
        from repro.backends import SPEC_GRAMMAR

        help_text = build_parser().format_help()
        assert self._normalize(SPEC_GRAMMAR) in self._normalize(help_text)

    def test_spec_parse_errors_quote_the_grammar(self):
        from repro.backends import SPEC_GRAMMAR, BackendSpec

        with pytest.raises(ValueError) as excinfo:
            BackendSpec.parse("process:msgpack")
        assert SPEC_GRAMMAR in str(excinfo.value)

    def test_parser_rejection_quotes_the_grammar(self, capsys):
        from repro.backends import SPEC_GRAMMAR

        with pytest.raises(SystemExit):
            main(["--backend", "process:msgpack", "run", "bank-transfers"])
        err = capsys.readouterr().err
        assert self._normalize(SPEC_GRAMMAR) in self._normalize(err)


class TestServe:
    def test_serve_registered_with_its_options(self):
        serve_parser = build_parser()._subparsers._group_actions[0].choices["serve"]
        serve_help = serve_parser.format_help()
        for option in ("--host", "--port", "--shards", "--watermark", "--no-cache",
                       "--duration"):
            assert option in serve_help

    def test_serve_validations(self):
        with pytest.raises(SystemExit, match="--shards"):
            main(["serve", "--shards", "0"])
        # load is driven from outside the library (ledger/run.py), not by a flag
        with pytest.raises(SystemExit) as rejected:
            main(["serve", "--port", "0", "--load"])
        assert rejected.value.code == 2

    def test_serve_rejects_the_sim_backend(self):
        with pytest.raises(SystemExit, match="virtual time"):
            main(["--backend", "sim", "serve", "--port", "0", "--duration", "0.1"])

    def test_serve_runs_for_its_duration_and_exits_cleanly(self, capsys):
        code, out = run_cli(capsys, "serve", "--port", "0", "--shards", "2",
                            "--duration", "0.2")
        assert code == 0, out
        assert "serving cases on http://127.0.0.1:" in out
        assert "2 shards" in out


class TestExperimentAndFigures:
    def test_experiment_table5_runs_from_the_cli(self, capsys):
        code, out = run_cli(capsys, "experiment", "table5")
        assert code == 0
        assert "Table 5" in out and "Geometric means" in out

    def test_figures_fig20_renders(self, capsys):
        code, out = run_cli(capsys, "figures", "fig20")
        assert code == 0
        assert "Fig. 20" in out and "chameneos" in out
