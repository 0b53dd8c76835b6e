"""CLI tests."""

import pytest

from repro.cli import build_parser, main


def test_example_command(capsys):
    assert main(["example"]) == 0
    out = capsys.readouterr().out
    assert "lower bound" in out
    assert "openshop" in out


def test_example_with_diagrams(capsys):
    assert main(["example", "--diagrams"]) == 0
    out = capsys.readouterr().out
    assert "--- baseline ---" in out
    assert "P0" in out


def test_gusto_command(capsys):
    assert main(["gusto"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "NCSA" in out
    assert "total exchange" in out


def test_figure_command(capsys):
    assert main(["figure", "9", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "fig09-small" in out
    assert "speedup over baseline" in out


def test_quality_command(capsys):
    assert main(["quality", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "quality relative to the lower bound" in out


def test_zoo_command(capsys):
    assert main(["zoo", "--procs", "6", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "preemptive optimum" in out
    assert "openshop" in out


def test_adaptive_command(capsys):
    assert main(["adaptive", "--procs", "8", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "drift magnitude" in out
    assert "halving" in out


def test_broadcast_command(capsys):
    assert main(["broadcast", "--procs", "8"]) == 0
    out = capsys.readouterr().out
    assert "fastest-node-first" in out


def test_export_command(capsys, tmp_path):
    out_dir = tmp_path / "exported"
    assert main(["export", "--output-dir", str(out_dir)]) == 0
    assert (out_dir / "example_openshop.svg").exists()
    assert (out_dir / "example_openshop.json").exists()
    assert (out_dir / "example_openshop.trace.json").exists()


def test_export_custom_scheduler(tmp_path):
    out_dir = tmp_path / "exported"
    assert main(
        ["export", "--scheduler", "greedy", "--output-dir", str(out_dir)]
    ) == 0
    assert (out_dir / "example_greedy.svg").exists()


def test_export_algorithm_alias_removed(tmp_path):
    # --algorithm finished its deprecation cycle; argparse must reject it.
    with pytest.raises(SystemExit):
        main(
            [
                "export",
                "--algorithm",
                "greedy",
                "--output-dir",
                str(tmp_path / "exported"),
            ]
        )


def test_claims_command(capsys):
    assert main(["claims", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "Theorem 2" in out
    assert "claims reproduced" in out
    assert "FAIL" not in out


def test_figure_rejects_unknown_id():
    with pytest.raises(SystemExit):
        main(["figure", "99"])


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_parser_prog_name():
    assert build_parser().prog == "repro-hetcomm"


def test_export_scheduler_flag(tmp_path):
    out_dir = tmp_path / "exported"
    assert main(
        ["export", "--scheduler", "matching_min:auction",
         "--output-dir", str(out_dir)]
    ) == 0
    assert (out_dir / "example_matching_min-auction.svg").exists()


def test_zoo_scheduler_subset(capsys):
    assert main(
        ["zoo", "--procs", "5", "--scheduler", "openshop",
         "--scheduler", "greedy"]
    ) == 0
    out = capsys.readouterr().out
    assert "openshop" in out and "greedy" in out
    assert "baseline_nosync" not in out


def test_unknown_scheduler_exits_with_known_list(capsys):
    with pytest.raises(SystemExit):
        main(["zoo", "--scheduler", "quantum"])
    err = capsys.readouterr().err
    assert "unknown scheduler" in err and "openshop" in err


def test_check_scheduler_subset(capsys):
    assert main(
        ["check", "--smoke", "--seeds", "2", "--p-max", "5",
         "--scheduler", "openshop", "--out-dir", ""]
    ) == 0
    out = capsys.readouterr().out
    assert "schedulers: openshop" in out


def test_bench_scheduler_timings(capsys):
    assert main(
        ["bench", "--smoke", "--no-reference", "--metrics-out", "",
         "--scheduler", "greedy"]
    ) == 0
    out = capsys.readouterr().out
    assert "end-to-end scheduler timings" in out
    assert "greedy" in out


def test_serve_smoke_covers_all_decisions(capsys, tmp_path):
    import json

    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.json"
    assert main(
        ["serve", "--smoke", "--metrics-out", str(metrics_path),
         "--trace-out", str(trace_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "per-tick serving log" in out
    dump = json.loads(metrics_path.read_text())
    summary = dump["summary"]
    # the CI acceptance bar: every decision kind exercised, the injected
    # timeout hit the fallback, and the headline rates are reported
    assert summary["decisions"]["reuse"] >= 1
    assert summary["decisions"]["refine"] >= 1
    assert summary["decisions"]["reschedule"] >= 1
    assert summary["fallback_activations"] >= 1
    assert 0.0 < summary["reschedule_rate"] < 1.0
    assert "cache_hit_rate" in summary
    assert "mean_regret_s" in summary
    assert dump["events"], "per-tick events must be present"
    assert json.loads(trace_path.read_text())["traceEvents"]


def test_serve_deterministic(capsys, tmp_path):
    import json

    dumps = []
    for k in range(2):
        path = tmp_path / f"m{k}.json"
        assert main(
            ["serve", "--smoke", "--metrics-out", str(path),
             "--trace-out", ""]
        ) == 0
        payload = json.loads(path.read_text())
        # wall-clock scheduler timings differ run to run; drop them
        for event in payload["events"]:
            event.pop("scheduler_elapsed")
        payload["histograms"].pop("scheduler_elapsed_s")
        dumps.append(payload["events"])
    capsys.readouterr()
    assert dumps[0] == dumps[1]

def test_serve_fault_profile_smoke(capsys, tmp_path):
    import json

    metrics_path = tmp_path / "fault_metrics.json"
    assert main(
        ["serve", "--smoke", "--fault-profile", "smoke",
         "--metrics-out", str(metrics_path), "--trace-out", ""]
    ) == 0
    out = capsys.readouterr().out
    assert "fault" in out and "faults=4" in out
    summary = json.loads(metrics_path.read_text())["summary"]
    # the CI faults-smoke acceptance bar: the blackout retried to
    # success, the dead link triggered a salvaging repair
    assert summary["faults_seen"] == 4
    assert summary["retry_successes"] >= 1
    assert summary["repair_episodes"] >= 1
    assert summary["messages_salvaged"] > 0
    assert summary["degraded_tick_ratio"] > 0


def test_serve_rejects_bad_fault_profile(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--ticks", "2", "--fault-profile",
              "meteor:src=0,dst=1"])
    assert "bad --fault-profile" in capsys.readouterr().err


def test_serve_directory_spec(capsys):
    assert main(
        ["serve", "--directory", "noisy:sigma=0.1", "--procs", "5",
         "--ticks", "3", "--metrics-out", ""]
    ) == 0
    assert "noisy:sigma=0.1" in capsys.readouterr().out


def test_check_faults_flag(capsys):
    assert main(
        ["check", "--seeds", "1", "--p-max", "4", "--faults",
         "--scheduler", "openshop", "--out-dir", ""]
    ) == 0
    out = capsys.readouterr().out
    assert "fault family" in out
    assert "all scenarios PASS" in out


def test_collective_command(capsys):
    assert main(["collective", "--procs", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "alltoall" in out and "barrier_dissemination" in out


def test_collective_subset_and_options(capsys):
    assert main(
        ["collective", "--collective", "broadcast_fnf",
         "--collective", "allreduce_ring", "--directory", "gusto"]
    ) == 0
    out = capsys.readouterr().out
    assert "broadcast_fnf" in out and "allreduce_ring" in out
    assert "scatter_direct" not in out


def test_collective_unknown_name(capsys):
    with pytest.raises(SystemExit):
        main(["collective", "--collective", "telepathy"])
    assert "known:" in capsys.readouterr().err


def test_daemon_smoke_short_run(capsys, tmp_path):
    # the acceptance run itself fails (FAIL: line, exit 1) on lost or
    # dropped requests, an empty phase, no resume check, or divergence
    assert main(
        ["daemon", "--smoke", "--duration", "2", "--tenants", "8",
         "--cohorts", "2", "--metrics-out", str(tmp_path / "daemon.json")]
    ) == 0
    assert "daemon smoke OK" in capsys.readouterr().out


def test_ops_soak_smoke_and_report(capsys, tmp_path):
    import json

    ops_dir = str(tmp_path / "ops")
    assert main(
        ["ops", "soak", "--smoke", "--ops-dir", ops_dir,
         "--tenants", "3", "--no-daemon-phase"]
    ) == 0
    out = capsys.readouterr().out
    assert "verdict: OK" in out
    assert "[FIRING]" in out and "[RESOLVED]" in out
    payload = json.loads((tmp_path / "ops" / "slo_report.json").read_text())
    assert payload["ok"] is True
    assert payload["oracle_violations"] == 0
    assert payload["alerts_fired"] >= 1
    assert payload["alerts_resolved"] >= 1

    assert main(["ops", "report", "--ops-dir", ops_dir, "--kind", "tick"]) == 0
    out = capsys.readouterr().out
    assert "last soak: ok=True" in out
    assert "records kind=tick" in out
    assert "alerts" in out


def test_ops_report_missing_dir(capsys, tmp_path):
    assert main(
        ["ops", "report", "--ops-dir", str(tmp_path / "nothing_here")]
    ) == 1
    assert "no ops directory" in capsys.readouterr().err


def test_ops_soak_rejects_bad_slo_spec(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(
            ["ops", "soak", "--smoke", "--ops-dir", str(tmp_path / "ops"),
             "--slo", "fallback_rate"]  # missing threshold
        )


def test_serve_ops_dir_collects_store_and_places_outputs(capsys, tmp_path):
    import json

    ops_dir = tmp_path / "ops"
    assert main(["serve", "--smoke", "--ops-dir", str(ops_dir)]) == 0
    out = capsys.readouterr().out
    assert "per-tick serving log" in out
    # bare default filenames land under the ops dir
    metrics = json.loads((ops_dir / "serve_metrics.json").read_text())
    assert metrics["summary"]["decisions"]
    # every tick event also streamed into the rotating store
    from repro.ops.store import MetricsStore

    store = MetricsStore(ops_dir / "store")
    ticks = store.query(kind="tick")
    assert len(ticks) == len(metrics["events"])
    store.close()
