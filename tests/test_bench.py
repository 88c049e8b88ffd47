"""Benchmark harness: records, CSV shape, CLI contract."""
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridmcts import bench
from gridmcts.bench import (
    CSV_FIELDS,
    RunRecord,
    SweepPoint,
    build_parser,
    main,
    run_full_accuracy,
    run_time_accuracy_sweep,
)
from gridmcts.grid import GridConfig, initial_state, success_rate
from gridmcts.scenarios import generate_instance
from gridmcts.values import UpdateRule

FAST = dict(instances=4, iterations=120, master_seed=11)


def _csv_rows(cls, rows):
    """rows as the bench's CSV writer writes them, read back as lists."""
    buf = io.StringIO()
    bench._write_csv(buf, cls, rows)
    return list(csv.reader(io.StringIO(buf.getvalue())))


def test_csv_fields_are_the_external_contract():
    assert CSV_FIELDS == (
        "instance",
        "n",
        "n_agents",
        "instance_index",
        "repeat",
        "episode_seed",
        "iterations",
        "t_final",
        "alpha",
        "update_rule",
        "exploration_c",
        "success_rate",
        "makespan",
        "total_time_s",
        "avg_agent_time_s",
        "max_agent_time_s",
        "oracle_solvable",
        "oracle_makespan",
    )
    # a record row must line up with the header
    rec = run_full_accuracy([(3, 1)], instances=1, iterations=20, master_seed=0)[0]
    header, row = _csv_rows(RunRecord, [rec])
    assert tuple(header) == CSV_FIELDS and len(row) == len(CSV_FIELDS)


def test_record_invariants():
    records = run_full_accuracy([(5, 2)], **FAST)
    assert len(records) == 4
    for r in records:
        assert 0.0 <= r.success_rate <= 1.0
        assert r.makespan <= r.t_final == 15
        assert 0.0 <= r.avg_agent_time_s <= r.max_agent_time_s <= r.total_time_s
        assert r.instance == f"MP52-{r.instance_index}"
        assert r.oracle_solvable in (True, False)
        assert (r.oracle_makespan is not None) == r.oracle_solvable
        if not r.oracle_solvable:
            assert r.success_rate < 1.0
        elif r.success_rate == 1.0:
            assert r.makespan >= r.oracle_makespan


def test_runs_are_reproducible():
    a = run_full_accuracy([(4, 2)], **FAST)
    b = run_full_accuracy([(4, 2)], **FAST)
    for x, y in zip(a, b):
        assert (x.success_rate, x.makespan, x.episode_seed) == (
            y.success_rate,
            y.makespan,
            y.episode_seed,
        )


def test_worker_count_does_not_change_results():
    a = run_full_accuracy([(4, 2)], **FAST, workers=1)
    b = run_full_accuracy([(4, 2)], **FAST, workers=2)
    for x, y in zip(a, b):
        assert (x.instance, x.success_rate, x.makespan,
                x.oracle_solvable, x.oracle_makespan) == (
            y.instance,
            y.success_rate,
            y.makespan,
            y.oracle_solvable,
            y.oracle_makespan,
        )


def test_oracle_columns_always_filled():
    # 8x8 with 4 agents is past the joint-state searches' reach
    records = run_full_accuracy(
        [(4, 2), (8, 4)], instances=3, iterations=150, master_seed=3
    )
    assert len(records) == 6
    for r in records:
        assert r.oracle_solvable is not None
        if r.oracle_solvable:
            assert r.oracle_makespan is not None
            if r.success_rate == 1.0:
                assert r.makespan >= r.oracle_makespan


def test_repeats_differ_only_in_episode_seed():
    records = run_full_accuracy(
        [(4, 2)], instances=1, repeats=3, iterations=80, master_seed=5
    )
    assert len(records) == 3
    assert len({r.episode_seed for r in records}) == 3
    assert len({r.instance for r in records}) == 1


def test_sweep_points_sorted_and_aggregated():
    pts = run_time_accuracy_sweep(
        4, 2, [12, 4, 8, 4], instances=2, repeats=2, iterations=100, master_seed=2
    )
    assert [p.t_final for p in pts] == [4, 8, 12]
    for p in pts:
        assert p.runs == 4
        assert 0.0 <= p.mean_success_rate <= 1.0
        assert 0.0 <= p.full_success_fraction <= 1.0
        assert p.mean_makespan <= p.t_final


def test_sweep_with_no_runs_has_no_points():
    # as run_full_accuracy with no runs returns no records
    assert run_time_accuracy_sweep(3, 1, [2], repeats=0, iterations=5) == []
    assert run_time_accuracy_sweep(3, 1, [2, 4], instances=0, iterations=5) == []
    assert run_full_accuracy([(3, 1)], instances=0, iterations=5) == []


def test_timing_fields_are_floats_when_no_plan_round_runs():
    # a zero horizon plans nothing; the timing columns still read as
    # floats, as in every other run
    rec = run_full_accuracy([(3, 1)], instances=1, iterations=5, t_final=0)[0]
    times = (rec.total_time_s, rec.avg_agent_time_s, rec.max_agent_time_s)
    assert all(type(x) is float and x == 0.0 for x in times)
    row = dict(zip(*_csv_rows(RunRecord, [rec])))
    assert [row[k] for k in ("total_time_s", "avg_agent_time_s", "max_agent_time_s")] == [
        "0.0", "0.0", "0.0"]


def test_sweep_point_is_the_accuracy_run_at_its_horizon():
    # the sweep plays, at each horizon, exactly the runs of an accuracy
    # run with that horizon, and aggregates them
    kw = dict(instances=2, repeats=2, iterations=60, master_seed=9)
    points = run_time_accuracy_sweep(4, 2, [4, 8], **kw)
    assert [p.t_final for p in points] == [4, 8]
    for p in points:
        rs = run_full_accuracy([(4, 2)], t_final=p.t_final, **kw)
        assert p == SweepPoint(
            t_final=p.t_final,
            runs=len(rs),
            mean_success_rate=sum(r.success_rate for r in rs) / len(rs),
            full_success_fraction=sum(r.success_rate == 1.0 for r in rs) / len(rs),
            mean_makespan=sum(r.makespan for r in rs) / len(rs),
        )


@pytest.mark.parametrize("play, horizon", [
    (lambda tf: run_time_accuracy_sweep(3, 1, [tf], iterations=5), 2.7),
    (lambda tf: run_full_accuracy([(3, 1)], instances=1, iterations=5, t_final=tf), 2.7),
    # a bool is an int to isinstance, and True would play horizon 1
    (lambda tf: run_time_accuracy_sweep(3, 1, [tf], iterations=5), True),
    (lambda tf: run_full_accuracy([(3, 1)], instances=1, iterations=5, t_final=tf), True),
], ids=["sweep", "accuracy", "sweep-bool", "accuracy-bool"])
def test_a_non_integer_horizon_fails_before_any_episode(play, horizon, monkeypatch):
    def no_run(task):
        raise AssertionError("an episode ran with a non-integer horizon")

    monkeypatch.setattr(bench, "_execute_task", no_run)
    with pytest.raises(TypeError, match=f"t_final must be an int, got {horizon}$"):
        play(horizon)


@pytest.mark.parametrize("knob", ["alpha", "exploration_c"])
def test_a_bool_knob_fails_before_its_row_is_written(knob):
    # a bool passes both range checks, and unchecked would reach the CSV as True
    with pytest.raises(TypeError, match=f"^{knob} must be a number, got True$"):
        run_full_accuracy([(3, 1)], instances=1, iterations=5, **{knob: True})


def test_sweep_worker_count_does_not_change_points():
    kw = dict(instances=2, repeats=2, iterations=60, master_seed=6)
    assert run_time_accuracy_sweep(4, 2, [8, 3, 5], **kw, workers=1) == (
        run_time_accuracy_sweep(4, 2, [8, 3, 5], **kw, workers=2))


@pytest.fixture
def fake_pool(monkeypatch):
    """Sizes of the pools built, through a stand-in pool that maps
    in-process, so no process starts whatever size is asked for."""
    built = []

    class FakePool:
        def __init__(self, processes):
            built.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=None):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(bench.multiprocessing, "Pool", FakePool)
    return built


def test_one_pool_of_at_most_one_process_per_run(monkeypatch, fake_pool):
    built = fake_pool
    monkeypatch.setattr(bench, "_usable_cpus", lambda: 64)
    assert len(run_full_accuracy([(3, 1)], instances=2, iterations=5, workers=64)) == 2
    assert built == [2]
    built.clear()
    pts = run_time_accuracy_sweep(3, 1, [2, 4, 6], instances=2, iterations=5, workers=2)
    assert [p.t_final for p in pts] == [2, 4, 6] and all(p.runs == 60 for p in pts)
    assert built == [2]
    built.clear()
    assert len(run_full_accuracy([(3, 1)], instances=1, iterations=5, workers=64)) == 1
    assert built == []


def test_pool_is_capped_at_the_usable_cpus(monkeypatch, fake_pool):
    built = fake_pool
    monkeypatch.setattr(bench, "_usable_cpus", lambda: 3)
    records = run_full_accuracy([(3, 1)], instances=5, iterations=5, workers=5000)
    assert [r.instance_index for r in records] == [0, 1, 2, 3, 4]
    assert built == [3]
    built.clear()
    # one usable CPU plays in-process, however many workers are asked for
    monkeypatch.setattr(bench, "_usable_cpus", lambda: 1)
    assert len(run_full_accuracy([(3, 1)], instances=5, iterations=5, workers=5000)) == 5
    assert built == []


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert bench._usable_cpus() == 3
    monkeypatch.delattr(bench.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 7)
    assert bench._usable_cpus() == 7
    monkeypatch.setattr(bench.os, "cpu_count", lambda: None)
    assert bench._usable_cpus() == 1


# --------------------------------------------------------------------- CLI


def test_parser_flags_exist():
    p = build_parser()
    args = p.parse_args(
        [
            "--grid-size", "5", "--agents", "2", "--instances", "3",
            "--seed", "9", "--iterations", "50", "--t-final", "10",
            "--alpha", "0.5", "--update", "max", "--exploration-c", "1.0",
            "--repeats", "2", "--out", "x.csv", "--workers", "2",
        ]
    )
    assert args.grid_size == 5 and args.agents == 2
    assert args.update == "max" and args.t_final == 10 and args.workers == 2
    sweep = p.parse_args(
        ["--grid-size", "5", "--agents", "2", "--sweep-t-final", "5:15:5"]
    )
    assert sweep.sweep_t_final == [5, 10, 15]


def test_parser_rejects_bad_inputs():
    p = build_parser()
    with pytest.raises(SystemExit):
        p.parse_args(["--agents", "2"])  # missing required size
    with pytest.raises(SystemExit):
        p.parse_args(["--grid-size", "5", "--agents", "2", "--alpha", "0.3"])
    with pytest.raises(SystemExit):
        p.parse_args(["--grid-size", "5", "--agents", "2", "--sweep-t-final", "5"])
    with pytest.raises(SystemExit):
        p.parse_args(["--grid-size", "5", "--agents", "2", "--sweep-t-final", "9:5:1"])
    with pytest.raises(SystemExit):
        p.parse_args(["--grid-size", "5", "--agents", "2", "--sweep-t-final=-2:1:1"])


def test_main_writes_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(
        [
            "--grid-size", "4", "--agents", "2", "--instances", "2",
            "--iterations", "60", "--seed", "4", "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == list(CSV_FIELDS)
    assert len(rows) == 3
    # the summary line of both modes: one per horizon, here the default 3N
    assert "4x4/2 t_final=12: runs=2 mean_sr=" in capsys.readouterr().err


def test_main_rejects_unwritable_out_before_running(tmp_path, monkeypatch, capsys):
    # a bad path must fail at once, not after every episode has run
    def no_run(task):
        raise AssertionError("an episode ran before --out was opened")

    monkeypatch.setattr(bench, "_execute_task", no_run)
    bad = str(tmp_path / "missing" / "x.csv")
    for extra in ([], ["--sweep-t-final", "3:6:3"]):
        with pytest.raises(SystemExit) as exc:
            main(["--grid-size", "8", "--agents", "4", "--instances", "2",
                  "--out", bad] + extra)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --out" in err


def test_main_stdout_csv(capsys):
    code = main(
        ["--grid-size", "3", "--agents", "1", "--instances", "1",
         "--iterations", "30", "--seed", "1"]
    )
    assert code == 0
    got = capsys.readouterr()
    header = got.out.splitlines()[0]
    assert header == ",".join(CSV_FIELDS)


def test_main_zero_horizon_reports_starting_success(capsys):
    # with no time to act, success is whatever the layout hands out
    code = main(
        ["--grid-size", "3", "--agents", "2", "--instances", "6",
         "--iterations", "10", "--t-final", "0", "--seed", "8"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    idx = dict(zip(rows[0], range(len(rows[0]))))
    for row in rows[1:]:
        k = int(row[idx["instance_index"]])
        inst = generate_instance(3, 2, k, 8)
        s0 = initial_state(GridConfig(3, 2), inst.starts, inst.goals)
        assert float(row[idx["success_rate"]]) == success_rate(s0)
        assert int(row[idx["makespan"]]) == 0


def test_main_exit_codes(capsys):
    assert main(["--grid-size", "1", "--agents", "1"]) == 2
    assert main(["--grid-size", "2", "--agents", "99"]) == 2
    capsys.readouterr()


def test_main_rejects_nan_exploration_constant(capsys):
    # rejected while parsing, by SearchBudget's own rule: exit code 2, no run
    for value in ("nan", "-1", "inf"):
        with pytest.raises(SystemExit) as exc:
            main(["--grid-size", "4", "--agents", "2", "--instances", "1",
                  "--iterations", "20", "--exploration-c", value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --exploration-c: exploration_c must be finite" in err


def test_module_entry_point_imports_once():
    # `python -m gridmcts.bench` warns if importing the package already
    # loaded gridmcts.bench; -W error turns that warning into a failure
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "gridmcts.bench",
         "--grid-size", "4", "--agents", "2", "--instances", "1", "--iterations", "20"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_main_sweep_mode(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        ["--grid-size", "3", "--agents", "1", "--instances", "2",
         "--repeats", "2", "--iterations", "40", "--seed", "2",
         "--sweep-t-final", "3:9:3", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["t_final", "runs", "mean_success_rate",
                       "full_success_fraction", "mean_makespan"]
    assert [r[0] for r in rows[1:]] == ["3", "6", "9"]
    assert "3x3/1 t_final=9: runs=4 mean_sr=" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--instances", "--repeats", "--iterations", "--workers"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_main_rejects_non_positive_counts(flag, value, capsys):
    # rejected while parsing: exit code 2, no CSV header, no run
    with pytest.raises(SystemExit) as exc:
        main(["--grid-size", "4", "--agents", "2", flag, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: must be at least 1, got {value}" in err
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--grid-size", "4", "--agents", "2", flag, "two"])
    capsys.readouterr()


def test_main_rejects_fixed_horizon_in_sweep_mode(capsys):
    # the sweep takes its horizons from its range; --t-final must not be
    # dropped silently
    with pytest.raises(SystemExit) as exc:
        main(["--grid-size", "3", "--agents", "1", "--instances", "1",
              "--iterations", "5", "--sweep-t-final", "1:2:1", "--t-final", "7"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--t-final" in err and "--sweep-t-final" in err


def test_main_fixed_horizon_fills_the_oracle_columns(capsys):
    code = main(["--grid-size", "4", "--agents", "2", "--instances", "1",
                 "--iterations", "20", "--t-final", "9"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    idx = dict(zip(rows[0], range(len(rows[0]))))
    assert len(rows) == 2
    assert int(rows[1][idx["t_final"]]) == 9
    assert rows[1][idx["oracle_solvable"]] == "True"
    assert int(rows[1][idx["oracle_makespan"]]) <= int(rows[1][idx["makespan"]])


def test_main_rejects_negative_horizon(capsys):
    # rejected while parsing like the count flags; 0 stays a valid horizon
    with pytest.raises(SystemExit) as exc:
        main(["--grid-size", "4", "--agents", "2", "--t-final", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --t-final: must be at least 0, got -1" in err
    assert build_parser().parse_args(
        ["--grid-size", "4", "--agents", "2", "--t-final", "0"]).t_final == 0
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--grid-size", "4", "--agents", "2", "--t-final", "two"])
    capsys.readouterr()
