"""The direct-timing harness ``tools/time_runs.py``: every mode on this
checkout, and its round order and failure handling on made-up runs."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import time_runs  # noqa: E402


@pytest.mark.parametrize("mode", [
    ["ind", "fibonacci", "--object", "t", "--n", "1"],
    ["fs", "fibonacci", "--object", "t", "--n", "2"],
    pytest.param(["fs", "fibonacci", "--object", "t", "--n", "3", "--sweep"],
                 id="fs-sweep"),
    ["gauge", "fibonacci", "--trials", "2"],
    ["validate"],
    ["import"],
], ids=lambda argv: argv[0])
def test_each_mode_runs_on_this_checkout(mode, capsys):
    assert time_runs.main([*mode, ROOT, "--runs", "1"]) == 0
    out = capsys.readouterr().out
    assert "exited non-zero; over the 1 that exited 0" in out
    assert "1 exited non-zero" not in out
    assert "identical across the runs that exited 0: no" not in out
    assert "identical across the runs that exited 0: yes" in out


def fake_runs(monkeypatch, results):
    """Replace ``run_once`` by one that returns ``results`` in turn and
    records the checkout of each call."""
    calls, results = [], iter(results)

    def run_once(checkout, argv):
        calls.append(checkout)
        return next(results)
    monkeypatch.setattr(time_runs, "run_once", run_once)
    return calls


def test_odd_rounds_start_with_the_second_checkout(monkeypatch, capsys):
    calls = fake_runs(monkeypatch, [(0.1, 10.0, 0, b"0.05\nFalse\n")] * 6)
    assert time_runs.main(["import", "A", "B", "--runs", "3"]) == 0
    assert calls == ["A", "B", "B", "A", "A", "B"]
    assert "mpmath loaded after validate: False" in capsys.readouterr().out


@pytest.mark.parametrize("runs", ["0", "-1"])
def test_no_runs_is_refused_before_any_run(runs, monkeypatch):
    calls = fake_runs(monkeypatch, [])
    with pytest.raises(SystemExit) as exc:
        time_runs.main(["fs", "fibonacci", "--object", "t", "--n", "3", "A",
                        "--runs", runs])
    assert exc.value.code == 2 and calls == []


@pytest.mark.parametrize("argv", [
    ["--n", "0", "--sweep"], ["--n", "-1"], ["--n", "3", "--l", "-1"],
    ["--n", "3", "--r", "-1"], ["--n", "3", "--l", "5"],
    ["--n", "3", "--l", "2", "--r", "1"],
], ids=" ".join)
def test_an_fs_request_out_of_range_is_refused_before_any_run(argv,
                                                              monkeypatch):
    # an empty sweep would time nothing, and l + r + 1 > n would fail in
    # every child: both exit 2, as --runs 0 does
    calls = fake_runs(monkeypatch, [])
    with pytest.raises(SystemExit) as exc:
        time_runs.main(["fs", "fibonacci", "--object", "t", *argv, "A"])
    assert exc.value.code == 2 and calls == []


def test_the_largest_fs_request_is_run(monkeypatch):
    calls = fake_runs(monkeypatch, [(1.0, 10.0, 0, b"0.5\n[1]")])
    assert time_runs.main(["fs", "fibonacci", "--object", "t", "--n", "3",
                           "--l", "2", "--r", "0", "A", "--runs", "1"]) == 0
    assert calls == ["A"]


def test_a_failed_run_is_not_timed(monkeypatch, capsys):
    fake_runs(monkeypatch, [(1.0, 10.0, 0, b"0.5\n[1]"),
                            (9.0, 99.0, 1, b""),
                            (2.0, 20.0, 0, b"0.7\n[1]")])
    argv = ["fs", "fibonacci", "--object", "t", "--n", "3", "A", "--runs", "3"]
    assert time_runs.main(argv) == 1
    out = capsys.readouterr().out
    assert ("A: 3 runs, 1 exited non-zero; over the 2 that exited 0: "
            "fs_scalar min 0.5 / median 0.6 / max 0.7 s, process min 1 / "
            "median 1.5 / max 2 s, peak RSS 20.0 MB") in out
    assert "output identical across the runs that exited 0: yes" in out


def test_only_failed_runs_give_no_timing_and_no_identity(monkeypatch, capsys):
    fake_runs(monkeypatch, [(1.0, 10.0, 1, b"")] * 2)
    argv = ["fs", "fibonacci", "--object", "t", "--n", "3", "A", "B"]
    assert time_runs.main([*argv, "--runs", "1"]) == 1
    out = capsys.readouterr().out
    assert "nan" not in out and "min" not in out
    assert "A: 1 runs, 1 exited non-zero\n" in out
    assert "output identical across the runs that exited 0: no" in out
