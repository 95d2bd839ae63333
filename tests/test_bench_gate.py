"""The gate runner every ``benchmarks/bench_<name>.py`` script hands its
``run`` to (``bench_helpers.gate``), driven with a fake ``run`` so no
benchmark executes."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import bench_helpers  # noqa: E402

REPORT = {
    "benchmark": "fake",
    "mode": "full",
    "fast": {"qps": 100.0, "speedup": 4.0, "answer_checksum": 7},
    "floors": {"fast": 2.0},
}


def report(**fast) -> dict:
    out = copy.deepcopy(REPORT)
    out["fast"].update(fast)
    return out


class FakeRun:
    """Stands in for a script's ``run(smoke)``: returns a fixed result
    and records how it was called."""

    def __init__(self, result=None, failures=()):
        self.result = REPORT if result is None else result
        self.failures = list(failures)
        self.calls: list[tuple] = []

    def __call__(self, *args):
        self.calls.append(args)
        return self.result, list(self.failures)


@pytest.fixture
def root(tmp_path, monkeypatch):
    """The directory the default ``BENCH_<name>.json`` lands in."""
    monkeypatch.setattr(bench_helpers, "ROOT", tmp_path)
    return tmp_path


def gate(monkeypatch, argv, run, **kwargs):
    monkeypatch.setattr(sys, "argv", ["bench_fake.py", *map(str, argv)])
    bench_helpers.gate("fake", run, **kwargs)


def write_baseline(path: Path, baseline: dict) -> bytes:
    data = json.dumps(baseline, indent=2).encode()
    path.write_bytes(data)
    return data


class TestPassingRun:
    def test_writes_out_and_returns(self, root, monkeypatch, capsys):
        out = root / "fresh.json"
        run = FakeRun()
        gate(monkeypatch, [out], run)
        assert run.calls == [(False,)]
        assert out.read_text() == json.dumps(
            REPORT, indent=2, ensure_ascii=False) + "\n"
        assert f"wrote {out}" in capsys.readouterr().out

    def test_default_out_is_the_committed_report(self, root, monkeypatch):
        gate(monkeypatch, [], FakeRun())
        assert json.loads((root / "BENCH_fake.json").read_text()) == REPORT

    def test_smoke_reaches_run(self, root, monkeypatch):
        run = FakeRun()
        gate(monkeypatch, [root / "fresh.json", "--smoke"], run)
        assert run.calls == [(True,)]

    def test_compare_against_an_equal_baseline(self, root, monkeypatch,
                                               capsys):
        base = root / "base.json"
        write_baseline(base, REPORT)
        gate(monkeypatch, [root / "fresh.json", "--compare", base],
             FakeRun())
        assert "compare: fast.speedup" in capsys.readouterr().out


class TestUsageErrors:
    @pytest.mark.parametrize("flag", ["--compre", "--comp", "--fast"])
    def test_unknown_flag_runs_and_writes_nothing(self, root, monkeypatch,
                                                  flag):
        base = root / "base.json"
        write_baseline(base, REPORT)
        out = root / "fresh.json"
        run = FakeRun()
        with pytest.raises(SystemExit) as excinfo:
            gate(monkeypatch, [out, flag, base], run)
        assert excinfo.value.code == 2
        assert run.calls == []
        assert sorted(p.name for p in root.iterdir()) == ["base.json"]

    def test_gate_without_smoke_refuses_it(self, root, monkeypatch):
        run = FakeRun()
        with pytest.raises(SystemExit) as excinfo:
            gate(monkeypatch, ["--smoke"], run, has_smoke=False)
        assert excinfo.value.code == 2
        assert run.calls == []
        assert list(root.iterdir()) == []

    def test_gate_without_smoke_calls_run_bare(self, root, monkeypatch):
        run = FakeRun()
        gate(monkeypatch, [], run, has_smoke=False)
        assert run.calls == [()]


class TestOutIsTheBaseline:
    def refused(self, monkeypatch, argv, base: Path, data: bytes):
        run = FakeRun(report(speedup=99.0))
        with pytest.raises(SystemExit) as excinfo:
            gate(monkeypatch, argv, run)
        assert excinfo.value.code == 2
        assert run.calls == []
        assert base.read_bytes() == data

    def test_explicit_out(self, root, monkeypatch):
        base = root / "base.json"
        data = write_baseline(base, REPORT)
        self.refused(monkeypatch, [base, "--compare", base], base, data)

    def test_explicit_out_through_another_spelling(self, root, monkeypatch):
        base = root / "base.json"
        data = write_baseline(base, REPORT)
        (root / "sub").mkdir()
        self.refused(monkeypatch,
                     [root / "sub" / ".." / "base.json", "--compare", base],
                     base, data)

    def test_default_out(self, root, monkeypatch):
        base = root / "BENCH_fake.json"
        data = write_baseline(base, REPORT)
        monkeypatch.chdir(root)
        self.refused(monkeypatch, ["--compare", "BENCH_fake.json"], base,
                     data)


class TestFailures:
    def failed(self, monkeypatch, capsys, argv, run) -> str:
        with pytest.raises(SystemExit) as excinfo:
            gate(monkeypatch, argv, run)
        assert excinfo.value.code == 1
        return capsys.readouterr().err

    def test_floor_miss(self, root, monkeypatch, capsys):
        out = root / "fresh.json"
        err = self.failed(monkeypatch, capsys, [out],
                          FakeRun(report(speedup=1.5)))
        assert "FAIL: fast speedup 1.5 < floor 2.0" in err
        assert json.loads(out.read_text())["fast"]["speedup"] == 1.5

    def test_scripts_own_failures(self, root, monkeypatch, capsys):
        err = self.failed(monkeypatch, capsys, [root / "fresh.json"],
                          FakeRun(failures=["answers diverged"]))
        assert "FAIL: answers diverged" in err

    def test_ratio_below_tolerance(self, root, monkeypatch, capsys):
        base = root / "base.json"
        write_baseline(base, report(speedup=6.0))
        err = self.failed(monkeypatch, capsys,
                          [root / "fresh.json", "--compare", base],
                          FakeRun())
        assert "FAIL: fast.speedup regressed: x4.00 < x4.80" in err

    def test_ratio_within_tolerance_passes(self, root, monkeypatch):
        base = root / "base.json"
        write_baseline(base, report(speedup=6.0))
        gate(monkeypatch, [root / "fresh.json", "--compare", base,
                           "--tolerance", "0.4"], FakeRun())

    def test_checksum_drift(self, root, monkeypatch, capsys):
        base = root / "base.json"
        write_baseline(base, report(answer_checksum=8))
        err = self.failed(monkeypatch, capsys,
                          [root / "fresh.json", "--compare", base],
                          FakeRun())
        assert "FAIL: fast.answer_checksum diverged from baseline" in err

    def test_mode_mismatch(self, root, monkeypatch, capsys):
        base = root / "base.json"
        baseline = report()
        baseline["mode"] = "smoke"
        write_baseline(base, baseline)
        err = self.failed(monkeypatch, capsys,
                          [root / "fresh.json", "--compare", base],
                          FakeRun())
        assert ("FAIL: --compare mode mismatch: baseline is 'smoke', "
                "this run is 'full'") in err
