"""The perf-regression gate: snapshot schema, tolerances, comparison."""

from __future__ import annotations

import json

import pytest

from repro.bench import gate
from repro.errors import ValidationError


def _op_record(mean=0.01, bytes_=1000.0, crossings=2.0):
    return {
        "mean": mean, "p50": mean, "p95": mean * 1.2,
        "bytes": bytes_, "crossings": crossings,
        "samples": [mean] * 3,
    }


def _snapshot(**ops):
    return gate.make_snapshot(ops, rev="test", scale=1.0, repeats=3)


STRICT = {"tolerance_time": 0.5, "tolerance_deterministic": 0.0}


class TestCompare:
    def test_identical_runs_pass(self):
        snap = _snapshot(op=_op_record())
        assert gate.compare(snap, snap, STRICT) == []

    def test_injected_time_slowdown_fails(self):
        baseline = _snapshot(op=_op_record(mean=0.01))
        slowed = _snapshot(op=_op_record(mean=0.0151))  # +51% > 50% tol
        problems = gate.compare(baseline, slowed, STRICT)
        assert len(problems) == 1
        assert "mean time regressed" in problems[0]

    def test_slowdown_within_tolerance_passes(self):
        baseline = _snapshot(op=_op_record(mean=0.01))
        slower = _snapshot(op=_op_record(mean=0.0149))  # +49% < 50% tol
        assert gate.compare(baseline, slower, STRICT) == []

    def test_single_extra_crossing_fails(self):
        baseline = _snapshot(op=_op_record(crossings=2.0))
        regressed = _snapshot(op=_op_record(crossings=3.0))
        problems = gate.compare(baseline, regressed, STRICT)
        assert any("crossings regressed" in p for p in problems)

    def test_byte_growth_fails_at_zero_tolerance(self):
        baseline = _snapshot(op=_op_record(bytes_=1000.0))
        regressed = _snapshot(op=_op_record(bytes_=1001.0))
        problems = gate.compare(baseline, regressed, STRICT)
        assert any("bytes regressed" in p for p in problems)

    def test_deterministic_tolerance_allows_growth(self):
        baseline = _snapshot(op=_op_record(bytes_=1000.0))
        grown = _snapshot(op=_op_record(bytes_=1050.0))
        loose = dict(STRICT, tolerance_deterministic=0.10)
        assert gate.compare(baseline, grown, loose) == []

    def test_improvements_always_pass(self):
        baseline = _snapshot(op=_op_record(mean=0.01, bytes_=1000.0))
        improved = _snapshot(op=_op_record(mean=0.001, bytes_=100.0))
        assert gate.compare(baseline, improved, STRICT) == []

    def test_missing_op_is_a_regression(self):
        baseline = _snapshot(op=_op_record())
        problems = gate.compare(baseline, _snapshot(), STRICT)
        assert problems == ["op: missing from current run"]

    def test_new_op_is_allowed(self):
        baseline = _snapshot(op=_op_record())
        extended = _snapshot(op=_op_record(), shiny=_op_record())
        assert gate.compare(baseline, extended, STRICT) == []


class TestSnapshotFiles:
    def test_round_trip(self, tmp_path):
        snap = _snapshot(op=_op_record())
        path = tmp_path / "BENCH_test.json"
        gate.write_snapshot(snap, path)
        assert gate.load_snapshot(path) == snap

    def test_schema_version_enforced(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema": 99, "ops": {}}), "utf-8")
        with pytest.raises(ValidationError, match="schema"):
            gate.load_snapshot(path)

    def test_committed_baseline_is_loadable(self):
        """The repo ships BENCH_baseline.json; the gate must accept it."""
        from pathlib import Path

        baseline = Path(gate.__file__).resolve().parents[3] \
            / "BENCH_baseline.json"
        snap = gate.load_snapshot(baseline)
        assert set(snap["ops"]) == set(gate.OPS)
        for record in snap["ops"].values():
            assert {"mean", "p50", "p95", "bytes", "crossings",
                    "samples"} <= set(record)


class TestTolerances:
    def test_defaults_from_pyproject(self):
        tolerances = gate.load_tolerances()
        assert tolerances["tolerance_time"] == 0.5
        assert tolerances["tolerance_deterministic"] == 0.0

    def test_custom_pyproject(self, tmp_path):
        path = tmp_path / "pyproject.toml"
        path.write_text(
            "[tool.other]\nx = 1\n"
            "[tool.repro.bench]\n"
            "tolerance_time = 0.25\n"
            "tolerance_deterministic = 0.05\n",
            "utf-8",
        )
        tolerances = gate.load_tolerances(path)
        assert tolerances == {"tolerance_time": 0.25,
                              "tolerance_deterministic": 0.05}

    def test_missing_file_uses_defaults(self, tmp_path):
        tolerances = gate.load_tolerances(tmp_path / "nope.toml")
        assert tolerances == gate.DEFAULT_TOLERANCES

    def test_fallback_parser_matches_tomllib(self):
        text = (
            "[project]\nname = \"x\"\n"
            "[tool.repro.bench]\n"
            "# a comment\n"
            "tolerance_time = 1.5\n"
            "tolerance_deterministic = 0\n"
            "[tool.ruff]\nline-length = 100\n"
        )
        parsed = gate._parse_toml_floats(text, "tool.repro.bench")
        assert parsed == {"tolerance_time": 1.5,
                          "tolerance_deterministic": 0.0}


class TestMain:
    @pytest.fixture
    def fast_ops(self, monkeypatch):
        """Swap the real benchmark ops for instant fakes."""
        monkeypatch.setattr(
            gate, "OPS", {"fake.op": lambda scale: (0.001, 64.0, 1.0)}
        )

    def test_record_only(self, fast_ops, tmp_path, capsys):
        out = tmp_path / "BENCH_now.json"
        assert gate.main(["--out", str(out), "--rev", "now",
                          "--repeats", "2"]) == 0
        snap = gate.load_snapshot(out)
        assert snap["rev"] == "now"
        assert snap["ops"]["fake.op"]["crossings"] == 1.0
        assert len(snap["ops"]["fake.op"]["samples"]) == 2

    def test_gate_passes_against_equal_baseline(self, fast_ops, tmp_path):
        baseline = tmp_path / "BENCH_base.json"
        out = tmp_path / "BENCH_head.json"
        assert gate.main(["--out", str(baseline)]) == 0
        assert gate.main(["--out", str(out),
                          "--baseline", str(baseline)]) == 0

    def test_gate_fails_on_injected_slowdown(self, fast_ops, tmp_path,
                                             capsys):
        """Acceptance: the gate exits non-zero when the current run is
        slower than the committed baseline beyond tolerance."""
        baseline_path = tmp_path / "BENCH_base.json"
        assert gate.main(["--out", str(baseline_path)]) == 0
        # Inject the slowdown into the baseline (10x faster than any
        # machine can run the fake op) so the comparison must fail.
        baseline = gate.load_snapshot(baseline_path)
        for record in baseline["ops"].values():
            record["mean"] /= 10.0
        gate.write_snapshot(baseline, baseline_path)
        out = tmp_path / "BENCH_head.json"
        code = gate.main(["--out", str(out),
                          "--baseline", str(baseline_path)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_gate_fails_on_extra_crossing(self, tmp_path, monkeypatch):
        baseline_path = tmp_path / "BENCH_base.json"
        monkeypatch.setattr(
            gate, "OPS", {"fake.op": lambda scale: (0.001, 64.0, 1.0)}
        )
        assert gate.main(["--out", str(baseline_path)]) == 0
        monkeypatch.setattr(
            gate, "OPS", {"fake.op": lambda scale: (0.001, 64.0, 2.0)}
        )
        code = gate.main(["--out", str(tmp_path / "BENCH_head.json"),
                          "--baseline", str(baseline_path)])
        assert code == 1

    def test_scale_ops_gate_on_injected_slowdown(self, tmp_path,
                                                 monkeypatch, capsys):
        """Acceptance: the ``scale.*`` op family is gated like the
        others — a slowdown in the real scale-suite ops beyond
        tolerance exits non-zero."""
        real_churn = gate.OPS["scale.churn"]
        real_sync = gate.OPS["scale.sync"]
        monkeypatch.setattr(gate, "OPS", {
            "scale.churn": lambda s: real_churn(0.1),
            "scale.sync": lambda s: real_sync(0.1),
        })
        baseline_path = tmp_path / "BENCH_base.json"
        assert gate.main(["--out", str(baseline_path),
                          "--repeats", "1"]) == 0
        baseline = gate.load_snapshot(baseline_path)
        for record in baseline["ops"].values():
            record["mean"] /= 10.0      # head run is now a >50% slowdown
        gate.write_snapshot(baseline, baseline_path)
        code = gate.main(["--out", str(tmp_path / "BENCH_head.json"),
                          "--baseline", str(baseline_path),
                          "--repeats", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "scale.churn" in err and "REGRESSION" in err

    def test_tolerance_time_override(self, tmp_path, monkeypatch):
        baseline_path = tmp_path / "BENCH_base.json"
        monkeypatch.setattr(
            gate, "OPS", {"fake.op": lambda scale: (0.001, 64.0, 1.0)}
        )
        assert gate.main(["--out", str(baseline_path)]) == 0
        baseline = gate.load_snapshot(baseline_path)
        for record in baseline["ops"].values():
            record["mean"] /= 10.0
        gate.write_snapshot(baseline, baseline_path)
        # A huge explicit tolerance lets the same slowdown through.
        assert gate.main(["--out", str(tmp_path / "BENCH_head.json"),
                          "--baseline", str(baseline_path),
                          "--tolerance-time", "100"]) == 0


class TestRealOps:
    def test_one_real_run_records_deterministic_dims(self):
        """A tiny real run: every op yields time + the deterministic
        dimensions, and a second run reproduces bytes/crossings exactly
        (the property the zero-tolerance gate depends on)."""
        first = gate.run_ops(scale=0.25, repeats=1)
        second = gate.run_ops(scale=0.25, repeats=1)
        assert set(first) == set(gate.OPS)
        for name, record in first.items():
            assert record["mean"] > 0
            assert record["bytes"] == second[name]["bytes"], name
            assert record["crossings"] == second[name]["crossings"], name
