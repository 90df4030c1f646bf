"""End-to-end CLI: pool lifecycle, routes, replay, emission, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from polarpool.cli import main
from polarpool.fixed import FixedDecimal, WAD
from polarpool.invariant import ON_CURVE_TOLERANCE
from polarpool.poolfile import dumps, load

F = FixedDecimal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def init_pool(capsys, path, *extra):
    code, out, err = run(capsys, "init", "--pool", str(path), *extra)
    assert code == 0, err
    return json.loads(out)


class TestInit:
    def test_default_two_token_pool(self, tmp_path, capsys):
        summary = init_pool(capsys, tmp_path / "p.json")
        assert summary["liquidity_scale"] == "1"
        assert abs(F(summary["residual"]).raw) <= 10
        pool = load(tmp_path / "p.json")
        assert pool.state.reserves == (F(1), F(1))

    def test_six_token_pool_on_curve(self, tmp_path, capsys):
        summary = init_pool(capsys, tmp_path / "p.json", "--n", "6")
        assert abs(F(summary["residual"]).raw) <= 100

    def test_eta_domain_rejected(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "init", "--pool", str(tmp_path / "p.json"),
            "--mode", "csemm", "--alphas", "0.5,2",
        )
        assert code == 2
        assert "eta" in err or "alpha" in err

    def test_csemm_and_shifted_pools(self, tmp_path, capsys):
        summary = init_pool(
            capsys, tmp_path / "c.json", "--mode", "csemm", "--alphas=-1,-1",
            "--reserves", "2,2",
        )
        assert abs(F(summary["residual"]).raw) <= 100
        summary = init_pool(
            capsys, tmp_path / "s.json", "--mode", "shifted", "--beta", "1.5",
            "--c", "0.647643292213304161",
        )
        assert abs(F(summary["residual"]).raw) <= 100

    def test_shifted_pool_off_grid_bound(self, tmp_path, capsys):
        # x / (x / l rounded to nearest) overshoots l by a quantum here
        summary = init_pool(
            capsys, tmp_path / "s.json", "--mode", "shifted", "--beta", "1.5",
            "--c", "1.2", "--reserves", "0.907269,1.084361",
        )
        assert abs(F(summary["residual"])) <= ON_CURVE_TOLERANCE


class TestQuoteSwap:
    def test_zero_quote(self, tmp_path, capsys):
        init_pool(capsys, tmp_path / "p.json")
        pool = json.loads((tmp_path / "p.json").read_text())
        for route in ("cartesian", "polar", "ticks"):
            code, out, _ = run(
                capsys, "quote", "--pool", str(tmp_path / "p.json"),
                "--token-in", "0", "--token-out", "1", "--amount", "0", "--route", route,
            )
            assert code == 0, route
            quote = json.loads(out)
            assert quote["amount_out"] == "0"
            assert quote["price_before"] == quote["price_after"]
            assert quote["new_reserves"] == pool["reserves"]
        assert quote["segments"] == 0
        assert quote["final_angle_deg"] == pool["angle_deg"]

    def test_routes_agree(self, tmp_path, capsys):
        init_pool(capsys, tmp_path / "p.json")
        code, out, _ = run(
            capsys, "quote", "--pool", str(tmp_path / "p.json"),
            "--token-in", "0", "--token-out", "1", "--amount", "0.5",
            "--route", "polar",
        )
        assert code == 0
        quote = json.loads(out)
        assert F(quote["route_diff_vs_cartesian"]).raw <= 10 ** 9

    def test_swap_and_reverse_restores_reserves(self, tmp_path, capsys):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        code, out, _ = run(
            capsys, "swap", "--pool", str(pool_path),
            "--token-in", "0", "--token-out", "1", "--amount", "0.5",
        )
        assert code == 0
        received = json.loads(out)["amount_out"]
        code, out, _ = run(
            capsys, "swap", "--pool", str(pool_path),
            "--token-in", "1", "--token-out", "0", "--amount", received,
        )
        assert code == 0
        pool = load(pool_path)
        for r in pool.state.reserves:
            assert abs(r.raw - WAD) <= 10 ** 9

    def test_exact_out(self, tmp_path, capsys):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        code, out, _ = run(
            capsys, "quote", "--pool", str(pool_path),
            "--token-in", "0", "--token-out", "1", "--amount", "0.25",
            "--exact-out",
        )
        assert code == 0
        quote = json.loads(out)
        assert quote["amount_out"] == "0.25"
        assert quote["token_in"] == 0

    def test_shifted_pool_trades(self, tmp_path, capsys):
        pool_path = tmp_path / "s.json"
        init_pool(capsys, pool_path, "--mode", "shifted", "--beta", "1.5",
                  "--c", "0.647643292213304161")
        code, out, err = run(
            capsys, "quote", "--pool", str(pool_path),
            "--token-in", "0", "--token-out", "1", "--amount", "0.1",
        )
        assert code == 0, err
        assert F(json.loads(out)["amount_out"]) > F(0)
        code, out, err = run(
            capsys, "swap", "--pool", str(pool_path),
            "--token-in", "1", "--token-out", "0", "--amount", "0.1",
            "--exact-out",
        )
        assert code == 0, err
        quote = json.loads(out)
        assert quote["amount_out"] == "0.1"
        assert quote["token_in"] == 1

    def test_three_token_csemm_pool_trades(self, tmp_path, capsys):
        pool_path = tmp_path / "c3.json"
        init_pool(capsys, pool_path, "--mode", "csemm", "--n", "3", "--alphas", "4,6,10")
        for i, j in [(0, 1), (1, 2), (2, 0)]:
            code, out, err = run(
                capsys, "quote", "--pool", str(pool_path),
                "--token-in", str(i), "--token-out", str(j), "--amount", "0.1",
            )
            assert code == 0, err
            assert F(json.loads(out)["amount_out"]) > F(0)

    @pytest.mark.parametrize("mode", [[], ["--mode", "csemm", "--alphas", "4,4,4"]],
                             ids=["ccmm", "csemm"])
    def test_three_token_exact_out(self, tmp_path, capsys, mode):
        pool_path = tmp_path / "p3.json"
        init_pool(capsys, pool_path, "--n", "3", *mode)
        code, out, err = run(
            capsys, "swap", "--pool", str(pool_path),
            "--token-in", "2", "--token-out", "0", "--amount", "0.25", "--exact-out",
        )
        assert code == 0, err
        quote = json.loads(out)
        assert (quote["token_in"], quote["token_out"]) == (2, 0)
        assert quote["amount_out"] == "0.25"
        assert load(pool_path).state.reserves[1] == F(1)

    def test_infeasible_exit_code(self, tmp_path, capsys):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        code, _, err = run(
            capsys, "swap", "--pool", str(pool_path),
            "--token-in", "0", "--token-out", "1", "--amount", "50",
        )
        assert code == 3
        assert "insufficient" in err.lower() or "infeasible" in err.lower()

    def test_ticks_route_with_trace(self, tmp_path, capsys):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        trace = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys, "swap", "--pool", str(pool_path),
            "--token-in", "0", "--token-out", "1", "--amount", "0.5",
            "--route", "ticks", "--trace-csv", str(trace),
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "segment_index,angle_from,angle_to,liquidity,delta_in,delta_out"
        assert len(lines) == 2


class TestReplay:
    def test_empty_log(self, tmp_path, capsys):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        log = tmp_path / "log.csv"
        log.write_text("seq,token_in,token_out,amount_in\n")
        code, out, _ = run(capsys, "replay", "--pool", str(pool_path),
                           "--log", str(log))
        assert code == 0
        summary = json.loads(out)
        assert summary["trades"] == 0
        assert summary["final_reserves"] == ["1", "1"]

    def test_trade_and_reverse(self, tmp_path, capsys):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        # compute the forward output first, then replay both legs
        code, out, _ = run(
            capsys, "quote", "--pool", str(pool_path),
            "--token-in", "0", "--token-out", "1", "--amount", "0.5",
            "--route", "ticks",
        )
        received = json.loads(out)["amount_out"]
        log = tmp_path / "log.csv"
        log.write_text(
            "seq,token_in,token_out,amount_in\n"
            f"1,0,1,0.5\n2,1,0,{received}\n"
        )
        code, out, _ = run(capsys, "replay", "--pool", str(pool_path),
                           "--log", str(log))
        assert code == 0
        summary = json.loads(out)
        for r in summary["final_reserves"]:
            assert abs(F(r).raw - WAD) <= 10 ** 9

    def test_generated_trades_conserve_invariant(self, tmp_path, capsys):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path, "--n", "3")
        log = tmp_path / "log.csv"
        code, out, _ = run(
            capsys, "gen-trades", "--pool", str(pool_path),
            "--count", "100", "--seed", "7", "--out", str(log),
        )
        assert code == 0
        code, out, _ = run(capsys, "replay", "--pool", str(pool_path),
                           "--log", str(log))
        assert code == 0
        summary = json.loads(out)
        assert F(summary["max_residual"]).raw <= 10 ** 9

    def test_halts_on_infeasible_trade(self, tmp_path, capsys):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        log = tmp_path / "log.csv"
        log.write_text("seq,token_in,token_out,amount_in\n1,0,1,99\n")
        code, _, err = run(capsys, "replay", "--pool", str(pool_path),
                           "--log", str(log))
        assert code == 3
        assert "seq 1" in err

    def test_bad_header_rejected(self, tmp_path, capsys):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        log = tmp_path / "log.csv"
        log.write_text("a,b\n")
        code, _, _ = run(capsys, "replay", "--pool", str(pool_path),
                         "--log", str(log))
        assert code == 2


class TestEmission:
    def test_fingerprint_peak_row(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "fingerprint", "--mode", "ccmm",
            "--t-min", "-1", "--t-max", "1", "--samples", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,value"
        t0_row = [l for l in lines[1:] if l.startswith("0,")][0]
        value = F(t0_row.split(",")[1])
        # peak value 1 + sqrt(2)
        assert abs(value.raw - 2414213562373095049) <= 10 ** 6

    def test_hedge_plateaus(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "hedge", "--strike", "0.95", "--samples", "401",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        low = [F(v) for p, v in rows if F(p) < F("0.6")]
        high = [F(v) for p, v in rows if F(p) > F("1.4")]
        assert all(abs(v.raw - WAD) <= 10 ** 9 for v in low)
        assert all(abs(v.raw) <= 10 ** 9 for v in high)

    def test_curve_modes(self, tmp_path, capsys):
        for mode_args in (
            ["--mode", "ccmm"],
            ["--mode", "csemm", "--alphas=-1,-1"],
            ["--mode", "shifted", "--beta", "1.5"],
        ):
            code, out, _ = run(capsys, "curve", *mode_args, "--samples", "11")
            assert code == 0
            assert out.splitlines()[0] == "x,y"

    def test_payoff_csv(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "payoff", "--price-min", "1", "--price-max", "2",
            "--samples", "3",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows[0].startswith("1,")
        assert abs(F(rows[0].split(",")[1]).raw - 2 * WAD) <= 10 ** 9

    def test_multimodal_emission(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "fingerprint", "--mode", "multimodal", "--alpha-mm", "8",
            "--samples", "21",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        values = [F(r.split(",")[1]) for r in rows]
        assert all(F("0.999999999999999") <= v <= F("1.1") for v in values)


    def test_multimodal_needs_two_samples(self, capsys):
        code, out, err = run(capsys, "fingerprint", "--mode", "multimodal",
                             "--samples", "1")
        assert code == 2
        assert out == ""
        assert "need at least 2 samples" in err


class TestConvert:
    def test_price_to_angle(self, capsys):
        code, out, _ = run(capsys, "convert", "--price", "0.8")
        assert code == 0
        assert json.loads(out)["angle_deg"] == "50"

    def test_angle_to_price(self, capsys):
        code, out, _ = run(capsys, "convert", "--angle", "45")
        assert code == 0
        assert json.loads(out)["price"] == "1"

    def test_requires_exactly_one(self, capsys):
        code, _, _ = run(capsys, "convert", "--price", "1", "--angle", "45")
        assert code == 2


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path, capsys):
        outputs = []
        for run_idx in range(2):
            pool_path = tmp_path / f"p{run_idx}.json"
            init_pool(capsys, pool_path, "--n", "3")
            log = tmp_path / f"log{run_idx}.csv"
            run(capsys, "gen-trades", "--pool", str(pool_path),
                "--count", "25", "--seed", "11", "--out", str(log))
            code, out, _ = run(capsys, "replay", "--pool", str(pool_path),
                               "--log", str(log))
            assert code == 0
            outputs.append((pool_path.read_text(), log.read_text(), out))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        # replay summaries mention distinct file names; compare trade data
        assert json.loads(outputs[0][2])["final_reserves"] == \
            json.loads(outputs[1][2])["final_reserves"]

    def test_pool_file_round_trip(self, tmp_path, capsys):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        pool = load(pool_path)
        assert dumps(pool) == pool_path.read_text()

    def test_unknown_format_version_rejected(self, tmp_path, capsys):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        obj = json.loads(pool_path.read_text())
        obj["format_version"] = 99
        pool_path.write_text(json.dumps(obj))
        code, _, err = run(
            capsys, "quote", "--pool", str(pool_path),
            "--token-in", "0", "--token-out", "1", "--amount", "0",
        )
        assert code == 2
        assert "format_version" in err


def edited_pool(capsys, tmp_path, edit):
    """A default pool file whose JSON document ``edit`` has changed."""
    pool_path = tmp_path / "p.json"
    init_pool(capsys, pool_path)
    doc = json.loads(pool_path.read_text())
    edit(doc)
    pool_path.write_text(json.dumps(doc))
    return pool_path


def quote(capsys, pool_path, route="cartesian"):
    return run(capsys, "quote", "--pool", str(pool_path), "--token-in", "0",
               "--token-out", "1", "--amount", "0.1", "--route", route)


class TestMalformedInput:
    def test_non_integer_token_count(self, tmp_path, capsys):
        pool_path = edited_pool(capsys, tmp_path, lambda doc: doc.update(n="two"))
        code, _, err = quote(capsys, pool_path)
        assert code == 2
        assert "invalid input: malformed pool file" in err

    @pytest.mark.parametrize("field, value", [
        ("n", 2.9), ("n", "2"), ("n", True), ("reserves", "11"), ("alphas", "44"),
        ("positions", {}),
    ], ids=["n-float", "n-string", "n-bool", "reserves-string", "alphas-string",
            "positions-object"])
    def test_mistyped_field(self, tmp_path, capsys, field, value):
        pool_path = edited_pool(capsys, tmp_path, lambda doc: doc.update({field: value}))
        code, _, err = quote(capsys, pool_path)
        assert code == 2
        assert "invalid input: malformed pool file" in err

    @pytest.mark.parametrize("route", ["cartesian", "polar", "ticks"])
    def test_fewer_reserves_than_tokens(self, tmp_path, capsys, route):
        pool_path = edited_pool(capsys, tmp_path, lambda doc: doc.update(reserves=["1"]))
        code, _, err = quote(capsys, pool_path, route)
        assert code == 2
        assert "invalid input: expected 2 reserves, got 1" in err

    @pytest.mark.parametrize("row", ["1,zero,1,0.1", "x,0,1,0.1", "1,0,1"])
    def test_malformed_trade_row(self, tmp_path, capsys, row):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        log = tmp_path / "log.csv"
        log.write_text(f"seq,token_in,token_out,amount_in\n{row}\n")
        code, _, err = run(capsys, "replay", "--pool", str(pool_path), "--log", str(log))
        assert code == 2
        assert "invalid input: malformed trade row" in err

    @pytest.mark.parametrize("position, message", [
        ({"id": "u", "lower_deg": "44.3", "upper_deg": "46.7", "liquidity": "1"},
         "position bounds must be tick-aligned"),
        ({"id": "base", "lower_deg": "40", "upper_deg": "50", "liquidity": "1"},
         "duplicate position id 'base'"),
        ({"id": "s", "lower_deg": "44", "upper_deg": "46", "liquidity": "2", "side": "short"},
         "short liquidity exceeds long liquidity"),
    ], ids=["unaligned", "duplicate-id", "uncovered-short"])
    def test_ledger_rules_hold_on_load(self, tmp_path, capsys, position, message):
        pool_path = edited_pool(capsys, tmp_path, lambda doc: doc["positions"].append(position))
        code, _, err = quote(capsys, pool_path, "ticks")
        assert code == 2
        assert f"invalid input: {message}" in err

    def test_failed_save_keeps_pool_file(self, tmp_path, capsys, monkeypatch):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        before = pool_path.read_bytes()

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        code, _, err = run(capsys, "swap", "--pool", str(pool_path), "--token-in", "0",
                           "--token-out", "1", "--amount", "0.1")
        assert code == 2
        assert "io error: rename refused" in err
        assert pool_path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["p.json"]

    def test_save_keeps_file_mode(self, tmp_path, capsys):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        pool_path.chmod(0o600)
        code, _, err = run(capsys, "swap", "--pool", str(pool_path), "--token-in", "0",
                           "--token-out", "1", "--amount", "0.1")
        assert code == 0, err
        assert pool_path.stat().st_mode & 0o777 == 0o600


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "polarpool.cli", "convert", "--price", "1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["angle_deg"] == "45"
