"""End-to-end CLI: pool lifecycle, routes, replay, emission, exit codes."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from polarpool import cli
from polarpool.cli import build_parser, main
from polarpool.fixed import FixedDecimal, WAD
from polarpool.invariant import ON_CURVE_TOLERANCE, PoolState
from polarpool.polar import reserves_at_angle
from polarpool.poolfile import dumps, load, save
from polarpool.ticks import (LpPosition, TickLedger, add_position, gen_trades, replay,
                             route_swap)

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

    @pytest.mark.parametrize("extra, amount, amount_out", [
        # the default three-token pool sits 0.91 quanta off its circle
        (("--n", "3"), "0.1", "0.093162892680868937"),
        # far above L = 1 the on-circle bound scales with L
        (("--reserves", "1000000000,1000000000"), "12345.678", "12345.614867645743758999"),
        (("--n", "3", "--reserves", "1000000000,1000000000,1000000000"), "12345.678",
         "12345.566424924314216831"),
    ])
    def test_init_pools_quote_on_every_route(self, tmp_path, capsys, extra, amount,
                                             amount_out):
        init_pool(capsys, tmp_path / "p.json", *extra)
        for route in ("cartesian", "polar", "ticks"):
            code, out, err = run(
                capsys, "quote", "--pool", str(tmp_path / "p.json"),
                "--token-in", "0", "--token-out", "1", "--amount", amount, "--route", route,
            )
            assert code == 0, (route, err)
            assert json.loads(out)["amount_out"] == amount_out, route

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

    @pytest.mark.parametrize("row, message", [
        ("2,0,1,-0.1", "amount must be non-negative"),
        ("2,1,1,0.1", "bad token indices"),
    ], ids=["negative-amount", "same-token"])
    def test_invalid_trade_named_by_seq(self, tmp_path, capsys, row, message):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        log = tmp_path / "log.csv"
        log.write_text(f"seq,token_in,token_out,amount_in\n1,0,1,0.1\n{row}\n")
        code, out, err = run(capsys, "replay", "--pool", str(pool_path),
                             "--log", str(log))
        assert (code, out) == (2, "")
        assert err == f"invalid input: trade 2: {message}\n"

    def test_swaps_through_the_pool_file_pay_what_a_replay_pays(self, tmp_path, capsys):
        # a 1-quantum sell from the boundary at 78 ends on a point that both
        # tokens' segment tests place on 78; the pool file must key the
        # token-1 sell that follows as the replay's state in memory does
        pool_path, log, per_trade = tmp_path / "p.json", tmp_path / "log.csv", tmp_path / "r.csv"
        init_pool(capsys, pool_path)
        ledger = TickLedger()
        for k, (lo, hi, liquidity) in enumerate([
                (0, 90, "3.085651407984848828"), (80, 82, "4.256249516220346779"),
                (22, 78, "3.5758464158306777"), (23, 26, "2.529327051901652351"),
                (10, 34, "1.761615404499850643")]):
            ledger = add_position(ledger, LpPosition(f"p{k}", F(lo), F(hi), F(liquidity)))
        pool = load(pool_path)
        scale = F("3.085651407984848828")
        state = PoolState(reserves=reserves_at_angle(pool.params, F(78), scale),
                          liquidity_scale=scale, angle_deg=F(78))
        save(pool_path, replace(pool, ledger=ledger, state=state))
        trades = [(1, 0, 1, "0.000000000000000001"), (2, 1, 0, "0.5")]
        log.write_text("seq,token_in,token_out,amount_in\n" + "".join(
            f"{seq},{i},{j},{amount}\n" for seq, i, j, amount in trades))
        code, _, err = run(capsys, "replay", "--pool", str(pool_path), "--log", str(log),
                           "--out-csv", str(per_trade))
        assert code == 0, err
        replayed = [row.split(",")[4] for row in per_trade.read_text().splitlines()[1:]]

        swapped = []
        for _, i, j, amount in trades:
            code, out, err = run(capsys, "swap", "--pool", str(pool_path), "--token-in", str(i),
                                 "--token-out", str(j), "--amount", amount, "--route", "ticks")
            assert code == 0, err
            swapped.append(json.loads(out)["amount_out"])
            if len(swapped) == 1:
                assert load(pool_path).state.angle_deg == F(78)
        assert swapped == replayed
        assert swapped[1] == "1.931434047973667881"

    def test_tick_swaps_near_45_save_a_file_the_tick_route_reads(self, tmp_path, capsys):
        # 2- and 1-quantum tick swaps from 45 on a pool ranged above it end
        # a few quanta past 45; the file keeps the angle each swap prints,
        # so a tick quote on it and a replay of the same three trades both
        # trade, and pay alike
        pool_path, start = tmp_path / "p.json", tmp_path / "start.json"
        log, per_trade = tmp_path / "log.csv", tmp_path / "r.csv"
        init_pool(capsys, pool_path)
        ledger = TickLedger(positions=(LpPosition("base", F(0), F(90), F(1)),
                                       LpPosition("r", F(45), F(50), F("0.3"))))
        state = PoolState(reserves=(F("1.3"), F("1.3")), liquidity_scale=F("1.3"),
                          angle_deg=F(45))
        save(pool_path, replace(load(pool_path), state=state, ledger=ledger))
        start.write_bytes(pool_path.read_bytes())
        trades = [(1, 0, 1, "0.000000000000000002"), (2, 1, 0, "0.000000000000000001"),
                  (3, 0, 1, "0.1")]
        for _, i, j, amount in trades[:2]:
            code, out, err = run(capsys, "swap", "--pool", str(pool_path), "--token-in", str(i),
                                 "--token-out", str(j), "--amount", amount, "--route", "ticks")
            assert code == 0, err
            assert load(pool_path).state.angle_deg == F(json.loads(out)["final_angle_deg"])
        code, out, err = run(capsys, "quote", "--pool", str(pool_path), "--token-in", "0",
                             "--token-out", "1", "--amount", "0.1", "--route", "ticks")
        assert code == 0, err
        log.write_text("seq,token_in,token_out,amount_in\n" + "".join(
            f"{seq},{i},{j},{amount}\n" for seq, i, j, amount in trades))
        code, _, err = run(capsys, "replay", "--pool", str(start), "--log", str(log),
                           "--out-csv", str(per_trade))
        assert code == 0, err
        assert per_trade.read_text().splitlines()[3].split(",")[4] == json.loads(out)["amount_out"]

    def test_bad_header_rejected(self, tmp_path, capsys):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        log = tmp_path / "log.csv"
        log.write_text("a,b\n")
        code, _, _ = run(capsys, "replay", "--pool", str(pool_path),
                         "--log", str(log))
        assert code == 2


def ladder_pool(capsys, path):
    """A two-token pool at 45 degrees whose three nested positions sum to its scale, 4.5."""
    init_pool(capsys, path, "--reserves", "4.5,4.5")
    pool = load(path)
    assert pool.state.liquidity_scale == F("4.5")
    ledger = TickLedger(grid=pool.ledger.grid)
    for position in (LpPosition("base", F(0), F(90), F(1)),
                     LpPosition("mid", F(30), F(60), F(2)),
                     LpPosition("core", F(40), F(50), F("1.5"))):
        ledger = add_position(ledger, position)
    save(path, replace(pool, ledger=ledger))
    return load(path)


def read_trades(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(int(seq), int(i), int(j), F(amount)) for seq, i, j, amount in rows]


class TestLibraryReplay:
    """``ticks.replay`` and ``ticks.gen_trades`` give what the CLI prints."""

    def test_rows_state_and_residual_match_cli(self, tmp_path, capsys):
        pool_path, log, per_trade = tmp_path / "p.json", tmp_path / "log.csv", tmp_path / "r.csv"
        pool = ladder_pool(capsys, pool_path)
        code, _, err = run(capsys, "gen-trades", "--pool", str(pool_path), "--count", "150",
                           "--seed", "5", "--out", str(log))
        assert code == 0, err
        trades = read_trades(log)
        assert trades == gen_trades(pool.params, pool.ledger, pool.state, 150, 5)

        rows, state, max_residual, halted = replay(pool.params, pool.ledger, pool.state, trades)
        assert halted is None
        code, out, err = run(capsys, "replay", "--pool", str(pool_path), "--log", str(log),
                             "--out-csv", str(per_trade))
        assert code == 0, err
        lines = per_trade.read_text().splitlines()
        assert lines[0] == "seq,token_in,token_out,amount_in,amount_out,residual"
        assert lines[1:] == [",".join(str(v) for v in row) for row in rows]
        summary = json.loads(out)
        assert summary["final_reserves"] == [str(r) for r in state.reserves]
        assert summary["final_liquidity_scale"] == str(state.liquidity_scale)
        assert summary["max_residual"] == str(max_residual)
        # the log crosses the ladder's boundaries
        crossings, walked = 0, pool.state
        for _, i, j, amount in trades:
            _, walked, result = route_swap(pool.params, pool.ledger, walked, "ticks", i, j, amount)
            crossings += len(result.segments) > 1
        assert crossings and walked == state

    def test_partial_fill_matches_cli(self, tmp_path, capsys):
        pool_path, log = tmp_path / "p.json", tmp_path / "log.csv"
        pool = ladder_pool(capsys, pool_path)
        trades = gen_trades(pool.params, pool.ledger, pool.state, 40, 9)
        past_end = (trades[-1][0] + 1, 0, 1, F(100))
        trades += [past_end, (past_end[0] + 1, 1, 0, F("0.1"))]
        log.write_text("seq,token_in,token_out,amount_in\n" + "".join(
            f"{seq},{i},{j},{amount}\n" for seq, i, j, amount in trades))

        rows, state, _, halted = replay(pool.params, pool.ledger, pool.state, trades)
        assert len(rows) == len(trades) - 2
        assert halted is not None and halted.filled_in is not None
        code, out, err = run(capsys, "replay", "--pool", str(pool_path), "--log", str(log))
        assert (code, out) == (3, "")
        assert err == f"replay halted at seq {past_end[0]}: {halted}\n"

        # the same trade from the state the replay stopped in, as a quote
        save(pool_path, replace(pool, state=state))
        code, _, err = run(capsys, "quote", "--pool", str(pool_path), "--token-in", "0",
                           "--token-out", "1", "--amount", "100", "--route", "ticks")
        assert code == 3
        assert err.splitlines()[-1] == (
            f"partial fill: in={halted.filled_in} out={halted.filled_out} "
            f"boundary={halted.boundary_angle_deg}")


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

    def test_scale_off_the_ledger_refused_on_the_tick_route(self, tmp_path, capsys):
        # the position's liquidity, 2, is not the stored scale, 1, and the
        # stored 45 is no boundary of the ledger: the walk may not change
        # circle there, and a refused swap leaves the pool file as it was
        def edit(doc):
            doc["positions"][0]["liquidity"] = "2"

        pool_path = edited_pool(capsys, tmp_path, edit)
        before = pool_path.read_bytes()
        for command in ("quote", "swap"):
            code, out, err = run(capsys, command, "--pool", str(pool_path), "--token-in", "0",
                                 "--token-out", "1", "--amount", "0.1", "--route", "ticks")
            assert (code, out) == (2, "")
            assert err == "invalid input: liquidity_scale disagrees with the ledger\n"
            assert pool_path.read_bytes() == before

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

    def test_non_decimal_digit_amount(self, tmp_path, capsys):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        code, _, err = run(capsys, "quote", "--pool", str(pool_path), "--token-in", "0",
                           "--token-out", "1", "--amount", "²")
        assert code == 2
        assert err == "invalid input: not a decimal string: '²'\n"

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


class TestParserReuse:
    """``main`` parses every call with one parser built at import."""

    def test_flag_does_not_carry_over(self, tmp_path, capsys):
        pool_path, other = tmp_path / "p.json", tmp_path / "q.json"
        init_pool(capsys, pool_path)
        init_pool(capsys, other)
        argv = ["quote", "--pool", str(pool_path), "--token-in", "0", "--token-out", "1",
                "--amount", "0.25"]
        alone = subprocess.run([sys.executable, "-m", "polarpool.cli", *argv],
                               capture_output=True, text=True)
        assert alone.returncode == 0, alone.stderr
        code, _, err = run(capsys, "swap", "--pool", str(other), "--token-in", "0",
                           "--token-out", "1", "--amount", "0.25", "--exact-out")
        assert code == 0, err
        assert run(capsys, *argv) == (0, alone.stdout, "")

    def test_usage_error_then_valid_command(self, tmp_path, capsys):
        pool_path = tmp_path / "p.json"
        init_pool(capsys, pool_path)
        with pytest.raises(SystemExit) as exc:
            main(["quote", "--pool", str(pool_path)])
        assert exc.value.code == 2
        assert "required" in capsys.readouterr().err
        code, out, _ = quote(capsys, pool_path)
        assert code == 0
        assert json.loads(out)["amount_in"] == "0.1"

    @pytest.mark.parametrize("argv", [["--help"], ["quote", "--help"]])
    def test_help_matches_a_fresh_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 0
        fresh = capsys.readouterr().out
        if argv == ["--help"]:
            assert fresh == build_parser().format_help()
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out == fresh

    def test_no_call_builds_a_parser(self, tmp_path, capsys, monkeypatch):
        def refuse():
            raise AssertionError("build_parser called after import")

        monkeypatch.setattr(cli, "build_parser", refuse)
        init_pool(capsys, tmp_path / "p.json")
        code, out, _ = run(capsys, "convert", "--price", "1")
        assert code == 0
        assert json.loads(out)["angle_deg"] == "45"


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "polarpool.cli", "convert", "--price", "1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["angle_deg"] == "45"
