"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``),
asserting every anchor at its stated tolerance. Oracles here are either
exact integer arithmetic, mpmath at the 40 digits of the conftest
fixture, or the float tick-walk integration of ``reference.py``, all
independent of the engine's own code paths.
"""

import json
import random
import time
from contextlib import contextmanager

import mpmath

from polarpool.cli import main as cli_main
from polarpool.fingerprint import (
    FingerprintParams,
    fingerprint_ccmm,
    fingerprint_cemm,
    fingerprint_csemm,
    modality_count,
    multimodal_radius,
    payoff_fingerprint,
)
from polarpool.fixed import FixedDecimal, ONE, PI, TWO, WAD, ZERO, fp_mul, fp_sub
from polarpool.hedge import HedgeSpec, hedge_payoff
from polarpool.invariant import (
    CurveParams,
    PoolState,
    default_offset,
    eta,
)
from polarpool.polar import (
    angle_to_price,
    polar_swap_delta_y,
    price_to_angle,
    reserves_at_angle,
)
from polarpool.poolfile import load as load_pool
from polarpool.swap import pair_swap, y_of_x
from polarpool.ticks import (
    LpPosition,
    TickGrid,
    TickLedger,
    active_liquidity,
    add_position,
    commit_tick_swap,
    remove_position,
    route_swap,
    swap_across_ticks,
    tick_width_in_price,
)
from reference import brute_force_active, integrate_swap_oracle, to_mp

F = FixedDecimal
L = default_offset()
CIRCLE = CurveParams(n=2)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {title}", flush=True)
        raise
    print(f"[criterion {number:02d}] PASS  {title}", flush=True)


def test_c01_appendix_polar_swap_reproduction():
    with criterion(1, "trig swap routine returns 0.999958580363 within 1e-9, < 1 ms"):
        polar_swap_delta_y(CIRCLE, ONE)  # warm constants
        t0 = time.perf_counter()
        got = polar_swap_delta_y(CIRCLE, ONE)
        elapsed = time.perf_counter() - t0
        assert abs(to_mp(got) - mpmath.mpf("0.999958580363")) < 1e-9
        assert elapsed < 1e-3, f"runtime {elapsed * 1e3:.3f} ms"


def test_c02_limit_case_recoveries():
    with criterion(2, "constant-product, constant-sum, and circle limits within 1e-12"):
        t0 = time.perf_counter()
        cpmm = CurveParams(n=2, mode="csemm", alphas=(F(-1), F(-1)))
        for k in range(300):
            x = F.from_raw(WAD // 10 + (10 * WAD - WAD // 10) * k // 299)
            y = y_of_x(cpmm, x)
            assert abs(fp_mul(x, y).raw - WAD) <= 10 ** 6
        csmm = CurveParams(n=2, mode="csemm", alphas=(TWO, TWO))
        for k in range(1, 300):
            x = F.from_raw(2 * WAD * k // 300)
            y = y_of_x(csmm, x)
            assert abs(x.raw + y.raw - 2 * WAD) <= 10 ** 6
        as_circle = CurveParams(n=2, mode="csemm", alphas=(L, L))
        state = PoolState(reserves=(ONE, ONE))
        rng = random.Random(2024)
        for _ in range(100):
            delta = F.from_raw(rng.randrange(-9 * WAD // 10, 2 * WAD))
            qs = pair_swap(as_circle, state, 0, delta)
            qc = pair_swap(CIRCLE, state, 0, delta)
            assert abs(qs.amount_out.raw - qc.amount_out.raw) <= 10 ** 6
        assert time.perf_counter() - t0 < 1.0


def test_c03_eta_analytic_anchors():
    with criterion(3, "eta anchors 2+sqrt2 -> 2, 2 -> 1, -1 -> -1 within 1e-12"):
        assert abs(eta(L).raw - 2 * WAD) <= 10 ** 6
        assert abs(eta(TWO).raw - WAD) <= 10 ** 6
        assert abs(eta(F(-1)).raw + WAD) <= 10 ** 6


def test_c04_path_equivalence():
    with criterion(4, "cartesian and polar routes agree within 1e-9 on 1e3 trades, < 5 s"):
        t0 = time.perf_counter()
        rng = random.Random(404)
        for _ in range(1000):
            x0 = F.from_raw(rng.randrange(WAD // 100, L.raw - WAD // 100))
            y0 = y_of_x(CIRCLE, x0)
            state = PoolState(reserves=(x0, y0))
            token_in = rng.randrange(2)
            room = fp_sub(L, state.reserves[token_in])
            delta = F.from_raw(rng.randrange(1, max(2, room.raw)))
            qp, _, _ = route_swap(CIRCLE, TickLedger(), state, "polar",
                                  token_in, 1 - token_in, delta)
            qc = pair_swap(CIRCLE, state, token_in, delta)
            assert abs(qp.amount_out.raw - qc.amount_out.raw) <= 10 ** 9
        assert time.perf_counter() - t0 < 5.0


def test_c05_angle_formula_anchors():
    with criterion(5, "price 1 -> 45 deg, 0.8 -> 50 deg, round trip within 1e-12"):
        assert price_to_angle(ONE) == F(45)
        assert price_to_angle(F("0.8")) == F(50)
        for k in range(1000):
            p = F.from_raw(10 ** 15 + (10 ** 21 - 10 ** 15) * k // 999)
            back = angle_to_price(price_to_angle(p))
            assert abs(back.raw - p.raw) <= 10 ** 6


def test_c06_fingerprint_reductions():
    with criterion(6, "elliptical and superelliptical forms reduce to the circle, peak 1+sqrt2"):
        base = FingerprintParams()
        cemm = FingerprintParams(mode="cemm", c=ONE)
        csemm = FingerprintParams(mode="csemm", alpha=L)
        for k in range(1000):
            t = F.from_raw(-5 * WAD + 10 * WAD * k // 999)
            reference = fingerprint_ccmm(base, t)
            assert abs(to_mp(fingerprint_cemm(cemm, t)) - to_mp(reference)) < 1e-15
            assert abs(to_mp(fingerprint_csemm(csemm, t)) - to_mp(reference)) < 1e-15
        peak = fingerprint_ccmm(base, ZERO)
        assert abs(to_mp(peak) - (1 + mpmath.sqrt(2))) < 1e-12


def test_c07_payoff_fingerprint_shape():
    with criterion(7, "payoff-derived density correlates >= 0.999 with the closed form"):
        params = FingerprintParams()
        n = 61
        numeric, closed = [], []
        for k in range(n):
            t = F.from_raw(-3 * WAD + 6 * WAD * k // (n - 1))
            numeric.append(to_mp(payoff_fingerprint(params, t)))
            closed.append(to_mp(fingerprint_ccmm(params, t)))
        mean_n = sum(numeric) / n
        mean_c = sum(closed) / n
        cov = sum((a - mean_n) * (b - mean_c) for a, b in zip(numeric, closed))
        var_n = sum((a - mean_n) ** 2 for a in numeric)
        var_c = sum((b - mean_c) ** 2 for b in closed)
        assert cov / mpmath.sqrt(var_n * var_c) >= mpmath.mpf("0.999")


def test_c08_tick_ledger_oracle_equivalence():
    with criterion(8, "ledger matches brute force exactly; tick swaps match integration to 1e-6"):
        rng = random.Random(808)
        ledger = TickLedger()
        live = []
        for k in range(1000):
            if live and rng.random() < 0.4:
                ledger = remove_position(ledger, live.pop(rng.randrange(len(live))))
            else:
                lo = rng.randrange(0, 90)
                hi = rng.randrange(lo + 1, 91)
                pid = f"p{k}"
                ledger = add_position(
                    ledger, LpPosition(pid, F(lo), F(hi), F.from_raw(rng.randrange(1, 10 * WAD)))
                )
                live.append(pid)
        for _ in range(1000):
            angle = F.from_raw(rng.randrange(0, 90 * WAD))
            assert active_liquidity(ledger, angle) == brute_force_active(ledger, angle)

        fig3 = TickLedger(grid=TickGrid())
        fig3 = add_position(fig3, LpPosition("lp1", F(0), F(90), F(5)))
        fig3 = add_position(fig3, LpPosition("lp2", F(40), F(55), F(3)))
        x, y = reserves_at_angle(CIRCLE, F(45), F(8))
        state = PoolState(reserves=(x, y), liquidity_scale=F(8), angle_deg=F(45))
        positions = [(0.0, 90.0, 5.0), (40.0, 55.0, 3.0)]
        for delta in ("1", "5"):
            result = swap_across_ticks(CIRCLE, fig3, state, 0, F(delta))
            want = integrate_swap_oracle(positions, 45.0, float(delta))
            assert abs(result.quote.amount_out.raw / WAD - want) < 1e-6


def test_c09_tick_granularity():
    with criterion(9, "tick price widths shrink toward 45 deg; [45,46] spans (0.95652..., 1)"):
        grid = TickGrid()
        widths = []
        for k in range(46):
            lo, hi = tick_width_in_price(grid, k)
            widths.append(None if hi is None else hi.raw - lo.raw)
        finite = widths[1:]
        assert widths[0] is None
        assert all(a > b for a, b in zip(finite, finite[1:]))
        lo, hi = tick_width_in_price(grid, 45)
        assert hi == ONE
        want_lo = mpmath.mpf(90) / 46 - 1
        assert abs(to_mp(lo) - want_lo) < 1e-9


def test_c10_hedge_binary_payoff():
    with criterion(10, "hedge plateaus 0/1 (var <= 1e-12), non-increasing, narrows with width"):
        t0 = time.perf_counter()

        def grid_prices(n):
            lo, hi = F("0.3").raw, F("1.8").raw
            return [F.from_raw(lo + (hi - lo) * k // (n - 1)) for k in range(n)]

        spec = HedgeSpec(F("0.95"))
        curve = hedge_payoff(CIRCLE, spec, grid_prices(2001))
        values = [(to_mp(p), to_mp(v)) for p, v in curve.samples]
        deep = [v for p, v in values if p < 0.6]
        calm = [v for p, v in values if p > 1.4]
        var_deep = sum((v - 1) ** 2 for v in deep) / len(deep)
        var_calm = sum(v ** 2 for v in calm) / len(calm)
        assert var_deep <= 1e-12 and var_calm <= 1e-12
        ordered = [v for _, v in values]
        assert all(a >= b - 1e-18 for a, b in zip(ordered, ordered[1:]))

        transition_widths = []
        for w, spacing in (("2", "2"), ("1", "1"), ("0.5", "0.5")):
            c = hedge_payoff(
                CIRCLE, HedgeSpec(F("0.95"), width_deg=F(w)), grid_prices(2001),
                grid=TickGrid(spacing_deg=F(spacing)),
            )
            inside = [to_mp(p) for p, v in c.samples if 1e-9 < to_mp(v) < 1 - 1e-9]
            transition_widths.append(max(inside) - min(inside))
        assert transition_widths[0] > transition_widths[1] > transition_widths[2]
        assert time.perf_counter() - t0 < 5.0


def test_c11_multimodal_taxonomy():
    with criterion(11, "modality 1/2/3 for alpha 4/6/8; radius ratio within [1, 2^(1/alpha^2)]"):
        for alpha, want in ((4, 1), (6, 2), (8, 3)):
            params = FingerprintParams(mode="multimodal", alpha_mm=alpha)
            assert modality_count(params) == want
            hi = mpmath.mpf(2) ** (mpmath.mpf(1) / (alpha * alpha))
            for k in range(500):
                theta = F.from_raw(PI.raw * k // 999)
                ratio = to_mp(multimodal_radius(params, theta))
                assert 1 - 1e-12 <= ratio <= hi + 1e-12


def test_c12_conservation_under_replay(tmp_path, capsys):
    with criterion(12, "1e3 seeded trades on an n=3 pool hold residual <= 1e-9; reverse restores"):
        pool_path = tmp_path / "pool.json"
        log_path = tmp_path / "trades.csv"
        assert cli_main(["init", "--pool", str(pool_path), "--n", "3"]) == 0
        capsys.readouterr()
        assert cli_main([
            "gen-trades", "--pool", str(pool_path), "--count", "1000",
            "--seed", "12", "--out", str(log_path),
        ]) == 0
        capsys.readouterr()
        assert cli_main([
            "replay", "--pool", str(pool_path), "--log", str(log_path),
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert F(summary["max_residual"]).raw <= 10 ** 9

        # trade then reverse restores the reserves
        pool = load_pool(pool_path)
        state = pool.state
        fwd = swap_across_ticks(pool.params, pool.ledger, state, 0, F("0.2"), token_out=1)
        mid = commit_tick_swap(state, fwd)
        back = swap_across_ticks(pool.params, pool.ledger, mid, 1,
                                 fwd.quote.amount_out, token_out=0)
        final = commit_tick_swap(mid, back)
        for a, b in zip(final.reserves, state.reserves):
            assert abs(a.raw - b.raw) <= 10 ** 9
