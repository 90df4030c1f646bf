"""Command-line surface for pool lifecycle, quoting, curves, and hedging.

Data goes to stdout, diagnostics to stderr. Exit codes are stable:
0 success, 2 validation failure, 3 infeasible trade, 4 internal numeric
error. All output is byte-deterministic for identical inputs: JSON is
emitted with sorted keys, CSV rows in a fixed order, and the only
randomness (trade generation) runs off an explicit seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import replace

from .errors import (DomainError, InsufficientLiquidityError, NotFoundError, NumericError,
                     RangeError, ShapeError, ValidationError)
from .fingerprint import (FingerprintParams, fingerprint_ccmm, fingerprint_cemm,
                          fingerprint_csemm, lp_payoff, multimodal_radius)
from .fixed import MAX_RAW, FixedDecimal, HALF_PI, ONE, ZERO, _range_error, fp_mul
from .hedge import HedgeSpec, hedge_payoff
from .invariant import (CurveParams, PoolState, invariant_residual, solve_ccmm_scale,
                        solve_csemm_scale, solve_shifted_scale)
from .polar import angle_to_price, cartesian_to_polar, price_to_angle, reserves_at_angle
from .poolfile import PoolFile, load, save
from .swap import SwapQuote, y_of_x
from .ticks import (LpPosition, TickGrid, TickLedger, add_position, gen_trades, replay,
                    route_swap)

F = FixedDecimal

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4

DEFAULT_SEED = 1729


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(rows, header, out_path=None) -> None:
    """CSV to ``out_path`` or stdout; a FixedDecimal cell is written as str()."""
    with (open(out_path, "w", newline="") if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_fixed_list(text: str, count: int, what: str) -> tuple[FixedDecimal, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise ValidationError(f"expected {count} {what}, got {len(parts)}")
    return tuple(F(p) for p in parts)


# -- init -------------------------------------------------------------------


def cmd_init(args) -> int:
    n = args.n
    reserves = (
        _parse_fixed_list(args.reserves, n, "reserves")
        if args.reserves
        else tuple(ONE for _ in range(n))
    )
    kwargs = {"n": n, "mode": args.mode}
    if args.l is not None:
        kwargs["l"] = F(args.l)
    if args.mode == "csemm":
        if not args.alphas:
            raise ValidationError("csemm mode needs --alphas")
        kwargs["alphas"] = _parse_fixed_list(args.alphas, n, "alphas")
    if args.mode == "shifted":
        kwargs["beta"] = F(args.beta)
        kwargs["c"] = F(args.c)
    params = CurveParams(**kwargs)

    solve = {"ccmm": solve_ccmm_scale, "csemm": solve_csemm_scale,
             "shifted": solve_shifted_scale}[args.mode]
    scale = solve(params, reserves)

    angle = (cartesian_to_polar(params, *reserves, scale)
             if n == 2 and params.mode == "ccmm" else None)
    state = PoolState(reserves=reserves, liquidity_scale=scale, angle_deg=angle)
    residual = invariant_residual(params, state)

    grid = TickGrid(spacing_deg=F(args.tick_spacing))
    ledger = TickLedger(grid=grid)
    ledger = add_position(ledger, LpPosition("base", ZERO, F(90), scale))

    save(args.pool, PoolFile(params=params, state=state, ledger=ledger))
    _print_json({
        "pool": args.pool,
        "mode": params.mode,
        "n": n,
        "liquidity_scale": str(scale),
        "residual": str(residual),
    })
    return EXIT_OK


# -- quote / swap -----------------------------------------------------------


def _quote_payload(args, quote: SwapQuote, tick_result) -> dict:
    payload = {
        "token_in": quote.token_in,
        "token_out": quote.token_out,
        "amount_in": str(quote.amount_in),
        "amount_out": str(quote.amount_out),
        "price_before": str(quote.price_before),
        "price_after": str(quote.price_after),
        "new_reserves": [str(r) for r in quote.new_reserves],
        "route": args.route,
    }
    if args.route == "polar":
        # the polar route is pair_swap's circle step, so the two routes
        # quote the same amount bit for bit
        payload["route_diff_vs_cartesian"] = str(ZERO)
    if tick_result is not None:
        payload["segments"] = len(tick_result.fills)
        payload["final_angle_deg"] = str(tick_result.final_angle_deg)
        if args.trace_csv:
            rows = [
                (seg.index, seg.angle_from_deg, seg.angle_to_deg, seg.liquidity,
                 seg.delta_in, seg.delta_out)
                for seg in tick_result.segments
            ]
            _write_csv(rows, ["segment_index", "angle_from", "angle_to", "liquidity",
                              "delta_in", "delta_out"], args.trace_csv)
            payload["trace_csv"] = args.trace_csv
    return payload


def cmd_trade(args) -> int:
    """``quote`` and ``swap``: one trade on a route; ``swap`` saves it."""
    pool = load(args.pool)
    quote, state, tick_result = route_swap(
        pool.params, pool.ledger, pool.state, args.route,
        args.token_in, args.token_out, F(args.amount), args.exact_out,
    )
    if args.command == "swap":
        # a file keeps the angle where a nonzero tick walk ends; a zero
        # trade commits the loaded state
        if tick_result is not None and tick_result.fills:
            state = replace(state, angle_deg=tick_result.final_angle_deg)
        save(args.pool, replace(pool, state=state))
    _print_json(_quote_payload(args, quote, tick_result))
    return EXIT_OK


# -- replay / trade generation ----------------------------------------------


def _read_trade_log(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["seq", "token_in", "token_out", "amount_in"]:
            raise ValidationError("trade log header must be seq,token_in,token_out,amount_in")
        rows = []
        last_seq = None
        for row in reader:
            try:
                seq, i, j, amount = row
                seq, i, j = int(seq), int(i), int(j)
            except ValueError as exc:
                raise ValidationError(f"malformed trade row: {row}") from exc
            if last_seq is not None and seq <= last_seq:
                raise ValidationError("seq must be strictly increasing")
            last_seq = seq
            rows.append((seq, i, j, F(amount)))
    return rows


def cmd_replay(args) -> int:
    pool = load(args.pool)
    trades = _read_trade_log(args.log)
    rows, state, max_residual, halted = replay(pool.params, pool.ledger, pool.state, trades)
    if halted is not None:
        sys.stderr.write(f"replay halted at seq {trades[len(rows)][0]}: {halted}\n")
        return EXIT_INFEASIBLE
    if args.out_csv:
        _write_csv(rows, ["seq", "token_in", "token_out", "amount_in",
                          "amount_out", "residual"], args.out_csv)
    _print_json({
        "trades": len(trades),
        "final_reserves": [str(r) for r in state.reserves],
        "final_liquidity_scale": str(state.liquidity_scale),
        "max_residual": str(max_residual),
        "out_csv": args.out_csv,
    })
    return EXIT_OK


def cmd_gen_trades(args) -> int:
    pool = load(args.pool)
    rows = gen_trades(pool.params, pool.ledger, pool.state, args.count, args.seed)
    _write_csv(rows, ["seq", "token_in", "token_out", "amount_in"], args.out)
    _print_json({"trades": len(rows), "seed": args.seed, "out": args.out})
    return EXIT_OK


# -- curve / fingerprint / payoff / hedge emission ---------------------------


def _sample_grid(lo: FixedDecimal, hi: FixedDecimal, n: int):
    if n < 2:
        raise ValidationError("need at least 2 samples")
    if hi <= lo:
        raise ValidationError("sample range must be increasing")
    lo, span = lo.raw, hi.raw - lo.raw
    # hi - lo must be representable, as its wrap would be; every point
    # then lies in [lo, hi]
    if span > MAX_RAW:
        raise _range_error()
    return [F.from_raw(lo + span * k // (n - 1)) for k in range(n)]


def cmd_curve(args) -> int:
    n = 2
    if args.mode == "csemm":
        if not args.alphas:
            raise ValidationError("csemm mode needs --alphas")
        alphas = _parse_fixed_list(args.alphas, n, "alphas")
        params = CurveParams(n=n, mode="csemm", alphas=alphas)
    elif args.mode == "shifted":
        params = CurveParams(n=n, mode="shifted", beta=F(args.beta), c=F(args.c))
    else:
        params = CurveParams(n=n)
    if args.mode == "ccmm":
        rows = [reserves_at_angle(params, a) for a in _sample_grid(ZERO, F(90), args.samples)]
    else:
        if args.mode == "shifted":
            x_lo, x_hi = ZERO, params.l
        elif params.alphas[0] > ONE:
            x_lo, x_hi = ZERO, params.alphas[0]
        else:
            # negative-alpha curves have hyperbolic tails; sweep a window
            x_lo, x_hi = F("0.1"), fp_mul(params.l, F(3))
        rows = [(x, y_of_x(params, x)) for x in _sample_grid(x_lo, x_hi, args.samples)]
    _write_csv(rows, ["x", "y"], args.out)
    return EXIT_OK


def cmd_fingerprint(args) -> int:
    fp_kwargs = {"mode": args.mode}
    if args.l is not None:
        fp_kwargs["l"] = F(args.l)
    if args.mode == "cemm":
        fp_kwargs["c"] = F(args.c)
    if args.mode == "csemm":
        fp_kwargs["alpha"] = F(args.alpha)
        fp_kwargs["s_x"] = F(args.s_x)
        fp_kwargs["s_y"] = F(args.s_y)
    if args.mode == "multimodal":
        fp_kwargs["alpha_mm"] = args.alpha_mm
        fp_kwargs["big_l"] = F(args.big_l)
    params = FingerprintParams(**fp_kwargs)
    if args.mode == "multimodal":
        rows = [(theta, multimodal_radius(params, theta))
                for theta in _sample_grid(ZERO, HALF_PI, args.samples)]
    else:
        fn = {"ccmm": fingerprint_ccmm, "cemm": fingerprint_cemm,
              "csemm": fingerprint_csemm}[args.mode]
        grid = _sample_grid(F(args.t_min), F(args.t_max), args.samples)
        rows = [(t, fn(params, t)) for t in grid]
    _write_csv(rows, ["t", "value"], args.out)
    return EXIT_OK


def cmd_payoff(args) -> int:
    kwargs = {"mode": args.mode}
    if args.mode == "cemm":
        kwargs["c"] = F(args.c)
    params = FingerprintParams(**kwargs)
    rows = [(p, lp_payoff(params, p))
            for p in _sample_grid(F(args.price_min), F(args.price_max), args.samples)
            if p > ZERO]
    _write_csv(rows, ["price", "value"], args.out)
    return EXIT_OK


def cmd_hedge(args) -> int:
    spec = HedgeSpec(
        strike_price=F(args.strike),
        width_deg=F(args.width_deg),
        notional_liquidity=F(args.notional),
    )
    grid = TickGrid(spacing_deg=F(args.tick_spacing or args.width_deg))
    prices = [p for p in _sample_grid(F(args.price_min), F(args.price_max),
                                      args.samples) if p > ZERO]
    curve = hedge_payoff(CurveParams(n=2), spec, prices, grid=grid)
    _write_csv(curve.samples, ["price", "payoff"], args.out)
    return EXIT_OK


def cmd_convert(args) -> int:
    if (args.price is None) == (args.angle is None):
        raise ValidationError("give exactly one of --price or --angle")
    if args.price is not None:
        price = F(args.price)
        _print_json({"price": str(price), "angle_deg": str(price_to_angle(price))})
    else:
        angle = F(args.angle)
        _print_json({"angle_deg": str(angle), "price": str(angle_to_price(angle))})
    return EXIT_OK


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarpool",
        description="Deterministic circular/superelliptical market maker engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a pool file born on-curve")
    p.add_argument("--pool", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--mode", choices=["ccmm", "csemm", "shifted"], default="ccmm")
    p.add_argument("--l", default=None, help="offset parameter (default 2+sqrt(2))")
    p.add_argument("--alphas", default=None, help="comma-separated, csemm only")
    p.add_argument("--beta", default="2", help="shifted-ellipse exponent")
    p.add_argument("--c", default="1", help="shifted-ellipse price peak")
    p.add_argument("--reserves", default=None, help="comma-separated initial reserves")
    p.add_argument("--tick-spacing", default="1")
    p.set_defaults(fn=cmd_init)

    for name in ("quote", "swap"):
        p = sub.add_parser(name, help=f"{name} a trade against a pool file")
        p.add_argument("--pool", required=True)
        p.add_argument("--token-in", type=int, required=True)
        p.add_argument("--token-out", type=int, required=True)
        p.add_argument("--amount", required=True)
        p.add_argument("--exact-out", action="store_true",
                       help="amount is the desired output of token-out")
        p.add_argument("--route", choices=["cartesian", "polar", "ticks"],
                       default="cartesian")
        p.add_argument("--trace-csv", default=None,
                       help="segment trace output (ticks route)")
        p.set_defaults(fn=cmd_trade)

    p = sub.add_parser("replay", help="apply a trade log through the tick route")
    p.add_argument("--pool", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("gen-trades", help="generate a feasible random trade log")
    p.add_argument("--pool", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_trades)

    p = sub.add_parser("curve", help="emit on-curve points as CSV")
    p.add_argument("--mode", choices=["ccmm", "csemm", "shifted"], default="ccmm")
    p.add_argument("--alphas", default=None)
    p.add_argument("--beta", default="2")
    p.add_argument("--c", default="1")
    p.add_argument("--samples", type=int, default=181)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("fingerprint", help="emit a liquidity fingerprint as CSV")
    p.add_argument("--mode", choices=["ccmm", "cemm", "csemm", "multimodal"],
                   default="ccmm")
    p.add_argument("--l", default=None)
    p.add_argument("--c", default="1")
    p.add_argument("--alpha", default="4")
    p.add_argument("--s-x", default="1")
    p.add_argument("--s-y", default="1")
    p.add_argument("--alpha-mm", type=int, default=4)
    p.add_argument("--big-l", default="1")
    p.add_argument("--t-min", default="-5")
    p.add_argument("--t-max", default="5")
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_fingerprint)

    p = sub.add_parser("payoff", help="emit the LP payoff curve as CSV")
    p.add_argument("--mode", choices=["ccmm", "cemm"], default="ccmm")
    p.add_argument("--c", default="1")
    p.add_argument("--price-min", default="0.1")
    p.add_argument("--price-max", default="10")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_payoff)

    p = sub.add_parser("hedge", help="emit the normalized depeg-hedge payoff as CSV")
    p.add_argument("--strike", required=True)
    p.add_argument("--width-deg", default="1")
    p.add_argument("--notional", default="1")
    p.add_argument("--tick-spacing", default=None)
    p.add_argument("--price-min", default="0.3")
    p.add_argument("--price-max", default="1.8")
    p.add_argument("--samples", type=int, default=2001)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_hedge)

    p = sub.add_parser("convert", help="convert between price and tick angle")
    p.add_argument("--price", default=None)
    p.add_argument("--angle", default=None)
    p.set_defaults(fn=cmd_convert)

    return parser


# One parser per process: building it costs more than most commands, and
# parse_args keeps nothing from one call to the next.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except InsufficientLiquidityError as exc:
        sys.stderr.write(f"infeasible trade: {exc}\n")
        if exc.filled_in is not None:
            sys.stderr.write(
                f"partial fill: in={exc.filled_in} out={exc.filled_out} "
                f"boundary={exc.boundary_angle_deg}\n"
            )
        return EXIT_INFEASIBLE
    except (ValidationError, DomainError, ShapeError, NotFoundError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_VALIDATION
    except (RangeError, NumericError) as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return EXIT_NUMERIC
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
