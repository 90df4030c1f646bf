"""Pool-file format: golden documents, a round trip over every mode, the
checks a load runs and the ledger it builds."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarpool.ticks
import test_ticks
from polarpool.cli import main
from polarpool.fixed import FixedDecimal, ONE, WAD, ZERO
from polarpool.hedge import HedgeSpec, build_hedge
from polarpool.invariant import MODES, CurveParams, PoolState
from polarpool.poolfile import PoolFile, dumps, loads
from polarpool.ticks import LpPosition, TickGrid, TickLedger, active_liquidity, add_position
from reference import brute_force_active

F = FixedDecimal

# canonical documents: any change to them is a change of the file format
HEDGED_POOL_TEXT = """\
{
  "alphas": null,
  "angle_deg": "45",
  "beta": "2",
  "c": "1",
  "format_version": 1,
  "l": "3.414213562373095049",
  "liquidity_scale": "1",
  "mode": "ccmm",
  "n": 2,
  "positions": [
    {
      "id": "base",
      "liquidity": "1",
      "lower_deg": "0",
      "side": "long",
      "upper_deg": "90"
    },
    {
      "id": "hedge:0.8:1:long",
      "liquidity": "0.5",
      "lower_deg": "50",
      "side": "long",
      "upper_deg": "51"
    },
    {
      "id": "hedge:0.8:1:short",
      "liquidity": "0.507376729204666631",
      "lower_deg": "49",
      "side": "short",
      "upper_deg": "50"
    }
  ],
  "reserves": [
    "1",
    "1"
  ],
  "tick_spacing_deg": "1"
}
"""

CSEMM_POOL_TEXT = """\
{
  "alphas": [
    "4",
    "3",
    "5"
  ],
  "angle_deg": null,
  "beta": "2",
  "c": "1",
  "format_version": 1,
  "l": "3.414213562373095049",
  "liquidity_scale": "0.73405289676367692",
  "mode": "csemm",
  "n": 3,
  "positions": [
    {
      "id": "base",
      "liquidity": "0.73405289676367692",
      "lower_deg": "0",
      "side": "long",
      "upper_deg": "90"
    }
  ],
  "reserves": [
    "1",
    "1.5",
    "0.75"
  ],
  "tick_spacing_deg": "0.5"
}
"""


def hedged_pool() -> PoolFile:
    """Two-token circle at 45 degrees: a full-range long and a hedge spread."""
    params = CurveParams(n=2)
    state = PoolState(reserves=(ONE, ONE), liquidity_scale=ONE, angle_deg=F(45))
    ledger = add_position(TickLedger(), LpPosition("base", ZERO, F(90), ONE))
    _, _, ledger = build_hedge(params, ledger, HedgeSpec(F("0.8"), notional_liquidity=F("0.5")))
    return PoolFile(params=params, state=state, ledger=ledger)


def csemm_pool() -> PoolFile:
    """Three-token superellipse on a half-degree grid, no cached angle."""
    params = CurveParams(n=3, mode="csemm", alphas=(F(4), F(3), F(5)))
    scale = F("0.73405289676367692")
    state = PoolState(reserves=(ONE, F("1.5"), F("0.75")), liquidity_scale=scale)
    ledger = TickLedger(grid=TickGrid(spacing_deg=F("0.5")),
                        positions=(LpPosition("base", ZERO, F(90), scale),))
    return PoolFile(params=params, state=state, ledger=ledger)


class TestGolden:
    def test_hedged_ccmm_pool(self):
        assert dumps(hedged_pool()) == HEDGED_POOL_TEXT
        assert loads(HEDGED_POOL_TEXT) == hedged_pool()

    def test_csemm_pool_without_angle(self):
        assert dumps(csemm_pool()) == CSEMM_POOL_TEXT
        assert loads(CSEMM_POOL_TEXT) == csemm_pool()


def fixed(lo_digits: int, hi_digits: int):
    """Positive values whose digit counts spread evenly over the range."""
    return st.integers(lo_digits, hi_digits).flatmap(
        lambda e: st.integers(10 ** (e - 1), 10 ** e - 1)).map(F.from_raw)


SPACINGS = ("0.25", "0.5", "1", "2.5", "5", "15", "45", "90")


@st.composite
def pool_files(draw) -> PoolFile:
    mode = draw(st.sampled_from(MODES))
    n = 2 if mode == "shifted" else draw(st.integers(2, 5))
    kwargs = {"n": n, "mode": mode, "l": draw(fixed(1, 21))}
    if mode == "csemm":
        above_one = st.integers(WAD + 1, 10 ** 21).map(F.from_raw)
        negative = fixed(1, 21).map(lambda a: -a)
        kwargs["alphas"] = tuple(draw(st.one_of(above_one, negative)) for _ in range(n))
    if mode == "shifted":
        kwargs["beta"] = F.from_raw(draw(st.integers(WAD + 1, 2 * WAD)))
        kwargs["c"] = draw(fixed(1, 21))
    angle = draw(st.one_of(st.none(), st.integers(0, 90 * WAD).map(F.from_raw)))
    state = PoolState(
        reserves=tuple(draw(st.one_of(st.just(ZERO), fixed(1, 21))) for _ in range(n)),
        liquidity_scale=draw(fixed(1, 21)),
        angle_deg=angle,
    )
    spacing = F(draw(st.sampled_from(SPACINGS)))
    ticks = 90 * WAD // spacing.raw
    positions = []
    for position_id in draw(st.lists(st.text(max_size=6), max_size=20, unique=True)):
        lower = draw(st.integers(0, ticks - 1))
        upper = draw(st.integers(lower + 1, ticks))
        positions.append(LpPosition(
            position_id, F.from_raw(lower * spacing.raw), F.from_raw(upper * spacing.raw),
            draw(fixed(1, 21)),
        ))
    ledger = TickLedger(grid=TickGrid(spacing_deg=spacing), positions=tuple(positions))
    return PoolFile(params=CurveParams(**kwargs), state=state, ledger=ledger)


def document(pool: PoolFile) -> dict:
    """The pool's document, field by field, for json.dumps to lay out."""
    params, state, ledger = pool.params, pool.state, pool.ledger
    return {
        "format_version": 1, "n": params.n, "mode": params.mode, "l": str(params.l),
        "alphas": [str(a) for a in params.alphas] if params.alphas else None,
        "beta": str(params.beta), "c": str(params.c),
        "reserves": [str(r) for r in state.reserves],
        "liquidity_scale": str(state.liquidity_scale),
        "angle_deg": None if state.angle_deg is None else str(state.angle_deg),
        "tick_spacing_deg": str(ledger.grid.spacing_deg),
        "positions": [{"id": p.id, "lower_deg": str(p.lower_deg), "upper_deg": str(p.upper_deg),
                       "liquidity": str(p.liquidity), "side": p.side} for p in ledger.positions],
    }


def json_text(pool: PoolFile) -> str:
    return json.dumps(document(pool), sort_keys=True, indent=2) + "\n"


class TestRoundTrip:
    @given(pool_files())
    @settings(max_examples=200, deadline=None)
    def test_pool_and_text_survive(self, pool):
        text = dumps(pool)
        assert text == json_text(pool)
        assert loads(text) == pool
        assert dumps(loads(text)) == text

    @pytest.mark.parametrize("seed, count", [(1, 200), (2, 40), (3, 0)])
    def test_seeded_ladder_text_is_json_dumps(self, seed, count):
        # ids that JSON escapes: a quote, a backslash, a tab, non-ASCII
        rng = random.Random(seed)
        names = ('q"uote', "back\\slash", "tab\t", "na\u00efve", "\u20ac", "\u2603", "r")
        positions = []
        for k in range(count):
            lower = rng.randrange(0, 179)
            positions.append(LpPosition(f"{rng.choice(names)}{k}", F.from_raw(lower * WAD // 2),
                                        F.from_raw(rng.randrange(lower + 1, 181) * WAD // 2),
                                        F.from_raw(rng.randrange(1, 10 * WAD))))
        pool = PoolFile(params=CurveParams(n=2), state=PoolState(
            reserves=(ONE, ONE), liquidity_scale=ONE, angle_deg=F(45)),
            ledger=TickLedger(grid=TickGrid(spacing_deg=F("0.5")), positions=tuple(positions)))
        assert dumps(pool) == json_text(pool)


def plain_pool_doc() -> dict:
    """The default two-token pool's document: scale 1 at 45 degrees."""
    ledger = add_position(TickLedger(), LpPosition("base", ZERO, F(90), ONE))
    pool = PoolFile(params=CurveParams(n=2), state=PoolState(
        reserves=(ONE, ONE), liquidity_scale=ONE, angle_deg=F(45)), ledger=ledger)
    return json.loads(dumps(pool))


def position(**fields) -> dict:
    row = {"id": "x", "lower_deg": "40", "upper_deg": "50", "liquidity": "1"}
    row.update(fields)
    return row


def appended(*rows):
    return lambda doc: doc["positions"].extend(rows)


def edited_base(key, value):
    return lambda doc: doc["positions"][0].update({key: value})


def dropped_key(key):
    return lambda doc: doc["positions"][0].pop(key)


# one defect per file, and the exit code and stderr a cartesian quote gives:
# the cartesian route never reads the ledger, so these are the load's checks.
# Per-position rules run before the ledger's, whatever the file order
MALFORMED = {
    "bad-side": (appended(position(side="both")),
                 2, "side must be 'long' or 'short'"),
    "zero-liquidity": (appended(position(liquidity="0")),
                       2, "liquidity must be positive"),
    "negative-liquidity": (appended(position(liquidity="-1")),
                           2, "liquidity must be positive"),
    "lower-above-upper": (appended(position(lower_deg="50", upper_deg="40")),
                          2, "lower bound must be below upper bound"),
    "empty-range": (appended(position(lower_deg="45", upper_deg="45")),
                    2, "lower bound must be below upper bound"),
    "below-0": (appended(position(lower_deg="-1")),
                2, "position must lie within [0, 90] degrees"),
    "above-90": (appended(position(upper_deg="91")),
                 2, "position must lie within [0, 90] degrees"),
    "misaligned": (appended(position(lower_deg="44.3")),
                   2, "position bounds must be tick-aligned"),
    "duplicate-id": (appended(position(id="base")),
                     2, "duplicate position id 'base'"),
    "uncovered-short": (appended(position(liquidity="1.5", side="short")),
                        2, "short liquidity exceeds long liquidity"),
    "past-1e20": (appended(position(liquidity="100000000000000000001")),
                  4, "numeric error: fixed-point overflow: |value| exceeds 1e20"),
    "exponent": (edited_base("upper_deg", "9e1"),
                 2, "exponent notation not accepted: '9e1'"),
    "superscript": (appended(position(upper_deg="5²")),
                    2, "not a decimal string: '5²'"),
    "json-float": (edited_base("liquidity", 1.0),
                   2, "malformed pool file: FixedDecimal accepts int, str, or FixedDecimal, "
                      "not float"),
    "missing-key": (dropped_key("lower_deg"), 2, "malformed pool file: 'lower_deg'"),
    "ledger-rule-after-position-rule": (
        appended(position(id="base", lower_deg="44.3"), position(id="y", side="both")),
        2, "side must be 'long' or 'short'"),
}


@pytest.mark.parametrize("case", MALFORMED, ids=list(MALFORMED))
def test_malformed_pool_file(tmp_path, capsys, case):
    edit, code, message = MALFORMED[case]
    doc = plain_pool_doc()
    edit(doc)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["quote", "--pool", str(path), "--token-in", "0", "--token-out", "1",
                 "--amount", "0.1", "--route", "cartesian"]) == code
    captured = capsys.readouterr()
    prefix = "invalid input: " if code == 2 else ""
    assert (captured.out, captured.err) == ("", f"{prefix}{message}\n")


def test_empty_angle_is_a_bad_decimal(tmp_path, capsys):
    doc = plain_pool_doc()
    doc["angle_deg"] = ""
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["quote", "--pool", str(path), "--token-in", "0", "--token-out", "1",
                 "--amount", "0.1"]) == 2
    assert capsys.readouterr().err == "invalid input: empty decimal string\n"


@st.composite
def ranged_pools(draw) -> PoolFile:
    """A seeded ladder, and with some draws a hedge spread whose short leg
    the ladder's longs cover."""
    ladder = test_ticks.TestSegmentCursor
    ledger, state = ladder.seeded_ladder(draw(ladder.LADDER_WALKS[0]),
                                         draw(ladder.LADDER_WALKS[1]))
    if draw(st.booleans()):
        spec = HedgeSpec(F.from_raw(draw(st.integers(WAD // 2, WAD - 1))),
                         width_deg=F(draw(st.sampled_from(["0.5", "1", "2.5"]))),
                         notional_liquidity=F.from_raw(draw(st.integers(WAD // 1000, WAD // 2))))
        _, _, ledger = build_hedge(CurveParams(n=2), ledger, spec)
    return PoolFile(params=CurveParams(n=2), state=state, ledger=ledger)


class TestLoadedLedger:
    @given(ranged_pools())
    @settings(max_examples=30, deadline=None)
    def test_loaded_ledger_is_the_built_one(self, pool):
        built = pool.ledger
        loaded = loads(dumps(pool))
        assert loaded == pool
        assert loaded.ledger.index == built.index
        assert loaded.ledger.mirrored_index == built.mirrored_index
        raws = (0,) + built.index.raws + (90 * WAD,)
        mids = [(lo + hi) // 2 for lo, hi in zip(raws, raws[1:])]
        for raw in (*raws, *mids):
            angle = F.from_raw(raw)
            assert active_liquidity(loaded.ledger, angle) == brute_force_active(built, angle)

    @pytest.mark.parametrize("route", ["cartesian", "polar", "ticks"])
    def test_quote_builds_no_position(self, tmp_path, capsys, monkeypatch, route):
        ledger = test_ticks.wide_ladder()
        state = test_ticks.parked_state(ledger, F(45))
        path = tmp_path / "p.json"
        path.write_text(dumps(PoolFile(params=CurveParams(n=2), state=state, ledger=ledger)))
        built = []
        monkeypatch.setattr(polarpool.ticks.LpPosition, "__post_init__",
                            lambda position: built.append(position))
        code = main(["quote", "--pool", str(path), "--token-in", "0", "--token-out", "1",
                     "--amount", "0.5", "--route", route])
        assert code == 0, capsys.readouterr().err
        assert built == []
