"""Pool-file format: golden documents and a round trip over every mode."""

from hypothesis import given, settings
from hypothesis import strategies as st

from polarpool.fixed import FixedDecimal, ONE, WAD, ZERO
from polarpool.hedge import HedgeSpec, build_hedge
from polarpool.invariant import MODES, CurveParams, PoolState
from polarpool.poolfile import PoolFile, dumps, loads
from polarpool.ticks import LpPosition, TickGrid, TickLedger, add_position

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
      "liquidity": "0.507376729204666675",
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


class TestRoundTrip:
    @given(pool_files())
    @settings(max_examples=200, deadline=None)
    def test_pool_and_text_survive(self, pool):
        text = dumps(pool)
        assert loads(text) == pool
        assert dumps(loads(text)) == text
