"""Pool persistence: one JSON document for params, state, and ledger.

This is the only module that knows the pool-file format: ``dumps`` builds
the whole document and ``loads`` reads it back. Serialization is
canonical (sorted keys, two-space indent, trailing newline: the text
``json.dumps`` writes, with each position laid out from one template) so
identical pools produce byte-identical files and replay runs can be diffed.
``loads`` rejects unknown format versions. It builds params, state and
grid through their constructors, and reads the positions in one pass on
raw integers: each row is parsed, checked by the rules ``LpPosition`` and
``TickLedger`` apply, and indexed, and ``LpPosition`` objects are built
only if the ledger's positions are read. So a loaded pool obeys the rules
of a built one and equals it, and a malformed file raises an engine
error, never a bare ``KeyError`` or ``ValueError``. ``save`` is atomic: a
failed save leaves the old file.
"""

from __future__ import annotations

import json
import os
import stat
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as quote
from pathlib import Path

from .errors import EngineError, ShapeError, ValidationError
from .fixed import FixedDecimal
from .invariant import CurveParams, PoolState
from .ticks import TickGrid, TickLedger

F = FixedDecimal

FORMAT_VERSION = 1


@dataclass(frozen=True)
class PoolFile:
    params: CurveParams
    state: PoolState
    ledger: TickLedger


def dumps(pool: PoolFile) -> str:
    params, state, ledger = pool.params, pool.state, pool.ledger
    # bounds repeat from position to position, so each value is formatted once
    text = {raw: quote(str(F.from_raw(raw)))
            for raw in {v for row in ledger.rows for v in row[1:4]}}
    doc = {
        "format_version": FORMAT_VERSION,
        "n": params.n,
        "mode": params.mode,
        "l": str(params.l),
        "alphas": [str(a) for a in params.alphas] if params.alphas else None,
        "beta": str(params.beta),
        "c": str(params.c),
        "reserves": [str(r) for r in state.reserves],
        "liquidity_scale": str(state.liquidity_scale),
        "angle_deg": str(state.angle_deg) if state.angle_deg is not None else None,
        "tick_spacing_deg": str(ledger.grid.spacing_deg),
        "positions": [],
    }
    head = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if not ledger.rows:
        return head
    # each position as json.dumps(doc, sort_keys=True, indent=2) lays it out
    layout = ('    {\n      "id": %s,\n      "liquidity": %s,\n      "lower_deg": %s,\n'
              '      "side": %s,\n      "upper_deg": %s\n    }')
    body = ",\n".join(layout % (quote(pid), text[liquidity], text[lower], quote(side), text[upper])
                      for pid, lower, upper, liquidity, side in ledger.rows)
    return head.replace('"positions": []', '"positions": [\n' + body + "\n  ]", 1)


def _json_list(value, key: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a JSON list")
    return value


def _position_rows(positions: list):
    """The raw rows (id, lower, upper, liquidity, side) of a file's positions,
    parsed as ``LpPosition(str(id), F(lower), F(upper), F(liquidity), side)``
    would parse them, one position at a time. Bounds repeat from position
    to position, so each distinct decimal string is parsed once."""
    parsed: dict[str, int] = {}

    def raw(value) -> int:
        if type(value) is not str:
            return F(value).raw
        known = parsed.get(value)
        if known is None:
            known = parsed[value] = F(value).raw
        return known

    for p in positions:
        yield (str(p["id"]), raw(p["lower_deg"]), raw(p["upper_deg"]), raw(p["liquidity"]),
               p.get("side", "long"))


def loads(text: str) -> PoolFile:
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValidationError("pool file must hold a JSON object")
        version = doc.get("format_version")
        if version != FORMAT_VERSION:
            raise ValidationError(f"unknown format_version {version!r}")
        n, alphas = doc["n"], doc.get("alphas")
        # bool is an int subclass, and JSON true is no token count
        if type(n) is not int:
            raise TypeError("n must be a JSON integer")
        if alphas is not None:
            alphas = tuple(F(a) for a in _json_list(alphas, "alphas")) or None
        params = CurveParams(
            n=n,
            mode=doc["mode"],
            l=F(doc["l"]),
            alphas=alphas,
            beta=F(doc["beta"]),
            c=F(doc["c"]),
        )
        angle = doc.get("angle_deg")
        state = PoolState(
            reserves=tuple(F(r) for r in _json_list(doc["reserves"], "reserves")),
            liquidity_scale=F(doc["liquidity_scale"]),
            angle_deg=None if angle is None else F(angle),
        )
        if len(state.reserves) != params.n:
            raise ShapeError(f"expected {params.n} reserves, got {len(state.reserves)}")
        grid = TickGrid(spacing_deg=F(doc["tick_spacing_deg"]))
        ledger = TickLedger.from_rows(
            grid, _position_rows(_json_list(doc["positions"], "positions")))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not a JSON pool file: {exc}") from exc
    except EngineError:
        # DomainError and ValidationError are ValueErrors too; keep their messages
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed pool file: {exc}") from exc
    return PoolFile(params=params, state=state, ledger=ledger)


def save(path: str | Path, pool: PoolFile) -> None:
    """Write a temp file next to the pool file, then rename it over.

    The temp file, named after this process, is created exclusively, so a
    concurrent save fails rather than write into it; it takes the pool
    file's permission bits, and a failed save removes it.
    """
    path = Path(path)
    text = dumps(pool)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(text)
        if path.exists():
            os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load(path: str | Path) -> PoolFile:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"pool file not found: {path}")
    return loads(p.read_text())
