"""Pool persistence: one JSON document for params, state, and ledger.

This is the only module that knows the pool-file format: ``dumps`` builds
the whole document and ``loads`` reads it back. Serialization is
canonical (sorted keys, two-space indent, trailing newline) so identical
pools produce byte-identical files and replay runs can be diffed.
``loads`` rejects unknown format versions and builds every record through
its constructor, so a loaded pool obeys the rules of a built one, and a
malformed file raises an engine error, never a bare ``KeyError`` or
``ValueError``. ``save`` is atomic: a failed save leaves the old file.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

from .errors import EngineError, ShapeError, ValidationError
from .fixed import FixedDecimal
from .invariant import CurveParams, PoolState
from .ticks import LpPosition, TickGrid, TickLedger

F = FixedDecimal

FORMAT_VERSION = 1


@dataclass(frozen=True)
class PoolFile:
    params: CurveParams
    state: PoolState
    ledger: TickLedger


def dumps(pool: PoolFile) -> str:
    params, state, ledger = pool.params, pool.state, pool.ledger
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
        "positions": [
            {"id": p.id, "lower_deg": str(p.lower_deg), "upper_deg": str(p.upper_deg),
             "liquidity": str(p.liquidity), "side": p.side}
            for p in ledger.positions
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads(text: str) -> PoolFile:
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValidationError("pool file must hold a JSON object")
        version = doc.get("format_version")
        if version != FORMAT_VERSION:
            raise ValidationError(f"unknown format_version {version!r}")
        params = CurveParams(
            n=int(doc["n"]),
            mode=doc["mode"],
            l=F(doc["l"]),
            alphas=tuple(F(a) for a in doc["alphas"]) if doc.get("alphas") else None,
            beta=F(doc["beta"]),
            c=F(doc["c"]),
        )
        state = PoolState(
            reserves=tuple(F(r) for r in doc["reserves"]),
            liquidity_scale=F(doc["liquidity_scale"]),
            angle_deg=F(doc["angle_deg"]) if doc.get("angle_deg") else None,
        )
        if len(state.reserves) != params.n:
            raise ShapeError(f"expected {params.n} reserves, got {len(state.reserves)}")
        grid = TickGrid(spacing_deg=F(doc["tick_spacing_deg"]))
        positions = tuple(
            LpPosition(str(p["id"]), F(p["lower_deg"]), F(p["upper_deg"]),
                       F(p["liquidity"]), p.get("side", "long"))
            for p in doc["positions"]
        )
        ledger = TickLedger(grid=grid, positions=positions)
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
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load(path: str | Path) -> PoolFile:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"pool file not found: {path}")
    return loads(p.read_text())
