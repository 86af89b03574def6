"""Ring construction from configuration dicts and CLI shorthand strings.

A config holds a ``kind`` and the ring class's ``config_keys`` and no other
key, so one table from kind to class reads every kind; the ``tilt`` kind's
base is itself a config.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .cyclotomic import CycloModPM, CyclotomicField, GaussianField, cyclotomic_field
from .errors import MalformedConfig
from .perfpoly import PerfPolyRing
from .rings import Integers, Rationals, Ring, ZModPM, integer
from .tilt import TiltRing

__all__ = ["ring_from_config", "ring_from_spec"]

_RINGS = (Integers, Rationals, ZModPM, CyclotomicField, CycloModPM, GaussianField, PerfPolyRing)
_KINDS = {cls.kind: cls for cls in (*_RINGS, TiltRing)}
_CACHED = {CyclotomicField: cyclotomic_field}  # Qzeta shares the cached field


def _need(config: dict, key: str, kind: str) -> int:
    if key not in config or config[key] is None:
        raise MalformedConfig(f"ring kind {kind!r} needs {key!r}")
    value = config[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedConfig(f"{key!r} must be an integer, got {value!r}")
    return value


def ring_from_config(config: dict) -> Ring:
    """Build a ring from its configuration dict (the inverse of to_config)."""
    if not isinstance(config, dict) or "kind" not in config:
        raise MalformedConfig(f"a ring config is a dict with a 'kind', got {config!r}")
    kind = config["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise MalformedConfig(f"unknown ring kind {kind!r}")
    cls = _KINDS[kind]
    if cls is TiltRing and not isinstance(config.get("base"), dict):
        raise MalformedConfig("tilt ring config needs a 'base' ring config")
    extra = [key for key in config if key not in ("kind", *cls.config_keys)]
    if extra:
        raise MalformedConfig(f"ring kind {kind!r} takes no {', '.join(map(repr, extra))}")
    if cls is TiltRing:
        return TiltRing(ring_from_config(config["base"]), _need(config, "depth", kind))
    return _CACHED.get(cls, cls)(*[_need(config, key, kind) for key in cls.config_keys])


def ring_from_spec(
    spec: str,
    p: Optional[int] = None,
    precision: Optional[int] = None,
    depth: Optional[int] = None,
) -> Ring:
    """Build a ring from a CLI spec: inline JSON, a JSON file path, or a
    shorthand like 'Z', 'Q', 'Qi', 'Zmod', 'Qzeta:3', 'ZzetaMod:3',
    'PerfPoly:2' (missing numbers come from --p, --precision, --depth)."""
    text = spec.strip()
    if text.startswith("{"):
        try:
            return ring_from_config(json.loads(text))
        except json.JSONDecodeError as exc:
            raise MalformedConfig(f"bad inline ring JSON: {exc}") from exc
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as handle:
            try:
                return ring_from_config(json.load(handle))
            except json.JSONDecodeError as exc:
                raise MalformedConfig(f"bad ring JSON in {text}: {exc}") from exc
    head, _, arg = text.partition(":")
    n = None
    if arg:
        try:
            n = integer(arg)
        except ValueError as exc:
            raise MalformedConfig(f"{head}:{arg}: the ':' argument must be an integer") from exc
    config: dict = {"kind": head, "p": p}
    if head in ("Qzeta", "ZzetaMod"):
        if n is not None:
            config["k"] = n
        if head == "ZzetaMod":
            config["M"] = precision
    elif head == "Zmod":
        config["M"] = precision if n is None else n
    elif head == "PerfPoly":
        config["nvars"] = 1 if n is None else n
        config["depth"] = depth
    elif arg:
        raise MalformedConfig(f"ring kind {head!r} takes no ':' argument")
    return ring_from_config(config)
