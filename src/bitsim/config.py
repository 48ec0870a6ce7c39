"""Experiment configuration: JSON schema, validation, grid expansion.

The schema (documented in the README) is deliberately flat:

    {
      "seed": 1,
      "width": 16,
      "out_shift": 0,
      "trace": {"kind": "synthetic", "sigma": 100.0, "relu": true},
      "synapse_sigma": 20.0,
      "layers": [
        {"name": "conv1", "nx": 16, "ny": 16, "i": 16, "n": 16,
         "fx": 3, "fy": 3, "s": 1, "pad": 0, "act": "relu",
         "precision": {"width": 9, "lsb": 0},
         "quant": {"vmin": 0.0, "vmax": 800.0},
         "first_layer": true}
      ],
      "engines": [
        {"engine": "dadn"},
        {"engine": "stripes"},
        {"engine": "pragmatic", "l_bits": [0, 2, 4], "sync": "pallet",
         "ssrs": 1, "pallet_buffer": null, "trim": "profile"}
      ],
      "output": {"csv": "results.csv"}
    }

List-valued pragmatic fields expand into a deterministic grid (product
in field order l_bits, sync, ssrs, trim). ``ssrs`` accepts an integer or
"inf"; ``pallet_buffer`` an integer, "inf", or null for the automatic
ssrs+1 sizing.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from .geometry import LayerSpec, output_dims
from .numerics import Precision, QuantParams
from .pragmatic import PragConfig
from .reference import variant_key


# Accumulators are int64: a wider shift has no defined result.
MAX_OUT_SHIFT = 63

# numpy indexes arrays of any size, but a layer whose input, filters or
# im2col matrix has more elements than a signed 32-bit count cannot be
# allocated on any machine this model targets.
MAX_ELEMENTS = (1 << 31) - 1


class ConfigError(ValueError):
    """Configuration file missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class LayerConfig:
    spec: LayerSpec
    precision: Precision
    quant: QuantParams | None = None
    first_layer: bool = False
    # the depth the config declares, before ``spec.i`` zero-extends it to
    # a brick multiple: synthetic channels past it are zeros. None: all
    # ``spec.i`` channels are drawn.
    depth: int | None = None


@dataclass(frozen=True)
class EngineSelector:
    """One fully expanded engine variant to run."""

    engine: str  # dadn | stripes | pragmatic
    prag: PragConfig | None = None

    def label(self) -> str:
        """The :func:`~bitsim.reference.variant_key` of the variant, which
        names a pragmatic one only."""
        return variant_key(self.engine,
                           self.prag.variant_name() if self.engine == "pragmatic" else "")


@dataclass
class ExperimentConfig:
    layers: list[LayerConfig]
    engines: list[EngineSelector]
    seed: int
    width: int
    out_shift: int
    trace_kind: str  # synthetic | file
    trace_sigma: float
    trace_relu: bool
    trace_paths: list[str]
    synapse_sigma: float
    csv_path: str | None


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing required field '{key}' in {where}")
    return mapping[key]


# Conversions that can fail on a JSON value of the wrong kind.
_BAD_VALUE = (TypeError, ValueError, OverflowError)


def _strict(value, kind: type, what: str):
    """``value`` as JSON gave it, if that is ``kind`` (``int`` or ``bool``).

    No cast: a float, a string or a JSON boolean where an integer belongs
    (or anything but a boolean where a flag belongs) would otherwise
    become a different valid value.
    """
    if type(value) is not kind:  # JSON's true and false are not integers
        noun = "an integer" if kind is int else "true or false"
        raise ConfigError(f"{what} must be {noun}, got {value!r}")
    return value


def _finite(value, what: str) -> float:
    try:
        out = float(value)
    except _BAD_VALUE:
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return out


def _parse_precision(obj, where: str) -> Precision:
    if not isinstance(obj, dict):
        raise ConfigError(f"'precision' must be an object in {where}")
    fields = {k: _strict(obj[k], int, f"'precision.{k}' in {where}")
              for k in ("msb", "lsb", "width") if k in obj}
    lsb = fields.get("lsb", 0)
    try:
        if "msb" in fields:
            return Precision(fields["msb"], lsb)
        if "width" in fields:
            return Precision.from_width(fields["width"], lsb)
    except ValueError as e:
        raise ConfigError(f"bad precision in {where}: {e}") from e
    raise ConfigError(f"'precision' needs 'msb' or 'width' in {where}")


def _check_size(spec: LayerSpec, where: str):
    ox, oy, _ = output_dims(spec)
    window = spec.fy * spec.fx * spec.i
    for what, size in (("input", spec.nx * spec.ny * spec.i),
                       ("filter set", spec.n * window),
                       ("im2col matrix", ox * oy * window)):
        if size > MAX_ELEMENTS:
            raise ConfigError(
                f"{where}: the {what} has {size} elements, more than {MAX_ELEMENTS}"
            )


def _parse_layer(obj: dict, index: int, width: int) -> LayerConfig:
    where = f"layers[{index}]"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    dims = {k: _strict(_require(obj, k, where), int, f"'{k}' in {where}")
            for k in ("nx", "ny", "i", "n", "fx", "fy")}
    dims.update({k: _strict(obj.get(k, default), int, f"'{k}' in {where}")
                 for k, default in (("s", 1), ("pad", 0))})
    if dims["i"] < 1:  # checked before the depth is zero-extended to a brick
        raise ConfigError(f"'i' in {where} must be positive, got {dims['i']}")
    name = obj.get("name", f"layer{index}")
    if not isinstance(name, str):
        raise ConfigError(f"'name' in {where} must be a string, got {name!r}")
    try:
        spec = LayerSpec.normalized(**dims, act=obj.get("act", "identity"), name=name)
    except _BAD_VALUE as e:
        raise ConfigError(f"bad geometry in {where}: {e}") from e
    _check_size(spec, where)
    precision = _parse_precision(_require(obj, "precision", where), where)
    if width == 8 and precision.msb > 7:
        raise ConfigError(f"{where}: precision window exceeds the 8-bit container")
    quant = None
    if "quant" in obj:
        q = _object(obj, "quant", {})
        try:
            quant = QuantParams(_finite(_require(q, "vmin", where), f"'vmin' in {where}"),
                                _finite(_require(q, "vmax", where), f"'vmax' in {where}"))
        except ValueError as e:
            raise ConfigError(f"bad quant params in {where}: {e}") from e
    if width == 8 and quant is None:
        raise ConfigError(f"{where}: width-8 runs need per-layer 'quant' limits")
    return LayerConfig(
        spec=spec,
        precision=precision,
        quant=quant,
        first_layer=_strict(obj.get("first_layer", index == 0), bool,
                            f"'first_layer' in {where}"),
        depth=dims["i"],
    )


def _natural(obj: dict, key: str, default: int) -> int:
    value = _strict(obj.get(key, default), int, f"'{key}'")
    if value < 0:
        raise ConfigError(f"'{key}' must be a non-negative integer, got {value!r}")
    return value


def _object(obj: dict, key: str, default: dict) -> dict:
    value = obj.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"'{key}' must be an object, got {value!r}")
    return value


def _listify(value) -> list:
    return value if isinstance(value, list) else [value]


def _count_or_unbounded(value, what: str):
    """An integer count, or None for ``"inf"`` and null (unbounded)."""
    if value is None or value == "inf":
        return None
    return _strict(value, int, what)


def _parse_engines(objs, where="engines") -> list[EngineSelector]:
    selectors: list[EngineSelector] = []
    for idx, obj in enumerate(objs):
        if not isinstance(obj, dict):
            raise ConfigError(f"{where}[{idx}] must be an object, got {obj!r}")
        kind = _require(obj, "engine", f"{where}[{idx}]")
        if kind in ("dadn", "stripes"):
            selectors.append(EngineSelector(engine=kind))
        elif kind == "pragmatic":
            grid = itertools.product(
                _listify(obj.get("l_bits", 2)),
                _listify(obj.get("sync", "pallet")),
                _listify(obj.get("ssrs", 1)),
                _listify(obj.get("trim", "profile")),
            )
            at = f"{where}[{idx}]"
            buffer = _count_or_unbounded(obj.get("pallet_buffer"), f"'pallet_buffer' in {at}")
            for l_bits, sync, ssrs, trim in grid:
                l_bits = _strict(l_bits, int, f"'l_bits' in {at}")
                ssrs = _count_or_unbounded(ssrs, f"'ssrs' in {at}")
                try:
                    cfg = PragConfig(l_bits=l_bits, sync=str(sync), ssr_count=ssrs,
                                     pallet_buffer=buffer, trim=str(trim))
                except _BAD_VALUE as e:
                    raise ConfigError(f"bad pragmatic config in {at}: {e}") from e
                selectors.append(EngineSelector(engine="pragmatic", prag=cfg))
        else:
            raise ConfigError(f"unknown engine {kind!r} in {where}[{idx}]")
    if not selectors:
        raise ConfigError("at least one engine is required")
    return selectors


def parse_config(text: str) -> ExperimentConfig:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")

    width = _strict(obj.get("width", 16), int, "'width'")
    if width not in (8, 16):
        raise ConfigError(f"'width' must be 8 or 16, got {obj.get('width')!r}")

    layer_objs = _require(obj, "layers", "config")
    if not isinstance(layer_objs, list) or not layer_objs:
        raise ConfigError("'layers' must be a nonempty list")
    layers = [_parse_layer(lo, i, width) for i, lo in enumerate(layer_objs)]
    first_of: dict[str, int] = {}
    for index, layer in enumerate(layers):
        name = layer.spec.name
        if name in first_of:  # reports key their per-layer counts by name
            raise ConfigError(
                f"'name' in layers[{index}] must be unique, got {name!r} "
                f"(the name of layers[{first_of[name]}])"
            )
        first_of[name] = index

    engines = _parse_engines(_listify(_require(obj, "engines", "config")))

    seed = _natural(obj, "seed", 0)
    out_shift = _natural(obj, "out_shift", 0)
    if out_shift > MAX_OUT_SHIFT:
        raise ConfigError(
            f"'out_shift' must be at most {MAX_OUT_SHIFT} (accumulators are int64), "
            f"got {out_shift}"
        )
    trace = _object(obj, "trace", {"kind": "synthetic", "sigma": 100.0, "relu": True})
    kind = trace.get("kind", "synthetic")
    paths: list[str] = []
    sigma, relu = 100.0, True
    if kind == "synthetic":
        sigma = _finite(trace.get("sigma", 100.0), "'trace.sigma'")
        if sigma <= 0:
            raise ConfigError("'trace.sigma' must be positive")
        relu = _strict(trace.get("relu", True), bool, "'trace.relu'")
    elif kind == "file":
        if "paths" in trace:
            if not isinstance(trace["paths"], list):
                raise ConfigError(f"'trace.paths' must be a list, got {trace['paths']!r}")
            for index, path in enumerate(trace["paths"]):
                if not isinstance(path, str):
                    raise ConfigError(f"'trace.paths[{index}]' must be a string, got {path!r}")
            paths = list(trace["paths"])
        elif "path" in trace:
            if not isinstance(trace["path"], str):
                raise ConfigError(f"'trace.path' must be a string, got {trace['path']!r}")
            paths = [trace["path"]]
        if len(paths) != len(layers):
            raise ConfigError(
                f"'trace.paths' needs one path per layer ({len(layers)}), got {len(paths)}"
            )
    else:
        raise ConfigError(f"unknown trace kind {kind!r}")

    synapse_sigma = _finite(obj.get("synapse_sigma", 20.0), "'synapse_sigma'")
    if synapse_sigma < 0:
        raise ConfigError(f"'synapse_sigma' must be non-negative, got {synapse_sigma}")
    output = _object(obj, "output", {})
    csv_path = output.get("csv")
    if csv_path is not None and not isinstance(csv_path, str):
        raise ConfigError(f"'output.csv' must be a path string, got {csv_path!r}")
    return ExperimentConfig(
        layers=layers,
        engines=engines,
        seed=seed,
        width=width,
        out_shift=out_shift,
        trace_kind=kind,
        trace_sigma=sigma,
        trace_relu=relu,
        trace_paths=paths,
        synapse_sigma=synapse_sigma,
        csv_path=csv_path,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or a NUL in the path
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config(text)
