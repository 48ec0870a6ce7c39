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
in field order l_bits, sync, ssrs, trim; no list may be empty). ``ssrs``
accepts an integer or "inf"; ``pallet_buffer`` an integer, "inf", or
null for the automatic ssrs+1 sizing.
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
        """The :func:`~bitsim.reference.variant_key` of the variant."""
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


_NOUNS = {int: "an integer", bool: "true or false", float: "a number",
          str: "a string", list: "a list", dict: "an object"}


def _shown(value) -> str:  # as JSON writes it, cut to 40 characters
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:40] + "..."


def _strict(value, kind: type, what: str):
    """``value`` as JSON gave it, if it has the JSON type ``kind``: ``int``,
    ``bool``, ``float`` (any JSON number), ``str``, ``list`` or ``dict``.

    The one type check of every config field, and no cast: a float, a
    string or a JSON boolean where an integer belongs, a string or a
    boolean where a number belongs, or anything but a boolean where a flag
    belongs would otherwise become a different valid value.
    """
    # JSON's true and false are not numbers; any other number is a float
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise ConfigError(f"{what} must be {_NOUNS[kind]}, got {_shown(value)}")
    return value


def _finite(value, what: str) -> float:
    try:
        out = float(_strict(value, float, what))
    except OverflowError:  # an integer past the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{what} must be finite, got {_shown(value)}")
    return out


def _parse_precision(obj, where: str) -> Precision:
    _strict(obj, dict, f"'precision' in {where}")
    fields = {k: _strict(obj[k], int, f"'precision.{k}' in {where}")
              for k in ("msb", "lsb", "width") if k in obj}
    if ("msb" in fields) == ("width" in fields):
        raise ConfigError(
            f"'precision' in {where} needs one of 'msb' and 'width', got {obj!r}"
        )
    lsb = fields.get("lsb", 0)
    try:
        if "msb" in fields:
            return Precision(fields["msb"], lsb)
        return Precision.from_width(fields["width"], lsb)
    except ValueError as e:
        raise ConfigError(f"bad precision in {where}: {e}") from e


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
    _strict(obj, dict, where)
    dims = {k: _strict(_require(obj, k, where), int, f"'{k}' in {where}")
            for k in ("nx", "ny", "i", "n", "fx", "fy")}
    for k, v in dims.items():  # i checked before it is zero-extended to a brick
        if v < 1:
            raise ConfigError(f"'{k}' in {where} must be positive, got {v}")
    dims.update({k: _strict(obj.get(k, default), int, f"'{k}' in {where}")
                 for k, default in (("s", 1), ("pad", 0))})
    name = _strict(obj.get("name", f"layer{index}"), str, f"'name' in {where}")
    try:
        spec = LayerSpec.normalized(**dims, act=obj.get("act", "identity"), name=name)
    except ValueError as e:
        raise ConfigError(f"bad geometry in {where}: {e}") from e
    _check_size(spec, where)
    precision = _parse_precision(_require(obj, "precision", where), where)
    if width == 8 and precision.msb > 7:
        raise ConfigError(f"{where}: precision window exceeds the 8-bit container")
    quant = None
    if "quant" in obj:
        q = _strict(obj["quant"], dict, f"'quant' in {where}")
        vmin, vmax = (_finite(_require(q, k, where), f"'{k}' in {where}")
                      for k in ("vmin", "vmax"))
        try:
            quant = QuantParams(vmin, vmax)
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


def _listify(value, what: str) -> list:
    """A nonempty JSON list as it is, any other value as a list of one."""
    if not isinstance(value, list):
        return [value]
    if not value:
        raise ConfigError(f"{what} must be a nonempty list")
    return value


def _count_or_unbounded(value, what: str):
    """An integer count, or None for ``"inf"`` and null (unbounded)."""
    if value is None or value == "inf":
        return None
    return _strict(value, int, what)


def _parse_engines(objs, where="engines") -> list[EngineSelector]:
    selectors: list[EngineSelector] = []
    for idx, obj in enumerate(objs):
        at = f"{where}[{idx}]"
        kind = _require(_strict(obj, dict, at), "engine", at)
        if kind in ("dadn", "stripes"):
            selectors.append(EngineSelector(engine=kind))
        elif kind == "pragmatic":
            grid = itertools.product(*(
                _listify(obj.get(key, default), f"'{key}' in {at}")
                for key, default in (("l_bits", 2), ("sync", "pallet"), ("ssrs", 1),
                                     ("trim", "profile"))
            ))
            buffer = _count_or_unbounded(obj.get("pallet_buffer"), f"'pallet_buffer' in {at}")
            for l_bits, sync, ssrs, trim in grid:
                l_bits = _strict(l_bits, int, f"'l_bits' in {at}")
                sync = _strict(sync, str, f"'sync' in {at}")
                ssrs = _count_or_unbounded(ssrs, f"'ssrs' in {at}")
                trim = _strict(trim, str, f"'trim' in {at}")
                try:
                    cfg = PragConfig(l_bits=l_bits, sync=sync, ssr_count=ssrs,
                                     pallet_buffer=buffer, trim=trim)
                except ValueError as e:
                    raise ConfigError(f"bad pragmatic config in {at}: {e}") from e
                selectors.append(EngineSelector(engine="pragmatic", prag=cfg))
        else:
            raise ConfigError(f"unknown engine {kind!r} in {at}")
    return selectors


def parse_config(text: str) -> ExperimentConfig:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise ConfigError(f"config is not valid JSON: {e}") from e
    _strict(obj, dict, "config root")
    width = _strict(obj.get("width", 16), int, "'width'")
    if width not in (8, 16):
        raise ConfigError(f"'width' must be 8 or 16, got {width!r}")

    layer_objs = _strict(_require(obj, "layers", "config"), list, "'layers'")
    if not layer_objs:
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

    engines = _parse_engines(_listify(_require(obj, "engines", "config"), "'engines'"))

    seed = _natural(obj, "seed", 0)
    out_shift = _natural(obj, "out_shift", 0)
    if out_shift > MAX_OUT_SHIFT:
        raise ConfigError(
            f"'out_shift' must be at most {MAX_OUT_SHIFT} (accumulators are int64), "
            f"got {out_shift}"
        )
    trace = _strict(obj.get("trace", {}), dict, "'trace'")
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
            paths = [_strict(path, str, f"'trace.paths[{index}]'") for index, path
                     in enumerate(_strict(trace["paths"], list, "'trace.paths'"))]
        elif "path" in trace:
            paths = [_strict(trace["path"], str, "'trace.path'")]
        if len(paths) != len(layers):
            raise ConfigError(
                f"'trace.paths' needs one path per layer ({len(layers)}), got {len(paths)}"
            )
    else:
        raise ConfigError(f"unknown trace kind {kind!r}")

    synapse_sigma = _finite(obj.get("synapse_sigma", 20.0), "'synapse_sigma'")
    if synapse_sigma < 0:
        raise ConfigError(f"'synapse_sigma' must be non-negative, got {synapse_sigma}")
    csv_path = _strict(obj.get("output", {}), dict, "'output'").get("csv")
    if csv_path is not None:
        _strict(csv_path, str, "'output.csv'")
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
