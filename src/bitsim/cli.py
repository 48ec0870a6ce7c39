"""Command-line front end.

Exit codes: 0 success, 1 configuration error, 2 I/O or resource error
(a file that cannot be read or written, or memory that cannot be
allocated), 3 model mismatch (an engine's output differs from the
brute-force convolution, or a serial unit's scalar model disagrees with
the lowered layer — an engine bug, never a user error).
"""

from __future__ import annotations

import functools
import sys

import click

from .config import ConfigError, load_config
from .geometry import Tensor3
from .reference import ScalarModelMismatch
from .runner import OracleMismatch, analyze, analyze_csv_lines, build_layer_input, simulate
from .traces import DTYPE_I16, DTYPE_U8, TraceIOError, write_trace

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_MISMATCH = 3


def _load(config_path, seed):
    cfg = load_config(config_path)
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
        cfg.seed = seed
    return cfg


def _exit_codes(command):
    """Run ``command`` and end it in its documented exit code: every
    failure the model raises maps to its message and code here, for
    every command alike."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except ConfigError as e:
            code, message = EXIT_CONFIG, f"config error: {e}"
        except TraceIOError as e:
            code, message = EXIT_IO, f"i/o error: {e}"
        except MemoryError as e:
            detail = str(e) or "allocation failed"
            code, message = EXIT_IO, f"resource error: out of memory ({detail})"
        except OracleMismatch as e:
            code, message = EXIT_MISMATCH, f"oracle mismatch: {e}"
        except ScalarModelMismatch as e:
            code, message = EXIT_MISMATCH, f"scalar model mismatch: {e}"
        else:
            sys.exit(EXIT_OK)
        click.echo(message, err=True)
        sys.exit(code)

    return run


def _write_lines(path, lines):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path
        raise TraceIOError(f"cannot write {path}: {e}") from e


@click.group()
def main():
    """Cycle and term models of serial convolution accelerator datapaths."""


@main.command("simulate")
@click.argument("config", type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", type=click.Path(), default=None,
              help="CSV path (overrides output.csv from the config).")
@_exit_codes
def simulate_cmd(config, seed, out):
    """Run every layer x engine variant and write the cycle report."""
    cfg = _load(config, seed)
    doc = simulate(cfg)
    csv_path = out or cfg.csv_path
    if csv_path:
        _write_lines(csv_path, doc.csv_lines())
    click.echo(doc.table())


@main.command("analyze")
@click.argument("config", type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", type=click.Path(), default=None, help="CSV path.")
@_exit_codes
def analyze_cmd(config, seed, out):
    """Term counts and essential-bit statistics only (no timing)."""
    cfg = _load(config, seed)
    terms, bits = analyze(cfg)
    lines = analyze_csv_lines(cfg, terms, bits)
    if out:
        _write_lines(out, lines)
    click.echo("\n".join(lines))


@main.command("gen-trace")
@click.argument("config", type=click.Path())
@click.option("-o", "--out", type=click.Path(), required=True, help="Trace file path.")
@click.option("--layer", type=int, default=0, help="Layer index to generate for.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@_exit_codes
def gen_trace_cmd(config, out, layer, seed):
    """Generate one layer's synthetic input tensor as a trace file."""
    cfg = _load(config, seed)
    if not 0 <= layer < len(cfg.layers):
        raise ConfigError(f"layer index {layer} out of range")
    declared = cfg.layers[layer]  # written to its declared depth; loading zero-extends it
    tensor = Tensor3(build_layer_input(cfg, declared, layer).data[:, :, : declared.depth])
    dtype = DTYPE_U8 if cfg.width == 8 else DTYPE_I16
    write_trace(out, tensor, dtype)
    click.echo(f"wrote {out}: dims {tensor.dims}, width {cfg.width}")


@main.command("validate")
@click.argument("config", type=click.Path())
@_exit_codes
def validate_cmd(config):
    """Parse the config and dry-run its consistency checks."""
    cfg = load_config(config)
    click.echo(
        f"ok: {len(cfg.layers)} layer(s), {len(cfg.engines)} engine variant(s), "
        f"width {cfg.width}, seed {cfg.seed}"
    )


if __name__ == "__main__":
    main()
