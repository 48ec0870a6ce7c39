"""Test-only references for the convolution oracle, both walking the
output windows one at a time.

``reference_conv`` makes one Python iteration per (window, filter).
``window_oracle`` reduces each window against all filters at once in
int64 (:func:`window_sums`); it is the loop ``bitsim.reference.conv_oracle``
used before it walked the filter taps. Tests compare the tap oracle with
both.
"""

import numpy as np

from bitsim.geometry import FilterSet, LayerSpec, Tensor3, output_dims
from bitsim.numerics import activate
from bitsim.reference import check_shapes


def reference_conv(
    input: Tensor3,
    filters: FilterSet,
    spec: LayerSpec,
    out_shift: int = 0,
) -> Tensor3:
    check_shapes(input, filters, spec)
    ox, oy, _ = output_dims(spec)
    data = input.data.astype(np.int64)
    w = filters.data.astype(np.int64)
    acc = np.zeros((oy, ox, spec.n), dtype=np.int64)
    for l in range(oy):
        for k in range(ox):
            x0 = k * spec.s - spec.pad
            y0 = l * spec.s - spec.pad
            # Clip the window against the virtual zero border.
            ylo, yhi = max(0, y0), min(spec.ny, y0 + spec.fy)
            xlo, xhi = max(0, x0), min(spec.nx, x0 + spec.fx)
            if ylo >= yhi or xlo >= xhi:
                continue
            window = data[ylo:yhi, xlo:xhi, :]
            wslice = w[:, ylo - y0 : yhi - y0, xlo - x0 : xhi - x0, :]
            for f in range(spec.n):
                acc[l, k, f] = int((window * wslice[f]).sum())
    return Tensor3(activate(acc, spec.act, out_shift))


def window_oracle(
    input: Tensor3,
    filters: FilterSet,
    spec: LayerSpec,
    out_shift: int = 0,
) -> Tensor3:
    return Tensor3(activate(window_sums(input, filters, spec), spec.act, out_shift))


def window_sums(input: Tensor3, filters: FilterSet, spec: LayerSpec) -> np.ndarray:
    """Each output's int64 sum ``(oy, ox, n)``, before the activation."""
    check_shapes(input, filters, spec)
    ox, oy, _ = output_dims(spec)
    data = input.data.astype(np.int64)
    w = filters.data.astype(np.int64)
    acc = np.zeros((oy, ox, spec.n), dtype=np.int64)
    for l in range(oy):
        for k in range(ox):
            x0 = k * spec.s - spec.pad
            y0 = l * spec.s - spec.pad
            # Clip the window against the virtual zero border.
            ylo, yhi = max(0, y0), min(spec.ny, y0 + spec.fy)
            xlo, xhi = max(0, x0), min(spec.nx, x0 + spec.fx)
            if ylo >= yhi or xlo >= xhi:
                continue
            window = data[ylo:yhi, xlo:xhi, :]
            wslice = w[:, ylo - y0 : yhi - y0, xlo - x0 : xhi - x0, :]
            acc[l, k, :] = np.tensordot(wslice, window, axes=3)
    return acc
