"""Floating-point storage quantization (paper §2.4, Fig 6).

Implements every format in Fig 6's table:

============  ====  ========  ========
format        sign  exponent  fraction
============  ====  ========  ========
IEEE FP64     1     11        52
IEEE FP32     1     8         23
NVIDIA TF32   1     8         10
IEEE FP16     1     5         10
Google BF16   1     8         7
NVIDIA FP8    1     5         2   (E5M2)
NVIDIA FP8    1     4         3   (E4M3)
============  ====  ========  ========

FP16 uses numpy's native float16. BF16/TF32 are round-to-nearest-even
bit truncations of FP32. FP8 E4M3/E5M2 quantize by nearest-representable
lookup over the full 256-value code space (OCP FP8 semantics: E4M3 has
no infinities and a single NaN pattern; E5M2 is IEEE-like), which makes
round-trip behaviour exact by construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class FloatFormat(enum.Enum):
    FP64 = "fp64"
    FP32 = "fp32"
    TF32 = "tf32"
    FP16 = "fp16"
    BF16 = "bf16"
    FP8_E4M3 = "fp8_e4m3"
    FP8_E5M2 = "fp8_e5m2"


#: Fig 6 bit budgets: format -> (sign, exponent, fraction) bits
BIT_LAYOUT = {
    FloatFormat.FP64: (1, 11, 52),
    FloatFormat.FP32: (1, 8, 23),
    FloatFormat.TF32: (1, 8, 10),
    FloatFormat.FP16: (1, 5, 10),
    FloatFormat.BF16: (1, 8, 7),
    FloatFormat.FP8_E5M2: (1, 5, 2),
    FloatFormat.FP8_E4M3: (1, 4, 3),
}

#: storage bytes per value (TF32 is stored in 19 bits conceptually but
#: materialized as 4 bytes, like the hardware register format)
STORAGE_BYTES = {
    FloatFormat.FP64: 8,
    FloatFormat.FP32: 4,
    FloatFormat.TF32: 4,
    FloatFormat.FP16: 2,
    FloatFormat.BF16: 2,
    FloatFormat.FP8_E4M3: 1,
    FloatFormat.FP8_E5M2: 1,
}


def _build_fp8_table(exp_bits: int, man_bits: int, e4m3: bool) -> np.ndarray:
    """All non-negative representable values of an FP8 format, by code."""
    bias = (1 << (exp_bits - 1)) - 1
    values = []
    for code in range(128):
        e = code >> man_bits
        m = code & ((1 << man_bits) - 1)
        if e == 0:  # subnormal
            v = (m / (1 << man_bits)) * 2.0 ** (1 - bias)
        elif e4m3:
            if e == (1 << exp_bits) - 1 and m == (1 << man_bits) - 1:
                v = np.nan  # single NaN pattern, no infinity
            else:
                v = (1 + m / (1 << man_bits)) * 2.0 ** (e - bias)
        else:  # E5M2: IEEE-like top exponent
            if e == (1 << exp_bits) - 1:
                v = np.inf if m == 0 else np.nan
            else:
                v = (1 + m / (1 << man_bits)) * 2.0 ** (e - bias)
        values.append(v)
    return np.array(values, dtype=np.float64)


_E4M3_TABLE = _build_fp8_table(4, 3, e4m3=True)
_E5M2_TABLE = _build_fp8_table(5, 2, e4m3=False)


def _fp8_encode(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Nearest-representable quantization to uint8 codes."""
    x = np.asarray(values, dtype=np.float64)
    finite_codes = np.flatnonzero(np.isfinite(table))
    finite_vals = table[finite_codes]
    order = np.argsort(finite_vals)
    sorted_vals = finite_vals[order]
    sorted_codes = finite_codes[order]
    mags = np.abs(x)
    idx = np.searchsorted(sorted_vals, mags)
    idx = np.clip(idx, 1, len(sorted_vals) - 1)
    left = sorted_vals[idx - 1]
    right = sorted_vals[idx]
    pick_right = (mags - left) > (right - mags)
    chosen = np.where(pick_right, idx, idx - 1)
    # saturate overflow to max finite (OCP saturating conversion)
    over = mags > sorted_vals[-1]
    chosen[over] = len(sorted_vals) - 1
    codes = sorted_codes[chosen].astype(np.uint8)
    nan_mask = np.isnan(x)
    if nan_mask.any():
        nan_code = int(np.flatnonzero(np.isnan(table))[0])
        codes[nan_mask] = nan_code
    inf_mask = np.isinf(x)
    if inf_mask.any():
        inf_positions = np.flatnonzero(np.isinf(table))
        if len(inf_positions):
            codes[inf_mask] = int(inf_positions[0])
        else:  # E4M3 saturates
            codes[inf_mask] = int(sorted_codes[-1])
    sign = (np.signbit(x)).astype(np.uint8) << 7
    return codes | sign


def _fp8_decode(table: np.ndarray) -> np.ndarray:
    """Every code's float32, rounded once: a decode is one lookup."""
    codes = np.arange(256)
    return (table[codes & 0x7F] * np.where(codes & 0x80, -1.0, 1.0)).astype(
        np.float32
    )


_FP8_DECODE = {
    FloatFormat.FP8_E4M3: _fp8_decode(_E4M3_TABLE),
    FloatFormat.FP8_E5M2: _fp8_decode(_E5M2_TABLE),
}


def _round_keep_top_bits(values: np.ndarray, keep_mantissa: int) -> np.ndarray:
    """FP32 with the mantissa rounded (RNE) to ``keep_mantissa`` bits."""
    x = np.asarray(values, dtype=np.float32)
    bits = x.view(np.uint32)
    drop = 23 - keep_mantissa
    half = np.uint32(1 << (drop - 1))
    lsb = (bits >> np.uint32(drop)) & np.uint32(1)
    rounding = half - np.uint32(1) + lsb
    out = (bits + rounding) & np.uint32(~((1 << drop) - 1) & 0xFFFFFFFF)
    # NaN payloads must stay NaN
    nan_mask = np.isnan(x)
    out = out.view(np.float32).copy()
    out[nan_mask] = np.nan
    return out


def quantize(values, fmt: FloatFormat):
    """Quantize a float array to the storage representation of ``fmt``.

    Returns the array a Bullion file would physically store: float16
    for FP16, uint16 for BF16, uint8 codes for FP8, float32 for
    TF32 (mantissa-truncated) and FP32, float64 for FP64.
    """
    x = np.asarray(values)
    if fmt == FloatFormat.FP64:
        return x.astype(np.float64)
    if fmt == FloatFormat.FP32:
        return x.astype(np.float32)
    if fmt == FloatFormat.FP16:
        with np.errstate(over="ignore"):  # overflow -> inf is the IEEE path
            return x.astype(np.float16)
    if fmt == FloatFormat.TF32:
        return _round_keep_top_bits(x.astype(np.float32), 10)
    if fmt == FloatFormat.BF16:
        bits = x.astype(np.float32).view(np.uint32)
        rounding = np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))
        out = ((bits + rounding) >> np.uint32(16)).astype(np.uint16)
        nan_mask = np.isnan(x.astype(np.float32))
        out[nan_mask] = np.uint16(0x7FC0)  # canonical bf16 NaN
        return out
    if fmt == FloatFormat.FP8_E4M3:
        return _fp8_encode(x, _E4M3_TABLE)
    if fmt == FloatFormat.FP8_E5M2:
        return _fp8_encode(x, _E5M2_TABLE)
    raise ValueError(f"unknown format {fmt}")


def dequantize(stored, fmt: FloatFormat) -> np.ndarray:
    """Widen a stored representation back to float32/float64."""
    if fmt == FloatFormat.FP64:
        return np.asarray(stored, dtype=np.float64)
    if fmt in (FloatFormat.FP32, FloatFormat.TF32):
        return np.asarray(stored, dtype=np.float32)
    if fmt == FloatFormat.FP16:
        return np.asarray(stored, dtype=np.float16).astype(np.float32)
    # codes of any int dtype widen in one pass, as their low 16/8 bits
    if fmt == FloatFormat.BF16:
        bits = np.left_shift(stored, 16, dtype=np.uint32, casting="unsafe")
        return bits.view(np.float32)
    if fmt in _FP8_DECODE:
        return np.take(_FP8_DECODE[fmt], stored, mode="wrap")
    raise ValueError(f"unknown format {fmt}")


@dataclass(frozen=True)
class QuantizationError:
    """Error profile of quantizing a column to a given format."""

    fmt: FloatFormat
    max_abs_error: float
    mean_abs_error: float
    mean_relative_error: float
    storage_ratio: float  # stored bytes / fp32 bytes

    @staticmethod
    def measure(values, fmt: FloatFormat) -> "QuantizationError":
        x = np.asarray(values, dtype=np.float64)
        finite = np.isfinite(x)
        back = dequantize(quantize(x, fmt), fmt).astype(np.float64)
        err = np.abs(back[finite] - x[finite])
        denom = np.maximum(np.abs(x[finite]), 1e-30)
        return QuantizationError(
            fmt=fmt,
            max_abs_error=float(err.max()) if err.size else 0.0,
            mean_abs_error=float(err.mean()) if err.size else 0.0,
            mean_relative_error=float((err / denom).mean()) if err.size else 0.0,
            storage_ratio=STORAGE_BYTES[fmt] / 4.0,
        )
