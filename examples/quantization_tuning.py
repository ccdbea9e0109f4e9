"""Storage quantization tuning (§2.4, Fig 6).

Quantizes an embedding table under three strategies — uniform FP16, a
sensitivity-tiered policy, and an error-budget policy — shows both
dual-column FP32 = 2 x 16-bit decompositions for business-critical
features, and narrows a sparse ID feature the two integer ways §2.4
names (dense re-coding and a hashed fold).

Run:  python examples/quantization_tuning.py
"""

import numpy as np

from repro.quantization import (
    FloatFormat,
    HashFold,
    IdRemap,
    QuantizationError,
    QuantizationPolicy,
    auto_assign,
    error_budget_assign,
    hi_as_bf16_float,
    join_bits,
    join_numeric,
    split_bits,
    split_numeric,
)
from repro.workloads import EmbeddingConfig, embedding_table


def main() -> None:
    rng = np.random.default_rng(3)
    columns = embedding_table(EmbeddingConfig(n_vectors=5000, dim=24, seed=3))
    print(f"{len(columns)} embedding dimensions x 5000 vectors "
          f"({sum(v.nbytes for v in columns.values()):,} B at FP32)\n")

    # strategy 1: uniform FP16
    uniform = QuantizationPolicy(default=FloatFormat.FP16).apply(columns)
    print(f"uniform FP16:        savings {uniform.savings():5.1%}")

    # strategy 2: sensitivity tiers (importance from the ranking model)
    sensitivities = {name: float(i) for i, name in enumerate(columns)}
    tiered_policy = auto_assign(sensitivities)
    tiered = tiered_policy.apply(columns)
    counts = {}
    for fmt in tiered.formats.values():
        counts[fmt.value] = counts.get(fmt.value, 0) + 1
    print(f"sensitivity tiers:   savings {tiered.savings():5.1%}  "
          f"({', '.join(f'{k}:{v}' for k, v in sorted(counts.items()))})")

    # strategy 3: per-feature error budget measured on the actual data
    budget_policy = error_budget_assign(columns, max_relative_error=5e-3)
    budget = budget_policy.apply(columns)
    print(f"error budget 5e-3:   savings {budget.savings():5.1%}")
    worst = max(
        QuantizationError.measure(v, budget_policy.format_for(k)).mean_relative_error
        for k, v in columns.items()
    )
    print(f"  worst mean relative error across features: {worst:.2e}\n")

    # dual-column decomposition for a business-critical FP32 feature
    critical = columns["dim_0"]
    hi, lo = split_bits(critical)
    print("dual-column FP32 decomposition (business-critical feature):")
    print(f"  hi column alone = BF16 view (cheap models), "
          f"{hi.nbytes:,} B")
    print(f"  1:1 join reconstructs FP32 bit-exactly: "
          f"{np.array_equal(join_bits(hi, lo), critical)}")
    scale = np.abs(critical).max()
    bf16_err = np.abs(hi_as_bf16_float(hi) - critical).max() / scale
    head, tail = split_numeric(critical)
    fp16_err = np.abs(head.astype(np.float32) - critical).max() / scale
    join_err = np.abs(join_numeric(head, tail) - critical).max() / scale
    print(f"  hi column read alone: max error {bf16_err:.1e} (BF16); the "
          f"numeric split's FP16 head: {fp16_err:.1e}, "
          f"joined: {join_err:.1e}\n")

    # sparse 64-bit ID feature: 2,000 live ids drawn from a huge space
    live = rng.integers(0, 2**62, size=2000)
    ids = rng.choice(live, size=50_000)
    remap = IdRemap.build(ids)
    print("sparse ID feature (50,000 rows, 2,000 live 64-bit ids):")
    print(f"  dense re-coding: {remap.cardinality:,} codes in "
          f"{remap.codes.dtype}, {remap.storage_savings():.0%} of INT64 "
          f"bytes, lossless: {np.array_equal(remap.restore(), ids)}")
    for bits in (12, 16, 20):
        fold = HashFold.build(ids, bits=bits)
        print(f"  hashed fold to {bits} bits: collision rate "
              f"{fold.collision_rate:.2%}")


if __name__ == "__main__":
    main()
