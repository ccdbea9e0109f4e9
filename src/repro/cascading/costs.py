"""Write and read seconds per raw MB of every candidate scheme, by
value kind and description: the cascade objective's time terms
(:func:`repro.cascading.objective.scheme_cost`).

Generated by ``python benchmarks/calibrate_cascade.py --write`` on a
2-core x86-64 box under CPython 3.11: the median over a seeded corpus
of the best of 7 timings on the selector's sample, two
significant figures. A ``list(<inner>)`` composite costs the
``list_int`` ``list`` row (the list framing) plus its inner scheme's
``list_int.values`` row (an ``int`` scheme timed on the flattened
values of list columns). Re-run the script when a
codec's speed changes, and commit what it writes.
"""

#: kind -> description -> (write s/MB, read s/MB)
SCHEME_COSTS = {
    'bool': {
        'rle(zigzag, varint)': (0.021, 0.011),
        'roaring': (0.0061, 0.0026),
        'sparse_bool': (0.014, 0.0041),
        'trivial': (0.00065, 0.0013),
    },
    'bytes': {
        'chunked(fsst)': (1.4, 0.042),
        'chunked(trivial)': (0.027, 0.02),
        'constant': (0.015, 0.00072),
        'dictionary(fixed_bit_width)': (0.034, 0.01),
        'dictionary(rle)': (0.039, 0.011),
        'fsst': (1.4, 0.04),
        'trivial': (0.016, 0.018),
    },
    'float': {
        'alp(for)': (0.048, 0.011),
        'bitshuffle(chunked)': (0.022, 0.011),
        'chimp': (0.23, 0.12),
        'chunked(bitshuffle)': (0.021, 0.011),
        'chunked(trivial)': (0.041, 0.0065),
        'constant': (0.00035, 0.00032),
        'gorilla': (0.18, 0.11),
        'mainly_constant': (0.0038, 0.00097),
        'pseudodecimal': (0.013, 0.005),
        'trivial': (0.00021, 0.00021),
    },
    'int': {
        'bitshuffle(chunked)': (0.013, 0.0098),
        'chunked(fastbp128)': (0.0096, 0.0035),
        'chunked(trivial)': (0.048, 0.0037),
        'constant': (0.00028, 0.00031),
        'delta(zigzag(varint))': (0.0045, 0.0032),
        'dictionary(fixed_bit_width)': (0.0049, 0.0017),
        'dictionary(rle)': (0.0052, 0.0021),
        'fastbp128': (0.0074, 0.003),
        'fastpfor': (0.012, 0.003),
        'fixed_bit_width': (0.0015, 0.00079),
        'for': (0.0053, 0.0031),
        'huffman': (0.0093, 0.019),
        'mainly_constant': (0.0033, 0.00084),
        'rle(dictionary, varint)': (0.0029, 0.0015),
        'rle(zigzag, varint)': (0.0084, 0.004),
        'trivial': (0.00017, 0.00019),
        'varint': (0.0046, 0.0026),
        'zigzag(varint)': (0.0052, 0.0032),
    },
    'list_bytes': {
        'list(chunked)': (0.074, 0.04),
        'list(trivial)': (0.062, 0.04),
    },
    'list_float': {
        'list(chunked)': (0.043, 0.0075),
        'list(trivial)': (0.011, 0.0012),
    },
    'list_int': {
        'list': (0.0012, 0.00031),
        'list(trivial)': (0.0011, 0.00034),
        'sparse_list_delta(chunked)': (0.022, 0.0009),
    },
    'list_list_int': {
        'list(chunked)': (0.28, 0.052),
        'list(trivial)': (0.081, 0.041),
    },
    'list_int.values': {
        'bitshuffle(chunked)': (0.013, 0.0099),
        'chunked(fastbp128)': (0.0057, 0.0026),
        'chunked(trivial)': (0.021, 0.0016),
        'constant': (0.00027, 0.00028),
        'delta(zigzag(varint))': (0.0048, 0.0036),
        'dictionary(fixed_bit_width)': (0.006, 0.0016),
        'dictionary(rle)': (0.0078, 0.0025),
        'fastbp128': (0.0025, 0.0014),
        'fastpfor': (0.0076, 0.0015),
        'fixed_bit_width': (0.0014, 0.0008),
        'for': (0.0029, 0.0018),
        'huffman': (0.019, 0.02),
        'mainly_constant': (0.0032, 0.00079),
        'rle(dictionary, varint)': (0.0038, 0.0016),
        'rle(zigzag, varint)': (0.0081, 0.0039),
        'trivial': (0.00016, 0.00018),
        'varint': (0.005, 0.0028),
        'zigzag(varint)': (0.0052, 0.0033),
    },
}
