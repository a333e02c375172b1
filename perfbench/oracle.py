"""Output oracle for the benchmark, written without any of `perepair`'s code.

It recomputes what every stripe must hold from first principles:

* the message, from the cluster format's SplitMix64 stream (state advances
  by 0x9E3779B97F4A7C15, output mixed by 0xBF58476D1CE4E5B9 and
  0x94D049BB133111EB; one field coefficient takes ceil(N/64) words,
  little-endian, masked to N bits);
* each symbol, by Horner evaluation of the message at the node's point,
  with a shift-and-xor carry-less multiply and a top-down reduction by the
  plan's modulus;
* the cut-set bandwidth ceil(d*L/(d-k+1)) base symbols, in bits.

Points and the modulus are read from the plan as plain integers; everything
computed from them here is independent of `perepair.field_tower`.
"""

_MASK64 = (1 << 64) - 1


def gf2x_mul(a: int, b: int) -> int:
    """Carry-less product: xor a shifted copy of a for every set bit of b."""
    out = 0
    while b:
        low = b & -b
        out ^= a << (low.bit_length() - 1)
        b ^= low
    return out


def gf2x_reduce(a: int, modulus: int) -> int:
    """a mod modulus, cancelling the leading term one bit at a time."""
    n = modulus.bit_length() - 1
    top = a.bit_length() - 1
    while top >= n:
        a ^= modulus << (top - n)
        top = a.bit_length() - 1
    return a


def field_mul(a: int, b: int, modulus: int) -> int:
    return gf2x_reduce(gf2x_mul(a, b), modulus)


def horner(coefficients, x: int, modulus: int) -> int:
    """Value at x of the polynomial with ascending coefficients."""
    acc = 0
    for c in reversed(coefficients):
        acc = field_mul(acc, x, modulus) ^ c
    return acc


def splitmix_message(seed: int, k: int, nbits: int):
    """The k message coefficients a cluster of this seed must hold."""
    state = seed & _MASK64
    words = (nbits + 63) // 64
    coefficients = []
    for _ in range(k):
        v = 0
        for i in range(words):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            v |= (z ^ (z >> 31)) << (64 * i)
        coefficients.append(v & ((1 << nbits) - 1))
    return coefficients


def stripe_symbols(seed: int, k: int, points, modulus: int):
    """Every node's symbol for the stripe with this message seed."""
    nbits = modulus.bit_length() - 1
    message = splitmix_message(seed, k, nbits)
    return [horner(message, x, modulus) for x in points]


def cutset_bits(d: int, k: int, L: int, base_bits: int) -> int:
    """ceil(d*L/(d-k+1)) base-field symbols, in bits."""
    return -(-d * L // (d - k + 1)) * base_bits
