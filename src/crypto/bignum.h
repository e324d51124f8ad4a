/**
 * @file
 * Arbitrary-precision unsigned integers for RSA.
 *
 * A small big-integer implementation (little-endian 32-bit limbs,
 * schoolbook multiplication, Knuth Algorithm-D division) sized for the
 * 512-2048 bit moduli used by CloudMonatt's identity and attestation
 * keys; odd-modulus exponentiation runs in MontgomeryContext on 64-bit
 * words with 128-bit products. Not constant time — the simulated
 * adversary is the Dolev-Yao network attacker of §3.3, not a local
 * timing attacker on the Trust Module, which the paper assumes is
 * protected hardware.
 */

#ifndef MONATT_CRYPTO_BIGNUM_H
#define MONATT_CRYPTO_BIGNUM_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

namespace monatt::crypto
{

class MontgomeryContext;

/**
 * Process-wide modular-exponentiation engine selector. Montgomery is
 * the default; Legacy forces the division-based ladder everywhere
 * (BigUint::modExp routes to modExpLegacy and the RSA key contexts
 * skip Montgomery precomputation). Exists for the before/after figure
 * benches and differential tests — production code never changes it.
 */
enum class ModExpEngine
{
    Montgomery,
    Legacy,
};

/** The currently selected engine. */
ModExpEngine modExpEngine() noexcept;

/** Select the engine (not thread-safe; set before spinning up work). */
void setModExpEngine(ModExpEngine engine) noexcept;

/** Arbitrary-precision unsigned integer. */
class BigUint
{
  public:
    /** Zero. */
    BigUint() = default;

    /** From a 64-bit value. */
    static BigUint fromU64(std::uint64_t v);

    /** From big-endian bytes (leading zeros allowed). */
    static BigUint fromBytes(const Bytes &be);

    /** From a hex string (for test fixtures). */
    static BigUint fromHexString(const std::string &hex);

    /**
     * To big-endian bytes.
     * @param width Pad with leading zeros to this width; 0 = minimal.
     * @throws std::invalid_argument if the value needs more bytes.
     */
    Bytes toBytes(std::size_t width = 0) const;

    /** Lowercase hex (minimal, "0" for zero). */
    std::string toHexString() const;

    /** Uniform random value with exactly `bits` bits (MSB set). */
    static BigUint randomWithBits(std::size_t bits, Rng &rng);

    /** Uniform random value in [2, bound-1]. */
    static BigUint randomBelow(const BigUint &bound, Rng &rng);

    bool isZero() const { return limb.empty(); }
    bool isOdd() const { return !limb.empty() && (limb[0] & 1); }

    /** Number of significant bits (0 for zero). */
    std::size_t bitLength() const;

    /** Value of bit i (0 = LSB). */
    bool bit(std::size_t i) const;

    /** Three-way comparison: -1, 0, +1. */
    static int compare(const BigUint &a, const BigUint &b);

    bool operator==(const BigUint &o) const { return compare(*this, o) == 0; }
    bool operator!=(const BigUint &o) const { return compare(*this, o) != 0; }
    bool operator<(const BigUint &o) const { return compare(*this, o) < 0; }
    bool operator<=(const BigUint &o) const { return compare(*this, o) <= 0; }
    bool operator>(const BigUint &o) const { return compare(*this, o) > 0; }
    bool operator>=(const BigUint &o) const { return compare(*this, o) >= 0; }

    BigUint operator+(const BigUint &o) const;

    /** Subtraction; @throws std::underflow_error when o > *this. */
    BigUint operator-(const BigUint &o) const;

    BigUint operator*(const BigUint &o) const;

    /** Quotient and remainder; @throws std::domain_error on /0. */
    static std::pair<BigUint, BigUint> divmod(const BigUint &num,
                                              const BigUint &den);

    BigUint operator/(const BigUint &o) const;
    BigUint operator%(const BigUint &o) const;

    /** Left shift by `bits`. */
    BigUint shiftLeft(std::size_t bits) const;

    /** Right shift by `bits`. */
    BigUint shiftRight(std::size_t bits) const;

    /**
     * (this ^ exp) mod m.
     *
     * Odd moduli route through a Montgomery-multiplication fixed-window
     * ladder (a one-shot MontgomeryContext); even moduli fall back to
     * the division-based square-and-multiply ladder. Callers that
     * exponentiate repeatedly under one modulus should build a
     * MontgomeryContext once and use the context overload.
     */
    BigUint modExp(const BigUint &exp, const BigUint &m) const;

    /** (this ^ exp) mod ctx.modulus(), reusing precomputed constants. */
    BigUint modExp(const BigUint &exp, const MontgomeryContext &ctx) const;

    /**
     * The original division-based square-and-multiply ladder. Kept as
     * the reference implementation for differential tests and the
     * old-vs-new benchmark; new code should call modExp.
     */
    BigUint modExpLegacy(const BigUint &exp, const BigUint &m) const;

    /** Greatest common divisor. */
    static BigUint gcd(BigUint a, BigUint b);

    /**
     * Modular inverse of *this mod m.
     * @throws std::domain_error when no inverse exists.
     */
    BigUint modInverse(const BigUint &m) const;

    /** Trial division by the odd primes up to 463, then `rounds`
     * Miller-Rabin rounds under one MontgomeryContext (on the division
     * ladder when the Legacy engine is selected). */
    bool isProbablePrime(Rng &rng, int rounds = 24) const;

    /** Generate a random probable prime with exactly `bits` bits. */
    static BigUint generatePrime(std::size_t bits, Rng &rng);

  private:
    friend class MontgomeryContext;

    void trim();

    /** Little-endian 32-bit limbs; empty == zero. */
    std::vector<std::uint32_t> limb;
};

/**
 * Precomputed constants for Montgomery modular arithmetic under one
 * fixed odd modulus n of k 64-bit words: the word inverse
 * n' = -n^-1 mod 2^64, R mod n and R^2 mod n for R = 2^(64*k).
 * Exponentiation runs a fixed-window ladder over CIOS Montgomery
 * products (128-bit word products, a dedicated squaring path),
 * replacing the per-step Knuth division of the legacy ladder with
 * word-level reductions.
 *
 * The ladder's loops allocate nothing: its window table, accumulator
 * and product scratch live in one contiguous buffer, on the stack for
 * moduli up to kInlineWords words (2048 bits) and in one heap block
 * above that. Results do not depend on the word size, so BigUint keeps
 * its 32-bit storage.
 *
 * RSA moduli, primes and CRT factors are always odd, so every protocol
 * exponentiation qualifies. Construction costs one division (for
 * R^2 mod n); the per-key context caches in the Trust Module, the
 * secure channels and the Attestation Server exist to pay it once per
 * key instead of once per operation, and Miller-Rabin pays it once
 * per candidate.
 */
class MontgomeryContext
{
  public:
    /** Largest modulus, in 64-bit words, whose scratch fits on the
     * stack. */
    static constexpr std::size_t kInlineWords = 32;

    /** @throws std::domain_error when `modulus` is even or zero. */
    explicit MontgomeryContext(const BigUint &modulus);

    const BigUint &modulus() const { return m; }

    /** (base ^ exp) mod modulus(). */
    BigUint modExp(const BigUint &base, const BigUint &exp) const;

  private:
    friend class BigUint;

    using Word = std::uint64_t;

    /** out (k words) = base ^ exp in the Montgomery domain, for a
     * nonzero exp; `scratch` holds 2^5 + 2 blocks of k words. */
    void powMont(const BigUint &base, const BigUint &exp, Word *out,
                 Word *scratch) const;

    /**
     * One Miller-Rabin round for an odd n = d * 2^s + 1: true when
     * `a` proves n composite. The squarings stay in the Montgomery
     * domain.
     */
    bool isWitness(const BigUint &a, const BigUint &d, std::size_t s) const;

    /** value (already < n) as k little-endian words. */
    void load(const BigUint &value, Word *out) const;

    /** a converted back from the Montgomery domain (a is clobbered;
     * t holds 2k words). */
    BigUint fromMont(Word *a, Word *t) const;

    BigUint m;
    std::size_t k = 0;      //!< Modulus size in 64-bit words.
    std::vector<Word> n;    //!< Modulus words (k).
    std::vector<Word> one;  //!< R mod n: 1 in Montgomery form (k).
    std::vector<Word> rr;   //!< R^2 mod n (k).
    Word nPrime = 0;        //!< -n^-1 mod 2^64.
};

} // namespace monatt::crypto

#endif // MONATT_CRYPTO_BIGNUM_H
