/**
 * @file
 * BigUint arithmetic: fixed vectors plus randomized algebraic
 * property sweeps (the division identity a = qb + r is the critical
 * invariant backing RSA correctness).
 */

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/bignum.h"

namespace monatt::crypto
{
namespace
{

TEST(BigUintTest, ZeroBasics)
{
    const BigUint zero;
    EXPECT_TRUE(zero.isZero());
    EXPECT_EQ(zero.bitLength(), 0u);
    EXPECT_EQ(zero.toHexString(), "0");
    EXPECT_EQ(zero.toBytes(), Bytes{0x00});
}

TEST(BigUintTest, FromU64RoundTrip)
{
    for (std::uint64_t v :
         {0ULL, 1ULL, 255ULL, 256ULL, 0xffffffffULL, 0x100000000ULL,
          0xdeadbeefcafebabeULL, 0xffffffffffffffffULL}) {
        const BigUint b = BigUint::fromU64(v);
        EXPECT_EQ(BigUint::fromBytes(b.toBytes()), b) << v;
    }
}

TEST(BigUintTest, HexRoundTrip)
{
    const std::string hex = "123456789abcdef0fedcba9876543210";
    EXPECT_EQ(BigUint::fromHexString(hex).toHexString(), hex);
    EXPECT_EQ(BigUint::fromHexString("0").toHexString(), "0");
    EXPECT_EQ(BigUint::fromHexString("00ff").toHexString(), "ff");
}

TEST(BigUintTest, AdditionKnownValues)
{
    const BigUint a = BigUint::fromHexString("ffffffffffffffff");
    const BigUint one = BigUint::fromU64(1);
    EXPECT_EQ((a + one).toHexString(), "10000000000000000");
}

TEST(BigUintTest, SubtractionUnderflowThrows)
{
    EXPECT_THROW(BigUint::fromU64(1) - BigUint::fromU64(2),
                 std::underflow_error);
}

TEST(BigUintTest, MultiplicationKnownValues)
{
    const BigUint a = BigUint::fromHexString("ffffffff");
    EXPECT_EQ((a * a).toHexString(), "fffffffe00000001");
    const BigUint big = BigUint::fromHexString(
        "123456789abcdef0123456789abcdef0");
    EXPECT_EQ((big * BigUint::fromU64(0)).toHexString(), "0");
    EXPECT_EQ((big * BigUint::fromU64(1)), big);
}

TEST(BigUintTest, DivisionByZeroThrows)
{
    EXPECT_THROW(BigUint::fromU64(5) / BigUint(), std::domain_error);
}

TEST(BigUintTest, DivisionKnownValues)
{
    const BigUint n = BigUint::fromHexString(
        "fedcba9876543210fedcba9876543210");
    const BigUint d = BigUint::fromHexString("123456789");
    auto [q, r] = BigUint::divmod(n, d);
    EXPECT_EQ(q * d + r, n);
    EXPECT_TRUE(r < d);
}

TEST(BigUintTest, ShiftRoundTrip)
{
    const BigUint v = BigUint::fromHexString("deadbeef12345678");
    for (std::size_t s : {1u, 7u, 31u, 32u, 33u, 64u, 100u}) {
        EXPECT_EQ(v.shiftLeft(s).shiftRight(s), v) << s;
    }
    EXPECT_TRUE(v.shiftRight(100).isZero());
}

TEST(BigUintTest, ModExpSmallValues)
{
    // 3^7 mod 5 = 2187 mod 5 = 2.
    EXPECT_EQ(BigUint::fromU64(3).modExp(BigUint::fromU64(7),
                                         BigUint::fromU64(5)),
              BigUint::fromU64(2));
    // Fermat: a^(p-1) = 1 mod p for prime p.
    const BigUint p = BigUint::fromU64(1000003);
    EXPECT_EQ(BigUint::fromU64(12345).modExp(p - BigUint::fromU64(1), p),
              BigUint::fromU64(1));
}

TEST(BigUintTest, GcdKnownValues)
{
    EXPECT_EQ(BigUint::gcd(BigUint::fromU64(48), BigUint::fromU64(36)),
              BigUint::fromU64(12));
    EXPECT_EQ(BigUint::gcd(BigUint::fromU64(17), BigUint::fromU64(13)),
              BigUint::fromU64(1));
}

TEST(BigUintTest, ModInverseKnownValues)
{
    // 3 * 5 = 15 = 1 mod 7.
    EXPECT_EQ(BigUint::fromU64(3).modInverse(BigUint::fromU64(7)),
              BigUint::fromU64(5));
    EXPECT_THROW(BigUint::fromU64(6).modInverse(BigUint::fromU64(9)),
                 std::domain_error);
}

TEST(BigUintTest, PrimalityKnownValues)
{
    Rng rng(42);
    EXPECT_FALSE(BigUint::fromU64(0).isProbablePrime(rng));
    EXPECT_FALSE(BigUint::fromU64(1).isProbablePrime(rng));
    EXPECT_TRUE(BigUint::fromU64(2).isProbablePrime(rng));
    EXPECT_TRUE(BigUint::fromU64(3).isProbablePrime(rng));
    EXPECT_FALSE(BigUint::fromU64(4).isProbablePrime(rng));
    EXPECT_TRUE(BigUint::fromU64(104729).isProbablePrime(rng));
    EXPECT_FALSE(BigUint::fromU64(104731).isProbablePrime(rng));
    // Carmichael number 561 = 3 * 11 * 17 must be rejected.
    EXPECT_FALSE(BigUint::fromU64(561).isProbablePrime(rng));
    // Large known prime: 2^61 - 1.
    EXPECT_TRUE(BigUint::fromU64((1ULL << 61) - 1).isProbablePrime(rng));
}

/** Sieve of Eratosthenes: isPrime[i] for i < n. */
std::vector<bool>
sieve(std::size_t n)
{
    std::vector<bool> isPrime(n, true);
    isPrime[0] = isPrime[1] = false;
    for (std::size_t i = 2; i * i < n; ++i) {
        if (isPrime[i]) {
            for (std::size_t j = i * i; j < n; j += i)
                isPrime[j] = false;
        }
    }
    return isPrime;
}

TEST(BigUintTest, PrimalityMatchesSieve)
{
    // Covers every trial-division prime (3..463), its multiples and
    // squares below the bound, and the first primes that only
    // Miller-Rabin can certify.
    Rng rng(43);
    const std::vector<bool> isPrime = sieve(5000);
    for (std::size_t v = 0; v < isPrime.size(); ++v) {
        EXPECT_EQ(BigUint::fromU64(v).isProbablePrime(rng), isPrime[v])
            << v;
    }
}

TEST(BigUintTest, PrimalityTrialDivisionEdges)
{
    Rng rng(44);
    const auto prime = [&](std::uint64_t v) {
        return BigUint::fromU64(v).isProbablePrime(rng);
    };
    EXPECT_TRUE(prime(463));  // the largest trial-division prime
    EXPECT_TRUE(prime(467));  // the first prime above it
    EXPECT_FALSE(prime(463ULL * 463));
    EXPECT_FALSE(prime(463ULL * 467));
    EXPECT_FALSE(prime(467ULL * 467)); // no small factor
    // Carmichael numbers: trial division catches these...
    EXPECT_FALSE(prime(561));
    EXPECT_FALSE(prime(41041));
    EXPECT_FALSE(prime(825265));
    // ...and Miller-Rabin this one, 601 * 1201 * 1801.
    EXPECT_FALSE(prime(1299963601ULL));

    // Multi-limb values: Mersenne primes, and small factors in the
    // low and high limbs.
    const BigUint one = BigUint::fromU64(1);
    const BigUint m89 = one.shiftLeft(89) - one;
    const BigUint m127 = one.shiftLeft(127) - one;
    EXPECT_TRUE(m89.isProbablePrime(rng));
    EXPECT_TRUE(m127.isProbablePrime(rng));
    EXPECT_FALSE((m89 * BigUint::fromU64(3)).isProbablePrime(rng));
    EXPECT_FALSE((m127 * BigUint::fromU64(463)).isProbablePrime(rng));
    EXPECT_FALSE((m89 * m127).isProbablePrime(rng));
}

TEST(BigUintTest, TrialDivisionRejectsBeforeDrawingBases)
{
    // Every odd prime up to 463 is a trial divisor: a multiple of one
    // is rejected before Miller-Rabin draws a base from the RNG.
    const std::vector<bool> isPrime = sieve(468);
    const BigUint m61 = BigUint::fromU64((1ULL << 61) - 1);
    for (std::size_t p = 3; p < isPrime.size(); ++p) {
        if (!isPrime[p])
            continue;
        Rng rng(p);
        Rng untouched(p);
        EXPECT_FALSE((m61 * BigUint::fromU64(p)).isProbablePrime(rng)) << p;
        if (p <= 463)
            EXPECT_EQ(rng.next(), untouched.next()) << p;
        else
            EXPECT_NE(rng.next(), untouched.next()) << p; // Miller-Rabin
    }
}

TEST(BigUintTest, GeneratePrimeHasRequestedSize)
{
    Rng rng(7);
    const BigUint p = BigUint::generatePrime(128, rng);
    EXPECT_EQ(p.bitLength(), 128u);
    EXPECT_TRUE(p.isOdd());
}

// Randomized algebraic properties over a sweep of bit widths. These
// exercise the Knuth division hot paths (normalization, qhat
// correction, add-back) that fixed vectors rarely reach.
class BigUintPropertyTest : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(BigUintPropertyTest, DivisionIdentity)
{
    const std::size_t bits = GetParam();
    Rng rng(bits * 7919 + 13);
    for (int i = 0; i < 50; ++i) {
        const BigUint a = BigUint::randomWithBits(bits, rng);
        const std::size_t dbits = 1 + rng.nextBounded(bits);
        BigUint b = BigUint::randomWithBits(dbits, rng);
        if (b.isZero())
            b = BigUint::fromU64(1);
        auto [q, r] = BigUint::divmod(a, b);
        EXPECT_EQ(q * b + r, a);
        EXPECT_TRUE(r < b);
    }
}

TEST_P(BigUintPropertyTest, AddSubInverse)
{
    const std::size_t bits = GetParam();
    Rng rng(bits * 104729 + 1);
    for (int i = 0; i < 50; ++i) {
        const BigUint a = BigUint::randomWithBits(bits, rng);
        const BigUint b = BigUint::randomWithBits(bits, rng);
        EXPECT_EQ((a + b) - b, a);
        EXPECT_EQ((a + b) - a, b);
    }
}

TEST_P(BigUintPropertyTest, MulDistributesOverAdd)
{
    const std::size_t bits = GetParam();
    Rng rng(bits * 31337 + 5);
    for (int i = 0; i < 20; ++i) {
        const BigUint a = BigUint::randomWithBits(bits, rng);
        const BigUint b = BigUint::randomWithBits(bits / 2 + 1, rng);
        const BigUint c = BigUint::randomWithBits(bits / 2 + 1, rng);
        EXPECT_EQ(a * (b + c), a * b + a * c);
    }
}

TEST_P(BigUintPropertyTest, ModExpMatchesNaive)
{
    const std::size_t bits = GetParam();
    Rng rng(bits * 65537 + 3);
    const BigUint m = BigUint::randomWithBits(std::min<std::size_t>(bits,
                                                                    48),
                                              rng);
    const BigUint base = BigUint::randomWithBits(16, rng);
    const std::uint64_t exp = rng.nextBounded(30) + 1;
    BigUint naive = BigUint::fromU64(1);
    for (std::uint64_t i = 0; i < exp; ++i)
        naive = (naive * base) % m;
    EXPECT_EQ(base.modExp(BigUint::fromU64(exp), m), naive);
}

TEST_P(BigUintPropertyTest, ModInverseRoundTrip)
{
    const std::size_t bits = GetParam();
    Rng rng(bits * 11 + 29);
    const BigUint m = BigUint::generatePrime(std::min<std::size_t>(bits,
                                                                   96),
                                             rng);
    for (int i = 0; i < 10; ++i) {
        const BigUint a = BigUint::randomBelow(m, rng);
        const BigUint inv = a.modInverse(m);
        EXPECT_EQ((a * inv) % m, BigUint::fromU64(1));
    }
}

INSTANTIATE_TEST_SUITE_P(BitWidths, BigUintPropertyTest,
                         ::testing::Values(16, 33, 64, 96, 128, 192, 256,
                                           512));

TEST(BigUintTest, ByteRoundTripWithWidth)
{
    const BigUint v = BigUint::fromHexString("abcd");
    const Bytes padded = v.toBytes(8);
    EXPECT_EQ(padded.size(), 8u);
    EXPECT_EQ(toHex(padded), "000000000000abcd");
    EXPECT_EQ(BigUint::fromBytes(padded), v);
    EXPECT_THROW(v.toBytes(1), std::invalid_argument);
}

} // namespace
} // namespace monatt::crypto
