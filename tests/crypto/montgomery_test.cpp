/**
 * @file
 * Differential tests of the Montgomery modular-exponentiation engine
 * against the legacy division-based ladder, plus equivalence of the
 * precomputed RSA key contexts with the plain key operations. The
 * legacy ladder is the reference implementation: any disagreement is
 * a bug in the fast path.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/bignum.h"
#include "crypto/rsa.h"

namespace monatt::crypto
{
namespace
{

BigUint
randomBits(Rng &rng, std::size_t bits)
{
    return BigUint::fromBytes(rng.nextBytes(bits / 8));
}

/** A random odd modulus of roughly `bits` bits. */
BigUint
randomOddModulus(Rng &rng, std::size_t bits)
{
    BigUint m = randomBits(rng, bits);
    if (!m.isOdd())
        m = m + BigUint::fromU64(1);
    if (m.bitLength() < 2)
        m = BigUint::fromU64(3);
    return m;
}

TEST(MontgomeryTest, RandomizedDifferential512)
{
    Rng rng(0x5121);
    for (int i = 0; i < 40; ++i) {
        const BigUint m = randomOddModulus(rng, 512);
        const BigUint base = randomBits(rng, 512);
        const BigUint exp = randomBits(rng, 512);
        EXPECT_EQ(base.modExp(exp, m), base.modExpLegacy(exp, m))
            << "iteration " << i;
    }
}

TEST(MontgomeryTest, RandomizedDifferential1024)
{
    Rng rng(0x1024);
    for (int i = 0; i < 10; ++i) {
        const BigUint m = randomOddModulus(rng, 1024);
        const BigUint base = randomBits(rng, 1024);
        const BigUint exp = randomBits(rng, 1024);
        EXPECT_EQ(base.modExp(exp, m), base.modExpLegacy(exp, m))
            << "iteration " << i;
    }
}

TEST(MontgomeryTest, SmallAndMixedWidths)
{
    Rng rng(0x77);
    // Exercise every window size the ladder picks (1..5 for exponents
    // of 1..>512 bits) and asymmetric operand widths.
    for (const std::size_t expBits : {8u, 16u, 32u, 128u, 256u, 768u}) {
        const BigUint m = randomOddModulus(rng, 256);
        const BigUint base = randomBits(rng, 512);
        const BigUint exp = randomBits(rng, expBits);
        EXPECT_EQ(base.modExp(exp, m), base.modExpLegacy(exp, m))
            << expBits << "-bit exponent";
    }
}

TEST(MontgomeryTest, ZeroExponentIsOne)
{
    const BigUint m = BigUint::fromHexString("f123456789abcdef1");
    const BigUint base = BigUint::fromU64(0xdeadbeef);
    EXPECT_EQ(base.modExp(BigUint(), m), BigUint::fromU64(1));
    EXPECT_EQ(base.modExpLegacy(BigUint(), m), BigUint::fromU64(1));
}

TEST(MontgomeryTest, BaseLargerThanModulusIsReduced)
{
    Rng rng(0x88);
    const BigUint m = randomOddModulus(rng, 128);
    const BigUint base = randomBits(rng, 512); // base >> m
    const BigUint exp = BigUint::fromU64(65537);
    EXPECT_EQ(base.modExp(exp, m), base.modExpLegacy(exp, m));
    EXPECT_EQ((base % m).modExp(exp, m), base.modExp(exp, m));
}

TEST(MontgomeryTest, ZeroBase)
{
    const BigUint m = BigUint::fromHexString("f1");
    EXPECT_EQ(BigUint().modExp(BigUint::fromU64(12), m), BigUint());
}

TEST(MontgomeryTest, ModulusOneYieldsZero)
{
    const BigUint one = BigUint::fromU64(1);
    EXPECT_EQ(BigUint::fromU64(99).modExp(BigUint::fromU64(3), one),
              BigUint());
}

TEST(MontgomeryTest, ZeroModulusThrows)
{
    EXPECT_THROW(BigUint::fromU64(2).modExp(BigUint::fromU64(3), BigUint()),
                 std::domain_error);
}

TEST(MontgomeryTest, EvenModulusContextRejected)
{
    const BigUint even = BigUint::fromU64(100);
    const BigUint zero;
    EXPECT_THROW(MontgomeryContext{even}, std::domain_error);
    EXPECT_THROW(MontgomeryContext{zero}, std::domain_error);
}

TEST(MontgomeryTest, EvenModulusModExpFallsBackToLegacy)
{
    Rng rng(0x99);
    BigUint m = randomBits(rng, 256);
    if (m.isOdd())
        m = m + BigUint::fromU64(1); // force even
    const BigUint base = randomBits(rng, 256);
    const BigUint exp = randomBits(rng, 64);
    EXPECT_EQ(base.modExp(exp, m), base.modExpLegacy(exp, m));
}

TEST(MontgomeryTest, ContextReuseMatchesOneShot)
{
    Rng rng(0xaa);
    const BigUint m = randomOddModulus(rng, 512);
    const MontgomeryContext ctx(m);
    EXPECT_EQ(ctx.modulus(), m);
    for (int i = 0; i < 8; ++i) {
        const BigUint base = randomBits(rng, 512);
        const BigUint exp = randomBits(rng, 512);
        EXPECT_EQ(base.modExp(exp, ctx), base.modExp(exp, m));
    }
}

TEST(MontgomeryTest, EngineSwitchForcesLegacyEverywhere)
{
    Rng rng(0xbb);
    const BigUint m = randomOddModulus(rng, 256);
    const BigUint base = randomBits(rng, 256);
    const BigUint exp = randomBits(rng, 256);
    const BigUint fast = base.modExp(exp, m);

    ASSERT_EQ(modExpEngine(), ModExpEngine::Montgomery);
    setModExpEngine(ModExpEngine::Legacy);
    const BigUint slow = base.modExp(exp, m);
    setModExpEngine(ModExpEngine::Montgomery);
    EXPECT_EQ(fast, slow);
}

// --- Edge cases of the 64-bit word core ------------------------------

/** A random odd modulus of exactly `bits` bits. */
BigUint
exactOddModulus(Rng &rng, std::size_t bits)
{
    BigUint m = BigUint::randomWithBits(bits, rng);
    if (!m.isOdd())
        m = m + BigUint::fromU64(1);
    return m;
}

/** Checks modExp, one-shot and through a reused context, against the
 * legacy ladder for one modulus and a spread of bases and exponents. */
void
expectMatchesLegacy(const BigUint &m, Rng &rng)
{
    SCOPED_TRACE("modulus " + m.toHexString());
    const MontgomeryContext ctx(m);
    const std::size_t bits = m.bitLength();
    for (const std::size_t expBits : {std::size_t{17}, bits, 2 * bits}) {
        const BigUint base = BigUint::randomWithBits(bits + 7, rng);
        const BigUint exp = BigUint::randomWithBits(expBits, rng);
        const BigUint want = base.modExpLegacy(exp, m);
        EXPECT_EQ(base.modExp(exp, m), want) << expBits << "-bit exponent";
        EXPECT_EQ(ctx.modExp(base, exp), want) << expBits << "-bit exponent";
        EXPECT_EQ(ctx.modExp(base % m, exp), want);
    }
}

TEST(MontgomeryEdgeTest, OddLimbCountModuli)
{
    // 3, 9 and 17 32-bit limbs: the top 64-bit word is half full.
    Rng rng(0x96);
    for (const std::size_t bits : {96u, 288u, 544u}) {
        const BigUint m = exactOddModulus(rng, bits);
        ASSERT_EQ(m.bitLength(), bits);
        expectMatchesLegacy(m, rng);
    }
}

TEST(MontgomeryEdgeTest, AllOnesModuli)
{
    Rng rng(0x521);
    const BigUint one = BigUint::fromU64(1);
    // 2^521 - 1 (a Mersenne prime) and 2^512 - 1 (every word all ones).
    for (const std::size_t bits : {521u, 512u, 64u, 32u}) {
        const BigUint m = one.shiftLeft(bits) - one;
        expectMatchesLegacy(m, rng);
    }
    const BigUint mersenne = one.shiftLeft(521) - one;
    const BigUint base = BigUint::fromU64(3);
    // Fermat: 3^(p-1) = 1 mod p.
    EXPECT_EQ(base.modExp(mersenne - one, mersenne), one);
}

TEST(MontgomeryEdgeTest, TinyModulusAndTrivialOperands)
{
    const BigUint three = BigUint::fromU64(3);
    const MontgomeryContext ctx(three);
    for (std::uint64_t b = 0; b < 10; ++b) {
        for (std::uint64_t e = 0; e < 6; ++e) {
            const BigUint base = BigUint::fromU64(b);
            const BigUint exp = BigUint::fromU64(e);
            EXPECT_EQ(ctx.modExp(base, exp), base.modExpLegacy(exp, three))
                << b << "^" << e << " mod 3";
        }
    }

    Rng rng(0x33);
    const BigUint m = exactOddModulus(rng, 512);
    const MontgomeryContext big(m);
    const BigUint base = BigUint::randomWithBits(300, rng);
    const BigUint zero;
    const BigUint one = BigUint::fromU64(1);
    EXPECT_EQ(big.modExp(base, zero), one);
    EXPECT_EQ(big.modExp(base, one), base);
    EXPECT_EQ(big.modExp(zero, one), zero);
    EXPECT_EQ(big.modExp(zero, BigUint::fromU64(65537)), zero);
    // Base equal to, and a multiple plus one of, the modulus.
    EXPECT_EQ(big.modExp(m, BigUint::fromU64(5)), zero);
    EXPECT_EQ(big.modExp(m * BigUint::fromU64(7) + one, m), one);
    EXPECT_EQ(big.modExp(m - one, BigUint::fromU64(2)), one);
}

TEST(MontgomeryEdgeTest, ModulusAboveInlineScratch)
{
    // One word past the stack scratch: this modulus takes the heap
    // block, and a full-width exponent takes the widest window.
    Rng rng(0x2112);
    const std::size_t bits = 64 * (MontgomeryContext::kInlineWords + 1);
    const BigUint m = exactOddModulus(rng, bits);
    const MontgomeryContext ctx(m);
    const BigUint base = BigUint::randomWithBits(bits, rng);
    const BigUint exp = BigUint::randomWithBits(bits, rng);
    EXPECT_EQ(ctx.modExp(base, exp), base.modExpLegacy(exp, m));
    const BigUint e = BigUint::fromU64(65537);
    EXPECT_EQ(ctx.modExp(base, e), base.modExpLegacy(e, m));
}

TEST(MontgomeryEdgeTest, PrimeSearchMatchesLegacyEngine)
{
    // The prime test draws its bases exactly as the legacy one does,
    // so both engines walk to the same primes.
    for (const std::size_t bits : {64u, 96u, 256u}) {
        Rng fastRng(bits);
        const BigUint fast = BigUint::generatePrime(bits, fastRng);
        setModExpEngine(ModExpEngine::Legacy);
        Rng slowRng(bits);
        const BigUint slow = BigUint::generatePrime(bits, slowRng);
        setModExpEngine(ModExpEngine::Montgomery);
        EXPECT_EQ(fast, slow) << bits << "-bit prime";
        EXPECT_EQ(fastRng.next(), slowRng.next()) << bits << "-bit prime";
    }
}

// --- RSA context equivalence ------------------------------------------

const RsaKeyPair &
testKeyPair()
{
    static const RsaKeyPair kp = [] {
        Rng rng(0xcc);
        return rsaGenerateKeyPair(512, rng);
    }();
    return kp;
}

TEST(RsaContextTest, SignaturesInterchangeable)
{
    const RsaKeyPair &kp = testKeyPair();
    const RsaPrivateContext priv(kp.priv);
    const RsaPublicContext pub(kp.pub);
    const Bytes msg = toBytes("context equivalence message");

    const Bytes sigKey = rsaSign(kp.priv, msg);
    const Bytes sigCtx = rsaSign(priv, msg);
    // Deterministic padding: the context path must be byte-identical.
    EXPECT_EQ(sigKey, sigCtx);
    EXPECT_TRUE(rsaVerify(kp.pub, msg, sigCtx));
    EXPECT_TRUE(rsaVerify(pub, msg, sigKey));
    EXPECT_FALSE(rsaVerify(pub, toBytes("other message"), sigCtx));
}

TEST(RsaContextTest, EncryptionInterchangeable)
{
    const RsaKeyPair &kp = testKeyPair();
    const RsaPrivateContext priv(kp.priv);
    const RsaPublicContext pub(kp.pub);
    EXPECT_TRUE(pub.key() == kp.pub);
    Rng rng(0xdd);
    const Bytes msg = toBytes("premaster secret bytes");

    auto c1 = rsaEncrypt(pub, msg, rng);
    ASSERT_TRUE(c1.isOk());
    auto p1 = rsaDecrypt(kp.priv, c1.value());
    ASSERT_TRUE(p1.isOk());
    EXPECT_EQ(p1.value(), msg);

    auto c2 = rsaEncrypt(kp.pub, msg, rng);
    ASSERT_TRUE(c2.isOk());
    auto p2 = rsaDecrypt(priv, c2.value());
    ASSERT_TRUE(p2.isOk());
    EXPECT_EQ(p2.value(), msg);
}

TEST(RsaContextTest, LegacyEngineContextsStayCorrect)
{
    const RsaKeyPair &kp = testKeyPair();
    const Bytes msg = toBytes("legacy engine message");
    setModExpEngine(ModExpEngine::Legacy);
    const RsaPrivateContext priv(kp.priv); // built without Montgomery
    const Bytes sig = rsaSign(priv, msg);
    setModExpEngine(ModExpEngine::Montgomery);
    EXPECT_EQ(sig, rsaSign(kp.priv, msg));
}

} // namespace
} // namespace monatt::crypto
