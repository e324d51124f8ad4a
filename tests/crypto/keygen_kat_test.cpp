/**
 * @file
 * Known-answer tests for RSA key generation. Keys come from a seeded
 * Rng, and every identity, AIK, signature and golden digest in the
 * simulation is downstream of them, so a change to the bignum core or
 * the prime test must leave these values alone. They were captured
 * with the 32-bit-word Montgomery core, before the move to 64-bit
 * words.
 */

#include <gtest/gtest.h>

#include "common/codec.h"
#include "common/rng.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "server/cloud_server.h"

namespace monatt::crypto
{
namespace
{

/** SHA-256 of the public key's wire encoding. */
std::string
publicDigest(const RsaKeyPair &kp)
{
    return toHex(Sha256::hash(kp.pub.encode()));
}

/** SHA-256 over the length-prefixed private fields p, q, d, dP, dQ,
 * qInv. */
std::string
privateDigest(const RsaKeyPair &kp)
{
    ByteWriter w;
    for (const BigUint *v : {&kp.priv.p, &kp.priv.q, &kp.priv.d,
                             &kp.priv.dP, &kp.priv.dQ, &kp.priv.qInv})
        w.putBytes(v->toBytes());
    return toHex(Sha256::hash(w.take()));
}

TEST(KeygenKatTest, Rsa512)
{
    Rng rng(20261018);
    const RsaKeyPair kp = rsaGenerateKeyPair(512, rng);
    EXPECT_EQ(kp.priv.p.toHexString(),
              "e26fca96643228014fdca1cd581018aa0c996d2f0e7cbdb62eb03cf30be4"
              "623f");
    EXPECT_EQ(kp.priv.q.toHexString(),
              "9a078d7812998b035c9ae7a07a26a23cd66ee137aa65a4db9046766556e8"
              "c9b1");
    EXPECT_EQ(publicDigest(kp),
              "ad0f046b47beddcaceafaf381503623e360d4f2788ed5ec68c425ca5f7a2"
              "118c");
    EXPECT_EQ(privateDigest(kp),
              "8817a7bb365d073a3e929ad40f0a990319db77244fe38b80cec53cc7736c"
              "bca4");
}

TEST(KeygenKatTest, Rsa1024)
{
    Rng rng(20261019);
    const RsaKeyPair kp = rsaGenerateKeyPair(1024, rng);
    EXPECT_EQ(publicDigest(kp),
              "be985e9c926599c903baf9a5e8865e0f62dd3cb59d038db37c4c01cc6ce8"
              "4704");
    EXPECT_EQ(privateDigest(kp),
              "dbec759ac68d731abdf4ff66609bc9e481f74990265dc862a4cb47f5e331"
              "0a9c");
}

TEST(KeygenKatTest, ServerIdentityKey)
{
    const RsaKeyPair kp =
        server::CloudServer::deriveIdentityKeys("server-0", 42, 512);
    EXPECT_EQ(publicDigest(kp),
              "d61ddd344df079292f588aba01e5f7d913f92da1e40e1bf9957cc7fb25a6"
              "3c09");
    EXPECT_EQ(privateDigest(kp),
              "9d0a42e95bc96d4381d3530efb568606694f9013b998a8b2bfbac199d985"
              "dcbb");
}

} // namespace
} // namespace monatt::crypto
